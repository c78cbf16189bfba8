"""Span recorder for the traced run, and the per-layer metrics derived from it.

The op process (``op.py --trace``) wraps the public functions of each
cablefield module from outside the library, keeps one span per call in
memory (name, start, end, parent, op id, counters) and writes them out when
the command returns.  The benchmark process reads the span files and derives
self times, counts, computed bytes and step-time percentiles.
"""

from __future__ import annotations

import functools
import json
import math
import os
import statistics
import time

# (module, attribute) pairs wrapped as plain functions.  Every reference to
# the same function object in any cablefield module is replaced, so that
# names imported with ``from .x import f`` are traced too.
FUNCTIONS = [
    ("cli", "main"),
    ("scenario", "load_config"),
    ("scenario", "build_scenario"),
    ("tline", "assemble_line"),
    ("geometry", "is_inside_tube"),
    ("maxwell", "build_grid"),
    ("maxwell", "assemble_curls"),
    ("maxwell", "surface_trace"),
    ("coupling", "assemble_P_el"),
    ("assembly", "assemble_system"),
    ("assembly", "build_closed_loop"),
    ("certify", "build_colocated_output"),
    ("certify", "wellposedness_constants"),
    ("sim", "run"),
    ("sim", "energy_ledger"),
    ("sim", "write_trajectory_csv"),
]

# (module, class, method, span name) wrapped on the class.
METHODS = [
    ("geometry", "CableCurve", "nearest_parameter_batch", "geometry.nearest_parameter_batch"),
    ("geometry", "GeometrySpec", "chart", "geometry.chart"),
    ("sim", "MidpointStepper", "__init__", "sim.factorize"),
    ("sim", "MidpointStepper", "step", "sim.step"),
]


class Recorder:
    """In-memory spans of one op; ``dump`` writes them as JSON."""

    def __init__(self, op_id: int):
        self.op_id = op_id
        self.spans = []
        self._stack = []

    def begin(self, name: str) -> dict:
        span = {"name": name, "op": self.op_id,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.monotonic(), "end": None, "counters": {}}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.monotonic()
        self._stack.pop()

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.spans, f)


def _lu_counts(args, result):
    lu = getattr(args[0], "_lu", None)
    if lu is None:
        return {}
    fill = lu.L.nnz + lu.U.nnz
    # values plus int32 row indices; column pointers are negligible
    return {"fill": fill, "bytes": fill * (lu.L.dtype.itemsize + 4)}


# Work counts measured where the work happens: span name -> f(args, result).
COUNTERS = {
    "geometry.is_inside_tube": lambda args, r: {"points": len(args[1])},
    "geometry.nearest_parameter_batch": lambda args, r: {"points": len(args[1])},
    "maxwell.build_grid": lambda args, r: {"free_edges": r.n_free_edges,
                                           "dof_faces": r.n_dof_faces,
                                           "band_edges": r.n_band_edges},
    "maxwell.surface_trace": lambda args, r: {"quad_points": r[0].shape[0] // 3,
                                              "nnz": r[0].nnz + r[1].nnz},
    "coupling.assemble_P_el": lambda args, r: {"nnz": r.Pel.nnz},
    "assembly.assemble_system": lambda args, r: {"unknowns": r.n, "J_nnz": r.J.nnz},
    "assembly.build_closed_loop": lambda args, r: {"A_nnz": r.A.nnz},
    "sim.factorize": _lu_counts,
    "sim.run": lambda args, r: {"records": len(r.times)},
    "sim.write_trajectory_csv": lambda args, r: {"bytes": os.path.getsize(args[1])},
}


def _traced(rec, name, fn):
    count = COUNTERS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = rec.begin(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span["counters"]["raised"] = type(exc).__name__
            raise
        finally:
            rec.end(span)
        if count is not None:
            # its own span, so that the caller's self time excludes it
            counting = rec.begin("trace.counters")
            span["counters"].update(count(args, result))
            rec.end(counting)
        return result
    return wrapper


def instrument(rec: Recorder, package) -> None:
    """Wrap the traced functions and methods of an imported cablefield."""
    import importlib

    modules = [importlib.import_module(f"{package.__name__}.{m}")
               for m in ("scenario", "tline", "geometry", "maxwell", "coupling",
                         "assembly", "certify", "sim", "cli")]
    modules.append(package)
    for mod_name, attr in FUNCTIONS:
        orig = getattr(importlib.import_module(f"{package.__name__}.{mod_name}"), attr)
        wrapped = _traced(rec, f"{mod_name}.{attr}", orig)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)
    for mod_name, cls_name, meth, span_name in METHODS:
        cls = getattr(importlib.import_module(f"{package.__name__}.{mod_name}"), cls_name)
        setattr(cls, meth, _traced(rec, span_name, getattr(cls, meth)))


# ---------------------------------------------------------------------------
# derivation (benchmark process)
# ---------------------------------------------------------------------------

def self_times(spans: list) -> list:
    """Duration of each span minus the part of its interval its children cover."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            children[s["parent"]].append(i)
    out = []
    for i, s in enumerate(spans):
        ivs = sorted((max(spans[c]["start"], s["start"]), min(spans[c]["end"], s["end"]))
                     for c in children[i])
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in ivs:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s["end"] - s["start"]) - covered)
    return out


PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9, 99.99)


def percentile_supported(n: int, q: float) -> bool:
    """A percentile is reported only with at least ten samples beyond it."""
    return n > 0 and n - math.ceil(q * n / 100.0) >= 10


def tail_percentile(n: int):
    """Highest of PERCENTILES with at least ten samples beyond it, or None."""
    ok = [q for q in PERCENTILES if percentile_supported(n, q)]
    return ok[-1] if ok else None


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q * len(sorted_values) / 100.0))
    return sorted_values[rank - 1]


# Per-layer metrics: name -> (unit, better).  The two *_bytes sizes
# (is_inside_tube.temp_bytes, lu_bytes) are computed from counts, not measured.
LAYER_METRICS = {
    "cablefield.import_s": ("s", "lower"),
    "scenario.build_scenario.self_s": ("s", "lower"),
    "tline.assemble_line.s": ("s", "lower"),
    "coupling.assemble_P_el.s": ("s", "lower"),
    "coupling.assemble_P_el.nnz": ("count", "lower"),
    "certify.build_colocated_output.s": ("s", "lower"),
    "certify.wellposedness_constants.s": ("s", "lower"),
    "geometry.is_inside_tube.s": ("s", "lower"),
    "geometry.is_inside_tube.points": ("count", "lower"),
    "geometry.is_inside_tube.temp_bytes": ("B", "lower"),
    "geometry.nearest_parameter_batch.s": ("s", "lower"),
    "geometry.nearest_parameter_batch.points": ("count", "lower"),
    "geometry.prefilter_hit_ratio": ("ratio", "lower"),
    "geometry.chart.s": ("s", "lower"),
    "maxwell.build_grid.self_s": ("s", "lower"),
    "maxwell.assemble_curls.s": ("s", "lower"),
    "maxwell.surface_trace.s": ("s", "lower"),
    "maxwell.surface_trace.quad_points": ("count", "lower"),
    "maxwell.surface_trace.nnz": ("count", "lower"),
    "maxwell.free_edges": ("count", "lower"),
    "maxwell.dof_faces": ("count", "lower"),
    "maxwell.band_edges": ("count", "lower"),
    "assembly.assemble_system.s": ("s", "lower"),
    "assembly.unknowns": ("count", "lower"),
    "assembly.J_nnz": ("count", "lower"),
    "assembly.build_closed_loop.s": ("s", "lower"),
    "assembly.A_nnz": ("count", "lower"),
    "sim.factorize.s": ("s", "lower"),
    "sim.lu_fill": ("count", "lower"),
    "sim.lu_bytes": ("B", "lower"),
    "sim.step.count": ("count", "higher"),
    "sim.step.s": ("s", "lower"),
    "sim.step.ms_p50": ("ms", "lower"),
    "sim.step.ms_p95": ("ms", "lower"),
    "sim.step.ms_tail": ("ms", "lower"),
    "sim.step.tail_pct": ("%", "higher"),
    "sim.step.samples": ("count", "higher"),
    "sim.step.failed": ("count", "lower"),
    "sim.record.s": ("s", "lower"),
    "sim.record.count": ("count", "higher"),
    "sim.energy_ledger.s": ("s", "lower"),
    "sim.write_trajectory_csv.s": ("s", "lower"),
    "sim.write_trajectory_csv.bytes": ("B", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.uncovered_s": ("s", "lower"),
}

IS_INSIDE_PROBES = 256      # curve probes per point in geometry.is_inside_tube


def op_metrics(spans: list, wall_s: float) -> tuple:
    """Per-layer metrics of one traced op and its step durations (seconds)."""
    selfs = self_times(spans)
    total, self_total, counters = {}, {}, {}
    for s, st in zip(spans, selfs):
        n = s["name"]
        total[n] = total.get(n, 0.0) + (s["end"] - s["start"])
        self_total[n] = self_total.get(n, 0.0) + st
        for key, value in s["counters"].items():
            if isinstance(value, (int, float)):
                counters[(n, key)] = counters.get((n, key), 0) + value

    def c(n, key):
        return counters.get((n, key), 0)

    tested = c("geometry.is_inside_tube", "points")
    newton = sum(s["counters"].get("points", 0) for s in spans
                 if s["name"] == "geometry.nearest_parameter_batch"
                 and s["parent"] is not None
                 and spans[s["parent"]]["name"] == "geometry.is_inside_tube")
    steps = [s["end"] - s["start"] for s in spans if s["name"] == "sim.step"]
    roots = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)

    m = {
        "cablefield.import_s": total.get("cablefield.import", 0.0),
        "scenario.build_scenario.self_s": self_total.get("scenario.build_scenario", 0.0),
        "tline.assemble_line.s": total.get("tline.assemble_line", 0.0),
        "coupling.assemble_P_el.s": total.get("coupling.assemble_P_el", 0.0),
        "coupling.assemble_P_el.nnz": c("coupling.assemble_P_el", "nnz"),
        "certify.build_colocated_output.s": total.get("certify.build_colocated_output", 0.0),
        "certify.wellposedness_constants.s": total.get("certify.wellposedness_constants", 0.0),
        "geometry.is_inside_tube.s": total.get("geometry.is_inside_tube", 0.0),
        "geometry.is_inside_tube.points": tested,
        "geometry.is_inside_tube.temp_bytes": tested * IS_INSIDE_PROBES * 3 * 8,
        "geometry.nearest_parameter_batch.s": total.get("geometry.nearest_parameter_batch", 0.0),
        "geometry.nearest_parameter_batch.points": c("geometry.nearest_parameter_batch", "points"),
        "geometry.prefilter_hit_ratio": newton / tested if tested else 0.0,
        "geometry.chart.s": total.get("geometry.chart", 0.0),
        "maxwell.build_grid.self_s": self_total.get("maxwell.build_grid", 0.0),
        "maxwell.assemble_curls.s": total.get("maxwell.assemble_curls", 0.0),
        "maxwell.surface_trace.s": total.get("maxwell.surface_trace", 0.0),
        "maxwell.surface_trace.quad_points": c("maxwell.surface_trace", "quad_points"),
        "maxwell.surface_trace.nnz": c("maxwell.surface_trace", "nnz"),
        "maxwell.free_edges": c("maxwell.build_grid", "free_edges"),
        "maxwell.dof_faces": c("maxwell.build_grid", "dof_faces"),
        "maxwell.band_edges": c("maxwell.build_grid", "band_edges"),
        "assembly.assemble_system.s": total.get("assembly.assemble_system", 0.0),
        "assembly.unknowns": c("assembly.assemble_system", "unknowns"),
        "assembly.J_nnz": c("assembly.assemble_system", "J_nnz"),
        "assembly.build_closed_loop.s": total.get("assembly.build_closed_loop", 0.0),
        "assembly.A_nnz": c("assembly.build_closed_loop", "A_nnz"),
        "sim.factorize.s": total.get("sim.factorize", 0.0),
        "sim.lu_fill": c("sim.factorize", "fill"),
        "sim.lu_bytes": c("sim.factorize", "bytes"),
        "sim.step.count": len(steps),
        "sim.step.s": sum(steps),
        "sim.step.failed": sum(1 for s in spans if s["name"] == "sim.step"
                               and s["counters"].get("raised") == "SolverError"),
        # self time of sim.run: everything run() does besides its traced
        # children (factorize, steps, ledger), i.e. recording and the loop
        "sim.record.s": self_total.get("sim.run", 0.0),
        "sim.record.count": c("sim.run", "records"),
        "sim.energy_ledger.s": total.get("sim.energy_ledger", 0.0),
        "sim.write_trajectory_csv.s": total.get("sim.write_trajectory_csv", 0.0),
        "sim.write_trajectory_csv.bytes": c("sim.write_trajectory_csv", "bytes"),
        "trace.uncovered_s": wall_s - roots,
    }
    return m, steps


def run_metrics(ops: list, untraced_walls: list) -> dict:
    """Per-layer metrics of a traced run: median over its traced ops, step
    percentiles over all their steps (``sim.step.samples`` of them), overhead
    against the untraced ops."""
    derived = [op_metrics(spans, wall) for spans, wall in ops]
    per_op = [m for m, _ in derived]
    steps = sorted(d for _, op_steps in derived for d in op_steps)
    out = {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}
    n = len(steps)
    tail = tail_percentile(n)
    out["sim.step.ms_p50"] = 1e3 * percentile(steps, 50.0) if percentile_supported(n, 50.0) else 0.0
    out["sim.step.ms_p95"] = 1e3 * percentile(steps, 95.0) if percentile_supported(n, 95.0) else 0.0
    out["sim.step.ms_tail"] = 1e3 * percentile(steps, tail) if tail is not None else 0.0
    out["sim.step.tail_pct"] = tail if tail is not None else 0.0
    out["sim.step.samples"] = n
    traced_wall = statistics.median(wall for _, wall in ops)
    out["trace.overhead_s"] = traced_wall - statistics.median(untraced_walls)
    return {k: out[k] for k in LAYER_METRICS}


def _outermost_time(spans: list, prefixes: tuple) -> float:
    """Time in spans named with one of ``prefixes``, not counting such spans
    nested inside another one."""
    total = 0.0
    for s in spans:
        if not s["name"].startswith(prefixes):
            continue
        parent = s["parent"]
        while parent is not None and not spans[parent]["name"].startswith(prefixes):
            parent = spans[parent]["parent"]
        if parent is None:
            total += s["end"] - s["start"]
    return total


def share_lines(spans: list, wall_s: float) -> list:
    """Where one traced op's wall time went, by the groups each workload stresses."""
    m, _ = op_metrics(spans, wall_s)
    groups = [
        ("geometry + maxwell spans", _outermost_time(spans, ("geometry.", "maxwell."))),
        ("sim.factorize.s + sim.step.s", m["sim.factorize.s"] + m["sim.step.s"]),
        ("sim.step.s + sim.record.s", m["sim.step.s"] + m["sim.record.s"]),
        ("cablefield.import_s", m["cablefield.import_s"]),
        ("trace.uncovered_s", m["trace.uncovered_s"]),
    ]
    return [f"{label}: {value:.3f} s = {100.0 * value / wall_s:.1f}% of traced wall_s "
            f"{wall_s:.3f} s" for label, value in groups]
