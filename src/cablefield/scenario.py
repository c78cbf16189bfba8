"""
Scenario configuration: one JSON file -> assembled, certified system.

Schema (SI units).  Numeric entries are parsed against the shape the key
expects: a value of exactly that shape is real; the same shape with one
extra trailing axis of length 2 holds [re, im] pairs; where a scalar is
accepted (scalar materials, a 1-port amplitude) a bare number is real and
one [re, im] pair is complex.  Any other shape is a ConfigError naming the
key.  Hence a k = 2 material [[1.0, 0.1], [0.1, 1.0]] is a real 2 x 2
matrix, and a 2-port amplitude [0.5, 0.0] is two real amplitudes.

    seed                 int, default 0
    geometry.box         [[x0,x1],[y0,y1],[z0,z1]], meters
    geometry.collar_halfwidth   dimensionless s-range of the tube collar,
                          0 < eps <= 0.6527 (its cutoff reaches 2 eps / 3
                          past the cable ends), default 0.3
    geometry.cables      list of {type: segment|arc|helix|spline, radius,
                          line, ...type-specific parameters}
    line.k, line.n_cells, line.C/L/R/G   scalar or k x k matrix
    fields.grid          [nx, ny, nz]; fields.eps/mu/sigma scalar or
                          per-axis [ax, ay, az]; fields.n_theta
    boundary.W_B_inp     m x 4k; boundary.W_B_0 (2k-m) x 4k
    boundary.W_C_out     p x 4k, or "colocated" to derive the
                          co-located output from W_B; any output closes the
                          energy ledger, and the certificate reports whether
                          it is co-located; with a sim section p must equal
                          the m rows of W_B_inp, unless m = 0 (an
                          autonomous run)
    sim.dt, sim.T, sim.input {kind, amplitude (m,), freq, phase, t_on,
                          ramp, table_t, table_u}, sim.initial {kind: zero|
                          smooth|random|lift, seed, scale, V0},
                          sim.solver_tol (finite, > 0, default 1e-10),
                          sim.record_stride (a whole number >= 1, default 1)

All boundary matrices act on the stacked port (I_tot(0), I_tot(1), V(0),
-V(1)) and end up in one certify.PortLaw; see the assembly module docstring.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import assembly, certify, coupling, maxwell, sim, tline
from .errors import CableFieldError, ConfigError
from .geometry import (
    CircularArc,
    GeometrySpec,
    Helix,
    SplineCurve,
    StraightSegment,
    validate_geometry,
)


def parse_complex(value, shape, key: str, scalar: bool = False) -> np.ndarray:
    """Numeric entry of the expected ``shape`` (real), or of ``shape + (2,)``
    ([re, im] pairs, complex); with ``scalar`` also a number or one pair."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: cannot parse numeric entry {value!r}") from exc
    shapes = [tuple(shape)] + ([()] if scalar else [])
    if arr.shape in shapes:
        return arr
    if arr.shape[-1:] == (2,) and arr.shape[:-1] in shapes:
        return arr[..., 0] + 1j * arr[..., 1]
    raise ConfigError(f"{key} has shape {arr.shape}, expected {tuple(shape)} (real) "
                      f"or {tuple(shape) + (2,)} ([re, im] pairs)")


def _required(section: dict, key: str, where: str):
    """section[key]; a missing key is a ConfigError naming ``where.key``."""
    if key not in section:
        raise ConfigError(f"scenario is missing the required key {where}.{key}")
    return section[key]


def _number(section: dict, key: str, where: str, default=None, whole: bool = False):
    """section[key] as a float, or with ``whole`` as an int; ``default`` when
    the key is absent, which a None default makes required.  A value that
    float() cannot read, or a ``whole`` one with a fractional part, is a
    ConfigError naming ``where.key``."""
    value = _required(section, key, where) if default is None else section.get(key, default)
    name = f"{where}.{key}" if where else key
    try:
        number = float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} must be a number, got {value!r}") from exc
    return sim._whole_number(number, name) if whole else number


def _build_cable(entry: dict, where: str):
    def vec(key):
        return np.asarray(_required(entry, key, where), dtype=float)

    def num(key):
        return _number(entry, key, where)

    kind = entry.get("type", "segment")
    radius = num("radius")
    line = _number(entry, "line", where, 0, whole=True)
    if kind == "segment":
        return StraightSegment(p0=vec("p0"), direction=vec("direction"),
                               length=num("length"), radius=radius, line=line)
    if kind == "arc":
        return CircularArc(center=vec("center"), u=vec("u"), v=vec("v"),
                           rho=num("rho"), phi0=num("phi0"), phi1=num("phi1"),
                           radius=radius, line=line)
    if kind == "helix":
        return Helix(base=vec("base"), axis=vec("axis"), a=num("a"), b=num("b"),
                     turns=num("turns"), radius=radius,
                     phase=_number(entry, "phase", where, 0.0), line=line)
    if kind == "spline":
        return SplineCurve(points=vec("points"), radius=radius, line=line)
    raise ConfigError(f"unknown cable type {kind!r}")


def _sections(config: dict):
    """The four required sections of a scenario, in schema order."""
    for section in ("geometry", "line", "fields", "boundary"):
        if section not in config:
            raise ConfigError(f"scenario config is missing the {section!r} section")
    return config["geometry"], config["line"], config["fields"], config["boundary"]


def _geometry_spec(geo: dict) -> GeometrySpec:
    cables = [_build_cable(e, f"geometry.cables[{i}]")
              for i, e in enumerate(geo.get("cables", []))]
    return GeometrySpec(box=np.asarray(_required(geo, "box", "geometry"), dtype=float),
                        cables=cables,
                        collar_halfwidth=_number(geo, "collar_halfwidth", "geometry", 0.3))


def _port_matrix(bc: dict, key: str, k: int) -> np.ndarray:
    value = bc.get(key)
    if value is None or (isinstance(value, list) and len(value) == 0):
        return np.zeros((0, 4 * k))
    rows = len(value) if isinstance(value, list) else 1
    return parse_complex(value, (rows, 4 * k), f"boundary.{key}")


def _port_law_rows(bc: dict, k: int):
    """(W_B_inp, W_B_0) of the boundary section, stacking to 2k rows."""
    W_B_inp = _port_matrix(bc, "W_B_inp", k)
    W_B_0 = _port_matrix(bc, "W_B_0", k)
    if W_B_inp.shape[0] + W_B_0.shape[0] != 2 * k:
        raise ConfigError("boundary matrices must provide 2k rows in total "
                          f"(got {W_B_inp.shape[0]} + {W_B_0.shape[0]}, k={k})")
    return W_B_inp, W_B_0


def _sim_section(sc: dict, m: int, p: int, n_nodes: int):
    """(SimConfig, initial spec) of the sim section for a law with m inputs
    and p outputs; a given V0 is parsed against (n_nodes,) and must be real.

    The energy ledger pairs each input with its output (supply Re(u^H y)),
    so a law with inputs and p != m is a ConfigError here, before anything
    runs.  A law with no inputs (m = 0) runs autonomously: it supplies
    nothing, whatever its outputs.
    """
    if m and p != m:
        raise ConfigError(f"simulate needs as many outputs as inputs: the law has "
                          f"p = {p} outputs (boundary.W_C_out) and m = {m} inputs "
                          f"(boundary.W_B_inp)")
    inp = sc.get("input", {"kind": "zero"})
    amplitude = inp.get("amplitude")
    if amplitude is not None:
        amplitude = parse_complex(amplitude, (m,), "sim.input.amplitude", scalar=m == 1)
    signal = sim.InputSignal(
        m=m, kind=inp.get("kind", "zero"), amplitude=amplitude,
        freq=_number(inp, "freq", "sim.input", 1.0),
        phase=_number(inp, "phase", "sim.input", 0.0),
        t_on=_number(inp, "t_on", "sim.input", 0.0),
        ramp=_number(inp, "ramp", "sim.input", 0.05),
        table_t=inp.get("table_t"), table_u=inp.get("table_u"),
    )
    sim_cfg = sim.SimConfig(dt=_number(sc, "dt", "sim"), T=_number(sc, "T", "sim"),
                            input=signal,
                            solver_tol=_number(sc, "solver_tol", "sim", 1e-10),
                            record_stride=sc.get("record_stride", 1))
    initial_spec = dict(sc.get("initial", {"kind": "zero"}))
    v0 = initial_spec.get("V0")
    if v0 is not None and not isinstance(v0, str):
        v0 = parse_complex(v0, (n_nodes,), "sim.initial.V0")
        if np.iscomplexobj(v0) and np.any(v0.imag):
            raise ConfigError("sim.initial.V0 must be real: the lifted line voltage "
                              "has no imaginary part")
        initial_spec["V0"] = np.asarray(v0.real, dtype=float)
    return sim_cfg, initial_spec


def _line_material_kwargs(lc: dict, k: int) -> dict:
    return {name: parse_complex(lc[name], (k, k), f"line.{name}", scalar=True)
            for name in ("C", "L", "R", "G") if name in lc}


@dataclass
class Scenario:
    config: dict
    seed: int
    geometry: GeometrySpec
    line_grid: tline.LineGrid
    line_materials: tline.LineMaterials
    line_blocks: tline.LineBlocks
    grid: maxwell.YeeGrid
    field_materials: maxwell.FieldMaterials
    curls: maxwell.CurlPair
    charts: list
    coupling: Optional[coupling.CouplingMatrices]
    bundle: assembly.OperatorBundle
    law: certify.PortLaw
    sim_config: Optional[sim.SimConfig]
    initial_spec: dict = field(default_factory=dict)
    build: dict = field(default_factory=dict)   # stage timings, peak RSS, problem sizes

    @property
    def k(self):
        return self.line_grid.k

    def certificate(self) -> certify.Certificate:
        lo, hi = assembly.hodge_extremes(self.bundle)
        return certify.wellposedness_constants(self.law, lo, hi)

    def initial_state(self) -> np.ndarray:
        kind = self.initial_spec.get("kind", "zero")
        scale = _number(self.initial_spec, "scale", "sim.initial", 1.0)
        if kind == "zero":
            return sim.zero_state(self.bundle)
        if kind == "smooth":
            return sim.smooth_state(self.bundle, scale=scale)
        if kind == "random":
            return sim.random_state(self.bundle,
                                    seed=_number(self.initial_spec, "seed", "sim.initial",
                                                self.seed, whole=True),
                                    scale=scale)
        if kind == "lift":
            v0 = self.initial_spec.get("V0", "sine")
            if isinstance(v0, str):
                v0 = np.sin(np.pi * self.line_grid.nodes) * scale
            line = _number(self.initial_spec, "line", "sim.initial", 0, whole=True)
            return sim.lifted_state(self.bundle, self.grid, self.charts[line],
                                    self.line_grid, v0, line=line)
        raise ConfigError(f"unknown initial condition kind {kind!r}")

    def closed_loop(self) -> assembly.ClosedLoop:
        """The closed loop of the port law.  The first call also assembles J;
        build records the time (closed_loop_s) and the peak RSS after it
        (peak_rss_mb.closed_loop)."""
        clock = time.perf_counter()
        loop = assembly.build_closed_loop(self.bundle, self.law)
        self.build["closed_loop_s"] = time.perf_counter() - clock
        self.build["peak_rss_mb"]["closed_loop"] = _peak_rss_mb()
        return loop

    def simulate(self) -> sim.Trajectory:
        if self.sim_config is None:
            raise ConfigError("scenario has no sim section")
        return sim.run(self.closed_loop(), self.sim_config, x0=self.initial_state())


def load_config(path: str) -> dict:
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read scenario file {path}: {exc}") from exc


def _peak_rss_mb() -> float:
    """Peak resident memory of this process so far, in MB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (2.0 ** 20 if sys.platform == "darwin" else 1024.0)   # bytes on macOS


def build_scenario(config: dict) -> Scenario:
    geo, lc, fc, bc = _sections(config)
    seed = _number(config, "seed", "", 0, whole=True)
    spec = _geometry_spec(geo)
    cables = spec.cables

    k = _number(lc, "k", "line", whole=True)
    n_cells = _number(lc, "n_cells", "line", whole=True)
    line_grid = tline.build_line_grid(n_cells, k)
    lm = tline.LineMaterials(k=k, **_line_material_kwargs(lc, k))
    line_blocks = tline.assemble_line(lm, line_grid)

    clock = time.perf_counter()
    grid = maxwell.build_grid(spec, _required(fc, "grid", "fields"))
    build = {"grid_s": time.perf_counter() - clock}
    peak = {"grid": _peak_rss_mb()}
    fm = maxwell.FieldMaterials(eps=fc.get("eps", 1.0), mu=fc.get("mu", 1.0),
                                sigma=fc.get("sigma", 0.0))
    clock = time.perf_counter()
    curls = maxwell.assemble_curls(grid, fm)
    build["curls_s"] = time.perf_counter() - clock
    peak["curls"] = _peak_rss_mb()

    lines_used = sorted({c.line for c in cables})
    if any(l < 0 or l >= k for l in lines_used):
        raise ConfigError(f"cable line indices {lines_used} out of range for k={k}")
    if len(lines_used) != len(cables):
        raise ConfigError("two cables reference the same line component")

    n_theta = _number(fc, "n_theta", "fields", 16, whole=True)
    clock = time.perf_counter()
    charts = [spec.chart(i, n_eta=n_cells, n_theta=n_theta) for i in range(len(cables))]
    if cables:
        cp = coupling.assemble_P_el(charts, line_grid)
        R_nu = maxwell.surface_trace(grid, charts)
    else:
        cp, R_nu = None, None
    build["trace_s"] = time.perf_counter() - clock
    peak["trace"] = _peak_rss_mb()
    clock = time.perf_counter()
    bundle = assembly.assemble_system(line_blocks, curls, coupling=cp, R_nu=R_nu)
    build["assembly_s"] = time.perf_counter() - clock
    peak["assembly"] = _peak_rss_mb()
    build.update(peak_rss_mb=peak, free_edges=grid.n_free_edges, band_edges=grid.n_band_edges,
                 dof_faces=grid.n_dof_faces, quad_points=sum(ch.n_quad for ch in charts))

    W_B_inp, W_B_0 = _port_law_rows(bc, k)
    if bc.get("W_C_out", "colocated") == "colocated":
        W_C = certify.build_colocated_output(np.vstack([W_B_inp, W_B_0]))
        m = W_B_inp.shape[0]
        W_C_out = W_C[:m] if m > 0 else W_C
    else:
        W_C_out = _port_matrix(bc, "W_C_out", k)
    law = certify.PortLaw(W_B_inp=W_B_inp, W_B_0=W_B_0, W_C_out=W_C_out, k=k)

    sim_cfg = None
    initial_spec = {}
    if "sim" in config:
        sim_cfg, initial_spec = _sim_section(config["sim"], law.m, law.p, n_cells + 1)

    return Scenario(config=config, seed=seed, geometry=spec,
                    line_grid=line_grid, line_materials=lm, line_blocks=line_blocks,
                    grid=grid, field_materials=fm, curls=curls, charts=charts,
                    coupling=cp, bundle=bundle, law=law, sim_config=sim_cfg,
                    initial_spec=initial_spec, build=build)


def validate_scenario(config: dict) -> dict:
    """Assumption checks without full assembly; used by the validate command."""
    report = {"passed": True}
    geo, lc, fc, bc = _sections(config)
    _number(config, "seed", "", 0, whole=True)
    try:
        spec = _geometry_spec(geo)
        gr = validate_geometry(spec)
        report["geometry"] = {
            "passed": gr.passed,
            "disjoint_ok": gr.disjoint_ok,
            "min_pair_clearance": gr.min_pair_clearance,
            "cables": gr.cables,
        }
        report["passed"] &= gr.passed
    except CableFieldError as exc:
        raise ConfigError(f"geometry section invalid: {exc}") from exc

    k = _number(lc, "k", "line", whole=True)
    n_cells = _number(lc, "n_cells", "line", whole=True)
    lm = tline.LineMaterials(k=k, **_line_material_kwargs(lc, k))
    line_rep = tline.validate_line_materials(lm)
    report["line_materials"] = line_rep
    report["passed"] &= line_rep["passed"]

    _required(fc, "grid", "fields")
    _number(fc, "n_theta", "fields", 16, whole=True)
    fm = maxwell.FieldMaterials(eps=fc.get("eps", 1.0), mu=fc.get("mu", 1.0),
                                sigma=fc.get("sigma", 0.0))
    probe = np.asarray(np.meshgrid(*[np.linspace(*b, 5) for b in
                                     spec.box])).reshape(3, -1).T
    field_rep = maxwell.validate_field_materials(fm, probe)
    report["field_materials"] = field_rep
    report["passed"] &= field_rep["passed"]

    W_B_inp, W_B_0 = _port_law_rows(bc, k)
    m = W_B_inp.shape[0]
    if bc.get("W_C_out", "colocated") == "colocated":
        p = m or 2 * k          # build_scenario's co-located rows
    else:
        p = _port_matrix(bc, "W_C_out", k).shape[0]
    adm = certify.check_admissible(np.vstack([W_B_inp, W_B_0]))
    report["boundary"] = adm
    report["passed"] &= adm["admissible"]
    if "sim" in config:
        _, initial_spec = _sim_section(config["sim"], m, p, n_cells + 1)
        if initial_spec.get("kind") == "lift":
            # the check lift_voltage makes when simulate starts
            cable = spec.cables[_number(initial_spec, "line", "sim.initial", 0, whole=True)]
            coupling.check_lift_resolution(spec.collar_halfwidth, cable.radius,
                                           maxwell.grid_spacing(spec, fc["grid"]))
    report["passed"] = bool(report["passed"])
    return report
