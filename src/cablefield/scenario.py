"""
Scenario configuration: one JSON file -> assembled, certified system.

Every command reads a scenario the same way: ``read_scenario`` parses each
key typed (a key that does not parse is a ConfigError naming it, exit 2),
and ``check_scenario`` runs validate's checks on what it read.
``build_scenario`` runs them before it builds the grid, so a scenario that
fails validation exits 1 under every command.

Schema (SI units).  Numeric entries are parsed against the shape the key
expects: a value of exactly that shape is real; the same shape with one
extra trailing axis of length 2 holds [re, im] pairs; where a scalar is
accepted (scalar materials, a 1-port amplitude) a bare number is real and
one [re, im] pair is complex.  Any other shape is a ConfigError naming the
key.  Hence a k = 2 material [[1.0, 0.1], [0.1, 1.0]] is a real 2 x 2
matrix, and a 2-port amplitude [0.5, 0.0] is two real amplitudes.  The
geometry, the grid, the field materials and table_t are real only, and the
grid and every count are whole numbers.

    seed                 int, default 0
    geometry.box         [[x0,x1],[y0,y1],[z0,z1]], meters
    geometry.collar_halfwidth   dimensionless s-range of the tube collar,
                          0 < eps <= 0.6527 (its cutoff reaches 2 eps / 3
                          past the cable ends), default 0.3
    geometry.cables      list of {type: segment|arc|helix|spline, radius
                          (> 0), line, ...type-specific parameters}; each
                          cable carries its own line component
    line.k, line.n_cells (>= 3), line.C/L/R/G   scalar or k x k matrix,
                          default 1, 1, 0, 0
    fields.grid          [nx, ny, nz], each >= 1; fields.eps/mu/sigma scalar or
                          per-axis [ax, ay, az], default 1, 1, 0;
                          fields.n_theta (>= 1, default 16)
    boundary.W_B_inp     m x 4k; boundary.W_B_0 (2k-m) x 4k
    boundary.W_C_out     p x 4k, or "colocated" to derive the
                          co-located output from W_B; any output closes the
                          energy ledger, and the certificate reports whether
                          it is co-located; with a sim section p must equal
                          the m rows of W_B_inp, unless m = 0 (an
                          autonomous run)
    sim.dt, sim.T, sim.input {kind (default zero), amplitude (m,),
                          freq, phase, t_on, ramp (default 1, 0, 0, 0.05),
                          table_t, table_u}, sim.initial {kind: zero|
                          smooth|random|lift, seed, scale, line (the index
                          into geometry.cables of the cable a lift runs on),
                          V0},
                          sim.solver_tol (finite, > 0, default 1e-10),
                          sim.record_stride (a whole number >= 1, default 1)

Every material is constant: line.C/L/R/G hold along the whole line, and
fields.eps/mu/sigma over the whole box (``tline.LineMaterials``,
``maxwell.FieldMaterials``).

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
from .errors import CertificateError, ConfigError, GeometryError, MaterialsError
from .geometry import (
    CircularArc,
    GeometrySpec,
    Helix,
    SplineCurve,
    StraightSegment,
    validate_geometry,
)


def parse_complex(value, shape, key: str, scalar: bool = False, real: bool = False,
                  whole: bool = False) -> np.ndarray:
    """Numeric entry of the expected ``shape`` (real), or unless ``real`` of
    ``shape + (2,)`` ([re, im] pairs, complex); with ``scalar`` also a
    number or one pair.  A None in ``shape`` takes any length.  Every entry
    must be finite, and ``whole`` entries must be whole numbers and come
    back as ints.  Anything else is a ConfigError naming ``key``."""
    number = shape == ()
    try:
        arr = np.asarray(value)
    except ValueError:                 # a ragged list
        arr = np.asarray(None)
    kind = arr.dtype.kind
    if kind not in "iuf" and not (whole and kind == "b"):
        raise ConfigError(f"{key} must be {'a number' if number else 'numbers'}, got {value!r}")
    arr = arr.astype(float)
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{key} must be {'a finite number' if number else 'finite numbers'}, "
                          f"got {value!r}")
    shapes = [tuple(shape)] + ([()] if scalar else [])

    def fits(got):
        return any(len(got) == len(want) and all(w is None or g == w for g, w in zip(got, want))
                   for want in shapes)

    if fits(arr.shape):
        if whole and (kind == "b" or not np.all(arr == np.round(arr))):
            raise ConfigError(f"{key} must be {'a whole number' if number else 'whole numbers'}, "
                              f"got {value!r}")
        return arr.astype(int) if whole else arr
    if not real and arr.shape[-1:] == (2,) and fits(arr.shape[:-1]):
        return arr[..., 0] + 1j * arr[..., 1]
    if number:
        raise ConfigError(f"{key} must be a number, got {value!r}")
    expected = f"{tuple(shape)} (real)"
    if not real:
        expected += f" or {tuple(shape) + (2,)} ([re, im] pairs)"
    raise ConfigError(f"{key} has shape {arr.shape}, expected {expected}".replace("None", "n"))


def _required(section: dict, key: str, where: str):
    """section[key]; a missing key is a ConfigError naming ``where.key``."""
    if key not in section:
        raise ConfigError("scenario is missing the required key "
                          + (f"{where}.{key}" if where else key))
    return section[key]


def _object(section: dict, key: str, where: str, default=None) -> dict:
    """section[key], which must be a JSON object: ``default`` when the key is
    absent, which a None default makes required.  Anything but an object is
    a ConfigError naming ``where.key``."""
    value = _required(section, key, where) if default is None else section.get(key, default)
    if not isinstance(value, dict):
        name = f"{where}.{key}" if where else key
        raise ConfigError(f"{name} must be an object, got {value!r}")
    return value


def _number(section: dict, key: str, where: str, default=None, whole: bool = False):
    """section[key] as a float, or with ``whole`` as an int (``parse_complex``);
    ``default`` when the key is absent, which a None default makes required."""
    value = _required(section, key, where) if default is None else section.get(key, default)
    return parse_complex(value, (), f"{where}.{key}" if where else key, real=True,
                         whole=whole).item()


def _numbers(section: dict, keys, where: str, whole=()) -> dict:
    """The ``keys`` the section has, as ``_number`` reads them (``whole`` ones
    as ints): keywords that leave a constructor's defaults in place."""
    return {key: _number(section, key, where, whole=key in whole)
            for key in keys if key in section}


def _build_cable(entry: dict, where: str):
    def vec(key, shape=(3,)):
        return parse_complex(_required(entry, key, where), shape, f"{where}.{key}", real=True)

    def num(key):
        return _number(entry, key, where)

    kind = entry.get("type", "segment")
    radius = num("radius")
    if not radius > 0:
        raise ConfigError(f"{where}.radius must be positive, got {radius}")
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
        return SplineCurve(points=vec("points", (None, 3)), radius=radius, line=line)
    raise ConfigError(f"unknown cable type {kind!r}")


def _geometry_spec(geo: dict, k: int) -> GeometrySpec:
    """The geometry section; each cable carries its own one of the k lines."""
    entries = geo.get("cables", [])
    if not (isinstance(entries, list) and all(isinstance(e, dict) for e in entries)):
        raise ConfigError(f"geometry.cables must be a list of cable objects, got {entries!r}")
    cables = [_build_cable(e, f"geometry.cables[{i}]") for i, e in enumerate(entries)]
    lines_used = sorted({c.line for c in cables})
    if any(l < 0 or l >= k for l in lines_used):
        raise ConfigError(f"cable line indices {lines_used} out of range for k={k}")
    if len(lines_used) != len(cables):
        raise ConfigError("two cables reference the same line component")
    return GeometrySpec(box=parse_complex(_required(geo, "box", "geometry"), (3, 2),
                                          "geometry.box", real=True),
                        cables=cables, **_numbers(geo, ("collar_halfwidth",), "geometry"))


def _port_matrix(bc: dict, key: str, k: int) -> np.ndarray:
    value = bc.get(key)
    if value is None or (isinstance(value, list) and len(value) == 0):
        return np.zeros((0, 4 * k))
    return parse_complex(value, (None, 4 * k), f"boundary.{key}")


def _sim_section(sc: dict, m: int, p: int):
    """The SimConfig of the sim section for a law with m inputs and p outputs.
    The ledger's supply Re(u^H y) pairs each input with an output, so p != m
    is a ConfigError, unless the law has no inputs (m = 0): it then runs
    autonomously and supplies nothing, whatever its outputs."""
    if m and p != m:
        raise ConfigError(f"simulate needs as many outputs as inputs: the law has "
                          f"p = {p} outputs (boundary.W_C_out) and m = {m} inputs "
                          f"(boundary.W_B_inp)")
    inp = _object(sc, "input", "sim", {})
    amplitude = inp.get("amplitude")
    if amplitude is not None:
        amplitude = parse_complex(amplitude, (m,), "sim.input.amplitude", scalar=m == 1)
    tables = {key: parse_complex(inp[key], shape, f"sim.input.{key}", real=key == "table_t")
              for key, shape in (("table_t", (None,)), ("table_u", (None, m))) if key in inp}
    signal = sim.InputSignal(
        m=m, kind=inp.get("kind", sim.InputSignal.kind), amplitude=amplitude, **tables,
        **_numbers(inp, ("freq", "phase", "t_on", "ramp"), "sim.input"))
    return sim.SimConfig(dt=_number(sc, "dt", "sim"), T=_number(sc, "T", "sim"),
                         input=signal,
                         **_numbers(sc, ("solver_tol", "record_stride"), "sim",
                                    whole=("record_stride",)))


def _initial(init: dict, seed: int, n_nodes: int, n_cables: int) -> dict:
    """The sim.initial section, typed: kind, scale, seed (the scenario's by
    default), line (the cable a lift runs on) and V0, a lift's nodal
    voltages, real (the lifted voltage has no imaginary part) and None for
    the default sine."""
    kind = init.get("kind", "zero")
    if kind not in ("zero", "smooth", "random", "lift"):
        raise ConfigError(f"unknown initial condition kind {kind!r}")
    line = _number(init, "line", "sim.initial", 0, whole=True)
    if kind == "lift" and not 0 <= line < n_cables:
        raise ConfigError(f"sim.initial.line = {line} names none of the {n_cables} cables")
    v0 = init.get("V0")
    return {"kind": kind, "scale": _number(init, "scale", "sim.initial", 1.0),
            "seed": _number(init, "seed", "sim.initial", seed, whole=True), "line": line,
            "V0": None if v0 is None else parse_complex(v0, (n_nodes,), "sim.initial.V0",
                                                        real=True)}


@dataclass
class ScenarioSpec:
    """A scenario read and typed, before anything is built.  W_C_out is None
    for the co-located output; initial is the typed sim.initial section."""

    geometry: GeometrySpec
    k: int
    n_cells: int
    line_materials: tline.LineMaterials
    grid_shape: tuple
    field_materials: maxwell.FieldMaterials
    n_theta: int
    W_B_inp: np.ndarray
    W_B_0: np.ndarray
    W_C_out: Optional[np.ndarray]
    sim_config: Optional[sim.SimConfig]
    initial: dict


def read_scenario(config: dict) -> ScenarioSpec:
    """Every key of a scenario, parsed; a key that does not parse, or that
    contradicts another, is a ConfigError naming it."""
    geo, lc, fc, bc = (_object(config, section, "")
                       for section in ("geometry", "line", "fields", "boundary"))
    seed = _number(config, "seed", "", 0, whole=True)
    k = _number(lc, "k", "line", whole=True)
    n_cells = _number(lc, "n_cells", "line", whole=True)
    if n_cells < 3:
        raise ConfigError(f"line.n_cells must be at least 3 (the boundary closures "
                          f"need 3 cells), got {n_cells}")
    grid_shape = tuple(parse_complex(_required(fc, "grid", "fields"), (3,), "fields.grid",
                                     real=True, whole=True).tolist())
    if min(grid_shape) < 1:
        raise ConfigError(f"fields.grid entries must be at least 1, got {list(grid_shape)}")
    n_theta = _number(fc, "n_theta", "fields", 16, whole=True)
    if n_theta < 1:
        raise ConfigError(f"fields.n_theta must be at least 1, got {n_theta}")
    geometry = _geometry_spec(geo, k)
    W_B_inp, W_B_0 = _port_matrix(bc, "W_B_inp", k), _port_matrix(bc, "W_B_0", k)
    m = W_B_inp.shape[0]
    if m + W_B_0.shape[0] != 2 * k:
        raise ConfigError("boundary matrices must provide 2k rows in total "
                          f"(got {m} + {W_B_0.shape[0]}, k={k})")
    W_C_out = None
    if bc.get("W_C_out", "colocated") != "colocated":
        W_C_out = _port_matrix(bc, "W_C_out", k)
    sc = None if config.get("sim") is None else _object(config, "sim", "")
    return ScenarioSpec(
        geometry=geometry, k=k, n_cells=n_cells,
        line_materials=tline.LineMaterials(k=k, **{
            name: parse_complex(lc[name], (k, k), f"line.{name}", scalar=True)
            for name in ("C", "L", "R", "G") if name in lc}),
        grid_shape=grid_shape,
        field_materials=maxwell.FieldMaterials(**{
            name: parse_complex(fc[name], (3,), f"fields.{name}", scalar=True, real=True)
            for name in ("eps", "mu", "sigma") if name in fc}),
        n_theta=n_theta,
        W_B_inp=W_B_inp, W_B_0=W_B_0, W_C_out=W_C_out,
        # the co-located output has m rows, or 2k without inputs
        sim_config=None if sc is None else _sim_section(
            sc, m, (m or 2 * k) if W_C_out is None else len(W_C_out)),
        initial=_initial({} if sc is None else _object(sc, "initial", "sim", {}), seed,
                         n_cells + 1, len(geometry.cables)))


# validate's checks: the report key of each, the key of its verdict, and the
# error build_scenario raises when it fails
_CHECKS = (("geometry", "passed", GeometryError),
           ("line_materials", "passed", MaterialsError),
           ("field_materials", "passed", MaterialsError),
           ("boundary", "admissible", CertificateError))


def check_scenario(spec: ScenarioSpec) -> dict:
    """validate's report on a scenario read: each check of ``_CHECKS`` and
    whether all passed.  Unequal grid spacings raise the GridError that
    build_grid would raise, and a lift the grid cannot carry the
    CouplingError that the lift itself would raise."""
    report = {
        "geometry": validate_geometry(spec.geometry),
        "line_materials": tline.validate_line_materials(spec.line_materials),
        "field_materials": maxwell.validate_field_materials(spec.field_materials),
        "boundary": certify.check_admissible(np.vstack([spec.W_B_inp, spec.W_B_0])),
    }
    report["passed"] = all(bool(report[name][verdict]) for name, verdict, _ in _CHECKS)
    h = maxwell.grid_spacing(spec.geometry, spec.grid_shape)
    if spec.initial["kind"] == "lift":
        cable = spec.geometry.cables[spec.initial["line"]]
        coupling.check_lift_resolution(spec.geometry.collar_halfwidth, cable.radius, h)
    return report


@dataclass
class Scenario(ScenarioSpec):
    """A scenario read, checked and built (``build_scenario``)."""

    line_grid: tline.LineGrid
    grid: maxwell.YeeGrid
    curls: maxwell.CurlPair
    charts: list
    coupling: Optional[coupling.CouplingMatrices]
    bundle: assembly.OperatorBundle
    law: certify.PortLaw
    build: dict = field(default_factory=dict)   # stage timings, peak RSS, problem sizes

    def certificate(self) -> certify.Certificate:
        lo, hi = assembly.hodge_extremes(self.bundle)
        return certify.wellposedness_constants(self.law, lo, hi)

    def initial_state(self) -> np.ndarray:
        init = self.initial
        kind, scale = init["kind"], init["scale"]
        if kind == "zero":
            return sim.zero_state(self.bundle)
        if kind == "smooth":
            return sim.smooth_state(self.bundle, scale=scale)
        if kind == "random":
            return sim.random_state(self.bundle, seed=init["seed"], scale=scale)
        v0 = init["V0"]
        if v0 is None:
            v0 = np.sin(np.pi * self.line_grid.nodes) * scale
        return sim.lifted_state(self.bundle, self.charts[init["line"]], v0)

    def closed_loop(self) -> assembly.ClosedLoop:
        """The closed loop of the port law.  The first call also assembles
        Rd, Hd and Lg_state (J is assembled for it and dropped); build
        records the time (closed_loop_s) and the peak RSS after it
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
    """The scenario file's JSON object; a file that cannot be read, or that
    holds anything else, is a ConfigError."""
    try:
        with open(path) as f:
            config = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read scenario file {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"scenario file {path} must hold a JSON object, got {config!r}")
    return config


def _peak_rss_mb() -> float:
    """Peak resident memory of this process so far, in MB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (2.0 ** 20 if sys.platform == "darwin" else 1024.0)   # bytes on macOS


def build_scenario(config: dict) -> Scenario:
    """The scenario read, checked and built.  A failed check of validate
    raises its typed error (exit 1), naming the check, before the grid is
    built."""
    spec = read_scenario(config)
    report = check_scenario(spec)
    for name, verdict, error in _CHECKS:
        if not report[name][verdict]:
            raise error(f"the {name} check failed, the scenario is not admissible: "
                        f"{report[name]}")
    geometry, n_cells = spec.geometry, spec.n_cells
    line_grid = tline.build_line_grid(n_cells, spec.k)
    line_blocks = tline.assemble_line(spec.line_materials, line_grid)

    clock = time.perf_counter()
    grid = maxwell.build_grid(geometry, spec.grid_shape)
    build = {"grid_s": time.perf_counter() - clock}
    peak = {"grid": _peak_rss_mb()}
    clock = time.perf_counter()
    curls = maxwell.assemble_curls(grid, spec.field_materials)
    build["curls_s"] = time.perf_counter() - clock
    peak["curls"] = _peak_rss_mb()

    clock = time.perf_counter()
    charts = [geometry.chart(i, n_eta=n_cells, n_theta=spec.n_theta)
              for i in range(len(geometry.cables))]
    if charts:
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

    W_C_out, m = spec.W_C_out, spec.W_B_inp.shape[0]
    if W_C_out is None:     # the co-located rows of the m inputs, all 2k without inputs
        W_C_out = certify.build_colocated_output(np.vstack([spec.W_B_inp, spec.W_B_0]))[:m or None]
    law = certify.PortLaw(W_B_inp=spec.W_B_inp, W_B_0=spec.W_B_0, W_C_out=W_C_out, k=spec.k)
    return Scenario(**vars(spec), line_grid=line_grid, grid=grid, curls=curls, charts=charts,
                    coupling=cp, bundle=bundle, law=law, build=build)
