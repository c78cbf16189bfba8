"""
Command-line front end: validate | certify | simulate | converge.

Exit codes: 0 success, 1 validation/certification failure, 2 usage or
parse error, 3 runtime solver error.  Run as ``python -m cablefield``.

Every command reads the scenario the same way and runs validate's checks
on it (``scenario.read_scenario``, ``check_scenario``): a key that does not
parse exits 2, and a scenario that fails validation exits 1, whatever the
command.

With -v (--verbose) a command logs to stderr one line per build stage (its
seconds and the peak RSS after it, both from Scenario.build) and, for
simulate, one line each for the closed loop, the step solver's set-up
(with the BLAS thread count of the stepping), the stepping and the energy
ledger.  Without it the output is the same.

converge builds the scenario and prints four rows, each a study's errors
and their observed orders, in one thread; its one option, --levels L >= 1
(default 3; below 1 exits 2), sets the number of refinements:

    pmag_adjoint_vs_quadrature  the adjoint Pmag of assemble_P_el against
                                the ring-integral assemble_P_mag on cable
                                0's chart, refined L times in eta and theta
    trace_constant_field        the scenario's surface trace R_nu (the one
                                the assembly reads) on the constant fields,
                                against nu x H; no order, zero expected
    surface_quadrature          the chart quadrature of a smooth function on
                                cable 0, refined L + 1 times in eta
    ledger_residual             the energy ledger's residual relative to the
                                peak energy at dt, dt/2, ..., dt/2^(L-1)

A scenario without a cable or without a sim section exits 2.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

import numpy as np

from . import __version__
from .errors import CableFieldError, ConfigError, SolverError
from .scenario import build_scenario, check_scenario, load_config, read_scenario

EXIT_OK, EXIT_FAIL, EXIT_USAGE, EXIT_SOLVER = 0, 1, 2, 3

log = logging.getLogger("cablefield")


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    return str(obj)


def _emit(payload: dict, path: str = None):
    text = json.dumps(payload, indent=2, default=_json_default, sort_keys=True)
    if path:
        with open(path, "w") as f:
            f.write(text + "\n")
    print(text)


def _log_stages(build: dict, stages=("grid", "curls", "trace", "assembly")):
    """One log line per build stage: its seconds and the peak RSS after it."""
    for stage in stages:
        log.info("%-13s %7.3f s  peak RSS %.1f MB", stage.replace("_", " "),
                 build[f"{stage}_s"], build["peak_rss_mb"][stage])


def _log_run(traj):
    """Log lines of the step solver's set-up, the stepping and the ledger."""
    s = traj.solver
    if s["method"] == "direct":
        solve = f", inverse {s['inverse_bytes'] / 1e6:.3f} MB at fill {s['inverse_fill']:.3f}"
    else:
        solve = f", line block {s['line_block_unknowns']} unknowns"
    threads = "unknown" if s["blas_threads"] is None else s["blas_threads"]
    log.info("%-13s %7.3f s  %s, %d reduced unknowns%s, step operators %.3f MB, "
             "BLAS threads %s", "solver set-up", s["factor_s"], s["method"],
             s["reduced_unknowns"], solve, s["operator_bytes"] / 1e6, threads)
    iterations = (f", BiCGStab iterations mean {s['iterations_mean']:.1f} max "
                  f"{s['iterations_max']}" if s["method"] == "bicgstab" else "")
    log.info("%-13s %7.3f s  %d steps, %.1f steps/s, worst step residual %.2e%s",
             "stepping", s["stepping_s"], s["solves"], s["steps_per_s"],
             s["max_rel_residual"], iterations)
    led = traj.ledger
    log.info("%-13s max residual %.3e, energy drift %.3e, peak energy %.6g, "
             "final energy %.6g", "ledger", led["max_residual"], led["energy_drift"],
             led["peak_energy"], traj.energy[-1])


def _outdir(args) -> str:
    out = args.output_dir or "."
    os.makedirs(out, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args) -> int:
    config = load_config(args.scenario)
    report = check_scenario(read_scenario(config))
    _emit(report, os.path.join(_outdir(args), "validate.json") if args.output_dir else None)
    return EXIT_OK if report["passed"] else EXIT_FAIL


def cmd_certify(args) -> int:
    config = load_config(args.scenario)
    scn = build_scenario(config)
    _log_stages(scn.build)
    cert = scn.certificate()
    payload = cert.as_dict()
    payload["green_residual"] = scn.bundle.green_residual
    payload["build"] = scn.build
    _emit(payload, os.path.join(_outdir(args), "certificate.json") if args.output_dir else None)
    return EXIT_OK if cert.admissible else EXIT_FAIL


def cmd_simulate(args) -> int:
    from .sim import wp_bound_series, write_trajectory_csv

    config = load_config(args.scenario)
    if args.seed is not None:
        config["seed"] = args.seed
    scn = build_scenario(config)
    _log_stages(scn.build)
    traj = scn.simulate()
    cert = scn.certificate()
    _log_stages(scn.build, ("closed_loop",))
    _log_run(traj)
    out = _outdir(args)
    csv_path = os.path.join(out, "trajectory.csv")
    write_trajectory_csv(traj, csv_path)

    summary = {
        "final_energy": float(traj.energy[-1]),
        "peak_energy": float(traj.ledger["peak_energy"]),
        "max_ledger_residual": traj.ledger["max_residual"],
        "energy_drift": traj.ledger["energy_drift"],
        "records": int(len(traj.times)),
        "csv": csv_path,
        "solver": traj.solver,
        "build": scn.build,
    }
    if cert.strict and cert.c_t is not None:
        chk = wp_bound_series(traj, cert.c_t)
        summary["wp_bound_satisfied"] = chk["satisfied"]
        summary["wp_bound_max_ratio"] = chk["max_ratio"]
        summary["c_t"] = cert.c_t

    if args.export_operators:
        _export_operators(scn, out)
        summary["operators_dir"] = os.path.join(out, "operators")
    if args.export_fields:
        path = os.path.join(out, "fields.vtk")
        _export_fields_vtk(scn, traj.x_final, path)
        summary["fields_vtk"] = path

    _emit(summary, os.path.join(out, "summary.json"))
    return EXIT_OK


def cmd_converge(args) -> int:
    if args.levels < 1:
        raise ConfigError(f"--levels must be at least 1, got {args.levels}")
    config = load_config(args.scenario)
    if "sim" not in config or config["sim"] is None:
        raise ConfigError("converge needs a sim section for the ledger study")
    levels = args.levels
    scn = build_scenario(config)
    _log_stages(scn.build)

    if not scn.charts:
        raise ConfigError("converge studies the lateral surface of cable 0, and the "
                          "scenario has no cables")

    rows = []
    cable = scn.geometry.cables[0]
    rows += _coupling_convergence(cable, levels)
    rows += _trace_constant_row(scn)
    rows += _quadrature_convergence(cable, levels)
    rows += _ledger_convergence(scn, levels)

    width = max(len(r[0]) for r in rows)
    print(f"{'study':<{width}}  errors | observed orders")
    payload = []
    for name, errs, orders in rows:
        order_txt = ", ".join(f"{o:.2f}" for o in orders) if orders else "-"
        print(f"{name:<{width}}  " + "  ".join(f"{e:8.2e}" for e in errs)
              + f" | {order_txt}")
        payload.append({"study": name, "errors": list(errs), "orders": list(orders)})
    if args.output_dir:
        _emit({"rows": payload}, os.path.join(_outdir(args), "converge.json"))
    return EXIT_OK


def _orders(errs):
    out = []
    for a, b in zip(errs[:-1], errs[1:]):
        out.append(float(np.log2(a / b)) if b > 0 and a > 0 else float("inf"))
    return out


def _coupling_convergence(cable, levels):
    from .coupling import assemble_P_el, assemble_P_mag
    from .geometry import build_chart
    from .tline import build_line_grid

    diffs = []
    for j in range(levels):
        n, m = 8 * 2 ** j, 12 * 2 ** j
        chart = build_chart(cable, n, m)
        lg = build_line_grid(n, cable.line + 1)     # lines up to the cable's own
        pts = chart.quad_points()
        g = np.stack([np.sin(3 * pts[:, 1]), np.cos(2 * pts[:, 0]), pts[:, 2]],
                     axis=1).reshape(-1)
        Pq = assemble_P_mag([chart], lg)
        diffs.append(float(np.abs(assemble_P_el([chart], lg).Pmag @ g - Pq @ g).max()))
    return [("pmag_adjoint_vs_quadrature", diffs, _orders(diffs))]


def _trace_constant_row(scn):
    """The assembled surface trace R_nu maps each constant field H to
    nu x H exactly (single-row study, zero error expected)."""
    from .maxwell import surface_trace

    R_nu = surface_trace(scn.grid, scn.charts)
    axes = scn.grid.face_normal_axis(scn.grid.dof_faces)
    nu = -np.concatenate([ch.normal.reshape(-1, 3) for ch in scn.charts])
    errs = []
    for c in range(3):
        vals = (R_nu @ (axes == c).astype(float)).reshape(-1, 3)
        errs.append(float(np.abs(vals - np.cross(nu, np.eye(3)[c])).max()))
    return [("trace_constant_field", [max(e, 1e-300) for e in errs], [])]


def _quadrature_convergence(cable, levels):
    from .geometry import build_chart

    vals = []
    n_theta = 64         # fixed: isolates the second-order eta rule
    for j in range(levels + 1):
        chart = build_chart(cable, 8 * 2 ** j, n_theta)
        f = np.cos(2 * chart.points[..., 0] + chart.points[..., 1]
                   + 3 * chart.points[..., 2])
        vals.append(float((chart.weights * f).sum()))
    ref = vals[-1]
    errs = [max(abs(v - ref), 1e-300) for v in vals[:-1]]
    return [("surface_quadrature", errs, _orders(errs))]


def _ledger_convergence(scn, levels):
    import dataclasses

    from .sim import run

    loop = scn.closed_loop()
    x0 = scn.initial_state()
    errs = []
    for j in range(levels):
        cfg = dataclasses.replace(scn.sim_config, dt=scn.sim_config.dt / 2 ** j)
        led = run(loop, cfg, x0=x0).ledger
        errs.append(led["max_residual"] / max(led["peak_energy"], 1e-300))
    return [("ledger_residual", errs, _orders(errs))]


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def _export_operators(scn, out):
    import scipy.io as sio

    opdir = os.path.join(out, "operators")
    os.makedirs(opdir, exist_ok=True)
    mats = {"J": scn.bundle.J, "Rd": scn.bundle.Rd, "Hd": scn.bundle.Hd,
            "M": scn.bundle.M, "B1": scn.bundle.B1, "B2": scn.bundle.B2}
    if scn.coupling is not None:
        mats["Pel"] = scn.coupling.Pel
        mats["Pmag"] = scn.coupling.Pmag
    for name, mat in mats.items():
        sio.mmwrite(os.path.join(opdir, name), mat.tocoo())


def _export_fields_vtk(scn, x, path):
    """Cell-averaged |E| and |B| on the structured grid, legacy ASCII VTK."""
    grid = scn.grid
    lay = scn.bundle.layout
    e = scn.bundle.Hd @ x
    nx, ny, nz = grid.n

    def cell_average(values, ids, midf):
        acc = np.zeros(grid.n)
        cnt = np.zeros(grid.n)
        mids = midf(ids)
        idx = np.clip(((mids - grid.origin) / grid.h - 0.5).astype(int), 0,
                      np.array(grid.n) - 1)
        np.add.at(acc, (idx[:, 0], idx[:, 1], idx[:, 2]), np.abs(values))
        np.add.at(cnt, (idx[:, 0], idx[:, 1], idx[:, 2]), 1.0)
        return np.where(cnt > 0, acc / np.maximum(cnt, 1), 0.0)

    emag = cell_average(np.asarray(e[lay.sl_E]), grid.free_edges, grid.edge_midpoints)
    bmag = cell_average(np.asarray(x[lay.sl_H]), grid.dof_faces, grid.face_midpoints)

    with open(path, "w") as f:
        f.write("# vtk DataFile Version 3.0\ncablefield snapshot\nASCII\n")
        f.write("DATASET STRUCTURED_POINTS\n")
        f.write(f"DIMENSIONS {nx} {ny} {nz}\n")
        # point data: each cell average sits at its cell centre
        centre = grid.origin + 0.5 * grid.h
        f.write(f"ORIGIN {centre[0]} {centre[1]} {centre[2]}\n")
        f.write(f"SPACING {grid.h} {grid.h} {grid.h}\n")
        f.write(f"POINT_DATA {nx * ny * nz}\n")
        for name, data in (("E_mag", emag), ("B_mag", bmag)):
            f.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            for v in data.transpose(2, 1, 0).reshape(-1):
                f.write(f"{v:.9g}\n")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="cablefield",
                                description="coupled field-cable simulator")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)
    for name, fn in (("validate", cmd_validate), ("certify", cmd_certify),
                     ("simulate", cmd_simulate), ("converge", cmd_converge)):
        q = sub.add_parser(name)
        q.add_argument("scenario", help="path to the scenario JSON file")
        q.add_argument("--output-dir", default=None)
        q.add_argument("-v", "--verbose", action="store_true",
                       help="log each stage's time and peak memory to stderr")
        q.set_defaults(func=fn)
    simulate = sub.choices["simulate"]
    simulate.add_argument("--seed", type=int, default=None)
    simulate.add_argument("--export-operators", action="store_true")
    simulate.add_argument("--export-fields", action="store_true")
    converge = sub.choices["converge"]
    converge.add_argument("--levels", type=int, default=3)
    return p


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    if not args.verbose:
        return _run(args)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("cablefield: %(message)s"))
    log.addHandler(handler)
    log.setLevel(logging.INFO)
    try:
        return _run(args)
    finally:
        log.removeHandler(handler)
        log.setLevel(logging.NOTSET)


def _run(args) -> int:
    """The command's exit code; a CableFieldError is reported on stderr."""
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except CableFieldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
