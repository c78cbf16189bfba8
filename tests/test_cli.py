import copy
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from cablefield import sim
from cablefield.cli import EXIT_FAIL, EXIT_OK, EXIT_USAGE, main
from cablefield.scenario import build_scenario


def write(tmp_path, config, name="scn.json"):
    p = tmp_path / name
    p.write_text(json.dumps(config))
    return str(p)


def test_validate_passes_on_shipped_scenario(scenario_path, capsys):
    assert main(["validate", scenario_path]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["passed"]


def test_validate_fails_on_degenerate_capacitance(tmp_path, scenario_config, capsys):
    scenario_config["line"]["C"] = 0.0
    assert main(["validate", write(tmp_path, scenario_config)]) == EXIT_FAIL
    report = json.loads(capsys.readouterr().out)
    assert not report["line_materials"]["checks"]["C"]


def test_malformed_file_exits_2(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{ not json")
    assert main(["validate", str(p)]) == EXIT_USAGE


def test_option_of_another_subcommand_exits_2(scenario_path, capsys):
    # --seed is read by simulate only; validate must not accept and ignore it
    with pytest.raises(SystemExit) as exc:
        main(["validate", scenario_path, "--seed", "1"])
    assert exc.value.code == EXIT_USAGE


def test_missing_section_exits_2(tmp_path, scenario_config):
    del scenario_config["fields"]
    assert main(["certify", write(tmp_path, scenario_config)]) == EXIT_USAGE


def test_certify_emits_constants(scenario_path, capsys):
    assert main(["certify", scenario_path]) == EXIT_OK
    cert = json.loads(capsys.readouterr().out)
    assert cert["admissible"] and cert["strict"]
    assert cert["delta"] == pytest.approx(2.0)
    assert cert["green_residual"] <= 1e-12
    assert cert["c_t"] >= 1.0
    check_build_report(cert["build"])


def test_certify_verbose_logs_each_build_stage(scenario_path, capsys):
    assert main(["certify", scenario_path]) == EXIT_OK
    quiet = capsys.readouterr()
    assert quiet.err == ""
    assert main(["certify", "-v", scenario_path]) == EXIT_OK
    loud = capsys.readouterr()
    cert = json.loads(loud.out)
    # the same report on stdout; on stderr one line per build stage, with
    # its seconds and peak RSS as the report's build section holds them
    assert set(cert) == set(json.loads(quiet.out))
    build = cert["build"]
    lines = loud.err.splitlines()
    assert len(lines) == len(BUILD_STAGES)
    for line, stage in zip(lines, ("grid", "curls", "trace", "assembly")):
        assert line.startswith(f"cablefield: {stage} ")
        assert f"{build[stage + '_s']:.3f} s" in line
        assert f"peak RSS {build['peak_rss_mb'][stage]:.1f} MB" in line


BUILD_STAGES = {"grid_s", "curls_s", "trace_s", "assembly_s"}


def check_build_report(build, simulated=False):
    # straight_pair_config at scale 1: two 12 x 12 charts; simulate also
    # builds the closed loop, and certify does not
    stages = BUILD_STAGES | ({"closed_loop_s"} if simulated else set())
    assert set(build) == stages | {"peak_rss_mb", "free_edges", "band_edges", "dof_faces",
                                   "quad_points"}
    assert all(build[k] > 0.0 for k in stages)
    # peak RSS read after each stage, in stage order: never decreasing
    peaks = build["peak_rss_mb"]
    assert set(peaks) == {"grid", "curls", "trace", "assembly"} | (
        {"closed_loop"} if simulated else set())
    assert 0.0 < peaks["grid"] <= peaks["curls"] <= peaks["trace"] <= peaks["assembly"]
    assert not simulated or peaks["assembly"] <= peaks["closed_loop"]
    assert build["quad_points"] == 2 * 12 * 12
    assert build["dof_faces"] == 7456
    assert build["free_edges"] > 0 and build["band_edges"] > 0


def parent(config, dotted):
    """(the section holding one dotted key such as geometry.cables[0].radius,
    the key's last part)."""
    *path, last = dotted.replace("[", ".").replace("]", "").split(".")
    for part in path:
        config = config[int(part)] if part.isdigit() else config[part]
    return config, last


def drop(config, dotted):
    """Delete one dotted key."""
    section, last = parent(config, dotted)
    del section[last]


@pytest.mark.parametrize("command", ["validate", "simulate"])
@pytest.mark.parametrize("key", ["sim.dt", "sim.T", "line.k", "line.n_cells", "fields.grid",
                                 "geometry.box", "geometry.cables[0].radius",
                                 "geometry.cables[1].p0", "geometry.cables[1].length"])
def test_missing_required_key_exits_2(tmp_path, scenario_config, capsys, command, key):
    drop(scenario_config, key)
    path = write(tmp_path, scenario_config)
    assert main([command, path, "--output-dir", str(tmp_path / "out")]) == EXIT_USAGE
    assert f"missing the required key {key}" in capsys.readouterr().err


def test_certify_rejects_sigma_negative_law(tmp_path, scenario_config, capsys):
    k = scenario_config["line"]["k"]
    W = np.hstack([np.eye(2 * k), -np.eye(2 * k)])
    scenario_config["boundary"]["W_B_inp"] = W.tolist()
    assert main(["certify", write(tmp_path, scenario_config)]) == EXIT_FAIL


def test_simulate_rejects_sigma_negative_law(tmp_path, scenario_config, capsys):
    k = scenario_config["line"]["k"]
    W = np.hstack([np.eye(2 * k), -np.eye(2 * k)])
    scenario_config["boundary"]["W_B_inp"] = W.tolist()
    assert main(["simulate", write(tmp_path, scenario_config),
                 "--output-dir", str(tmp_path / "out")]) == EXIT_FAIL
    assert "not admissible" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value", [
    ("sim", "input", {"kind": "sine", "amplitude": [0.3, 0.0, 0.1]}),
    ("boundary", "W_C_out", np.eye(4, 7).tolist()),
])
def test_validate_rejects_what_simulate_rejects(tmp_path, scenario_config, capsys,
                                                section, key, value):
    scenario_config[section][key] = value
    path = write(tmp_path, scenario_config)
    assert main(["validate", path]) == EXIT_USAGE
    validate_err = capsys.readouterr().err
    assert main(["simulate", path, "--output-dir", str(tmp_path / "out")]) == EXIT_USAGE
    assert capsys.readouterr().err == validate_err


SIGMA_NEGATIVE = np.hstack([np.eye(4), -np.eye(4)]).tolist()


@pytest.mark.parametrize("key, value", [
    ("geometry.cables[1].p0", [0.85, 0.5, 0.4]),     # the two collars overlap
    ("geometry.cables[0].length", 1.35),             # a collar leaves the box
    ("line.C", 0.0),
    ("boundary.W_B_inp", SIGMA_NEGATIVE),
    ("sim.initial", {"kind": "lift"}),               # collar 0.06 m, h = 0.1
    ("fields.grid", [2, 2, 2]),                      # spacings 0.8, 0.5, 0.9
])
def test_every_command_refuses_what_validate_refuses(tmp_path, scenario_config, capsys,
                                                     monkeypatch, key, value):
    # certify and simulate used to exit 0 on both geometries: the build never
    # ran validate's geometry check.  Now every command refuses before the
    # grid is built.
    import cablefield.maxwell as maxwell

    def refuse(*args):
        raise AssertionError("build_grid ran on a scenario that fails validation")

    put(scenario_config, key, value)
    path = write(tmp_path, scenario_config)
    assert main(["validate", path]) == EXIT_FAIL
    capsys.readouterr()
    monkeypatch.setattr(maxwell, "build_grid", refuse)
    for command in ("certify", "simulate", "converge"):
        assert main([command, path, "--output-dir", str(tmp_path / "out")]) == EXIT_FAIL
        err = capsys.readouterr().err
        assert ("not admissible" in err or "thinner than two grid cells" in err
                or "unequal spacings" in err), command


def test_certify_builds_the_completion_once(scenario_path, monkeypatch, capsys):
    import cablefield.certify as certify

    calls = []
    build = certify.build_colocated_output

    def counted(W_B):
        calls.append(1)
        return build(W_B)

    monkeypatch.setattr(certify, "build_colocated_output", counted)
    assert main(["certify", scenario_path]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["colocated"] is True
    assert len(calls) == 1


def test_certify_never_assembles_the_operators(scenario_path, monkeypatch, capsys):
    from cablefield.assembly import OperatorBundle

    for name in ("J", "Rd", "Hd", "M"):
        def refuse(bundle, name=name):
            raise AssertionError(f"certify read OperatorBundle.{name}")

        monkeypatch.setattr(OperatorBundle, name, property(refuse))
    assert main(["certify", scenario_path]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["green_residual"] <= 1e-12


def single_cable_config(dt, T):
    """The lossy single-cable scenario of the benchmark (perfbench/workloads.py)."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._single_config(dt, T)


def test_T_must_be_a_whole_number_of_steps(tmp_path, capsys):
    # T = 0.1 is 2.5 steps of dt = 0.04: a ConfigError (exit 2) that names
    # the nearest whole-step T, in validate and in simulate, not a run that
    # silently ends early
    path = write(tmp_path, single_cable_config(0.04, 0.1))
    assert main(["validate", path]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "T = 0.1" in err and "dt = 0.04" in err
    assert f"nearest whole-step T is {round(0.1 / 0.04) * 0.04:g}" in err
    assert main(["simulate", path, "--output-dir", str(tmp_path / "out")]) == EXIT_USAGE
    assert capsys.readouterr().err == err
    assert not (tmp_path / "out").exists()


def test_output_count_must_match_input_count(tmp_path, capsys):
    # the ledger's supply pairs y with u: three outputs for two inputs is a
    # ConfigError (exit 2) in validate and in simulate, not a numpy error
    config = single_cable_config(0.01, 0.05)
    config["boundary"]["W_C_out"] = np.eye(3, 4).tolist()
    path = write(tmp_path, config)
    assert main(["validate", path]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "p = 3 outputs" in err and "m = 2 inputs" in err
    assert main(["simulate", path, "--output-dir", str(tmp_path / "out")]) == EXIT_USAGE
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("key, value, message", [
    ("solver_tol", 0.0, "sim.solver_tol must be > 0"),
    ("solver_tol", -1e-10, "sim.solver_tol must be > 0"),
    ("record_stride", 2.5, "sim.record_stride must be a whole number"),
    ("record_stride", True, "sim.record_stride must be a whole number"),
    ("dt", float("nan"), "sim.dt must be a finite number"),
    ("T", float("nan"), "sim.T must be a finite number"),
    ("input.freq", float("nan"), "sim.input.freq must be a finite number"),
    ("initial.scale", float("inf"), "sim.initial.scale must be a finite number"),
])
def test_sim_numbers_are_checked_by_key(tmp_path, capsys, key, value, message):
    # a tolerance <= 0 used to fail every step's residual check after the
    # whole build, a stride of 2.5 or true was truncated to 2 or read as 1,
    # a NaN dt or T (json reads the NaN literal) escaped as ValueError, and
    # a NaN frequency or an infinite initial scale passed validate to end
    # simulate in a DomainError or a NaN residual
    config = single_cable_config(0.01, 0.05)
    put(config, f"sim.{key}", value)
    path = write(tmp_path, config)
    assert main(["validate", path]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert message in err
    assert main(["simulate", path, "--output-dir", str(tmp_path / "out")]) == EXIT_USAGE
    assert capsys.readouterr().err == err


def put(config, dotted, value):
    """Set one dotted key."""
    section, last = parent(config, dotted)
    section[last] = value


@pytest.mark.parametrize("command", ["validate", "certify"])
@pytest.mark.parametrize("key, value", [
    ("sim.dt", "abc"), ("sim.T", [1, 2]), ("sim.input.freq", "x"), ("sim.solver_tol", "x"),
    ("line.n_cells", "x"), ("geometry.collar_halfwidth", "x"),
    ("geometry.cables[0].radius", "x"), ("fields.n_theta", "x"), ("seed", "x"),
])
def test_a_non_number_exits_2_naming_its_key(tmp_path, capsys, command, key, value):
    # each used to escape as a ValueError or TypeError traceback, and
    # fields.n_theta and seed passed validate to crash certify
    config = single_cable_config(0.01, 0.05)
    put(config, key, value)
    assert main([command, write(tmp_path, config)]) == EXIT_USAGE
    assert f"{key} must be a number, got {value!r}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "simulate"])
@pytest.mark.parametrize("value", ["x", ["x"], {"type": "segment"}])
def test_cables_that_are_not_a_list_of_objects_exit_2(tmp_path, capsys, command, value):
    # a string used to escape as a raw AttributeError from the cable reader
    config = single_cable_config(0.01, 0.05)
    config["geometry"]["cables"] = value
    path = write(tmp_path, config)
    assert main([command, path, "--output-dir", str(tmp_path / "out")]) == EXIT_USAGE
    assert "geometry.cables must be a list of cable objects" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "certify", "simulate", "converge"])
@pytest.mark.parametrize("key, value", [
    (None, 5), (None, None), ("line", 5), ("fields", 7), ("geometry", "g"), ("sim", "x"),
    ("boundary", 3), ("sim.input", 4), ("sim.initial", "a"),
])
def test_a_section_that_is_not_an_object_exits_2_naming_it(tmp_path, capsys, command, key,
                                                            value):
    # each used to escape as a raw TypeError or AttributeError traceback
    config = single_cable_config(0.01, 0.05)
    if key is None:                 # the whole file
        config = value
    else:
        put(config, key, value)
    path = write(tmp_path, config)
    assert main([command, path, "--output-dir", str(tmp_path / "out")]) == EXIT_USAGE
    err = capsys.readouterr().err
    if key is None:
        assert f"scenario file {path} must hold a JSON object, got {value!r}" in err
    else:
        assert f"error: {key} must be an object, got {value!r}" in err


TABLE = {"kind": "table", "table_t": ["x"], "table_u": [[0.0, 0.0]]}


@pytest.mark.parametrize("command", ["validate", "certify"])
@pytest.mark.parametrize("key, value", [
    ("geometry.box", "x"), ("geometry.cables[0].p0", "x"), ("fields.grid", ["a", 10, 18]),
    ("fields.grid", [16.5, 10, 18]), ("fields.grid", [16, 10]), ("fields.eps", "x"),
    ("sim.input.table_t", TABLE),
])
def test_an_array_key_that_does_not_parse_exits_2_naming_it(tmp_path, capsys, command,
                                                             key, value):
    # each used to escape as a raw ValueError, to pass validate and crash
    # certify, or (16.5 cells) to be truncated silently
    config = single_cable_config(0.01, 0.05)
    if key == "sim.input.table_t":
        config["sim"]["input"] = value
    else:
        put(config, key, value)
    assert main([command, write(tmp_path, config)]) == EXIT_USAGE
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "certify"])
@pytest.mark.parametrize("key, value, message", [
    ("line.n_cells", 2, "line.n_cells must be at least 3"),
    ("line.n_cells", 0, "line.n_cells must be at least 3"),
    ("fields.grid", [0, 6, 10], "fields.grid entries must be at least 1"),
    ("fields.grid", [6, -6, 10], "fields.grid entries must be at least 1"),
    ("fields.n_theta", 0, "fields.n_theta must be at least 1"),
    ("fields.n_theta", -3, "fields.n_theta must be at least 1"),
    ("geometry.cables[0].radius", 0.0, "geometry.cables[0].radius must be positive"),
    ("geometry.cables[0].radius", -0.2, "geometry.cables[0].radius must be positive"),
])
def test_a_count_below_its_minimum_exits_2_naming_its_key(tmp_path, capsys, command, key,
                                                          value, message):
    # too few line cells used to pass validate and crash certify on a raw
    # ValueError; a grid count of 0 reached the build as h = inf; n_theta
    # <= 0 passed validate to crash certify, and a radius of 0 crashed both
    # on a division by zero
    config = single_cable_config(0.01, 0.05)
    put(config, key, value)
    assert main([command, write(tmp_path, config)]) == EXIT_USAGE
    assert message in capsys.readouterr().err


def test_a_grid_without_field_unknowns_certifies_and_runs(tmp_path, capsys):
    # a unit box without cables on one cell: every edge and face lies on the
    # box, so the field has no unknowns; the Hodge extremes are the line's
    config = single_cable_config(0.01, 0.05)
    config["geometry"].update(box=[[0.0, 1.0]] * 3, cables=[])
    config["fields"]["grid"] = [1, 1, 1]
    path = write(tmp_path, config)
    assert main(["validate", path]) == EXIT_OK
    capsys.readouterr()
    assert main(["certify", path]) == EXIT_OK
    cert = json.loads(capsys.readouterr().out)
    assert cert["strict"] and cert["c"] == 1.0          # unit C and L
    assert main(["simulate", path, "--output-dir", str(tmp_path / "out")]) == EXIT_OK
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["wp_bound_satisfied"] is True


def test_a_law_without_inputs_runs_autonomously(tmp_path, capsys):
    # the single cable's strict law with both rows in W_B_0: m = 0, and the
    # co-located output keeps its 2k rows; the run supplies nothing
    config = single_cable_config(0.01, 0.5)
    config["boundary"]["W_B_0"] = config["boundary"]["W_B_inp"]
    config["boundary"]["W_B_inp"] = []
    config["sim"]["input"] = {"kind": "zero"}
    path = write(tmp_path, config)
    assert main(["certify", path]) == EXIT_OK
    cert = json.loads(capsys.readouterr().out)
    assert cert["strict"] and cert["colocated"] is None     # p = 2 outputs, m = 0
    out = tmp_path / "out"
    assert main(["simulate", path, "--output-dir", str(out)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["wp_bound_satisfied"]
    assert summary["max_ledger_residual"] <= 1e-3 * summary["peak_energy"]
    data = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
    energy, supplied = data[:, 1], data[:, 2]
    assert np.all(np.diff(energy) <= 1e-12 * energy[0]) and energy[-1] < energy[0]
    assert np.abs(supplied).max() == 0.0
    assert data.shape[1] == 6 + 2           # no input columns, two outputs


def test_mixed_law_certifies_and_simulates(tmp_path, capsys):
    # one end resistive (I(0) + V(0) = u1), the other an imposed current
    # (I(1) = u2): K = diag(2, 0), neither strict nor skew
    ratios = []
    for dt in (0.01, 0.005):
        config = single_cable_config(dt, 0.5)
        config["boundary"]["W_B_inp"] = [[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 0.0]]
        path = write(tmp_path, config)
        if dt == 0.01:
            assert main(["certify", path]) == EXIT_OK
            cert = json.loads(capsys.readouterr().out)
            assert cert["admissible"] and not cert["strict"] and not cert["skew"]
            assert cert["colocated"] is True
        out = tmp_path / f"out_{dt}"
        assert main(["simulate", path, "--output-dir", str(out)]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        ratios.append(summary["max_ledger_residual"] / summary["peak_energy"])
    # the ledger residual is the second-order quadrature error of the samples
    assert ratios[0] <= 1e-3
    assert ratios[1] <= ratios[0] / 3.0


def test_non_colocated_output_closes_the_ledger(tmp_path, capsys):
    # y = -I_tot on the strict [I, I] law is not co-located; the ledger's
    # boundary term is the port power less the supply, so it still closes
    config = single_cable_config(0.01, 0.5)
    config["boundary"]["W_C_out"] = [[-1.0, 0.0, 0.0, 0.0], [0.0, -1.0, 0.0, 0.0]]
    path = write(tmp_path, config)
    assert main(["certify", path]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["colocated"] is False
    out = tmp_path / "out"
    assert main(["simulate", path, "--output-dir", str(out)]) == EXIT_OK

    def strict(name):
        raise ValueError(f"summary.json holds {name}")

    summary = json.loads((out / "summary.json").read_text(), parse_constant=strict)
    assert np.isfinite(summary["max_ledger_residual"])
    assert summary["max_ledger_residual"] <= 1e-3 * summary["peak_energy"]
    assert main(["converge", path, "--levels", "2"]) == EXIT_OK


def test_certify_accepts_a_row_scaled_law(tmp_path, capsys):
    # the single-cable law [I, I] scaled by 1e6 is the same admissible,
    # strict law; its completion is scaled by 1e-6
    config = single_cable_config(0.01, 0.5)
    config["boundary"]["W_B_inp"] = (1e6 * np.hstack([np.eye(2), np.eye(2)])).tolist()
    path = write(tmp_path, config)
    assert main(["validate", path]) == EXIT_OK
    capsys.readouterr()
    assert main(["certify", path]) == EXIT_OK
    cert = json.loads(capsys.readouterr().out)
    assert cert["admissible"] and cert["strict"] and cert["colocated"] is True


def test_simulate_writes_csv_and_summary(scenario_path, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["simulate", scenario_path, "--output-dir", out]) == EXIT_OK
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    solver = summary["solver"]
    assert set(solver) == {"reduced_unknowns", "method", "factor_s", "operator_bytes",
                           "line_block_unknowns", "iterations_max", "iterations_mean", "solves",
                           "max_rel_residual", "stepping_s", "steps_per_s", "blas_threads"}
    # the stepping runs on one OpenBLAS thread, or reports None without one
    assert solver["blas_threads"] == (1 if sim._openblas_threads() else None)
    assert solver["solves"] == summary["records"] - 1 == 30     # T / dt = 0.3 / 0.01
    # the step loop's wall time and rate
    assert solver["stepping_s"] > 0 and solver["steps_per_s"] > 0
    assert solver["steps_per_s"] * solver["stepping_s"] == pytest.approx(30)
    assert solver["reduced_unknowns"] == 13852 - 7456    # all unknowns but the faces
    assert solver["method"] == "bicgstab"                # above the size rule
    assert solver["line_block_unknowns"] == 2 * (12 + 13)     # cells and nodes of 2 lines
    assert 0 < solver["iterations_mean"] <= solver["iterations_max"] <= 30
    assert 0.0 < solver["max_rel_residual"] <= 1e-10
    check_build_report(summary["build"], simulated=True)
    assert summary["wp_bound_satisfied"]
    assert summary["max_ledger_residual"] <= 1e-3 * max(summary["peak_energy"], 1e-30)
    data = np.loadtxt(os.path.join(out, "trajectory.csv"), delimiter=",", skiprows=1)
    assert data.shape[0] == summary["records"]
    # energy drift: max_t |E(t) - E(0)| / peak energy, from the energy column
    energy = data[:, 1]
    drift = np.abs(energy - energy[0]).max() / summary["peak_energy"]
    assert summary["energy_drift"] == pytest.approx(drift, rel=1e-12)
    assert 0.0 < summary["energy_drift"] <= 1.0
    assert capsys.readouterr().err == ""       # nothing is logged without -v


def test_simulate_verbose_logs_the_run(scenario_path, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["simulate", "--verbose", scenario_path, "--output-dir", out]) == EXIT_OK
    captured = capsys.readouterr()
    summary = json.loads(captured.out)
    labels = [line.split("  ")[0] for line in captured.err.splitlines()]
    assert labels == ["cablefield: grid", "cablefield: curls", "cablefield: trace",
                      "cablefield: assembly", "cablefield: closed loop",
                      "cablefield: solver set-up", "cablefield: stepping",
                      "cablefield: ledger"]
    solver = summary["solver"]
    err = captured.err
    assert f"peak RSS {summary['build']['peak_rss_mb']['closed_loop']:.1f} MB" in err
    assert (f"{solver['factor_s']:.3f} s  bicgstab, {solver['reduced_unknowns']} reduced "
            f"unknowns, line block {solver['line_block_unknowns']} unknowns, step operators "
            f"{solver['operator_bytes'] / 1e6:.3f} MB, BLAS threads "
            f"{solver['blas_threads'] or 'unknown'}") in err
    assert f"{solver['stepping_s']:.3f} s  30 steps" in err
    assert (f"BiCGStab iterations mean {solver['iterations_mean']:.1f} max "
            f"{solver['iterations_max']}") in err
    assert f"max residual {summary['max_ledger_residual']:.3e}" in err
    assert f"energy drift {summary['energy_drift']:.3e}" in err


def test_simulate_verbose_logs_the_stored_inverse(tmp_path, capsys):
    # the single cable at the benchmark's dt = 2e-5 steps on a direct
    # inverse stored sparse: its bytes and fill are in summary.json and in
    # the set-up line
    path = write(tmp_path, single_cable_config(2e-5, 2e-4))
    out = str(tmp_path / "out")
    assert main(["simulate", "--verbose", path, "--output-dir", out]) == EXIT_OK
    captured = capsys.readouterr()
    solver = json.loads(captured.out)["solver"]
    assert solver["method"] == "direct" and solver["solves"] == 10
    assert solver["inverse_bytes"] < 412 * 412 * 8 and 0.0 < solver["inverse_fill"] < 0.2
    assert (f"{solver['factor_s']:.3f} s  direct, 412 reduced unknowns, inverse "
            f"{solver['inverse_bytes'] / 1e6:.3f} MB at fill {solver['inverse_fill']:.3f}, "
            f"step operators {solver['operator_bytes'] / 1e6:.3f} MB" in captured.err)
    assert solver["operator_bytes"] > solver["inverse_bytes"]


def test_simulate_zero_everything_all_zero_rows(tmp_path, scenario_config, capsys):
    scenario_config["sim"]["input"] = {"kind": "zero"}
    scenario_config["sim"]["initial"] = {"kind": "zero"}
    out = str(tmp_path / "out")
    assert main(["simulate", write(tmp_path, scenario_config),
                 "--output-dir", out]) == EXIT_OK
    data = np.loadtxt(os.path.join(out, "trajectory.csv"), delimiter=",", skiprows=1)
    assert np.abs(data[:, 1:]).max() == 0.0


def test_simulate_deterministic(tmp_path, scenario_config):
    scenario_config["sim"]["initial"] = {"kind": "random", "seed": 3}
    path = write(tmp_path, scenario_config)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["simulate", path, "--output-dir", out1]) == EXIT_OK
    assert main(["simulate", path, "--output-dir", out2]) == EXIT_OK
    a = (tmp_path / "a" / "trajectory.csv").read_bytes()
    b = (tmp_path / "b" / "trajectory.csv").read_bytes()
    assert a == b


def test_exports(tmp_path, scenario_config):
    scenario_config["sim"]["T"] = 0.05
    path = write(tmp_path, scenario_config)
    out = str(tmp_path / "out")
    assert main(["simulate", path, "--output-dir", out,
                 "--export-operators", "--export-fields"]) == EXIT_OK
    assert os.path.exists(os.path.join(out, "operators", "J.mtx"))
    assert os.path.exists(os.path.join(out, "operators", "Pel.mtx"))
    vtk = open(os.path.join(out, "fields.vtk")).read().splitlines()
    assert vtk[0].startswith("# vtk DataFile")
    assert any(line.startswith("SCALARS E_mag") for line in vtk)
    # one point per cell, at the cell centre: the box corner plus h / 2
    assert "DIMENSIONS 16 10 18" in vtk
    origin = next(line for line in vtk if line.startswith("ORIGIN")).split()[1:]
    assert np.allclose([float(v) for v in origin], 0.05, rtol=0, atol=1e-15)


def test_converge_reports_orders(tmp_path, scenario_config, capsys):
    scenario_config["sim"]["T"] = 0.1
    scenario_config["sim"]["initial"] = {"kind": "smooth", "scale": 1.0}
    path = write(tmp_path, scenario_config)
    out = str(tmp_path / "out")
    assert main(["converge", path, "--levels", "3", "--output-dir", out]) == EXIT_OK
    rows = json.loads((tmp_path / "out" / "converge.json").read_text())["rows"]
    names = {r["study"]: r for r in rows}
    assert min(names["pmag_adjoint_vs_quadrature"]["orders"]) >= 1.9
    assert max(names["trace_constant_field"]["errors"]) <= 1e-10
    assert min(names["surface_quadrature"]["orders"]) >= 1.8
    assert 1.5 <= min(names["ledger_residual"]["orders"]) <= 2.5


def test_converge_studies_a_cable_on_any_line(tmp_path, scenario_config, capsys):
    # cable 0 on line 1 used to fail the coupling row: its cross-check built
    # a one-line grid, and assemble_P_el refused line index 1
    cables = scenario_config["geometry"]["cables"]
    cables[0]["line"], cables[1]["line"] = 1, 0
    scenario_config["sim"]["T"] = 0.1
    path = write(tmp_path, scenario_config)
    assert main(["converge", path, "--levels", "2"]) == EXIT_OK
    assert "pmag_adjoint_vs_quadrature" in capsys.readouterr().out


def test_converge_without_cables_exits_2(tmp_path, capsys):
    # it used to raise an uncaught IndexError at the first cable
    config = single_cable_config(0.01, 0.05)
    config["geometry"]["cables"] = []
    path = write(tmp_path, config)
    assert main(["certify", path]) == EXIT_OK
    capsys.readouterr()
    assert main(["converge", path]) == EXIT_USAGE
    assert "the scenario has no cables" in capsys.readouterr().err


def test_converge_without_a_sim_section_exits_2_before_the_build(tmp_path, monkeypatch,
                                                                 capsys):
    # it used to build the scenario and compute the coupling, trace and
    # quadrature rows before the ledger row refused the missing section
    import cablefield.cli as cli

    def refuse(*args):
        raise AssertionError("converge worked on a scenario without a sim section")

    config = single_cable_config(0.01, 0.05)
    del config["sim"]
    path = write(tmp_path, config)
    monkeypatch.setattr(cli, "build_scenario", refuse)
    monkeypatch.setattr(cli, "_coupling_convergence", refuse)
    assert main(["converge", path]) == EXIT_USAGE
    assert "converge needs a sim section" in capsys.readouterr().err


def test_scenario_referential_consistency(tmp_path, scenario_config):
    scenario_config["geometry"]["cables"][1]["line"] = 0   # duplicate line
    with pytest.raises(Exception):
        build_scenario(scenario_config)

    bad = copy.deepcopy(straight := scenario_config)
    bad["geometry"]["cables"][1]["line"] = 1
    bad["boundary"]["W_B_inp"] = np.eye(3, 8).tolist()     # wrong row count
    with pytest.raises(Exception):
        build_scenario(bad)


# SciPy subpackages that a command loads only when it runs them
HEAVY_SCIPY = ("scipy.interpolate", "scipy.spatial", "scipy.linalg", "scipy.sparse.linalg",
               "scipy.special")

LOADED_AFTER_EACH_COMMAND = """
import json, sys
import cablefield.cli
from cablefield.cli import main
from cablefield.sim import _openblas_threads

def loaded():
    return sorted(m for m in sys.argv[4:] if m in sys.modules)

pair, single, out = sys.argv[1:4]
seen = {"import": loaded()}
lookups = [_openblas_threads.cache_info().misses]
for name, args in (("certify", ["certify", pair]),
                   ("bicgstab", ["simulate", pair, "--output-dir", out]),
                   ("direct", ["simulate", single, "--output-dir", out])):
    assert main(args) == 0, name
    seen[name] = loaded()
    lookups.append(_openblas_threads.cache_info().misses)
sys.stderr.write(json.dumps({"modules": seen, "blas_lookups": lookups}))
"""


def test_cli_import_leaves_the_spline_module_unloaded(tmp_path, scenario_config):
    # each command imports only what it runs: scipy.interpolate (and
    # scipy.optimize behind it) only for a spline cable, and no command
    # scipy.spatial, scipy.linalg, scipy.sparse.linalg or scipy.special;
    # both step solves, the dense inverse and BiCGStab, run on numpy alone
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(pathlib.Path(__file__).resolve().parents[1] / "src"),
                    env.get("PYTHONPATH")) if p)
    scenario_config["sim"]["T"] = 0.02                       # BiCGStab path, 2 steps
    single = copy.deepcopy(scenario_config)
    single["geometry"].update(box=[[0.0, 0.6], [0.0, 0.6], [0.0, 1.0]], cables=[
        {"type": "segment", "p0": [0.3, 0.3, 0.15], "direction": [0, 0, 1],
         "length": 0.7, "radius": 0.2, "line": 0}])
    single["line"]["k"] = 1
    single["fields"]["grid"] = [6, 6, 10]                    # direct path
    single["boundary"]["W_B_inp"] = np.hstack([np.eye(2), np.eye(2)]).tolist()
    single["sim"]["input"]["amplitude"] = [0.3, 0.1]
    paths = [write(tmp_path, scenario_config, "pair.json"), write(tmp_path, single, "single.json")]
    proc = subprocess.run([sys.executable, "-c", LOADED_AFTER_EACH_COMMAND, *paths,
                           str(tmp_path / "out"), *HEAVY_SCIPY],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads(proc.stderr.strip().splitlines()[-1])
    seen = report["modules"]
    assert seen["import"] == seen["certify"] == seen["bicgstab"] == seen["direct"] == []
    # the OpenBLAS lookup runs on the first run(), not on import or certify,
    # and once
    assert report["blas_lookups"] == [0, 0, 1, 1]
