import copy
import dataclasses

import numpy as np
import pytest

from cablefield import sim, tline
from cablefield.assembly import hodge_extremes
from cablefield.errors import ConfigError, CouplingError
from cablefield.scenario import build_scenario, check_scenario, parse_complex, read_scenario
from oracles import FullLUStepper, block_operators, energy, hodge_extremes_from_Hd, midpoint_step

MUTUAL = [[1.0, 0.1], [0.1, 1.0]]


def validate_scenario(config):
    """validate's report on a scenario config."""
    return check_scenario(read_scenario(config))


@pytest.mark.parametrize("key, value, n, expected", [
    ("line.C/L", MUTUAL, 2, MUTUAL),
    ("sim.input.amplitude", [0.5, 0.0], 2, [0.5, 0.0]),
    ("sim.input.amplitude", [[0.3, 0.0], [0.3, 0.0]], 2, [0.3 + 0j, 0.3 + 0j]),
    ("sim.input.amplitude", [0.3, 0.0, 0.1, 0.0], 4, [0.3, 0.0, 0.1, 0.0]),
    ("sim.input.amplitude", [0.3, 0.2], 1, [0.3 + 0.2j]),
    ("sim.input.amplitude", [0.3, 0.0, 0.1], 2, ConfigError),
])
def test_complex_entries_parse_by_shape(key, value, n, expected, scenario_config):
    # an entry of exactly the expected shape is real; one extra trailing
    # axis of length 2 holds [re, im] pairs; a scalar slot takes one pair
    if key == "line.C/L":
        # k = 2 multiconductor line with mutual capacitance and inductance
        scenario_config["line"].update(k=n, C=value, L=value)
        assert validate_scenario(scenario_config)["line_materials"]["passed"]
        shape, scalar = (n, n), True
    else:
        shape, scalar = (n,), n == 1
    if expected is ConfigError:
        with pytest.raises(ConfigError, match=key):
            parse_complex(value, shape, key, scalar=scalar)
        return
    out = parse_complex(value, shape, key, scalar=scalar)
    assert np.allclose(out, expected, rtol=0, atol=0)
    assert np.iscomplexobj(out) == np.iscomplexobj(np.asarray(expected))


def single_cable_config():
    """The lossy single-cable geometry of acceptance criteria 3 and 5."""
    return {
        "geometry": {
            "box": [[0.0, 0.6], [0.0, 0.6], [0.0, 1.0]],
            "cables": [{"type": "segment", "p0": [0.3, 0.3, 0.15], "direction": [0, 0, 1],
                        "length": 0.7, "radius": 0.2, "line": 0}],
        },
        "line": {"k": 1, "n_cells": 12, "C": 1.0, "L": 1.0, "R": 0.2, "G": 0.1},
        "fields": {"grid": [6, 6, 10], "sigma": 0.2, "n_theta": 12},
        "boundary": {"W_B_inp": [[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]],
                     "W_C_out": "colocated"},
        "sim": {"dt": 0.01, "T": 0.1, "input": {"kind": "zero"},
                "initial": {"kind": "smooth"}},
    }


# the curved cables of test_acceptance.CURVED_CABLES as scenario entries
CURVED_ENTRIES = {
    "arc": {"type": "arc", "center": [-0.6, 0.35, 0.6], "u": [1, 0, 0], "v": [0, 0, 1],
            "rho": 1.0, "phi0": -0.33, "phi1": 0.33, "radius": 0.2},
    "helix": {"type": "helix", "base": [0.35, 0.35, 0.25], "axis": [0, 0, 1], "a": 0.06,
              "b": 0.15, "turns": 0.74, "radius": 0.2},
    "spline": {"type": "spline", "points": [[0.35, 0.34, 0.29], [0.36, 0.35, 0.52],
                                            [0.34, 0.36, 0.76], [0.35, 0.35, 0.99]],
               "radius": 0.2},
}


@pytest.mark.parametrize("kind", sorted(CURVED_ENTRIES))
def test_curved_cable_entries_read_as_their_constructors(kind):
    from test_acceptance import CURVED_CABLES

    box, n, cable = CURVED_CABLES[kind]
    cfg = single_cable_config()
    cfg["geometry"].update(box=box, cables=[CURVED_ENTRIES[kind]])
    cfg["fields"]["grid"] = list(n)
    spec = read_scenario(cfg)
    read, direct = spec.geometry.cables[0], cable()
    assert type(read) is type(direct)
    eta = np.linspace(0.0, 1.0, 17)
    assert np.array_equal(read.alpha(eta), direct.alpha(eta))
    assert check_scenario(spec)["passed"]


def test_lift_V0_must_be_real():
    # the collar of this grid is too thin for a lift to run, but V0 is
    # read, and refused, before any check
    cfg = single_cable_config()
    nodes = np.linspace(0.0, 1.0, 13)
    cfg["sim"]["initial"] = {"kind": "lift", "V0": np.sin(np.pi * nodes).tolist()}
    v0 = read_scenario(cfg).initial["V0"]
    assert v0.dtype == np.float64 and np.array_equal(v0, np.sin(np.pi * nodes))
    # [re, im] pairs with an imaginary part used to be cast to float with
    # only a ComplexWarning
    cfg["sim"]["initial"]["V0"] = [[v, 0.1] for v in np.sin(np.pi * nodes)]
    for check in (validate_scenario, build_scenario):
        with pytest.raises(ConfigError, match="sim.initial.V0"):
            check(cfg)


def test_validate_rejects_a_lift_the_grid_cannot_carry():
    # the collar (0.3 x 0.2 m) is thinner than two cells of h = 0.1: validate
    # and the build raise what the lift raises, with the same message
    cfg = single_cable_config()
    cfg["sim"]["initial"] = {"kind": "lift"}
    with pytest.raises(CouplingError) as at_simulate:
        build_scenario(cfg)
    with pytest.raises(CouplingError) as at_validate:
        validate_scenario(cfg)
    assert str(at_validate.value) == str(at_simulate.value)
    assert "thinner than two grid cells (h=0.1)" in str(at_validate.value)
    # the same scenario validates with another initial state, or on a grid
    # of h = 0.025 <= 0.06 / 2
    cfg["sim"]["initial"] = {"kind": "smooth"}
    assert validate_scenario(cfg)["passed"]
    cfg["sim"]["initial"] = {"kind": "lift"}
    cfg["fields"]["grid"] = [24, 24, 40]
    assert validate_scenario(cfg)["passed"]


def test_a_lift_charges_the_line_of_its_cable(scenario_config):
    # cable 0 feeds line 1 and cable 1 line 0: the lift of cable 0 puts its
    # charge on line component 1 and its D around cable 0 (x = 0.45, cable 1
    # at x = 1.15); the charge used to land on component 0, cable 1's line
    cables = scenario_config["geometry"]["cables"]
    cables[0]["line"], cables[1]["line"] = 1, 0
    scenario_config["geometry"]["collar_halfwidth"] = 0.5
    scenario_config["fields"]["grid"] = [32, 20, 36]
    scenario_config["sim"]["initial"] = {"kind": "lift", "line": 0}
    scn = build_scenario(scenario_config)
    x0 = scn.initial_state()
    lay = scn.bundle.layout
    q = x0[lay.sl_V].reshape(-1, scn.k)                # unit C: q = V0
    assert np.abs(q[:, 1] - np.sin(np.pi * scn.line_grid.nodes)).max() <= 1e-12
    assert not q[:, 0].any()
    d = x0[lay.sl_E]
    x = scn.grid.edge_midpoints(scn.grid.free_edges)[d != 0, 0]
    assert x.size and x.max() < 0.8


def test_table_input_outside_its_range_is_rejected():
    cfg = single_cable_config()
    cfg["sim"]["T"] = 0.3
    cfg["sim"]["input"] = {"kind": "table", "table_t": [0.0, 0.1],
                           "table_u": [[0.0, 0.0], [1.0, 1.0]]}
    for check in (validate_scenario, build_scenario):
        with pytest.raises(ConfigError, match="table input covers"):
            check(cfg)


def test_real_data_stay_real(scenario_config):
    scn = build_scenario(scenario_config)
    assert scn.closed_loop().A.dtype == np.float64
    assert scn.initial_state().dtype == np.float64
    traj = scn.simulate()
    assert traj.x_final.dtype == np.float64
    assert traj.solver["reduced_unknowns"] == scn.bundle.n - scn.bundle.layout.n_faces
    assert traj.solver["max_rel_residual"] <= scn.sim_config.solver_tol


def test_krylov_steps_match_a_full_system_lu_on_the_pair(scenario_config, monkeypatch):
    # the pair (6,396 reduced unknowns) is above the size rule and steps by
    # BiCGStab; the reference run factorizes the whole step system instead
    scn = build_scenario(scenario_config)
    krylov = scn.simulate()
    monkeypatch.setattr(sim, "MidpointStepper", FullLUStepper)
    full = scn.simulate()
    assert (krylov.solver["method"], full.solver["method"]) == ("bicgstab", "full_lu")
    assert krylov.solver["max_rel_residual"] <= 1e-3 * scn.sim_config.solver_tol
    diff = np.linalg.norm(krylov.x_final - full.x_final)
    assert diff <= 1e-10 * np.linalg.norm(full.x_final)
    assert np.allclose(krylov.energy, full.energy, rtol=1e-10, atol=0.0)


def benchmark_single_cable_config():
    """The single_n1152 benchmark scenario (412 reduced unknowns, dt = 2e-5),
    over 10 steps."""
    cfg = single_cable_config()
    cfg["sim"].update(dt=2e-5, T=2e-4)
    cfg["sim"]["input"] = {"kind": "sine", "freq": 0.3,
                           "amplitude": [[0.3, 0.0], [0.3, 0.0]], "phase": 0.0}
    cfg["sim"]["initial"] = {"kind": "smooth", "scale": 1.0}
    return cfg


def test_single_cable_benchmark_system_stays_direct():
    solver = build_scenario(benchmark_single_cable_config()).simulate().solver
    assert solver["reduced_unknowns"] == 412 <= sim.DIRECT_MAX_UNKNOWNS
    assert solver["method"] == "direct"
    # about 8 % of the inverse lies above roundoff at dt = 2e-5: it is kept
    # as one real CSR, 8-byte values and int32 indices
    assert 0.07 < solver["inverse_fill"] <= sim.SPARSE_INVERSE_MAX_FILL
    kept = round(solver["inverse_fill"] * 412 * 412)
    assert solver["inverse_bytes"] == kept * (8 + 4) + (412 + 1) * 4
    assert "iterations_max" not in solver


@pytest.mark.parametrize("limit, method", [(412, "direct"), (411, "bicgstab")])
def test_size_rule_boundary(monkeypatch, limit, method):
    # the rule is inclusive: a system of exactly DIRECT_MAX_UNKNOWNS is direct
    monkeypatch.setattr(sim, "DIRECT_MAX_UNKNOWNS", limit)
    scn = build_scenario(benchmark_single_cable_config())
    solver = sim.MidpointStepper(scn.closed_loop(), scn.sim_config.dt).stats()
    assert (solver["reduced_unknowns"], solver["method"]) == (412, method)


def si_single_cable_config():
    """The benchmark single cable in SI units: a 50-ohm line at 2e8 m/s in
    vacuum, time scaled by 1 / 3e8, every loss rate and the input kept."""
    tau = 1.0 / 3e8
    eps0, mu0 = 8.8541878128e-12, 1.25663706212e-6
    cfg = benchmark_single_cable_config()
    cfg["line"].update(C=1e-10, L=2.5e-7, R=0.2 * 2.5e-7 / tau, G=0.1 * 1e-10 / tau)
    cfg["fields"].update(eps=eps0, mu=mu0, sigma=0.2 * eps0 / tau)
    cfg["sim"].update(dt=2e-5 * tau, T=2e-4 * tau)
    cfg["sim"]["input"]["freq"] = 0.3 / tau
    return cfg


@pytest.mark.parametrize("units", ["normalised", "SI"])
def test_sparse_inverse_steps_match_the_dense_inverse(monkeypatch, units):
    # the rule reads the inverse in the energy scaling, so it keeps the same
    # ~8 % of the entries in either unit system, and 1,000 steps on the kept
    # entries stay within 1e-12 of the dense inverse's in the energy norm
    cfg = benchmark_single_cable_config() if units == "normalised" else si_single_cable_config()
    scn = build_scenario(cfg)
    loop, x0 = scn.closed_loop(), scn.initial_state()
    run_cfg = dataclasses.replace(scn.sim_config, T=1000 * scn.sim_config.dt)
    sparse = sim.run(loop, run_cfg, x0=x0)
    monkeypatch.setattr(sim, "SPARSE_INVERSE_MAX_FILL", 0.0)
    dense = sim.run(loop, run_cfg, x0=x0)
    assert 0.07 < sparse.solver["inverse_fill"] == dense.solver["inverse_fill"] < 0.09
    assert sparse.solver["inverse_bytes"] < dense.solver["inverse_bytes"] == 412 * 412 * 8
    diff = energy(scn.bundle, sparse.x_final - dense.x_final)
    assert np.sqrt(diff / energy(scn.bundle, dense.x_final)) <= 1e-12
    assert sparse.solver["max_rel_residual"] <= scn.sim_config.solver_tol


@pytest.mark.parametrize("extra, stored", [(0.5, "sparse"), (-0.5, "dense")])
def test_storage_switch_boundary(monkeypatch, extra, stored):
    # the switch counts kept entries against SPARSE_INVERSE_MAX_FILL n^2:
    # half an entry above the kept count is sparse, half an entry below dense
    scn = build_scenario(benchmark_single_cable_config())
    loop, dt = scn.closed_loop(), scn.sim_config.dt
    fill = sim.MidpointStepper(loop, dt).stats()["inverse_fill"]
    kept = round(fill * 412 * 412)
    monkeypatch.setattr(sim, "SPARSE_INVERSE_MAX_FILL", (kept + extra) / (412 * 412))
    solver = sim.MidpointStepper(loop, dt).stats()
    assert solver["inverse_fill"] == fill
    dense_bytes = 412 * 412 * 8
    assert (solver["inverse_bytes"] < dense_bytes) == (stored == "sparse")
    assert (solver["inverse_bytes"] == dense_bytes) == (stored == "dense")


def test_zero_imaginary_amplitudes_run_real():
    # [re, im] amplitudes with im = 0 parse complex, but the input signal
    # keeps them real, so the real law runs a real state; the values are
    # those of the complex-state step loop
    cfg = single_cable_config()
    cfg["sim"].update(dt=2e-3, T=0.1)
    cfg["sim"]["input"] = {"kind": "sine", "freq": 3.0,
                           "amplitude": [[0.3, 0.0], [0.2, 0.0]], "phase": 0.4}
    cfg["sim"]["initial"] = {"kind": "smooth", "scale": 1.0}
    scn = build_scenario(cfg)
    sim_cfg = scn.sim_config
    assert sim_cfg.input.amplitude.dtype == np.float64
    loop, x0 = scn.closed_loop(), scn.initial_state()
    traj = sim.run(loop, sim_cfg, x0=x0)
    assert traj.x_final.dtype == np.float64
    assert traj.u.dtype == np.float64 and traj.y.dtype == np.float64

    stepper = sim.MidpointStepper(loop, sim_cfg.dt, sim_cfg.solver_tol)
    x, energies = x0.astype(complex), [energy(scn.bundle, x0)]
    for i in range(int(round(sim_cfg.T / sim_cfg.dt))):
        u = sim_cfg.input((i + 0.5) * sim_cfg.dt).astype(complex)
        x, _ = midpoint_step(stepper, x, u)
        energies.append(energy(scn.bundle, x))
    assert np.iscomplexobj(x)
    assert np.linalg.norm(traj.x_final - x) <= 1e-12 * np.linalg.norm(x)
    assert np.allclose(traj.energy, energies, rtol=1e-12, atol=0)


OPERATORS = ("J", "Rd", "Hd", "M")


@pytest.mark.parametrize("case", ["pair", "single"])
def test_operators_are_assembled_on_first_read(scenario_config, case):
    config = scenario_config if case == "pair" else single_cable_config()
    scn = build_scenario(config)
    scn.certificate()
    bundle = scn.bundle
    # build and certify assemble none of the N-row operators, and store
    # the curl once, as the int8 incidence
    assert not set(OPERATORS) & set(vars(bundle))
    assert bundle.curls.incidence.dtype == np.int8
    ref = block_operators(bundle)
    for op in OPERATORS:
        A = getattr(bundle, op)
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(A, name), getattr(ref[op], name)), (op, name)
        if op == "J":       # assembled on every read, never kept
            assert "J" not in vars(bundle) and bundle.J is not A
        else:               # kept after the first read
            assert getattr(bundle, op) is A


def test_hodge_extremes_read_from_the_blocks(scenario_config):
    mutual = copy.deepcopy(scenario_config)
    # a k = 2 line with off-diagonal L and C, and anisotropic field materials
    mutual["line"].update(L=[[1.0, 0.3], [0.3, 0.8]], C=[[2.0, -0.4], [-0.4, 1.5]])
    mutual["fields"]["eps"] = [1.0, 2.0, 1.5]
    for config in (single_cable_config(), scenario_config, mutual):
        bundle = build_scenario(config).bundle
        extremes = hodge_extremes(bundle)
        assert "Hd" not in vars(bundle)
        assert extremes == hodge_extremes_from_Hd(bundle)
    # both extremes come from the line blocks: eig(C^-1) down to 0.45,
    # eig(L^-1) up to 1.71, against eps^-1 in [0.5, 1] and mu^-1 = 1
    assert extremes[0] < 0.5 and extremes[1] > 1.5


def test_hodge_extremes_form_no_repeated_block(scenario_config, monkeypatch):
    # a line block holds (n k)^2 entries dense: 1.7 GB at 10^4 cells with
    # k = 2; the extremes read the one k x k L and C instead, and form no
    # repeated block, sparse or dense
    bundle = build_scenario(scenario_config).bundle
    expected = hodge_extremes_from_Hd(bundle)
    vars(bundle).pop("Hd")
    eigvalsh = np.linalg.eigvalsh

    def refuse(*args, **kwargs):
        raise AssertionError("a repeated line block was formed")

    def small(a):
        assert a.shape == (bundle.k, bundle.k), a.shape
        return eigvalsh(a)

    monkeypatch.setattr(tline, "_repeat_block", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", small)
    assert hodge_extremes(bundle) == expected
    assert "Hd" not in vars(bundle)


def test_hodge_extremes_skip_the_lattices_without_unknowns():
    # one cell in z: the x- and y-edges and the z-faces all lie on the box,
    # so eps_x, eps_y and mu_z enter no unknown and no extreme
    cfg = single_cable_config()
    cfg["geometry"].update(box=[[0.0, 1.0], [0.0, 1.0], [0.0, 0.25]], cables=[])
    cfg["line"].update(C=1.25, L=1.25)
    cfg["fields"].update(grid=[4, 4, 1], eps=[0.1, 0.1, 2.0], mu=[1.0, 1.0, 10.0])
    bundle = build_scenario(cfg).bundle
    grid = bundle.curls.grid
    assert grid.edges_per_axis().tolist() == [0, 0, grid.n_free_edges]
    assert grid.faces_per_axis()[2] == 0
    assert hodge_extremes(bundle) == hodge_extremes_from_Hd(bundle) == (0.5, 1.0)
