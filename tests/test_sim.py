import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from cablefield import sim, tline
from cablefield.assembly import build_closed_loop, hodge_extremes
from cablefield.certify import PortLaw, build_colocated_output, wellposedness_constants
from cablefield.errors import ConfigError, DomainError, SolverError
from cablefield.maxwell import FieldMaterials
from cablefield.sim import (
    InputSignal,
    MidpointStepper,
    SimConfig,
    lifted_state,
    random_state,
    run,
    smooth_state,
    wp_bound_series,
    write_trajectory_csv,
    zero_state,
)
from cablefield.tline import LineMaterials

from oracles import (
    block_operators,
    completion_form,
    energy,
    midpoint_step,
    reverse_run,
    used_ports,
)
from test_acceptance import criterion3_bundle
from test_assembly import make_setup


@pytest.fixture(scope="module")
def lossless():
    return make_setup(n=(6, 6, 10), n_line=12)


@pytest.fixture(scope="module")
def lossy():
    return make_setup(n=(6, 6, 10), n_line=12,
                      line_mats=LineMaterials(k=1, R=0.4, G=0.2),
                      field_mats=FieldMaterials(sigma=0.3))


def skew_law(k):
    W_B = np.hstack([np.eye(2 * k), np.zeros((2 * k, 2 * k))])
    W_C = np.hstack([np.zeros((2 * k, 2 * k)), np.eye(2 * k)])
    return PortLaw(W_B_inp=W_B, W_B_0=np.zeros((0, 4 * k)), W_C_out=W_C[:2 * k], k=k)


def strict_law(k, W_C_out=None):
    W_B = np.hstack([np.eye(2 * k), np.eye(2 * k)])
    if W_C_out is None:
        W_C_out = build_colocated_output(W_B)
    return PortLaw(W_B_inp=W_B, W_B_0=np.zeros((0, 4 * k)), W_C_out=W_C_out, k=k)


def mixed_law():
    # I(0) + V(0) = u1 and I(1) = u2: K = diag(2, 0), neither strict nor skew
    W_B = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    return PortLaw(W_B_inp=W_B, W_B_0=np.zeros((0, 4)),
                   W_C_out=build_colocated_output(W_B), k=1)


def sine_run(loop, dt, x0):
    law = loop.law
    cfg = SimConfig(dt=dt, T=0.4, input=InputSignal(m=law.m, kind="sine", freq=1.5,
                                                    amplitude=0.5 * np.ones(law.m)))
    return run(loop, cfg, x0=x0)


def ledger_ratios(loop, x0):
    """Ledger residual / peak energy of the sine run at dt = 2e-3, 1e-3 and
    5e-4, and the two observed orders."""
    res = []
    for dt in (2e-3, 1e-3, 5e-4):
        led = sine_run(loop, dt, x0).ledger
        res.append(led["max_residual"] / led["peak_energy"])
    return res, (np.log2(res[0] / res[1]), np.log2(res[1] / res[2]))


def test_zero_input_zero_state(lossless):
    _, _, _, _, _, bundle, _ = lossless
    law = strict_law(bundle.k)
    loop = build_closed_loop(bundle, law)
    cfg = SimConfig(dt=1e-2, T=0.1, input=InputSignal(m=law.m))
    traj = run(loop, cfg)
    assert np.abs(traj.energy).max() == 0.0
    assert np.abs(traj.y).max() == 0.0
    assert traj.ledger["max_residual"] == 0.0


def test_energy_conserved_skew_lossless(lossless):
    _, _, _, _, _, bundle, _ = lossless
    law = skew_law(bundle.k)
    loop = build_closed_loop(bundle, law)
    x0 = random_state(bundle, seed=1)
    cfg = SimConfig(dt=5e-3, T=5.0, input=InputSignal(m=law.m))
    traj = run(loop, cfg, x0=x0)
    drift = np.abs(traj.energy - traj.energy[0]).max() / traj.energy[0]
    assert drift <= 1e-10


def test_energy_monotone_lossy(lossy):
    _, _, _, _, _, bundle, _ = lossy
    law = strict_law(bundle.k)
    loop = build_closed_loop(bundle, law)
    x0 = random_state(bundle, seed=2)
    cfg = SimConfig(dt=2e-2, T=2.0, input=InputSignal(m=law.m))
    traj = run(loop, cfg, x0=x0)
    assert np.all(np.diff(traj.energy) <= 1e-12 * traj.energy[0])
    assert traj.energy[-1] < traj.energy[0]


def test_reversibility(lossless):
    _, _, _, _, _, bundle, _ = lossless
    law = skew_law(bundle.k)
    loop = build_closed_loop(bundle, law)
    x0 = random_state(bundle, seed=3)
    cfg = SimConfig(dt=1e-2, T=1.0, input=InputSignal(m=law.m))
    traj = run(loop, cfg, x0=x0)
    back = reverse_run(loop, traj.x_final, cfg.dt, int(round(cfg.T / cfg.dt)))
    err = np.linalg.norm(back - x0) / np.linalg.norm(x0)
    assert err <= 1e-8


def test_flow_linearity(lossless):
    _, _, _, _, _, bundle, _ = lossless
    law = strict_law(bundle.k)
    loop = build_closed_loop(bundle, law)
    cfg = SimConfig(dt=1e-2, T=0.2,
                    input=InputSignal(m=law.m, kind="sine", freq=2.0))
    xa = random_state(bundle, seed=4)
    xb = random_state(bundle, seed=5)
    fa = run(loop, cfg, x0=xa).x_final
    fb = run(loop, cfg, x0=xb).x_final
    fab = run(loop, cfg, x0=xa + xb).x_final
    # affine in x0 for fixed u: f(a) + f(b) - f(0) = f(a + b)
    f0 = run(loop, cfg, x0=zero_state(bundle)).x_final
    assert np.linalg.norm(fab - (fa + fb - f0)) <= 1e-9 * np.linalg.norm(fab)


def test_ledger_exact_at_midpoints_and_second_order_in_records(lossy):
    # the recorded-trapezoid ledger residual decreases at order 2 in dt;
    # smooth initial data keeps the quadrature constant small
    _, _, _, _, _, bundle, _ = lossy
    loop = build_closed_loop(bundle, strict_law(bundle.k))
    res, rates = ledger_ratios(loop, smooth_state(bundle, scale=1.0))
    assert 1.5 < min(rates) and max(rates) < 2.5
    assert res[-1] <= 1e-5


def test_ledger_closes_for_every_law(lossy):
    # the boundary term is the port power less the supply, so the ledger of
    # a skew law and of a strict law whose output is not co-located closes
    # at order 2 like that of a co-located output
    _, _, _, _, _, bundle, _ = lossy
    k = bundle.k
    anti = strict_law(k, W_C_out=-np.hstack([np.eye(2 * k), np.zeros((2 * k, 2 * k))]))
    assert wellposedness_constants(anti, 1.0, 1.0).colocated is False
    x0 = smooth_state(bundle, scale=1.0)
    for law in (skew_law(k), anti):
        res, rates = ledger_ratios(build_closed_loop(bundle, law), x0)
        assert 1.5 <= min(rates) and max(rates) <= 2.5, (res, rates)


@pytest.mark.parametrize("make_law", [lambda: strict_law(1), mixed_law],
                         ids=["strict", "mixed"])
def test_ledger_boundary_term_is_the_completion_form(lossy, make_law):
    # with a co-located completion W_C, the port power less the supply is
    # z^H (Sigma - [W_B; W_C]^H Sigma [W_B; W_C]) z / 2 on the port vector
    _, _, _, _, _, bundle, _ = lossy
    law = make_law()
    traj = sine_run(build_closed_loop(bundle, law), 1e-2, smooth_state(bundle))
    form = completion_form(law.W_B, build_colocated_output(law.W_B), traj.zeta)
    ref = np.r_[0.0, np.cumsum(0.5 * np.diff(traj.times) * (form[1:] + form[:-1]))]
    err = np.abs(traj.ledger["boundary"] - ref).max()
    assert np.abs(ref).max() > 0
    assert err <= 1e-12 * np.abs(ref).max()


def test_wp_bound_series(lossy):
    _, _, _, _, _, bundle, _ = lossy
    law = strict_law(bundle.k)
    loop = build_closed_loop(bundle, law)
    lo, hi = hodge_extremes(bundle)
    cert = wellposedness_constants(law, lo, hi)
    cfg = SimConfig(dt=5e-3, T=0.5,
                    input=InputSignal(m=law.m, kind="sine", freq=1.0))
    traj = run(loop, cfg, x0=random_state(bundle, seed=7))
    chk = wp_bound_series(traj, cert.c_t)
    assert chk["satisfied"]


def recorded_states(loop, cfg, x0):
    """States at the record times of run(), from a per-step loop."""
    stepper = MidpointStepper(loop, cfg.dt, cfg.solver_tol)
    n_steps = int(round(cfg.T / cfg.dt))
    x, states = x0.copy(), [x0.copy()]
    for i in range(n_steps):
        x, _ = midpoint_step(stepper, x, cfg.input((i + 0.5) * cfg.dt))
        if (i + 1) % cfg.record_stride == 0 or i == n_steps - 1:
            states.append(x)
    return states


def test_records_match_the_bundle_forms(lossy):
    # run() reduces recorded states a block of columns at a time; every
    # record must equal the per-state forms of the bundle and the loop
    _, _, _, _, _, bundle, _ = lossy
    law = strict_law(bundle.k)
    loop = build_closed_loop(bundle, law)
    width = min(max(sim.RECORD_BLOCK_BYTES // (8 * bundle.n), 1),
                sim.RECORD_BLOCK_MAX_COLUMNS)
    x0 = random_state(bundle, seed=8)
    for stride, n_steps in ((1, 500), (3, 1500)):
        cfg = SimConfig(dt=1e-3, T=n_steps * 1e-3, record_stride=stride,
                        input=InputSignal(m=law.m, kind="sine", freq=2.0))
        traj = run(loop, cfg, x0=x0)
        n_rec = len(traj.times)
        assert n_rec == 501 and n_rec > 2 * width and n_rec % width, \
            "the run must fill two blocks and leave a remainder"
        states = recorded_states(loop, cfg, x0)
        assert len(states) == n_rec
        assert np.array_equal(states[-1], traj.x_final)
        for j, (t, x) in enumerate(zip(traj.times, states)):
            e = bundle.Hd @ x
            u = cfg.input(t)
            zeta = used_ports(loop, e, u)
            assert t == pytest.approx(min(j * stride, n_steps) * cfg.dt, rel=1e-14)
            assert np.array_equal(traj.u[j], u)
            assert traj.energy[j] == pytest.approx(energy(bundle, x), rel=1e-14)
            assert traj.xnorm[j] == pytest.approx(
                np.sqrt(np.vdot(x, bundle.M @ x).real), rel=1e-14)
            dissipation = float(np.real(np.vdot(e, bundle.M @ (bundle.Rd @ e))))
            assert traj.diss_rate[j] == pytest.approx(dissipation, rel=1e-14)
            assert np.allclose(traj.zeta[j], zeta, rtol=1e-14, atol=0)
            assert np.allclose(traj.y[j], law.W_C_out @ zeta, rtol=1e-14, atol=0)


def test_input_must_be_finite_on_every_step(lossless):
    # a NaN in the table past t = 0 is an input error, not a solver failure
    _, _, _, _, _, bundle, _ = lossless
    law = strict_law(bundle.k)
    loop = build_closed_loop(bundle, law)
    table_t = np.linspace(0.0, 0.1, 11)
    table_u = np.zeros((11, law.m))
    table_u[6, 0] = np.nan                      # u_1(0.06)
    cfg = SimConfig(dt=1e-2, T=0.1, input=InputSignal(m=law.m, kind="table",
                                                      table_t=table_t, table_u=table_u))
    with pytest.raises(DomainError, match="not finite at t = 0.055"):
        run(loop, cfg, x0=random_state(bundle, seed=8))


@pytest.mark.parametrize("path", ["direct", "krylov"])
def test_a_bad_solve_inside_a_block_names_its_step(lossy, monkeypatch, path):
    # the residuals are checked a block at a time, but against every step and
    # against the loop's A itself: one corrupted solve in the middle of the
    # second block is a SolverError that names that step, on either solve
    if path == "krylov":
        monkeypatch.setattr(sim, "DIRECT_MAX_UNKNOWNS", 0)
    _, _, _, _, _, bundle, _ = lossy
    law = strict_law(bundle.k)
    loop = build_closed_loop(bundle, law)
    width = min(max(sim.RECORD_BLOCK_BYTES // (8 * bundle.n), 1),
                sim.RECORD_BLOCK_MAX_COLUMNS)
    bad = width + width // 2
    solve = MidpointStepper._solve_reduced
    calls = []

    def corrupted(self, b):
        calls.append(1)
        x_r, face = solve(self, b)
        return (x_r + 1e-6 if len(calls) == bad else x_r), face

    monkeypatch.setattr(MidpointStepper, "_solve_reduced", corrupted)
    cfg = SimConfig(dt=1e-3, T=4 * width * 1e-3, input=InputSignal(m=law.m, kind="sine"))
    t_mid = (bad - 0.5) * cfg.dt
    with pytest.raises(SolverError, match=rf"exceeds tolerance .* at step {bad} "
                                          rf"\(t = {t_mid:.6g}\)"):
        run(loop, cfg, x0=random_state(bundle, seed=8))
    assert len(calls) == 2 * width       # the error ends the run with its block


def test_run_rejects_bad_initial_shape(lossless):
    _, _, _, _, _, bundle, _ = lossless
    law = strict_law(bundle.k)
    loop = build_closed_loop(bundle, law)
    cfg = SimConfig(dt=1e-2, T=0.1, input=InputSignal(m=law.m))
    with pytest.raises(DomainError):
        run(loop, cfg, x0=np.zeros(3))


def test_run_rejects_an_input_of_another_port_count(lossless):
    _, _, _, _, _, bundle, _ = lossless
    law = strict_law(bundle.k)
    loop = build_closed_loop(bundle, law)
    cfg = SimConfig(dt=1e-2, T=0.1, input=InputSignal(m=law.m + 1))
    with pytest.raises(DomainError, match=f"input has {law.m + 1} ports, port law expects {law.m}"):
        run(loop, cfg)


def test_input_signals():
    sig = InputSignal(m=2, kind="sine", amplitude=[1.0, 2.0], freq=0.5)
    assert np.allclose(sig(0.0), [0.0, 0.0])
    assert np.allclose(sig(0.5), [1.0, 2.0])
    step = InputSignal(m=1, kind="step", t_on=0.1, ramp=0.2)
    assert step(0.05)[0] == 0.0
    assert step(0.31)[0] == 1.0
    assert 0.0 < step(0.2)[0] < 1.0
    with pytest.raises(ConfigError):
        InputSignal(m=1, kind="wiggle")
    tab = InputSignal(m=1, kind="table", table_t=[0.0, 1.0], table_u=[[0.0], [2.0]])
    assert abs(tab(0.5)[0] - 1.0) < 1e-14
    assert InputSignal(m=2)(0.3).dtype == np.float64
    assert tab(0.5).dtype == np.float64


@pytest.mark.parametrize("kind, params", [
    ("zero", {}),
    ("step", {"t_on": 0.013, "ramp": 0.07, "amplitude": [0.3, -1.7]}),
    ("sine", {"freq": 3.1, "phase": 0.4, "amplitude": [0.3, 0.2 + 0.1j]}),
    ("table", {"table_t": [0.0, 0.031, 0.07, 0.2],
               "table_u": [[0.0, 1.0], [0.4, -0.3], [0.1, 0.2], [0.0, 0.7]]}),
])
def test_array_input_is_the_scalar_input_bit_for_bit(kind, params):
    # run() evaluates the input at a block of times at once; every sample
    # must equal the scalar call at that time
    sig = InputSignal(m=2, kind=kind, **params)
    t = (np.arange(57) + 0.5) * 3e-3
    U = sig(t)
    assert U.shape == (57, 2) and U.dtype == sig(0.1).dtype
    for j, tj in enumerate(t):
        assert np.array_equal(U[j], sig(float(tj)))


def test_table_input_must_cover_the_interval():
    # np.interp clamps outside the table: over [0, 0.1] with T = 0.3 the
    # input would silently hold u(0.1) for t > 0.1
    tab = InputSignal(m=1, kind="table", table_t=[0.0, 0.1], table_u=[[0.0], [1.0]])
    with pytest.raises(ConfigError, match="table input covers"):
        SimConfig(dt=1e-2, T=0.3, input=tab)
    late = InputSignal(m=1, kind="table", table_t=[0.05, 0.5], table_u=[[0.0], [1.0]])
    with pytest.raises(ConfigError, match="table input covers"):
        SimConfig(dt=1e-2, T=0.3, input=late)
    SimConfig(dt=1e-2, T=0.1, input=tab)
    with pytest.raises(ConfigError, match="increasing"):
        InputSignal(m=1, kind="table", table_t=[0.0, 0.2, 0.1],
                    table_u=[[0.0], [1.0], [2.0]])
    with pytest.raises(ConfigError, match="table_u has shape"):
        InputSignal(m=2, kind="table", table_t=[0.0, 1.0], table_u=[[0.0], [1.0]])


def lift_bundle(line_mats):
    """The bundle of a straight cable on line 0 whose collar the grid
    resolves, and its chart."""
    from cablefield.geometry import GeometrySpec, StraightSegment
    from cablefield.maxwell import assemble_curls, build_grid, surface_trace
    from cablefield.coupling import assemble_P_el
    from cablefield.assembly import assemble_system
    from cablefield.tline import assemble_line, build_line_grid

    spec = GeometrySpec(
        box=np.array([[0, 1], [0, 1], [0, 1]], dtype=float),
        cables=[StraightSegment(p0=(0.5, 0.5, 0.15), direction=(0, 0, 1),
                                length=0.7, radius=0.18, line=0)],
        collar_halfwidth=0.5,
    )
    grid = build_grid(spec, (24, 24, 24))
    lg = build_line_grid(12, line_mats.k)
    chart = spec.chart(0, n_eta=12, n_theta=16)
    bundle = assemble_system(
        assemble_line(line_mats, lg),
        assemble_curls(grid, FieldMaterials()),
        coupling=assemble_P_el([chart], lg),
        R_nu=surface_trace(grid, [chart]),
    )
    return bundle, chart


def test_lifted_initial_state():
    bundle, chart = lift_bundle(LineMaterials(k=1))
    V0 = np.sin(np.pi * bundle.line.grid.nodes)
    x0 = lifted_state(bundle, chart, V0)
    lay = bundle.layout
    assert np.abs(x0[lay.sl_V] - V0).max() <= 1e-12     # unit C
    assert np.abs(x0[lay.sl_E]).max() > 0
    assert energy(bundle, x0) > 0


def test_lifted_state_forms_the_charge_from_the_k_by_k_C(monkeypatch):
    # q = C V0 node by node, from the one k x k C of the line: no repeated
    # block is formed (a dense one holds (nodes k)^2 floats, 3.2 GB at 10^4
    # cells with k = 2)
    C = np.array([[1.5, 0.3], [0.3, 1.0]])
    bundle, chart = lift_bundle(LineMaterials(k=2, C=C))
    nodes = bundle.line.grid.n + 1
    V0 = np.sin(np.pi * bundle.line.grid.nodes)
    V = np.zeros((nodes, 2))
    V[:, chart.curve.line] = V0

    def refuse(*args, **kwargs):
        raise AssertionError("a repeated line block was formed")

    monkeypatch.setattr(tline, "_repeat_block", refuse)
    x0 = lifted_state(bundle, chart, V0)
    assert np.array_equal(x0[bundle.layout.sl_V], (V @ C.T).ravel())


def test_csv_writer(tmp_path, lossy):
    _, _, _, _, _, bundle, _ = lossy
    law = strict_law(bundle.k)
    loop = build_closed_loop(bundle, law)
    cfg = SimConfig(dt=1e-2, T=0.1,
                    input=InputSignal(m=law.m, kind="sine"))
    traj = run(loop, cfg, x0=random_state(bundle, seed=9))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, str(path))
    header = path.read_text().splitlines()[0].split(",")
    assert header[:6] == ["t", "energy", "supplied", "dissipated",
                          "boundary_term", "residual"]
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape[0] == len(traj.times)


# ---------------------------------------------------------------------------
# the face-eliminated midpoint solve against the full complex system
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def criterion3_bundles():
    return {"lossy": criterion3_bundle(lossy=True)[-1],
            "lossless": criterion3_bundle(lossy=False)[-1]}


@pytest.mark.parametrize("which", ["lossy", "lossless"])
@pytest.mark.parametrize("case", ["real_law_real_input", "real_law_complex_input",
                                  "complex_law"])
def test_stepper_matches_full_complex_solve(criterion3_bundles, which, case):
    stats = check_step_against_full_solve(criterion3_bundles[which], case)
    assert stats["method"] == "direct"


@pytest.mark.parametrize("case", ["real_law_real_input", "real_law_complex_input",
                                  "complex_law"])
def test_sparse_stored_step_matches_full_complex_solve(criterion3_bundles, monkeypatch,
                                                       case):
    # with the switch at fill 1 every inverse is stored as CSR: a complex
    # right-hand side on a real CSR inverse and a complex CSR inverse
    monkeypatch.setattr(sim, "SPARSE_INVERSE_MAX_FILL", 1.0)
    stats = check_step_against_full_solve(criterion3_bundles["lossy"], case)
    n, itemsize = stats["reduced_unknowns"], 16 if case == "complex_law" else 8
    kept = round(stats["inverse_fill"] * n * n)
    assert stats["method"] == "direct" and 0.9 < stats["inverse_fill"] < 1.0
    assert stats["inverse_bytes"] == kept * (itemsize + 4) + (n + 1) * 4


def check_step_against_full_solve(bundle, case):
    """One step against a complex spsolve of the full system; returns stats."""
    k = bundle.k
    W2 = (1.0 + 0.5j) * np.eye(2 * k) if case == "complex_law" else np.eye(2 * k)
    law = PortLaw(W_B_inp=np.hstack([np.eye(2 * k), W2]), W_B_0=np.zeros((0, 4 * k)),
                  W_C_out=np.zeros((1, 4 * k)), k=k)
    loop = build_closed_loop(bundle, law)
    assert np.iscomplexobj(loop.A) == (case == "complex_law")
    dt = 1e-2
    stepper = MidpointStepper(loop, dt)
    x = random_state(bundle, seed=11)
    u = np.array([0.3, -0.2])
    if case == "real_law_complex_input":
        u = u + 1j * np.array([0.1, 0.4])
    x_next, x_mid = midpoint_step(stepper, x, u)

    lhs = (sp.identity(bundle.n, dtype=complex) - 0.5 * dt * loop.A.astype(complex)).tocsc()
    rhs = (x + 0.5 * dt * (loop.Bu @ u)).astype(complex)
    ref = spla.spsolve(lhs, rhs)
    assert np.linalg.norm(x_mid - ref) <= 1e-12 * np.linalg.norm(ref)
    assert np.linalg.norm(x_next - (2.0 * ref - x)) <= 1e-12 * np.linalg.norm(ref)
    assert np.iscomplexobj(x_mid) == (case != "real_law_real_input")
    stats = stepper.stats()
    assert stats["reduced_unknowns"] == bundle.n - bundle.layout.n_faces
    assert 0.0 < stats["max_rel_residual"] <= 1e-10
    return stats


def test_stepper_rejects_face_face_block(criterion3_bundles):
    bundle = criterion3_bundles["lossy"]
    loop = build_closed_loop(bundle, strict_law(bundle.k))
    f0 = bundle.layout.sl_H.start
    poke = sp.csr_matrix(([1.0], ([f0], [f0 + 1])), shape=loop.A.shape)
    with pytest.raises(SolverError, match="face-face"):
        MidpointStepper(dataclasses.replace(loop, A=loop.A + poke), 1e-2)


def test_singular_step_matrix_is_a_solver_error(criterion3_bundles, monkeypatch):
    # A's first row 2/dt e_0 makes row 0 of L = I - dt/2 A, and so of S,
    # exactly zero: the dense inversion fails and is reported typed.  Row 0
    # is a line cell, so on the BiCGStab branch the line block S_LL is singular
    # and its inversion fails the same way
    bundle = criterion3_bundles["lossy"]
    loop = build_closed_loop(bundle, strict_law(bundle.k))
    A = loop.A.tolil()
    A[0, :] = 0.0
    A[0, 0] = 200.0
    tampered = dataclasses.replace(loop, A=A.tocsr())
    with pytest.raises(SolverError, match="step matrix inversion failed"):
        MidpointStepper(tampered, 1e-2)
    monkeypatch.setattr(sim, "DIRECT_MAX_UNKNOWNS", 0)
    with pytest.raises(SolverError, match="line block inversion failed"):
        MidpointStepper(tampered, 1e-2)


@pytest.fixture()
def two_blas_threads():
    """The OpenBLAS of the process set to 2 threads for the test, and its
    get; the test is skipped where no OpenBLAS is mapped into the process."""
    control = sim._openblas_threads()
    if control is None:
        pytest.skip("no OpenBLAS in this process")
    get, put = control
    saved = get()
    put(2)
    yield get
    put(saved)


def test_run_steps_on_one_blas_thread_and_restores_the_callers(
        criterion3_bundles, monkeypatch, two_blas_threads):
    # the single cable's inverse and stepping run on 1 thread; from
    # _THREADED_MIN_ORDER on, both keep the caller's 2
    get = two_blas_threads
    seen = []
    inv, advance = np.linalg.inv, MidpointStepper.advance

    def counting_inv(M):
        seen.append(("inv", get()))
        return inv(M)

    def counting_advance(self, *args):
        seen.append(("advance", get()))
        return advance(self, *args)

    bundle = criterion3_bundles["lossy"]
    loop = build_closed_loop(bundle, strict_law(bundle.k))
    cfg = SimConfig(dt=1e-2, T=2e-2, input=InputSignal(m=loop.law.m, kind="sine"))
    monkeypatch.setattr(np.linalg, "inv", counting_inv)
    monkeypatch.setattr(MidpointStepper, "advance", counting_advance)
    assert run(loop, cfg).solver["blas_threads"] == 1
    assert seen == [("inv", 1), ("advance", 1)] and get() == 2
    # the singular step matrix of test_singular_step_matrix_is_a_solver_error:
    # the set-up raises inside the scope, and the caller's count is restored
    A = loop.A.tolil()
    A[0, :] = 0.0
    A[0, 0] = 200.0
    with pytest.raises(SolverError, match="step matrix inversion failed"):
        run(dataclasses.replace(loop, A=A.tocsr()), cfg)
    assert get() == 2
    seen.clear()
    monkeypatch.setattr(sim, "_THREADED_MIN_ORDER", 0)
    assert run(loop, cfg).solver["blas_threads"] == 2
    assert seen == [("inv", 2), ("advance", 2)] and get() == 2


def test_run_without_openblas_reports_no_thread_count(lossless, monkeypatch):
    monkeypatch.setattr(sim, "_openblas_threads", lambda: None)
    bundle = lossless[5]
    loop = build_closed_loop(bundle, skew_law(bundle.k))
    cfg = SimConfig(dt=1e-2, T=5e-2, input=InputSignal(m=loop.law.m, kind="sine"))
    traj = run(loop, cfg)
    assert traj.solver["blas_threads"] is None and traj.solver["solves"] == 5


# ---------------------------------------------------------------------------
# the BiCGStab path (exact line block, field diagonal), forced by setting the
# size rule to 0
# ---------------------------------------------------------------------------

@pytest.fixture()
def krylov(monkeypatch):
    monkeypatch.setattr(sim, "DIRECT_MAX_UNKNOWNS", 0)


@pytest.mark.parametrize("case", ["real_law_real_input", "real_law_complex_input",
                                  "complex_law"])
def test_krylov_step_matches_full_complex_solve(criterion3_bundles, krylov, case):
    stats = check_step_against_full_solve(criterion3_bundles["lossy"], case)
    assert stats["method"] == "bicgstab" and "inverse_bytes" not in stats
    assert stats["solves"] == 1 and stats["iterations_max"] == stats["iterations_mean"] > 0


def test_krylov_path_keeps_criterion_4(criterion3_bundles, krylov):
    # acceptance criterion 4 with its bundles, laws and bounds on the BiCGStab solve
    lossless = criterion3_bundles["lossless"]
    k = lossless.k
    skew = skew_law(k)
    loop = build_closed_loop(lossless, skew)
    x0 = random_state(lossless, seed=4)
    cfg = SimConfig(dt=5e-3, T=5.0, input=InputSignal(m=skew.m))
    traj = run(loop, cfg, x0=x0)
    assert traj.solver["method"] == "bicgstab"
    drift = np.abs(traj.energy - traj.energy[0]).max() / traj.energy[0]
    back = reverse_run(loop, traj.x_final, cfg.dt, 1000)
    rev_err = np.linalg.norm(back - x0) / np.linalg.norm(x0)
    assert drift <= 1e-10 and rev_err <= 1e-8

    lossy = criterion3_bundles["lossy"]
    strict = PortLaw(W_B_inp=np.hstack([np.eye(2 * k), np.eye(2 * k)]),
                     W_B_0=np.zeros((0, 4 * k)),
                     W_C_out=np.hstack([np.eye(2 * k), np.zeros((2 * k, 2 * k))]), k=k)
    traj_l = run(build_closed_loop(lossy, strict),
                 SimConfig(dt=1e-2, T=2.0, input=InputSignal(m=strict.m)),
                 x0=random_state(lossy, seed=5))
    assert np.all(np.diff(traj_l.energy) <= 1e-12 * traj_l.energy[0])


def assembled_step_matrix(loop, dt):
    """S = I - h A_rr - (h A_rf)(h A_fr), h = dt/2, assembled from loop.A."""
    lay = loop.bundle.layout
    r = np.r_[lay.sl_I, lay.sl_V.start:loop.bundle.n]
    f = np.arange(lay.sl_H.start, lay.sl_H.stop)
    hA = 0.5 * dt * loop.A.tocsr()
    return (sp.identity(r.size, format="csr") - hA[r][:, r]
            - hA[r][:, f] @ hA[f][:, r]).tocsr(), hA[f][:, r]


@pytest.fixture(scope="module")
def pair_loop():
    from conftest import straight_pair_config
    from cablefield.scenario import build_scenario

    return build_scenario(straight_pair_config()).closed_loop()


@pytest.mark.parametrize("case", ["pair", "complex_law"])
def test_block_product_is_the_assembled_step_matrix(criterion3_bundles, pair_loop, krylov,
                                                    case):
    # the BiCGStab step holds only h [A_rr; A_fr] and h A_rf: its product, its
    # field diagonal and its line block's inverse are those of S assembled
    # here, to roundoff
    if case == "pair":
        loop = pair_loop
    else:
        bundle = criterion3_bundles["lossy"]
        k = bundle.k
        law = PortLaw(W_B_inp=np.hstack([np.eye(2 * k), (1.0 + 0.5j) * np.eye(2 * k)]),
                      W_B_0=np.zeros((0, 4 * k)), W_C_out=np.zeros((1, 4 * k)), k=k)
        loop = build_closed_loop(bundle, law)
    dt = 1e-2
    stepper = MidpointStepper(loop, dt)
    S, hAfr = assembled_step_matrix(loop, dt)
    assert np.iscomplexobj(S.data) == (case == "complex_law")
    rng = np.random.default_rng(3)
    for x in (rng.standard_normal(S.shape[0]),
              rng.standard_normal(S.shape[0]) + 1j * rng.standard_normal(S.shape[0])):
        Sx, face = stepper._apply_S(x)
        ref = S @ x
        assert np.linalg.norm(Sx - ref) <= 1e-15 * np.linalg.norm(ref)
        assert np.linalg.norm(face - hAfr @ x) <= 1e-15 * np.linalg.norm(hAfr @ x)
    lay = loop.bundle.layout
    nl = stepper.stats()["line_block_unknowns"]
    assert nl == lay.n_cells + lay.n_nodes
    diag = S.diagonal()[nl:]
    assert np.abs(1.0 / stepper._dinv - diag).max() <= 1e-15 * np.abs(diag).max()
    product = stepper._line_inv @ S[:nl, :nl].toarray()
    assert np.abs(product - np.eye(nl)).max() <= nl * np.finfo(float).eps


def test_the_step_stores_no_more_than_the_generator(pair_loop, krylov):
    # pair scale 1: the step's operators are A's entries, re-indexed, a few
    # vectors of the reduced size (row pointers, the field diagonal) and the
    # nl x nl inverse of the line block
    stats = MidpointStepper(pair_loop, 1e-2).stats()
    A = pair_loop.A
    a_bytes = A.data.nbytes + A.indices.nbytes + A.indptr.nbytes
    n_r, nl = stats["reduced_unknowns"], stats["line_block_unknowns"]
    assert stats["method"] == "bicgstab"
    assert a_bytes < stats["operator_bytes"] <= a_bytes + 24 * n_r + 8 * nl ** 2


def test_line_block_cuts_the_pair_iterations(pair_loop):
    # the scenario's run at dt = 1e-2: with the exact line block a step
    # takes 3 iterations of two S products each
    cfg = SimConfig(dt=1e-2, T=0.3, input=InputSignal(m=4, kind="sine",
                                                      amplitude=[0.3, 0.0, 0.1, 0.0]))
    traj = run(pair_loop, cfg, x0=smooth_state(pair_loop.bundle, scale=0.5))
    assert traj.solver["method"] == "bicgstab"
    assert traj.solver["iterations_mean"] <= 6


def test_krylov_solve_reuses_the_last_product(criterion3_bundles, krylov, monkeypatch):
    # a solve starts from the product S x_r of the previous solve's last
    # true-residual check: each S product but that check's follows an
    # M^-1 product, so at most two per iteration and one more, and the kept
    # product is bit for bit S x_r
    bundle = criterion3_bundles["lossy"]
    law = strict_law(bundle.k)
    stepper = MidpointStepper(build_closed_loop(bundle, law), 1e-2)
    calls, preconditioned = [], []
    apply_S, precondition = stepper._apply_S, stepper._precondition

    def counted(x):
        calls.append(1)
        return apply_S(x)

    def counted_precondition(v, out):
        preconditioned.append(1)
        return precondition(v, out)

    monkeypatch.setattr(stepper, "_apply_S", counted)
    monkeypatch.setattr(stepper, "_precondition", counted_precondition)
    u = np.sin(np.arange(4)[:, None] + np.arange(law.m))
    stepper.advance(random_state(bundle, seed=2), u)
    assert stepper.solves == 4 and min(stepper.iterations) > 0
    assert len(calls) == len(preconditioned) + 4 <= 2 * sum(stepper.iterations) + 4
    x_r, Sx, t_f = stepper._warm
    ref, ref_f = apply_S(x_r)
    assert np.array_equal(Sx, ref) and np.array_equal(t_f, ref_f)
    # a complex solve after real ones forms its start's product anew
    del calls[:], preconditioned[:]
    stepper.advance(random_state(bundle, seed=3), 1j * u[:1])
    assert len(calls) == len(preconditioned) + 2 <= 2 * stepper.iterations[-1] + 2


def test_the_closed_loop_keeps_no_J():
    # J is assembled for the closed loop and dropped, and A is bit for bit
    # the closed loop of a J read afterwards; no read of J keeps it
    bundle = make_setup(n=(6, 6, 10), n_line=12)[5]
    loop = build_closed_loop(bundle, strict_law(bundle.k))
    assert "J" not in vars(bundle)
    J = bundle.J
    assert "J" not in vars(bundle) and bundle.J is not J
    delta = sp.csr_matrix(loop.G_fb) @ bundle.B2 - bundle.B1
    Lg_state = block_operators(bundle)["Lg_state"]
    ref = ((J + Lg_state @ delta - bundle.Rd) @ bundle.Hd).tocsr()
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(loop.A, name), getattr(ref, name))


def test_krylov_iteration_cap_is_a_solver_error(criterion3_bundles, krylov, monkeypatch):
    monkeypatch.setattr(sim, "KRYLOV_MAX_ITERATIONS", 3)
    bundle = criterion3_bundles["lossy"]
    law = strict_law(bundle.k)
    stepper = MidpointStepper(build_closed_loop(bundle, law), 1e-2)
    with pytest.raises(SolverError, match=r"BiCGStab did not converge in 3 iterations: "
                                          r"relative residual \d"):
        midpoint_step(stepper, random_state(bundle, seed=2), np.zeros(law.m))


def test_krylov_breakdown_restarts_until_the_cap(criterion3_bundles, krylov, monkeypatch):
    # S rotates each pair of unknowns by 90 degrees and M = I, so with the
    # shadow r^ = r every pass breaks down at once on <r^, S M^-1 r> = 0:
    # each restart counts, and the solve ends in a SolverError at the cap,
    # neither in a hang nor in a NaN
    bundle = criterion3_bundles["lossy"]
    stepper = MidpointStepper(build_closed_loop(bundle, strict_law(bundle.k)), 1e-2)
    n_r, n_f = stepper.stats()["reduced_unknowns"], bundle.layout.n_faces
    pairs = n_r - n_r % 2
    passes = []

    def rotate(x):
        Sx = x.copy()
        Sx[0:pairs:2], Sx[1:pairs:2] = -x[1:pairs:2], x[0:pairs:2]
        return Sx, np.zeros(n_f, dtype=x.dtype)

    def identity(v, out):
        passes.append(1)
        out[:] = v
        return out

    monkeypatch.setattr(stepper, "_apply_S", rotate)
    monkeypatch.setattr(stepper, "_precondition", identity)
    b = np.zeros(n_r)
    b[0] = 1.0
    with pytest.raises(SolverError, match=r"BiCGStab did not converge in "
                                          rf"{sim.KRYLOV_MAX_ITERATIONS} iterations: "
                                          r"relative residual 1\.000e\+00"):
        stepper._bicgstab(b, *stepper._warm)
    assert len(passes) == sim.KRYLOV_MAX_ITERATIONS


# ---------------------------------------------------------------------------
# the direct path on the above-roundoff entries of the inverse, stored sparse
# ---------------------------------------------------------------------------

def test_sparse_inverse_keeps_criterion_4(criterion3_bundles):
    # acceptance criterion 4's skew loop and bounds at dt = 2e-5, where 8 %
    # of the inverse lies above roundoff and it is kept as CSR
    lossless = criterion3_bundles["lossless"]
    loop = build_closed_loop(lossless, skew_law(lossless.k))
    x0 = random_state(lossless, seed=4)
    cfg = SimConfig(dt=2e-5, T=0.02, input=InputSignal(m=loop.law.m))
    traj = run(loop, cfg, x0=x0)
    n = traj.solver["reduced_unknowns"]
    assert traj.solver["inverse_fill"] <= sim.SPARSE_INVERSE_MAX_FILL
    assert traj.solver["inverse_bytes"] < n * n * 8
    drift = np.abs(traj.energy - traj.energy[0]).max() / traj.energy[0]
    back = reverse_run(loop, traj.x_final, cfg.dt, 1000)
    rev_err = np.linalg.norm(back - x0) / np.linalg.norm(x0)
    assert drift <= 1e-10 and rev_err <= 1e-8
