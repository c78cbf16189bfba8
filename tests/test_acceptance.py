"""End-to-end acceptance suite.

One test per numbered criterion; each prints a PASS/FAIL line (run with
-s to see them).  Criterion 8 is split.  Its strict-seed half checks the
output inequality, the obstruction W_B Sigma W_B^H = K != 0 that rules out
any Sigma-unitary completion, and the exact closed-form defect
Sigma - M^H Sigma M = -blkdiag(W2^-1 K W2^-H, 0) of the builder's
completion M = [W_B; W_C].
"""

import time

import numpy as np
import pytest
import scipy.sparse as sp

from cablefield.assembly import (
    assemble_system,
    build_closed_loop,
    hodge_extremes,
)
from cablefield.certify import (
    PortLaw,
    build_colocated_output,
    check_admissible,
    colocation_defect,
    kernel_relation_oracle,
    sigma_matrix,
    wellposedness_constants,
)
from cablefield.coupling import assemble_P_el, assemble_P_mag
from cablefield.geometry import (
    CircularArc,
    GeometrySpec,
    Helix,
    SplineCurve,
    StraightSegment,
    build_chart,
    validate_geometry,
)
from cablefield.maxwell import FieldMaterials, assemble_curls, build_grid, surface_trace
from cablefield.sim import (
    InputSignal,
    SimConfig,
    random_state,
    run,
    smooth_state,
    wp_bound_series,
)
from cablefield.tline import LineMaterials, assemble_line, build_line_grid

from oracles import constrained_generator, reverse_run


def report(criterion, passed, detail=""):
    tag = "PASS" if passed else "FAIL"
    print(f"[acceptance] criterion {criterion}: {tag}  {detail}")
    return passed


def build_bundle(n, n_line, k, cables, box, line_mats=None, field_mats=None,
                 collar=0.3, n_theta=12):
    spec = GeometrySpec(box=np.asarray(box, dtype=float), cables=cables,
                        collar_halfwidth=collar)
    grid = build_grid(spec, n)
    lg = build_line_grid(n_line, k)
    blocks = assemble_line(line_mats or LineMaterials(k=k), lg)
    curls = assemble_curls(grid, field_mats or FieldMaterials())
    charts = [spec.chart(i, n_eta=n_line, n_theta=n_theta)
              for i in range(len(cables))]
    cp = assemble_P_el(charts, lg) if cables else None
    R_nu = surface_trace(grid, charts) if cables else None
    bundle = assemble_system(blocks, curls, coupling=cp, R_nu=R_nu)
    return spec, grid, lg, charts, bundle


def criterion3_bundle(lossy):
    cables = [StraightSegment(p0=(0.3, 0.3, 0.15), direction=(0, 0, 1),
                              length=0.7, radius=0.2, line=0)]
    lm = LineMaterials(k=1, R=0.2, G=0.1) if lossy else LineMaterials(k=1)
    fm = FieldMaterials(sigma=0.2) if lossy else FieldMaterials()
    return build_bundle((6, 6, 10), 12, 1, cables,
                        [[0, 0.6], [0, 0.6], [0, 1.0]],
                        line_mats=lm, field_mats=fm)


def admissible_W(rng, k, kind="strict"):
    two_k = 2 * k
    dtype_c = rng.uniform() < 0.5
    def rand():
        base = rng.standard_normal((two_k, two_k))
        return base + 1j * rng.standard_normal((two_k, two_k)) if dtype_c else base
    W2 = rand() + 3.0 * np.eye(two_k)
    N = rand()
    N = 0.5 * (N - N.conj().T)
    if kind == "strict":
        K0 = rand()
        K0 = K0 @ K0.conj().T + 0.3 * np.eye(two_k)
    elif kind == "skew":
        K0 = np.zeros((two_k, two_k))
    else:
        v = rng.standard_normal((two_k, max(1, two_k // 2)))
        K0 = v @ v.T
    W1 = 0.5 * (K0 + N) @ np.linalg.inv(W2.conj().T)
    return np.hstack([W1, W2])


# ---------------------------------------------------------------------------
# criterion 1: discrete Green identity
# ---------------------------------------------------------------------------

def test_criterion_1_green_identity():
    t0 = time.time()
    cables = [StraightSegment(p0=(0.5, 0.5, 0.2), direction=(0, 0, 1),
                              length=1.0, radius=0.2, line=0)]
    _, _, _, _, bundle = build_bundle((10, 10, 14), 24, 2, cables,
                                      [[0, 1], [0, 1], [0, 1.4]])
    rng = np.random.default_rng(0)
    M, J, B1, B2 = bundle.M, bundle.J, bundle.B1, bundle.B2
    worst = 0.0
    for _ in range(100):
        e1 = rng.standard_normal(bundle.n) + 1j * rng.standard_normal(bundle.n)
        e2 = rng.standard_normal(bundle.n) + 1j * rng.standard_normal(bundle.n)
        lhs = np.vdot(e2, M @ (J @ e1)) + np.vdot(J @ e2, M @ e1)
        rhs = np.vdot(B2 @ e2, B1 @ e1) + np.vdot(B1 @ e2, B2 @ e1)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    elapsed = time.time() - t0
    ok = worst <= 1e-12 and elapsed <= 30.0
    assert report(1, ok, f"max relative residual {worst:.2e}, {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# criterion 2: coupling adjointness + independent quadrature oracle
# ---------------------------------------------------------------------------

def test_criterion_2_coupling_adjointness():
    t0 = time.time()
    r = 0.1
    cable = StraightSegment(p0=(0, 0, 0), direction=(0, 0, 1), length=1.0,
                            radius=r, line=0)
    # exact mass-weighted adjoint, entrywise
    chart = build_chart(cable, 16, 24)
    lg = build_line_grid(16, 1)
    cp = assemble_P_el([chart], lg)
    lhs = cp.Pmag.toarray()
    rhs = np.diag(1.0 / lg.Mc.diagonal()) @ cp.Pel.T.toarray() @ cp.M_surf.toarray()
    entry_err = np.abs(lhs - rhs).max() / np.abs(rhs).max()

    # independent loop-quadrature oracle: ring value 2 pi r h for the
    # constant axial field, and order >= 1.9 agreement on a smooth field
    ring_errs, diffs = [], []
    for n, m in ((16, 24), (32, 48), (64, 96)):
        chart = build_chart(cable, n, m)
        lg = build_line_grid(n, 1)
        cpk = assemble_P_el([chart], lg)
        Pq = assemble_P_mag([chart], lg)
        const = np.tile([0.0, 0.0, 2.0], chart.n_quad)
        ring_errs.append(np.abs(Pq @ const - 2 * np.pi * r * 2.0).max())
        pts = chart.quad_points()
        g = np.stack([np.sin(3 * pts[:, 1]), np.cos(2 * pts[:, 0]), pts[:, 2] ** 2],
                     axis=1).reshape(-1)
        diffs.append(np.abs(cpk.Pmag @ g - Pq @ g).max())

    orders = [np.log2(a / b) for a, b in zip(diffs[:-1], diffs[1:])]
    ring_orders = [np.log2(a / b) for a, b in zip(ring_errs[:-1], ring_errs[1:])]
    elapsed = time.time() - t0
    ok = (entry_err <= 1e-13 and min(orders) >= 1.9 and min(ring_orders) >= 1.9
          and elapsed <= 60.0)
    assert report(2, ok, f"adjoint entry err {entry_err:.1e}, oracle orders "
                         f"{[f'{o:.2f}' for o in orders]}, ring orders "
                         f"{[f'{o:.2f}' for o in ring_orders]}, {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# criterion 3: spectral dissipativity of the constrained generator
# ---------------------------------------------------------------------------

def test_criterion_3_spectral_dissipativity():
    t0 = time.time()
    _, _, _, _, lossy = criterion3_bundle(lossy=True)
    _, _, _, _, lossless = criterion3_bundle(lossy=False)
    rng = np.random.default_rng(1)

    worst_adm = -np.inf
    for i in range(20):
        kind = ("strict", "mixed")[i % 2]
        W = admissible_W(rng, lossy.k, kind)
        loop = constrained_generator(lossy, W)
        eigs = np.linalg.eigvals(loop.A.toarray())
        worst_adm = max(worst_adm, eigs.real.max())

    worst_skew = 0.0
    sig = sigma_matrix(2 * lossless.k)
    for _ in range(20):
        W = admissible_W(rng, lossless.k, "skew")
        assert np.abs(W @ sig @ W.conj().T).max() <= 1e-10 * max(1.0, np.abs(W).max() ** 2)
        loop = constrained_generator(lossless, W)
        eigs = np.linalg.eigvals(loop.A.toarray())
        worst_skew = max(worst_skew, np.abs(eigs.real).max())

    elapsed = time.time() - t0
    ok = worst_adm <= 1e-10 and worst_skew <= 1e-10 and elapsed <= 300.0
    assert report(3, ok, f"max Re(lambda) {worst_adm:.2e} (admissible), "
                         f"max |Re(lambda)| {worst_skew:.2e} (skew), {elapsed:.0f} s")


# ---------------------------------------------------------------------------
# criterion 4: conservation, contraction, reversibility
# ---------------------------------------------------------------------------

def test_criterion_4_energy_conservation_and_contraction():
    t0 = time.time()
    _, _, _, _, lossless = criterion3_bundle(lossy=False)
    k = lossless.k
    skew = PortLaw(W_B_inp=np.hstack([np.eye(2 * k), np.zeros((2 * k, 2 * k))]),
                   W_B_0=np.zeros((0, 4 * k)),
                   W_C_out=np.hstack([np.zeros((2 * k, 2 * k)), np.eye(2 * k)]),
                   k=k)
    loop = build_closed_loop(lossless, skew)
    x0 = random_state(lossless, seed=4)
    cfg = SimConfig(dt=5e-3, T=5.0, input=InputSignal(m=skew.m))
    traj = run(loop, cfg, x0=x0)
    drift = np.abs(traj.energy - traj.energy[0]).max() / traj.energy[0]

    back = reverse_run(loop, traj.x_final, cfg.dt, 1000)
    rev_err = np.linalg.norm(back - x0) / np.linalg.norm(x0)

    _, _, _, _, lossy = criterion3_bundle(lossy=True)
    strict = PortLaw(W_B_inp=np.hstack([np.eye(2 * k), np.eye(2 * k)]),
                     W_B_0=np.zeros((0, 4 * k)),
                     W_C_out=np.hstack([np.eye(2 * k), np.zeros((2 * k, 2 * k))]),
                     k=k)
    loop_l = build_closed_loop(lossy, strict)
    traj_l = run(loop_l, SimConfig(dt=1e-2, T=2.0, input=InputSignal(m=strict.m)),
                 x0=random_state(lossy, seed=5))
    monotone = bool(np.all(np.diff(traj_l.energy) <= 1e-12 * traj_l.energy[0]))

    elapsed = time.time() - t0
    ok = drift <= 1e-10 and monotone and rev_err <= 1e-8 and elapsed <= 120.0
    assert report(4, ok, f"drift {drift:.2e} over 1000 steps, monotone={monotone}, "
                         f"reversibility {rev_err:.2e}, {elapsed:.0f} s")


# ---------------------------------------------------------------------------
# criterion 5: energy balance residual, second order in dt
# ---------------------------------------------------------------------------

def test_criterion_5_energy_balance():
    t0 = time.time()
    _, _, _, _, bundle = criterion3_bundle(lossy=True)
    k = bundle.k
    W_B = np.hstack([np.eye(2 * k), np.eye(2 * k)])
    W_C = build_colocated_output(W_B)
    law = PortLaw(W_B_inp=W_B, W_B_0=np.zeros((0, 4 * k)), W_C_out=W_C, k=k)
    loop = build_closed_loop(bundle, law)
    x0 = smooth_state(bundle)

    details = []
    ok = True
    for kind, kwargs in (("sine", {"freq": 0.3, "amplitude": 0.3 * np.ones(law.m)}),
                         ("step", {"t_on": 0.05, "ramp": 0.15,
                                   "amplitude": 0.3 * np.ones(law.m)})):
        residuals = []
        for dt in (8e-5, 4e-5, 2e-5):
            cfg = SimConfig(dt=dt, T=0.3, input=InputSignal(m=law.m, kind=kind, **kwargs))
            traj = run(loop, cfg, x0=x0)
            residuals.append(traj.ledger["max_residual"] / traj.ledger["peak_energy"])
        ratios = [a / b for a, b in zip(residuals[:-1], residuals[1:])]
        ok &= residuals[-1] <= 1e-8
        ok &= all(3.0 <= r <= 5.3 for r in ratios)
        details.append(f"{kind}: res {residuals[-1]:.2e}, ratios "
                       + "/".join(f"{r:.2f}" for r in ratios))
    elapsed = time.time() - t0
    assert report(5, ok, "; ".join(details) + f", {elapsed:.0f} s")


# ---------------------------------------------------------------------------
# criteria 1, 4 and 5 on curved cables
# ---------------------------------------------------------------------------

# One cable of each curved kind in a box sized to it: h = 0.1 and r = 2h (the
# fewest cells across a tube), with the collar shell inside the box.
CURVED_CABLES = {
    "arc": ([[0, 0.7], [0, 0.7], [0, 1.2]], (7, 7, 12),
            lambda: CircularArc(center=(-0.6, 0.35, 0.6), u=(1, 0, 0), v=(0, 0, 1), rho=1.0,
                                phi0=-0.33, phi1=0.33, radius=0.2)),
    "helix": ([[0, 0.7], [0, 0.7], [0, 1.2]], (7, 7, 12),
              lambda: Helix(base=(0.35, 0.35, 0.25), axis=(0, 0, 1), a=0.06, b=0.15,
                            turns=0.74, radius=0.2)),
    "spline": ([[0, 0.7], [0, 0.7], [0, 1.3]], (7, 7, 13),
               lambda: SplineCurve(np.array([[0.35, 0.34, 0.29], [0.36, 0.35, 0.52],
                                             [0.34, 0.36, 0.76], [0.35, 0.35, 0.99]]),
                                   radius=0.2)),
}


@pytest.mark.parametrize("kind", sorted(CURVED_CABLES))
def test_curved_cable_end_to_end(kind):
    # the Green identity, criterion 4's lossless conservation and
    # reversibility, and criterion 5's second-order ledger, on a curved cable
    t0 = time.time()
    box, n, cable = CURVED_CABLES[kind]
    spec, _, _, _, lossless = build_bundle(n, 12, 1, [cable()], box)
    assert validate_geometry(spec)["passed"]
    green = lossless.green_residual

    skew = PortLaw(W_B_inp=np.hstack([np.eye(2), np.zeros((2, 2))]), W_B_0=np.zeros((0, 4)),
                   W_C_out=np.hstack([np.zeros((2, 2)), np.eye(2)]), k=1)
    loop = build_closed_loop(lossless, skew)
    x0 = random_state(lossless, seed=4)
    cfg = SimConfig(dt=5e-3, T=5.0, input=InputSignal(m=skew.m))
    traj = run(loop, cfg, x0=x0)
    drift = np.abs(traj.energy - traj.energy[0]).max() / traj.energy[0]
    back = reverse_run(loop, traj.x_final, cfg.dt, 1000)
    rev_err = np.linalg.norm(back - x0) / np.linalg.norm(x0)

    _, _, _, _, lossy = build_bundle(n, 12, 1, [cable()], box,
                                     line_mats=LineMaterials(k=1, R=0.2, G=0.1),
                                     field_mats=FieldMaterials(sigma=0.2))
    W_B = np.hstack([np.eye(2), np.eye(2)])
    strict = PortLaw(W_B_inp=W_B, W_B_0=np.zeros((0, 4)),
                     W_C_out=build_colocated_output(W_B), k=1)
    loop_l = build_closed_loop(lossy, strict)
    x0_l = smooth_state(lossy)
    residuals = []
    for dt in (2e-3, 1e-3):
        sine = InputSignal(m=strict.m, kind="sine", freq=1.5, amplitude=0.5 * np.ones(2))
        led = run(loop_l, SimConfig(dt=dt, T=0.4, input=sine), x0=x0_l).ledger
        residuals.append(led["max_residual"] / led["peak_energy"])
    ratio = residuals[0] / residuals[1]

    elapsed = time.time() - t0
    ok = (green <= 1e-12 and drift <= 1e-10 and rev_err <= 1e-8
          and 2 ** 1.5 <= ratio <= 2 ** 2.5)
    assert report(f"1, 4, 5 on a curved {kind}", ok,
                  f"green {green:.2e}, drift {drift:.2e}, reversibility {rev_err:.2e}, "
                  f"ledger ratio dt/(dt/2) {ratio:.2f}, {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# criterion 6: well-posedness constants and sampled bound
# ---------------------------------------------------------------------------

def test_criterion_6_wellposedness_bound():
    t0 = time.time()
    # delta spot check against the 2x2 eigensolve oracle
    spot = PortLaw(
        W_B_inp=np.hstack([np.eye(2), np.eye(2)]), W_B_0=np.zeros((0, 4)),
        W_C_out=np.hstack([np.eye(2), np.zeros((2, 2))]), k=1)
    assert abs(wellposedness_constants(spot, 1.0, 1.0).delta - 2.0) <= 1e-12

    _, _, _, _, bundle = criterion3_bundle(lossy=True)
    k = bundle.k
    W_B = np.hstack([np.eye(2 * k), np.eye(2 * k)])
    W_C = build_colocated_output(W_B)
    law = PortLaw(W_B_inp=W_B, W_B_0=np.zeros((0, 4 * k)), W_C_out=W_C, k=k)
    lo, hi = hodge_extremes(bundle)
    cert = wellposedness_constants(law, lo, hi)
    loop = build_closed_loop(bundle, law)

    rng = np.random.default_rng(6)
    worst = 0.0
    for trial in range(50):
        x0 = random_state(bundle, seed=100 + trial, scale=rng.uniform(0.1, 2.0))
        sig = InputSignal(m=law.m, kind="sine",
                          amplitude=rng.uniform(-1, 1, law.m),
                          freq=rng.uniform(0.2, 3.0), phase=rng.uniform(0, 6.28))
        cfg = SimConfig(dt=5e-3, T=0.3, input=sig)
        traj = run(loop, cfg, x0=x0)
        chk = wp_bound_series(traj, cert.c_t)
        worst = max(worst, chk["max_ratio"])
        if not chk["satisfied"]:
            break
    elapsed = time.time() - t0
    ok = worst <= 1.0 and cert.strict
    assert report(6, ok, f"delta={cert.delta:.3f}, gamma={cert.gamma:.3f}, "
                         f"c_t={cert.c_t:.3f}, worst bound ratio {worst:.3f}, "
                         f"{elapsed:.0f} s")


# ---------------------------------------------------------------------------
# criterion 7: kernel-relation lemma vs oracle
# ---------------------------------------------------------------------------

def test_criterion_7_lemma_oracle_agreement():
    rng = np.random.default_rng(7)
    agreements = 0
    for i in range(100):
        kind = ("strict", "skew", "mixed")[i % 3]
        l = 2 + 2 * (i % 2)
        W = admissible_W(rng, l // 2, kind)
        W1, W2 = W[:, :l], W[:, l:]
        lemma = check_admissible(np.hstack([W1, W2]))["admissible"]
        oracle = kernel_relation_oracle(W1, W2)
        agreements += int(lemma == oracle["maximally_dissipative"] == True)  # noqa: E712
    counterexample = (not check_admissible(np.hstack([np.eye(2), -np.eye(2)]))["admissible"]
                      and not kernel_relation_oracle(np.eye(2), -np.eye(2))["dissipative"])
    ok = agreements == 100 and counterexample
    assert report(7, ok, f"agreement {agreements}/100, counterexample rejected: "
                         f"{counterexample}")


# ---------------------------------------------------------------------------
# criterion 8: co-location builder
# ---------------------------------------------------------------------------

def test_criterion_8_colocation_builder():
    rng = np.random.default_rng(8)
    worst_defect, worst_cond, worst_res = -np.inf, 0.0, 0.0
    real_out = True
    for i in range(60):
        kind = ("strict", "skew", "mixed")[i % 3]
        W_B = admissible_W(rng, (1, 2)[i % 4 == 0], kind)
        W_C = build_colocated_output(W_B)
        lam = colocation_defect(W_B, W_C)
        worst_defect = max(worst_defect, lam.max())
        worst_cond = max(worst_cond, np.linalg.cond(np.vstack([W_B, W_C])))
        sig = sigma_matrix(W_B.shape[0])
        res = max(np.abs(W_B @ sig @ W_C.conj().T - np.eye(W_B.shape[0])).max(),
                  np.abs(W_C @ sig @ W_C.conj().T).max())
        worst_res = max(worst_res, res / max(1.0, np.linalg.norm(W_B, 2)
                                             * np.linalg.norm(W_C, 2)))
        if not np.iscomplexobj(W_B):
            law = PortLaw(W_B_inp=W_B, W_B_0=np.zeros((0, W_B.shape[1])), W_C_out=W_C,
                          k=W_B.shape[0] // 2)
            real_out = real_out and law.W_C_out.dtype == np.float64

    # Sigma-unitary equality on the skew seed [I, 0]
    W_B = np.hstack([np.eye(2), np.zeros((2, 2))])
    W_C = build_colocated_output(W_B)
    eq_err = np.abs(colocation_defect(W_B, W_C)).max()

    ok = (worst_defect <= 1e-10 and worst_cond <= 1e6 and worst_res <= 1e-12
          and real_out and eq_err <= 1e-10)
    assert report("8 (builder + skew seed)", ok,
                  f"max defect eig {worst_defect:.2e}, max cond {worst_cond:.1e}, "
                  f"max equation residual {worst_res:.1e}, real laws real {real_out}, "
                  f"[I,0] equality err {eq_err:.2e}")


def test_criterion_8_sigma_unitary_equality_on_strict_seed():
    """The exact Sigma-unitary defect of the strict seed's completion.

    A Sigma-unitary completion [W_B; W_C]^H Sigma [W_B; W_C] = Sigma forces
    W_B Sigma W_B^H = 0 (take the top-left block of the congruent identity
    M Sigma M^H = Sigma).  The seed W_B = (1/sqrt 2)[I, I] has
    W_B Sigma W_B^H = K = I != 0, so no completion achieves equality.  The
    builder's completion W_C = [W2^-H, 0] solves W_B Sigma W_C^H = I and
    W_C Sigma W_C^H = 0, hence M Sigma M^H = Sigma + diag(K, 0) and

        Sigma - M^H Sigma M = -M^H diag(0, K) M = -blkdiag(W2^-1 K W2^-H, 0),

    which is -diag(2, 2, 0, 0) here; its nonzero eigenvalues have the
    magnitude delta = lambda_min(W2^-1 K W2^-H) of the certificate.
    """
    W_B = np.hstack([np.eye(2), np.eye(2)]) / np.sqrt(2.0)
    W_C = build_colocated_output(W_B)
    lam = colocation_defect(W_B, W_C)
    assert lam.max() <= 1e-10          # inequality direction: holds

    sig = sigma_matrix(2)
    W1, W2 = W_B[:, :2], W_B[:, 2:]
    K = W1 @ W2.conj().T + W2 @ W1.conj().T
    assert np.abs(W_B @ sig @ W_C.conj().T - np.eye(2)).max() <= 1e-12
    assert np.abs(W_C @ sig @ W_C.conj().T).max() <= 1e-12

    # obstruction: the top-left block of M Sigma M^H is K, which must vanish
    # for a Sigma-unitary M; here K = I, so no such completion exists
    assert np.abs(W_B @ sig @ W_B.conj().T - K).max() <= 1e-12
    assert np.abs(K - np.eye(2)).max() <= 1e-12

    M = np.vstack([W_B, W_C])
    defect = sig - M.conj().T @ sig @ M
    W2_inv = np.linalg.inv(W2)
    closed = np.zeros((4, 4), dtype=complex)
    closed[:2, :2] = -W2_inv @ K @ W2_inv.conj().T
    assert np.abs(defect - closed).max() <= 1e-12
    assert np.abs(lam - np.array([-2.0, -2.0, 0.0, 0.0])).max() <= 1e-12

    law = PortLaw(W_B_inp=W_B, W_B_0=np.zeros((0, 4)), W_C_out=W_C, k=1)
    cert = wellposedness_constants(law, hodge_min=1.0, hodge_max=1.0)
    assert abs(abs(lam.min()) - cert.delta) <= 1e-12

    assert report("8 (Sigma-unitary defect, strict seed)", True,
                  f"||K|| {np.linalg.norm(K, 2):.3f}, defect eigs "
                  f"{np.array2string(lam, precision=3)}, delta {cert.delta:.3f}")
