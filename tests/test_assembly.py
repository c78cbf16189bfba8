import numpy as np
import pytest

from cablefield import assembly
from cablefield.assembly import assemble_system, build_closed_loop
from cablefield.certify import PortLaw, sigma_matrix
from cablefield.coupling import assemble_P_el, lift_voltage
from cablefield.errors import AssemblyError, CertificateError, DomainError
from cablefield.geometry import GeometrySpec, StraightSegment
from cablefield.maxwell import FieldMaterials, assemble_curls, build_grid, surface_trace, _curl_block
from cablefield.tline import LineMaterials, assemble_line, build_line_grid

from oracles import (
    apply_FG,
    apply_KL,
    constrained_generator,
    ghost_currents,
    green_residual,
    ports,
    u_hat,
    used_ports,
)


def make_setup(n=(6, 6, 10), n_line=12, k=1, line_mats=None, field_mats=None,
               radius=0.2, collar=0.3):
    box = np.array([[0, 0.1 * n[0]], [0, 0.1 * n[1]], [0, 0.1 * n[2]]])
    spec = GeometrySpec(
        box=box,
        cables=[StraightSegment(p0=(box[0, 1] / 2, box[1, 1] / 2, 0.15),
                                direction=(0, 0, 1), length=0.1 * n[2] - 0.3,
                                radius=radius, line=0)],
        collar_halfwidth=collar,
    )
    grid = build_grid(spec, n)
    lg = build_line_grid(n_line, k)
    blocks = assemble_line(line_mats or LineMaterials(k=k), lg)
    curls = assemble_curls(grid, field_mats or FieldMaterials())
    chart = spec.chart(0, n_eta=n_line, n_theta=12)
    R_nu = surface_trace(grid, [chart])
    cp = assemble_P_el([chart], lg)
    bundle = assemble_system(blocks, curls, coupling=cp, R_nu=R_nu)
    return spec, grid, lg, chart, cp, bundle, R_nu


@pytest.fixture(scope="module")
def setup():
    return make_setup()


def random_efforts(bundle, rng, count):
    for _ in range(count):
        yield (rng.standard_normal(bundle.n) + 1j * rng.standard_normal(bundle.n))


# ---------------------------------------------------------------------------
# Green identity and structure
# ---------------------------------------------------------------------------

def test_green_identity_random_pairs(setup):
    _, _, _, _, _, bundle, _ = setup
    # the block-pair check reproduces the full formula bit for bit
    assert bundle.green_residual == green_residual(bundle) <= 1e-12
    rng = np.random.default_rng(0)
    M, J, B1, B2 = bundle.M, bundle.J, bundle.B1, bundle.B2
    for _ in range(25):
        e1 = rng.standard_normal(bundle.n) + 1j * rng.standard_normal(bundle.n)
        e2 = rng.standard_normal(bundle.n) + 1j * rng.standard_normal(bundle.n)
        lhs = np.vdot(e2, M @ (J @ e1)) + np.vdot(J @ e2, M @ e1)
        rhs = np.vdot(B2 @ e2, B1 @ e1) + np.vdot(B1 @ e2, B2 @ e1)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


# one stored entry of J in each off-diagonal block pair: (E, H) is C_H
# (the int8 incidence D^T with the factor 1/h), (V, H) is Dt Pm_T and (V, I)
# is -Dt; the entry is perturbed in a float copy of the block
@pytest.mark.parametrize("block", [(3, 1), (2, 1), (2, 0)], ids=["C_H", "Dt_Pm_T", "Dt"])
def test_green_check_rejects_one_perturbed_entry(setup, monkeypatch, block):
    import re

    _, _, _, _, cp, bundle, R_nu = setup
    delta = 1e-6
    j_blocks = assembly._j_blocks

    def perturbed(*args):
        blocks = j_blocks(*args)
        factor, mat = blocks[block]
        mat = mat.tocsr(copy=True).astype(float)
        mat.data[0] += delta
        blocks[block] = (factor, mat)
        return blocks

    J = bundle.J            # read before the patch: J is assembled on every read
    monkeypatch.setattr(assembly, "_j_blocks", perturbed)
    with monkeypatch.context() as patch:
        patch.setattr(assembly, "GREEN_TOL", np.inf)
        bad = assemble_system(bundle.line, bundle.curls, coupling=cp, R_nu=R_nu)
    assert (bad.J != J).nnz == 1
    ref = green_residual(bad)
    assert ref > 1e-12
    assert bad.green_residual == ref
    with pytest.raises(AssemblyError, match=re.escape(f"residual {ref:.3e}")):
        assemble_system(bundle.line, bundle.curls, coupling=cp, R_nu=R_nu)


def test_uncoupled_assembly_block_diagonal(setup):
    spec, grid, lg, chart, cp, bundle, R_nu = setup
    blocks = assemble_line(LineMaterials(k=lg.k), lg)
    curls = assemble_curls(grid, FieldMaterials())
    plain = assemble_system(blocks, curls, coupling=None)
    assert plain.green_residual == green_residual(plain)
    lay = plain.layout
    J = plain.J
    # no cross blocks between line and field unknowns
    assert J[lay.sl_H, lay.sl_V].nnz == 0
    assert J[lay.sl_V, lay.sl_H].nnz == 0
    # Maxwell block exactly skew: M J + J^T M = boundary terms from line only
    maxwell_rows = np.r_[np.arange(lay.sl_H.start, lay.sl_H.stop),
                         np.arange(lay.sl_E.start, lay.sl_E.stop)]
    G = (plain.M @ J + J.T @ plain.M).tocsr()
    assert abs(G[maxwell_rows, :]).max() == 0.0


def test_hodge_identity_on_ones(setup):
    _, _, _, _, _, bundle, _ = setup
    ones = np.ones(bundle.n)
    assert np.abs(bundle.Hd @ ones - ones).max() <= 1e-13  # unit materials


def test_coupling_blocks_nonzero(setup):
    _, _, _, _, _, bundle, _ = setup
    assert bundle.K_V is not None and abs(bundle.K_V).max() > 0
    assert bundle.Pm_T is not None and abs(bundle.Pm_T).max() > 0


def test_coupling_sign_matches_staircase_faraday():
    # the adjoint-injection Faraday block agrees in sign and magnitude
    # with the literal curl of the lifted band-edge field; needs a grid
    # fine enough for the lift cutoff to be representable
    spec = GeometrySpec(
        box=np.array([[0, 1], [0, 1], [0, 1]], dtype=float),
        cables=[StraightSegment(p0=(0.5, 0.5, 0.15), direction=(0, 0, 1),
                                length=0.7, radius=0.18, line=0)],
        collar_halfwidth=0.5,
    )
    grid = build_grid(spec, (24, 24, 24))
    lg = build_line_grid(12, 1)
    blocks = assemble_line(LineMaterials(k=1), lg)
    curls = assemble_curls(grid, FieldMaterials())
    chart = spec.chart(0, n_eta=12, n_theta=16)
    R_nu = surface_trace(grid, [chart])
    cp = assemble_P_el([chart], lg)
    bundle = assemble_system(blocks, curls, coupling=cp, R_nu=R_nu)
    C_band = _curl_block(grid.n, grid.dof_faces, grid.band_edges) / grid.h
    V = lg.nodes.copy()
    lift = lift_voltage(chart, grid, V, lg)
    # both routes enter the Faraday row with the same leading minus, so
    # K_V itself must agree with the curl of the lifted band values
    f_lift = C_band @ lift[grid.band_edges]
    f_adj = bundle.K_V @ V

    # both pair with a smooth azimuthal test field to the ring functional
    fm = grid.face_midpoints(grid.dof_faces)
    c = spec.box[:2, 1] / 2
    dx, dy = fm[:, 0] - c[0], fm[:, 1] - c[1]
    rho = np.maximum(np.hypot(dx, dy), 1e-12)
    phihat = np.stack([-dy / rho, dx / rho, np.zeros_like(dx)], axis=1)
    axes = grid.face_normal_axis(grid.dof_faces)
    zc = fm[:, 2]
    z0, l = 0.15, chart.curve.length
    window = ((zc > z0) & (zc < z0 + l)).astype(float)
    Hf = phihat[np.arange(len(axes)), axes] * window

    h3 = grid.h ** 3
    p_lift = h3 * np.dot(f_lift, Hf)
    p_adj = h3 * np.dot(f_adj, Hf)
    ring = 2 * np.pi * chart.curve.radius
    assert np.sign(p_lift) == np.sign(p_adj)
    assert abs(p_adj - ring) <= 0.15 * ring
    assert abs(p_lift - ring) <= 0.15 * ring


def test_total_current_correction_measures_enclosed_current():
    # azimuthal field of a unit axial line current: I_tot - I = -Pmag(nu x H)
    # recovers minus the enclosed current along the whole cable
    spec, grid, lg, chart, cp, bundle, R_nu = make_setup()
    fm = grid.face_midpoints(grid.dof_faces)
    c = spec.box[:2, 1] / 2
    dx, dy = fm[:, 0] - c[0], fm[:, 1] - c[1]
    rho = np.maximum(np.hypot(dx, dy), 1e-12)
    phihat = np.stack([-dy / rho, dx / rho, np.zeros_like(dx)], axis=1)
    axes = grid.face_normal_axis(grid.dof_faces)
    Hf = phihat[np.arange(len(axes)), axes] / (2 * np.pi * rho)
    # the theta-increasing ring is traversed clockwise about the axis, so
    # the functional returns minus the enclosed current: I_tot = I + I_enc
    correction = bundle.Pm_T @ Hf          # I_tot = I - Pm_T H
    assert np.abs(correction + 1.0).max() <= 0.15


# ---------------------------------------------------------------------------
# port-law operations
# ---------------------------------------------------------------------------

def strict_law(k, m=None):
    # W_B = [I, I]: resistive terminations at both ends, strictly dissipative
    two_k = 2 * k
    W_B = np.hstack([np.eye(two_k), np.eye(two_k)])
    m = two_k if m is None else m
    return PortLaw(W_B_inp=W_B[:m], W_B_0=W_B[m:],
                   W_C_out=np.hstack([np.eye(two_k), np.zeros((two_k, two_k))]), k=k)


def test_apply_FG_and_KL(setup):
    _, _, _, _, _, bundle, _ = setup
    law = strict_law(bundle.k)
    rng = np.random.default_rng(1)
    e = rng.standard_normal(bundle.n)
    u = law.W_B_inp @ ports(bundle, e)       # compatible input
    out = apply_FG(bundle, law, e, u)
    assert np.abs(out - (bundle.J - bundle.Rd) @ e).max() == 0.0

    assert np.abs(apply_FG(bundle, law, np.zeros(bundle.n), np.zeros(law.m))).max() == 0.0

    with pytest.raises(DomainError):
        bad = np.asarray(u, dtype=complex).copy()
        bad[0] += 1.0
        apply_FG(bundle, law, e, bad)

    y = apply_KL(bundle, law, e)
    assert np.allclose(y, law.W_C_out @ ports(bundle, e))
    e2 = rng.standard_normal(bundle.n)
    assert np.allclose(apply_KL(bundle, law, e + e2),
                       apply_KL(bundle, law, e) + apply_KL(bundle, law, e2))


def test_node_rejects_bad_W(setup):
    _, _, _, _, _, bundle, _ = setup
    k = bundle.k
    dup = np.vstack([np.ones((1, 4 * k)), np.ones((1, 4 * k))])
    with pytest.raises(CertificateError):
        PortLaw(W_B_inp=dup[:1], W_B_0=dup[1:], W_C_out=np.zeros((1, 4 * k)), k=k)
    # Sigma-negative law rejected
    W = np.hstack([np.eye(2 * k), -np.eye(2 * k)])
    with pytest.raises(CertificateError):
        PortLaw(W_B_inp=W[:1], W_B_0=W[1:], W_C_out=np.zeros((1, 4 * k)), k=k)


# ---------------------------------------------------------------------------
# closed loop: energy identity and spectra
# ---------------------------------------------------------------------------

def test_closed_loop_energy_identity(setup):
    _, _, _, _, _, bundle, _ = setup
    law = strict_law(bundle.k)
    loop = build_closed_loop(bundle, law)
    rng = np.random.default_rng(2)
    ME = bundle.M @ bundle.Hd
    for _ in range(5):
        x = rng.standard_normal(bundle.n) + 1j * rng.standard_normal(bundle.n)
        u = rng.standard_normal(law.m) + 1j * rng.standard_normal(law.m)
        e = bundle.effort(x)
        xdot = loop.A @ x + loop.Bu @ u
        power_flow = float(np.real(np.vdot(x, ME @ xdot)))
        g = ghost_currents(loop, e, u)
        dissipation = float(np.real(np.vdot(e, bundle.M @ (bundle.Rd @ e))))
        expected = float(np.real(np.vdot(bundle.B2 @ e, g))) - dissipation
        assert abs(power_flow - expected) <= 1e-10 * max(1.0, abs(expected))


def test_closed_loop_enforces_port_law(setup):
    _, _, _, _, _, bundle, _ = setup
    law = strict_law(bundle.k)
    loop = build_closed_loop(bundle, law)
    rng = np.random.default_rng(8)
    e = rng.standard_normal(bundle.n)
    u = rng.standard_normal(law.m)
    zeta = used_ports(loop, e, u)
    assert np.abs(law.W_B @ zeta - u_hat(law, u)).max() <= 1e-12


def admissible_W(rng, k, kind="strict"):
    two_k = 2 * k
    W2 = rng.standard_normal((two_k, two_k)) + 1j * rng.standard_normal((two_k, two_k))
    W2 += 3.0 * np.eye(two_k)        # keep it comfortably invertible
    N = rng.standard_normal((two_k, two_k)) + 1j * rng.standard_normal((two_k, two_k))
    N = 0.5 * (N - N.conj().T)
    if kind == "strict":
        K0 = rng.standard_normal((two_k, two_k)) + 1j * rng.standard_normal((two_k, two_k))
        K0 = K0 @ K0.conj().T + 0.3 * np.eye(two_k)
    elif kind == "skew":
        K0 = np.zeros((two_k, two_k))
    else:       # PSD with a kernel
        v = rng.standard_normal((two_k, max(1, two_k // 2)))
        K0 = v @ v.T
    W1 = 0.5 * (K0 + N) @ np.linalg.inv(W2.conj().T)
    return np.hstack([W1, W2])


def test_constrained_spectrum_left_half_plane():
    _, _, _, _, _, bundle, _ = make_setup(n=(6, 6, 8), n_line=8, radius=0.2,
                                          line_mats=LineMaterials(k=1, R=0.2, G=0.1),
                                          field_mats=FieldMaterials(sigma=0.3))
    rng = np.random.default_rng(3)
    for kind in ("strict", "mixed", "skew"):
        W_B = admissible_W(rng, bundle.k, kind)
        loop = constrained_generator(bundle, W_B)
        eigs = np.linalg.eigvals(loop.A.toarray())
        assert eigs.real.max() <= 1e-10


def test_skew_lossless_spectrum_imaginary():
    _, _, _, _, _, bundle, _ = make_setup(n=(6, 6, 8), n_line=8)
    rng = np.random.default_rng(4)
    for _ in range(3):
        W_B = admissible_W(rng, bundle.k, "skew")
        sig = sigma_matrix(2 * bundle.k)
        assert np.abs(W_B @ sig @ W_B.conj().T).max() <= 1e-10 * np.abs(W_B).max() ** 2
        loop = constrained_generator(bundle, W_B)
        eigs = np.linalg.eigvals(loop.A.toarray())
        assert np.abs(eigs.real).max() <= 1e-10


def test_rank_deficient_W_rejected(setup):
    _, _, _, _, _, bundle, _ = setup
    k = bundle.k
    W = np.zeros((2 * k, 4 * k))
    W[0, 0] = 1.0
    with pytest.raises(CertificateError):
        constrained_generator(bundle, W)
