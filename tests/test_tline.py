import numpy as np
import pytest

from cablefield.errors import ConfigError, MaterialsError
from cablefield.tline import (
    LineMaterials,
    assemble_line,
    build_line_grid,
    validate_line_materials,
)

from oracles import periodic_derivative_pair


def test_sbp_identity_exact():
    # Mn Dt + D^T Mc = e1 R1 - e0 R0 as a matrix identity
    for n, k in [(4, 1), (9, 2), (24, 3)]:
        g = build_line_grid(n, k)
        lhs = (g.Mn @ g.Dt + g.D.T @ g.Mc).toarray()
        e0 = g.E0.T.toarray()
        e1 = g.E1.T.toarray()
        rhs = e1 @ g.R1.toarray() - e0 @ g.R0.toarray()
        assert np.abs(lhs - rhs).max() <= 1e-13


def test_boundary_rows_are_built_sparse():
    # the SBP closure e1 R1 - e0 R0 used to be formed as a dense (n + 1) x n
    # outer product: 8 TB at n = 10^6.  The closed form of the boundary
    # rows: Dt V-row 0 is (I_1 - I_0) / h and row n is (I_{n-1} - I_{n-2}) / h
    n = 10 ** 6
    g = build_line_grid(n)
    h = 1.0 / n
    assert g.Dt.shape == (n + 1, n) and g.Dt.nnz == 2 * (n + 1)
    for row, cols in ((0, [0, 1]), (n, [n - 2, n - 1])):
        dt = g.Dt[row]
        assert dt.indices.tolist() == cols
        assert np.allclose(dt.data, [-1.0 / h, 1.0 / h], rtol=1e-12, atol=0)
    assert (g.R0.indices.tolist(), g.R0.data.tolist()) == ([0, 1], [1.5, -0.5])
    assert (g.R1.indices.tolist(), g.R1.data.tolist()) == ([n - 2, n - 1], [-0.5, 1.5])
    assert g.E0.indices.tolist() == [0] and g.E1.indices.tolist() == [n]
    assert (g.Lg[0, 0], g.Lg[n, 1], g.Lg.nnz) == (2.0 / h, -2.0 / h, 2)


def test_one_line_grid_forms_no_kron(monkeypatch):
    # a kron with the 1 x 1 identity copies every operator: at n = 10^6 the
    # traced peak of build_line_grid falls from 236 to 168 MB without it.
    # The operators stay the kron's, bit for bit: canonical CSR, int32 ids
    import scipy.sparse as sp

    names = ("D", "Dt", "Lg", "Mn", "Mc", "R0", "R1", "E0", "E1")
    kron = sp.kron

    def no_unit_kron(a, b, *args, **kwargs):
        assert b.shape != (1, 1), "kron with a 1 x 1 factor"
        return kron(a, b, *args, **kwargs)

    for n in (3, 12, 37):
        with monkeypatch.context() as m:
            m.setattr(sp, "kron", no_unit_kron)
            g = build_line_grid(n, 1)
        for name in names:
            op = getattr(g, name)
            ref = kron(op, sp.identity(1), format="csr")
            assert op.format == "csr" and op.has_canonical_format, name
            for part in ("data", "indices", "indptr"):
                got, want = getattr(op, part), getattr(ref, part)
                assert got.dtype == want.dtype and np.array_equal(got, want), (name, part)
            assert op.indices.dtype == np.int32


def test_line_green_identity_random():
    # <-D V, I>_Mc + <V, -Dt I>_Mn = <V(0), I(0)> - <V(1), I(1)>
    # with <x, y> = y^H x; holds exactly by the SBP closure
    rng = np.random.default_rng(0)
    g = build_line_grid(13, 2)
    for _ in range(20):
        I = rng.standard_normal(g.n_cells) + 1j * rng.standard_normal(g.n_cells)
        V = rng.standard_normal(g.n_nodes) + 1j * rng.standard_normal(g.n_nodes)
        lhs = np.vdot(I, g.Mc @ (-(g.D @ V))) + np.vdot(-(g.Dt @ I), g.Mn @ V)
        rhs = np.vdot(g.R0 @ I, g.E0 @ V) - np.vdot(g.R1 @ I, g.E1 @ V)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))
        # same quantity through the stacked port: power = Re z^H Sigma z / 2
        z = np.concatenate([g.R0 @ I, g.R1 @ I, g.E0 @ V, -(g.E1 @ V)])
        k2 = 2 * g.k
        sigma_form = float(np.real(np.vdot(z[:k2], z[k2:]) + np.vdot(z[k2:], z[:k2])))
        assert abs(2.0 * lhs.real - sigma_form) <= 1e-12 * max(1.0, abs(sigma_form))


def test_derivatives_consistent_on_smooth_field():
    g = build_line_grid(200, 1)
    v = np.sin(2 * np.pi * g.nodes)
    dv = g.D @ v
    assert np.abs(dv - 2 * np.pi * np.cos(2 * np.pi * g.cells)).max() < 2e-3
    i = np.cos(np.pi * g.cells)
    di = g.Dt @ i
    exact = -np.pi * np.sin(np.pi * g.nodes)
    # first order at the two boundary rows, second order inside
    assert np.abs((di - exact)[1:-1]).max() < 5e-4
    assert np.abs(di - exact).max() < 5e-2


def test_boundary_extrapolation_second_order():
    errs = []
    for n in (16, 32, 64):
        g = build_line_grid(n, 1)
        i = np.sin(g.cells)
        errs.append(abs(g.R1 @ i - np.sin(1.0))[0])
    order = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
    assert min(order) > 1.9


def test_extract_boundary_examples():
    g = build_line_grid(8, 1)
    # endpoint tuple (V(0), I(0), V(1), -I(1)): V nodal, I extrapolated
    def endpoints(I, V):
        return np.concatenate([g.E0 @ V, g.R0 @ I, g.E1 @ V, -(g.R1 @ I)])

    V = g.nodes.copy()          # V(eta) = eta
    I = np.zeros(g.n_cells)
    assert np.allclose(endpoints(I, V), [0.0, 0.0, 1.0, 0.0], atol=1e-14)

    V = np.full(g.n_nodes, 3.0)
    I = np.full(g.n_cells, 2.0)
    assert np.allclose(endpoints(I, V), [3.0, 2.0, 3.0, -2.0], atol=1e-13)
    z = np.concatenate([g.R0 @ I, g.R1 @ I, g.E0 @ V, -(g.E1 @ V)])
    assert np.allclose(z, [2.0, 2.0, 3.0, -3.0], atol=1e-13)


def test_validate_materials_examples():
    ok = validate_line_materials(LineMaterials(k=2, C=np.eye(2), L=np.eye(2)))
    assert ok["passed"]

    skew = LineMaterials(k=2, R=np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert validate_line_materials(skew)["passed"]

    sick = LineMaterials(k=2, C=np.diag([1.0, 0.0]))
    rep = validate_line_materials(sick)
    assert not rep["passed"] and not rep["checks"]["C"]


def test_assemble_line_unit_materials():
    g = build_line_grid(4, 1)
    blocks = assemble_line(LineMaterials(k=1), g)
    assert np.allclose(blocks.cinv().toarray(), np.eye(g.n_nodes))
    assert np.allclose(blocks.linv().toarray(), np.eye(g.n_cells))
    # zero state -> zero time derivative
    psi = np.zeros(g.n_cells)
    q = np.zeros(g.n_nodes)
    dpsi = -(g.D @ (blocks.cinv() @ q)) - blocks.rm() @ (blocks.linv() @ psi)
    dq = -(g.Dt @ (blocks.linv() @ psi)) - blocks.gm() @ (blocks.cinv() @ q)
    assert not dpsi.any() and not dq.any()


def test_assemble_line_rejects_bad_materials():
    g = build_line_grid(4, 1)
    with pytest.raises(MaterialsError):
        assemble_line(LineMaterials(k=1, C=0.0), g)
    with pytest.raises(MaterialsError, match="materials have k=2, grid has k=1"):
        assemble_line(LineMaterials(k=2), g)


def test_periodic_lossless_spectrum():
    n = 32
    d, dt = periodic_derivative_pair(n)
    J = np.block([
        [np.zeros((n, n)), -d.toarray()],
        [-dt.toarray(), np.zeros((n, n))],
    ])
    eigs = np.linalg.eigvals(J)
    assert np.abs(eigs.real).max() <= 1e-10

    # with positive R, G every mode moves into the closed left half plane
    r = 0.3
    A = J - r * np.eye(2 * n)
    eigs = np.linalg.eigvals(A)
    assert eigs.real.max() <= -r + 1e-10


def test_constant_materials_repeat_one_block_per_sample():
    # the line keeps the grid and the k x k materials, and forms each
    # repeated block when it is read
    C = np.array([[2.0, 0.3], [0.3, 1.0]])
    m = LineMaterials(k=2, C=C, L=0.5, R=0.2)
    g = build_line_grid(5, 2)
    blocks = assemble_line(m, g)
    assert set(vars(blocks)) == {"grid", "materials"} and blocks.materials is m
    for block, k_by_k, count in ((blocks.cinv(), np.linalg.inv(C), g.n + 1),
                                 (blocks.linv(), 2.0 * np.eye(2), g.n),
                                 (blocks.rm(), 0.2 * np.eye(2), g.n),
                                 (blocks.gm(), np.zeros((2, 2)), g.n + 1)):
        assert block.format == "csr"
        assert np.array_equal(block.toarray(), np.kron(np.eye(count), k_by_k))


def test_line_materials_are_constants():
    with pytest.raises(MaterialsError, match="C must be a number"):
        LineMaterials(k=2, C=lambda eta: np.eye(2))


def test_line_grid_needs_three_cells():
    build_line_grid(3)
    with pytest.raises(ConfigError, match="at least 3 cells"):
        build_line_grid(2)
