"""Reference operators and checks that only the tests use.

These are oracles for the package, not part of it: the periodic curl and
derivative pairs (dispersion and eigenvalue references), the cell
divergence of the masked face field, the checked single midpoint step
and the backwards march of the reversibility checks, the midpoint steps
by a sparse LU of the whole step system, the bundle's quadratic energy,
the padded input (u, 0) of a port law, the port values a closed loop
enforces, the node-domain flow and output maps of a port law, the
homogeneous closed loop of the spectral checks, the completion form of
the energy ledger's boundary term, the Green residual by its full
formula, the bundle's N x N operators by their block_diag construction,
the Hodge extremes read from the assembled Hd, and the masked curl as a
float +-1/h matrix.
"""

import numpy as np
import scipy.sparse as sp

from cablefield.assembly import ClosedLoop, OperatorBundle, build_closed_loop
from cablefield.certify import PortLaw, sigma_matrix
from cablefield.errors import DomainError
from cablefield.geometry import GeometrySpec
from cablefield.maxwell import YeeGrid, _classify, _edge_shapes, _face_shapes, _offsets
from cablefield.sim import MidpointStepper

_DOMAIN_TOL = 1e-8     # max |W_B z - (u, 0)| accepted by apply_FG


def periodic_curl_pair(n: int, h: float):
    """Curl pair on a fully periodic n^3 grid (no boundaries, no masks).

    Reference for the staggered-scheme dispersion relation
    omega^2 = (4/h^2) * sum_i sin^2(kappa_i h / 2).
    """
    shape = (n, n, n)
    size = n ** 3

    def rid(d, i, j, k):
        return d * size + np.ravel_multi_index((i % n, j % n, k % n), shape)

    I, J, K = np.indices(shape)
    rows, cols, vals = [], [], []
    for d in range(3):
        a, b = (d + 1) % 3, (d + 2) % 3
        fids = rid(d, I, J, K).reshape(-1)
        for comp, axis, sign in ((b, a, +1.0), (a, b, -1.0)):
            for shift, s2 in ((1, +1.0), (0, -1.0)):
                ijk = [I.copy(), J.copy(), K.copy()]
                ijk[axis] = ijk[axis] + shift
                rows.append(fids)
                cols.append(rid(comp, *ijk).reshape(-1))
                vals.append(np.full(size, sign * s2 / h))
    C = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(3 * size, 3 * size))
    return C, C.T.tocsr()


def divergence_matrix(spec: GeometrySpec, grid: YeeGrid) -> sp.csr_matrix:
    """Cell divergence of the face field, restricted to the field cells of
    the grid built on ``spec`` whose six faces are all unknowns (the
    staircase-free subgrid)."""
    n, h = grid.n, grid.h
    fshapes = _face_shapes(n)
    foff = grid.face_offsets

    def fid(d, i, j, k):
        return foff[d] + np.ravel_multi_index((i, j, k), fshapes[d])

    I, J, K = np.indices(n)
    cid = np.arange(int(np.prod(n))).reshape(n)
    rows, cols, vals = [], [], []
    for d in range(3):
        lo = [I, J, K]
        up = [I.copy(), J.copy(), K.copy()]
        up[d] = up[d] + 1
        for ids, sign in ((fid(d, lo[0], lo[1], lo[2]), -1.0),
                          (fid(d, up[0], up[1], up[2]), +1.0)):
            rows.append(cid.reshape(-1))
            cols.append(ids.reshape(-1))
            vals.append(np.full(cid.size, sign / h))
    D = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(int(np.prod(n)), foff[-1]))

    dof_mask = np.zeros(foff[-1], dtype=bool)
    dof_mask[grid.dof_faces] = True
    complete = np.asarray((np.abs(D) > 0).astype(float) @ (~dof_mask).astype(float) == 0).reshape(-1)
    complete &= _classify(spec, n, h, grid.origin)[0] == -1
    Dr = D[np.nonzero(complete)[0], :][:, grid.dof_faces]
    return Dr.tocsr()


def periodic_derivative_pair(n: int, h: float = None):
    """Circulant staggered derivative pair (D, Dt) on a periodic interval.

    Reference operators for eigenvalue studies: with the midpoint masses
    the pair satisfies Mc D = -(Mn Dt)^T with no boundary term.
    """
    if h is None:
        h = 1.0 / n
    d = sp.lil_matrix((n, n))
    for j in range(n):
        d[j, j] = -1.0 / h
        d[j, (j + 1) % n] = 1.0 / h
    d = d.tocsr()
    return d, (-d.T).tocsr()


def energy(bundle: OperatorBundle, x: np.ndarray) -> float:
    """The quadratic energy Re(x^H M Hd x) / 2."""
    return 0.5 * float(np.real(np.vdot(x, bundle.M @ (bundle.Hd @ x))))


def u_hat(law: PortLaw, u) -> np.ndarray:
    """The right-hand side (u, 0) of W_B z = (u, 0) for the m inputs u."""
    u = np.atleast_1d(np.asarray(u))
    if u.size != law.m:
        raise DomainError(f"input has {u.size} ports, port law expects {law.m}")
    return np.concatenate([u, np.zeros(2 * law.k - law.m)])


def ghost_currents(loop: ClosedLoop, e: np.ndarray, u) -> np.ndarray:
    return loop.G_fb @ (loop.bundle.B2 @ e) + loop.W1_inp @ np.atleast_1d(u)


def used_ports(loop: ClosedLoop, e: np.ndarray, u) -> np.ndarray:
    """Port vector with the enforced (not extrapolated) currents."""
    return np.concatenate([ghost_currents(loop, e, u), loop.bundle.B2 @ e])


def midpoint_step(stepper, x: np.ndarray, u_mid) -> tuple:
    """One checked midpoint step with the input u_mid (m,): a one-step
    ``advance``; returns (x_next, x_mid)."""
    X, X_mid = stepper.advance(x, np.atleast_1d(u_mid)[None, :])
    return X[0], X_mid[0]


def reverse_run(loop: ClosedLoop, x: np.ndarray, dt: float, n_steps: int,
                solver_tol: float = 1e-10) -> np.ndarray:
    """March n_steps backwards (autonomous); exact inverse of the forward
    midpoint map up to solver roundoff."""
    stepper = MidpointStepper(loop, -dt, solver_tol)
    for _ in range(n_steps):
        x, _ = midpoint_step(stepper, x, np.zeros(loop.law.m))
    return x


class FullLUStepper:
    """Implicit-midpoint step by a SuperLU factor of the whole
    L = I - dt/2 A: no face elimination and no size rule.  It has
    MidpointStepper's constructor, ``advance``, ``stats`` and the dense
    operator order that sets the BLAS threads of run()'s loop (none: 0), so
    a run can be put on it, as the reference of the package's reduced
    solves.  A complex right-hand side on a real factor is a TypeError from
    SuperLU."""

    _dense_order = 0

    def __init__(self, loop: ClosedLoop, dt: float, solver_tol: float = 1e-10):
        import scipy.sparse.linalg as spla

        half = 0.5 * dt
        A = loop.A.tocsc()
        self._m = loop.law.m
        self._Bu = (half * loop.Bu).toarray()
        self._lu = spla.splu((sp.identity(A.shape[0], dtype=A.dtype, format="csc")
                              - half * A).tocsc())
        self.solves = 0

    def stats(self) -> dict:
        return {"method": "full_lu", "solves": self.solves}

    def advance(self, x: np.ndarray, U: np.ndarray, first_step: int = 0) -> tuple:
        X, X_mid = [], []
        for u in U:
            X_mid.append(self._lu.solve(x + self._Bu @ u))
            x = 2.0 * X_mid[-1] - x
            X.append(x)
        self.solves += len(U)
        return np.array(X), np.array(X_mid)


def green_residual(bundle: OperatorBundle) -> float:
    """The Green identity's residual from the assembled J:
    max |M J + (M J)^T - (B1^T B2 + B2^T B1)| / max |M J + (M J)^T|."""
    MJ = bundle.M @ bundle.J
    lhs = MJ + MJ.T
    diff = lhs - (bundle.B1.T @ bundle.B2 + bundle.B2.T @ bundle.B1)
    return float(abs(diff).max() / max(abs(lhs).max(), 1e-30))


def block_operators(bundle: OperatorBundle) -> dict:
    """J, Rd, Hd, M and Lg_state of the bundle, each assembled whole in one
    sp.bmat / sp.block_diag from the line, curl and coupling blocks, with
    the curls C_E = D / h and C_H stored as its own CSR copy of C_E^T."""
    line, curls, lay = bundle.line, bundle.curls, bundle.layout
    g, h3 = line.grid, curls.grid.h ** 3
    C_E = curls.incidence / curls.grid.h
    C_H = C_E.T.tocsr()
    coupled = bundle.K_V is not None
    J = sp.bmat([
        [None, None, -g.D, None],
        [None, None, -bundle.K_V if coupled else None, -C_E],
        [-g.Dt, g.Dt @ bundle.Pm_T if coupled else None, None, None],
        [None, C_H, None, None],
    ], format="csr")
    Rd = sp.block_diag([line.rm(), sp.csr_matrix((lay.n_faces, lay.n_faces)), line.gm(),
                        sp.diags(curls.sigma_edge())], format="csr")
    Hd = sp.block_diag([line.linv(), sp.diags(curls.mu_inv()), line.cinv(),
                        sp.diags(curls.eps_inv())], format="csr")
    M = sp.block_diag([g.Mc, sp.identity(lay.n_faces) * h3, g.Mn,
                       sp.identity(lay.n_edges) * h3], format="csr")
    two_k = 2 * bundle.k
    Lg_state = sp.bmat([[sp.csr_matrix((lay.n_cells + lay.n_faces, two_k))], [g.Lg],
                        [sp.csr_matrix((lay.n_edges, two_k))]], format="csr")
    return {"J": J, "Rd": Rd, "Hd": Hd, "M": M, "Lg_state": Lg_state}


def hodge_extremes_from_Hd(bundle: OperatorBundle):
    """Eigenvalue extremes of the assembled Hd: its diagonal on the field
    blocks, dense Hermitian eigenvalues of its line blocks."""
    lay = bundle.layout
    d = bundle.Hd.diagonal()
    lo = min(d[lay.sl_H].min(), d[lay.sl_E].min())
    hi = max(d[lay.sl_H].max(), d[lay.sl_E].max())
    for sl in (lay.sl_I, lay.sl_V):
        block = bundle.Hd[sl, sl].toarray()
        lam = np.linalg.eigvalsh(0.5 * (block + block.conj().T))
        lo = min(lo, lam.min())
        hi = max(hi, lam.max())
    return float(lo), float(hi)


def ports(bundle: OperatorBundle, e: np.ndarray) -> np.ndarray:
    """The extrapolated port vector (B1 e, B2 e) of the efforts e."""
    return np.concatenate([bundle.B1 @ e, bundle.B2 @ e])


def apply_FG(bundle: OperatorBundle, law: PortLaw, e: np.ndarray, u) -> np.ndarray:
    """(J - R) e with the boundary-compatibility check of the node domain."""
    z = ports(bundle, e)
    defect = np.abs(law.W_B @ z - u_hat(law, u)).max()
    if defect > _DOMAIN_TOL:
        raise DomainError(
            f"(e, u) violates the boundary constraint by {defect:.3e} "
            f"(tolerance {_DOMAIN_TOL:.1e}); the pair is outside the node domain")
    return (bundle.J - bundle.Rd) @ e


def apply_KL(bundle: OperatorBundle, law: PortLaw, e: np.ndarray) -> np.ndarray:
    return law.W_C_out @ ports(bundle, e)


def constrained_generator(bundle: OperatorBundle, W_B: np.ndarray) -> ClosedLoop:
    """Homogeneous-constraint generator for spectral studies.

    Wraps the closed loop with all ports homogeneous (u = 0); dense
    eigendecompositions are practical at reduced sizes.
    """
    W_B = np.asarray(W_B)
    k = bundle.k
    law = PortLaw(W_B_inp=W_B[:0], W_B_0=W_B, W_C_out=np.zeros((1, 4 * k)), k=k)
    return build_closed_loop(bundle, law)


def completion_form(W_B: np.ndarray, W_C: np.ndarray, zeta: np.ndarray) -> np.ndarray:
    """z^H (Sigma - M^H Sigma M) z / 2 with M = [W_B; W_C], for each row z
    of ``zeta``: the boundary-term rate of the energy ledger written with a
    co-located completion W_C of W_B."""
    M = np.vstack([W_B, W_C])
    sig = sigma_matrix(W_B.shape[0])
    Q = sig - M.conj().T @ sig @ M
    return 0.5 * np.real(np.einsum("ij,jk,ik->i", np.conj(zeta), Q, zeta))


def float_curl_block(n, h, faces, edges) -> sp.csr_matrix:
    """Rows ``faces`` and columns ``edges`` (ascending global ids) of the
    full-grid edge->face curl with float64 entries +-1/h, as canonical CSR:
    every face's four edges written into a (faces x 4) table, then the
    columns outside ``edges`` dropped."""
    eshapes, fshapes = _edge_shapes(n), _face_shapes(n)
    eoff, foff = _offsets(eshapes), _offsets(fshapes)
    column = np.full(eoff[-1], -1, dtype=np.int32)
    column[edges] = np.arange(edges.size)
    cols = np.empty((faces.size, 4), dtype=np.int32)
    vals = np.empty((faces.size, 4))
    first = np.searchsorted(faces, foff)
    for d in range(3):
        a, b = (d + 1) % 3, (d + 2) % 3   # (curl E)_d = dE_b/da - dE_a/db
        rows = slice(first[d], first[d + 1])
        ijk = np.unravel_index(faces[rows] - foff[d], fshapes[d])
        terms = sorted([(b, 0, a, -1.0), (b, 1, a, 1.0), (a, 0, b, 1.0), (a, 1, b, -1.0)])
        for slot, (comp, shift, axis, sign) in enumerate(terms):
            idx = list(ijk)
            idx[axis] = idx[axis] + shift
            cols[rows, slot] = column[eoff[comp] + np.ravel_multi_index(idx, eshapes[comp])]
            vals[rows, slot] = sign / h
    kept = cols >= 0
    indptr = np.r_[0, np.cumsum(kept.sum(axis=1))]
    return sp.csr_matrix((vals[kept], cols[kept], indptr), shape=(faces.size, edges.size))
