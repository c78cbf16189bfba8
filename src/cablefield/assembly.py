"""
Global coupled operator bundle over the state x = (psi, B, q, D).

Efforts e = (I, H, V, E) = Hd x share the block layout.  The coupled
skew part acts as

    d/dt psi = -D V                                (line cells)
    d/dt B   = -(1/h) D_F E - K_V V                (faces)
    d/dt q   = -Dt (I - Pm_T H)                    (line nodes)
    d/dt D   =  (1/h) D_F^T H                      (edges)

where D_F is the field's signed edge->face incidence (maxwell.CurlPair;
the curls are C_E = D_F / h and C_H = D_F^T / h), K_V injects the lifted
tangential voltage field into the Faraday row through the mass-weighted
adjoint of the surface trace, and
Pm_T = -sign * Pmag . R_nu corrects the total line current by the ring
functional of nu x H.  The relative sign of the two insertions is forced
by the exact discrete Green identity

    M J + J^T M  =  B1^T B2 + B2^T B1           (matrix identity)

with boundary maps B1 e = (I_tot(0), I_tot(1)) and B2 e = (V(0), -V(1));
the overall orientation (COUPLING_SIGN) is pinned by requiring the
adjoint-injection route to agree with the literal staircase Faraday
update driven by the lifted edge field (see tests).

Port convention
---------------
The boundary-condition matrices live in one certify.PortLaw and act on the
stacked port vector

    z = (B1 e, B2 e) = (I_tot(0), I_tot(1), V(0), -V(1))  in C^{4k}

paired with Sigma = [[0, I_2k], [I_2k, 0]] (certify.sigma_matrix):
z^H Sigma z / 2 is the power flowing in through the cable ends.  Inputs
enter through the constraint rows (u, 0) = [W_B_inp; W_B_0] z; realizing
them replaces the extrapolated endpoint currents by ghost values solved
from the port law, which needs the current-side block W1 = W_B[:, :2k] to
be invertible (true for every strictly dissipative port law and for the
skew laws used here).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .certify import PortLaw
from .coupling import CouplingMatrices
from .errors import AssemblyError, CertificateError
from .maxwell import CurlPair
from .tline import LineBlocks

COUPLING_SIGN = -1.0   # orientation of the lateral coupling insertions;
                       # pinned against the staircase-lift Faraday route

# Largest Green residual max |M J + J^T M - (B1^T B2 + B2^T B1)| / max |M J + J^T M|
# that assemble_system accepts.
GREEN_TOL = 1e-12

# Rows of one slab of the block-pair Green check (_green_residual).  The
# check's traced temporaries at pair scale 3 (209,784 faces) are 5.4 MB at
# 16,384 rows, 6.3 MB at 32,768, 12.5 MB at 65,536 and 34.2 MB in one slab
# per pair, in 29, 24, 27 and 30 ms (best of 11, 2 cores); at scale 4, 9.3,
# 10.1, 12.7 and 81.2 MB in 73, 77, 74 and 64 ms.
GREEN_ROW_BLOCK = 32768


@dataclass(frozen=True)
class BlockLayout:
    """Index bookkeeping for the four state/effort blocks."""

    n_cells: int
    n_faces: int
    n_nodes: int
    n_edges: int

    @property
    def total(self):
        return self.n_cells + self.n_faces + self.n_nodes + self.n_edges

    @property
    def sl_I(self):
        return slice(0, self.n_cells)

    @property
    def sl_H(self):
        return slice(self.n_cells, self.n_cells + self.n_faces)

    @property
    def sl_V(self):
        a = self.n_cells + self.n_faces
        return slice(a, a + self.n_nodes)

    @property
    def sl_E(self):
        return slice(self.total - self.n_edges, self.total)


def _j_blocks(line: LineBlocks, curls: CurlPair, K_V, Pm_T) -> dict:
    """The nonzero blocks of J as {(a, b): (factor, block)}, J_ab = factor * block,
    with a, b indexing the block order (I, H, V, E) of BlockLayout.  The
    curl pair is the integer incidence with the factors -1/h and 1/h; its
    (E, H) block is the CSC view D^T, which shares D's arrays."""
    g = line.grid
    D, h = curls.incidence, curls.grid.h
    blocks = {(0, 2): (-1.0, g.D), (1, 3): (-1.0 / h, D),
              (2, 0): (-1.0, g.Dt), (3, 1): (1.0 / h, D.T)}
    if K_V is not None:
        blocks[1, 2] = (-1.0, K_V)
        blocks[2, 1] = (1.0, g.Dt @ Pm_T)
    return blocks


@dataclass
class OperatorBundle:
    """Assembled (J, R, H) triple with masses and boundary extraction.

    J, Rd, Hd, M and Lg_state are not stored: each is assembled from the
    line, curl and coupling blocks the bundle holds (the field diagonals
    of Hd and Rd from the constant materials, ``CurlPair``).  Rd, Hd, M
    and Lg_state are assembled the first time they are read and kept from
    then on.  J is assembled on every read and never kept (0.91 MB on the
    pair at scale 1, 22.6 MB at scale 3): the closed loop reads it once to
    form J_cl, so a simulate run holds one N x N generator, the loop's A,
    and the operator export reads it once.  Certification reads none of
    them (the Green check works on the blocks, hodge_extremes on the
    materials).
    """

    layout: BlockLayout
    k: int
    B1: sp.csr_matrix         # efforts -> C^{2k}: (I_tot(0), I_tot(1))
    B2: sp.csr_matrix         # efforts -> C^{2k}: (V(0), -V(1))
    Pm_T: Optional[sp.csr_matrix]
    K_V: Optional[sp.csr_matrix]
    green_residual: float
    line: LineBlocks
    curls: CurlPair

    @property
    def n(self):
        return self.layout.total

    @property
    def J(self) -> sp.csr_matrix:
        """Skew core + coupling insertions (real), N x N, assembled from its
        blocks on every read."""
        grid = [[None] * 4 for _ in range(4)]
        for (a, b), (factor, block) in _j_blocks(self.line, self.curls, self.K_V,
                                                 self.Pm_T).items():
            grid[a][b] = factor * block
        return sp.bmat(grid, format="csr")

    @cached_property
    def Lg_state(self) -> sp.csr_matrix:
        """Ghost endpoint currents -> q-block rows, N x 2k."""
        lay, two_k = self.layout, 2 * self.k
        return sp.vstack([
            sp.csr_matrix((lay.n_cells, two_k)),
            sp.csr_matrix((lay.n_faces, two_k)),
            self.line.grid.Lg,
            sp.csr_matrix((lay.n_edges, two_k)),
        ]).tocsr()

    @cached_property
    def Rd(self) -> sp.csr_matrix:
        """Damping on efforts (Hermitian part PSD), N x N."""
        return sp.block_diag([
            self.line.Rm,
            sp.csr_matrix((self.layout.n_faces, self.layout.n_faces)),
            self.line.Gm,
            sp.diags(self.curls.sigma_edge()),
        ], format="csr")

    @cached_property
    def Hd(self) -> sp.csr_matrix:
        """Material Hodge (Hermitian positive definite), N x N."""
        return sp.block_diag([
            self.line.Linv,
            sp.diags(self.curls.mu_inv()),
            self.line.Cinv,
            sp.diags(self.curls.eps_inv()),
        ], format="csr")

    @cached_property
    def M(self) -> sp.csr_matrix:
        """Weighted inner product (diagonal, positive), N x N."""
        return sp.diags(np.concatenate(_mass_blocks(self.line, self.curls)), format="csr")

    def effort(self, x: np.ndarray) -> np.ndarray:
        return self.Hd @ x


def assemble_system(line: LineBlocks, curls: CurlPair,
                    coupling: Optional[CouplingMatrices] = None,
                    R_nu=None) -> OperatorBundle:
    """Build the coupled bundle; verifies the Green identity exactly.

    With coupling=None the line and field blocks are independent (used
    for reduction tests and pure-field runs).  The normal trace R_nu of
    maxwell.surface_trace is required when coupling is given; the surface
    quadrature mass is coupling.M_surf.

    The Green check compares lhs = M J + J^T M with B1^T B2 + B2^T B1 and
    raises AssemblyError when max |lhs - rhs| / max |lhs| exceeds GREEN_TOL.
    It forms neither J nor M: _green_residual reads both sides block pair
    by block pair from the blocks J is made of and the diagonal of M.  The
    bundle keeps only those blocks and the boundary maps; J, Rd, Hd, M
    and Lg_state are assembled when first read.
    """
    g = line.grid
    grid = curls.grid
    lay = BlockLayout(n_cells=g.n_cells, n_faces=grid.n_dof_faces,
                      n_nodes=g.n_nodes, n_edges=grid.n_free_edges)

    if coupling is not None:
        if R_nu is None:
            raise AssemblyError("coupled assembly needs the surface trace R_nu")
        Pm_T = (-COUPLING_SIGN) * (coupling.Pmag @ R_nu)
        K_V = (COUPLING_SIGN / grid.h ** 3) * (
            R_nu.T @ (coupling.M_surf @ (coupling.Pel @ g.D)))
    else:
        Pm_T = None
        K_V = None

    Rex = sp.vstack([g.R0, g.R1]).tocsr()
    two_k = 2 * g.k

    def zeros(r, c):
        return sp.csr_matrix((r, c))

    B1 = sp.hstack([
        Rex,
        -(Rex @ Pm_T) if Pm_T is not None else zeros(two_k, lay.n_faces),
        zeros(two_k, lay.n_nodes),
        zeros(two_k, lay.n_edges),
    ]).tocsr()
    B2 = sp.hstack([
        zeros(two_k, lay.n_cells),
        zeros(two_k, lay.n_faces),
        sp.vstack([g.E0, -g.E1]),
        zeros(two_k, lay.n_edges),
    ]).tocsr()

    green_residual = _green_residual(_j_blocks(line, curls, K_V, Pm_T),
                                     _mass_blocks(line, curls), B1, B2, lay)
    if green_residual > GREEN_TOL:
        raise AssemblyError(f"discrete Green identity violated: residual {green_residual:.3e}")

    return OperatorBundle(layout=lay, k=g.k, B1=B1, B2=B2, Pm_T=Pm_T, K_V=K_V,
                          green_residual=green_residual, line=line, curls=curls)


def _mass_blocks(line: LineBlocks, curls: CurlPair) -> list:
    """The diagonal of M, one array per block (I, H, V, E): the line's cell
    and node quadrature masses, and h^3 on every face and edge unknown (a
    read-only broadcast, so the field blocks take no memory)."""
    h3 = curls.grid.h ** 3
    return [line.grid.Mc.diagonal(),
            np.broadcast_to(h3, (curls.grid.n_dof_faces,)),
            line.grid.Mn.diagonal(),
            np.broadcast_to(h3, (curls.grid.n_free_edges,))]


def _green_residual(blocks: dict, m: list, B1, B2, lay: BlockLayout) -> float:
    """max |lhs - rhs| / max |lhs| of the Green identity, one block pair at a time.

    blocks are J's as _j_blocks gives them and m holds the diagonal of M
    block by block, as _mass_blocks gives it.
    lhs = M J + J^T M and rhs = B1^T B2 + B2^T B1 are both symmetric, so
    the pairs (a, b) with a <= b hold every value.  M is diagonal, so
    lhs_ab = M_a J_ab + (M_b J_ba)^T is the sum of a row-scaled J_ab and a
    column-scaled J_ba^T, the factor of each block folded into the scale.
    A pair is taken in slabs of GREEN_ROW_BLOCK rows of a, read from J_ab
    and J_ba^T in CSR.  For the curl pair both are the int8 incidence D
    itself, so no block is copied whole; the line blocks are
    converted, and they are small.  rhs_ab = B1_a^T B2_b + B2_a^T B1_b is
    formed whole from the column blocks of B1 and B2, and only when one of
    its terms can be nonzero (B1 reaches the I and H blocks, B2 the V
    block), so no N x N matrix is formed.  Each entry goes through the same
    floating-point operations as in M J + (M J)^T - rhs, so the residual
    is bit-identical to that full formula.
    """
    sls = (lay.sl_I, lay.sl_H, lay.sl_V, lay.sl_E)
    B1s = [B1[:, s] for s in sls]
    B2s = [B2[:, s] for s in sls]
    lhs_max = diff_max = 0.0
    for a, sa in enumerate(sls):
        for b in range(a, len(sls)):
            sb = sls[b]
            terms = [X.T @ Y for X, Y in ((B1s[a], B2s[b]), (B2s[a], B1s[b]))
                     if X.nnz and Y.nnz]
            rhs_ab = sum(terms[1:], terms[0]).tocsr() if terms else None
            ab, ba = blocks.get((a, b)), blocks.get((b, a))
            if ab is None and ba is None:
                if rhs_ab is not None:
                    diff_max = max(diff_max, _abs_max(rhs_ab.data))
                continue
            J_ab = ab[1].tocsr() if ab is not None else None
            J_baT = ba[1].T.tocsr() if ba is not None else None
            n_a = sa.stop - sa.start
            for r0 in range(0, n_a, GREEN_ROW_BLOCK):
                rows = slice(r0, min(r0 + GREEN_ROW_BLOCK, n_a))
                lhs = sp.csr_matrix((rows.stop - rows.start, sb.stop - sb.start))
                if J_ab is not None:
                    lhs = _scaled_rows(J_ab, rows, row_scale=ab[0] * m[a][rows])
                if J_baT is not None:
                    lhs = lhs + _scaled_rows(J_baT, rows, col_scale=ba[0] * m[b])
                lhs_max = max(lhs_max, _abs_max(lhs.data))
                diff = lhs - rhs_ab[rows] if rhs_ab is not None else lhs
                diff_max = max(diff_max, _abs_max(diff.data))
    return float(diff_max / max(lhs_max, 1e-30))


def _scaled_rows(X: sp.csr_matrix, rows: slice, row_scale=None, col_scale=None):
    """Rows ``rows`` of the CSR matrix X with each stored x_ij multiplied by
    row_scale[i - rows.start] or by col_scale[j]; shares X's column indices."""
    lo, hi = X.indptr[rows.start], X.indptr[rows.stop]
    indptr = X.indptr[rows.start:rows.stop + 1] - lo
    indices = X.indices[lo:hi]
    scale = (np.repeat(row_scale, np.diff(indptr)) if row_scale is not None
             else col_scale[indices])
    return sp.csr_matrix((X.data[lo:hi] * scale, indices, indptr),
                         shape=(rows.stop - rows.start, X.shape[1]))


def _abs_max(data: np.ndarray) -> float:
    """max |data| (0 for no data) without an elementwise copy."""
    return max(data.max(initial=0.0), -data.min(initial=0.0))


# ---------------------------------------------------------------------------
# boundary-controlled closed loop
# ---------------------------------------------------------------------------

@dataclass
class ClosedLoop:
    """State-space realization with the port law folded into the flow.

    x' = A x + Bu u with the m inputs u: the ghost endpoint currents
    g = G_fb (B2 e) + W1_inp u used in the flux rows satisfy
    W1 g + W2 (B2 e) = (u, 0) exactly, so the discrete energy balance
    carries over verbatim.  W1_inp is the first m columns of W1^-1, the
    only ones the zero rows of (u, 0) leave, and Bu = Lg_state W1_inp.
    """

    bundle: OperatorBundle
    law: PortLaw
    A: sp.csr_matrix          # N x N generator (J_cl - Rd) Hd
    Bu: sp.csr_matrix         # N x m input injection
    G_fb: np.ndarray          # 2k x 2k: voltages B2 e -> ghost currents, u = 0 part
    W1_inp: np.ndarray        # 2k x m: inputs u -> ghost currents


def build_closed_loop(bundle: OperatorBundle, law: PortLaw) -> ClosedLoop:
    k = bundle.k
    W1 = law.W_B[:, :2 * k]
    W2 = law.W_B[:, 2 * k:]
    sv = np.linalg.svd(W1, compute_uv=False)
    if sv[-1] <= 1e-12 * max(sv[0], 1.0):
        raise CertificateError(
            "current-side block W1 of W_B is singular; the boundary law cannot "
            "be solved for the endpoint currents (strictly dissipative and "
            "current-injecting skew laws avoid this)")
    W1_inv = np.linalg.inv(W1)
    G_fb = -W1_inv @ W2                             # ghost currents for u = 0
    W1_inp = W1_inv[:, :law.m]

    delta = sp.csr_matrix(G_fb) @ bundle.B2 - bundle.B1   # replace extrapolation by law
    J_cl = bundle.J + bundle.Lg_state @ delta
    A = ((J_cl - bundle.Rd) @ bundle.Hd).tocsr()
    Bu = (bundle.Lg_state @ sp.csr_matrix(W1_inp)).tocsr()
    return ClosedLoop(bundle=bundle, law=law, A=A, Bu=Bu, G_fb=G_fb, W1_inp=W1_inp)


def hodge_extremes(bundle: OperatorBundle):
    """Eigenvalue extremes of the material Hodge in the weighted metric.

    The masses are scalar within each material block, so these are the
    plain eigenvalue extremes of Hd, read from the constant materials it
    repeats: 1/eps_d and 1/mu_d on each edge or face lattice d that holds
    unknowns, and the Hermitian eigenvalues of the one k x k L^-1 and C^-1
    of the line blocks.  No block of Hd is formed.
    """
    curls, line = bundle.curls, bundle.line
    m, grid = curls.materials, curls.grid
    values = [1.0 / m.eps[grid.edges_per_axis() > 0], 1.0 / m.mu[grid.faces_per_axis() > 0]]
    values += [np.linalg.eigvalsh(0.5 * (b + b.conj().T)) for b in (line.Linv_k, line.Cinv_k)]
    values = np.concatenate(values)
    return float(values.min()), float(values.max())
