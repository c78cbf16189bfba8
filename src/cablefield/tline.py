"""
Staggered summation-by-parts discretization of the k-line telegrapher system.

Grids on the reference interval [0, 1] with n cells, h = 1/n:

    nodes:  eta_j = j*h,        j = 0..n      (n+1 points, both endpoints)
    cells:  eta_j = (j+1/2)*h,  j = 0..n-1    (n midpoints)

Unknowns (each C^k-valued, flattened sample-major so sample j of line i
sits at index j*k + i):

    q, V  on nodes      (charge / voltage)
    psi, I on cells     (flux / current)

Operators:

    D   : nodes -> cells    exact difference (V[j+1]-V[j])/h
    Dt  : cells -> nodes    SBP dual derivative with boundary closures
    Mn, Mc                  diagonal quadrature masses (trapezoid / midpoint)
    R0, R1                  second-order extrapolation of a cell field to
                            eta = 0 and eta = 1
    E0, E1                  endpoint node extraction

The boundary closures of Dt are chosen so that the discrete integration by
parts identity holds exactly as a matrix identity:

    Mn @ Dt + D.T @ Mc = e1 @ R1 - e0 @ R0

(e0/e1 the endpoint node indicators), which is what every energy statement
downstream leans on.  `Lg` injects externally supplied endpoint values of
the cell field into the boundary rows of Dt, used when boundary data comes
from a port law instead of interior extrapolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .errors import MaterialsError

MatrixFunc = Callable[[np.ndarray], np.ndarray]

_EIG_FLOOR = -1e-12
_MATERIAL_SAMPLES = 64     # cell-centre samples of validate_line_materials


# ---------------------------------------------------------------------------
# materials
# ---------------------------------------------------------------------------

def _as_matrix_func(value, k: int) -> MatrixFunc:
    """Promote a scalar / (k,k) array / callable to eta -> (m,k,k) samples."""
    if callable(value):
        def func(eta):
            eta = np.atleast_1d(np.asarray(eta, dtype=float))
            out = np.stack([np.atleast_2d(np.asarray(value(e))) for e in eta])
            if out.shape[1:] != (k, k):
                raise MaterialsError(f"material callable returned shape {out.shape[1:]}, expected ({k},{k})")
            return out
        return func
    arr = np.asarray(value)
    if arr.ndim == 0:
        arr = arr * np.eye(k)
    if arr.shape != (k, k):
        raise MaterialsError(f"material constant has shape {arr.shape}, expected ({k},{k})")

    def const(eta):
        eta = np.atleast_1d(np.asarray(eta, dtype=float))
        return np.broadcast_to(arr, (eta.size, k, k)).copy()
    return const


@dataclass
class LineMaterials:
    """Per-unit-parameter material laws C, L, R, G of a k-line bundle.

    Each entry is a constant (scalar or (k,k) array) or a callable of eta
    returning a (k,k) array.  C and L must be Hermitian positive definite,
    R + R^H and G + G^H positive semidefinite.
    """

    k: int
    C: object = 1.0
    L: object = 1.0
    R: object = 0.0
    G: object = 0.0

    def __post_init__(self):
        self._C = _as_matrix_func(self.C, self.k)
        self._L = _as_matrix_func(self.L, self.k)
        self._R = _as_matrix_func(self.R, self.k)
        self._G = _as_matrix_func(self.G, self.k)

    def sample(self, name: str, eta: np.ndarray) -> np.ndarray:
        return getattr(self, "_" + name)(eta)


def validate_line_materials(m: LineMaterials) -> dict:
    """Check the positivity assumptions at _MATERIAL_SAMPLES cell centres.

    Returns a report dict with per-law eigenvalue margins; ``passed`` is
    True iff C, L are HPD and R, G have PSD Hermitian part everywhere.
    """
    eta = (np.arange(_MATERIAL_SAMPLES) + 0.5) / _MATERIAL_SAMPLES
    report = {"passed": True, "margins": {}, "checks": {}}
    for name, definite in (("C", True), ("L", True), ("R", False), ("G", False)):
        samples = m.sample(name, eta)
        herm_defect = float(np.abs(samples - samples.conj().transpose(0, 2, 1)).max()) if definite else 0.0
        eigs = np.linalg.eigvalsh(0.5 * (samples + samples.conj().transpose(0, 2, 1)))
        margin = float(eigs.min())
        ok = margin > 0.0 if definite else margin >= _EIG_FLOOR
        if definite and herm_defect > 1e-10:
            ok = False
        report["margins"][name] = margin
        report["checks"][name] = bool(ok)
        report["passed"] = report["passed"] and ok
    return report


def _block_diag_samples(samples: np.ndarray) -> sp.csr_matrix:
    """(m,k,k) samples -> sparse block-diagonal matrix, sample-major."""
    m, k, _ = samples.shape
    if k == 1:
        return sp.diags(samples[:, 0, 0]).tocsr()
    return sp.block_diag([samples[j] for j in range(m)], format="csr")


# ---------------------------------------------------------------------------
# grid and operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LineGrid:
    """Staggered node/cell grid with SBP derivative pair for k lines."""

    n: int
    k: int
    h: float
    nodes: np.ndarray        # (n+1,)
    cells: np.ndarray        # (n,)
    D: sp.csr_matrix         # nodes -> cells
    Dt: sp.csr_matrix        # cells -> nodes, SBP closure built in
    Lg: sp.csr_matrix        # (2k,) ghost boundary values -> nodes
    Mn: sp.csr_matrix        # node quadrature mass (diagonal)
    Mc: sp.csr_matrix        # cell quadrature mass (diagonal)
    R0: sp.csr_matrix        # cells -> C^k, extrapolation to eta=0
    R1: sp.csr_matrix        # cells -> C^k, extrapolation to eta=1
    E0: sp.csr_matrix        # nodes -> C^k, value at eta=0
    E1: sp.csr_matrix        # nodes -> C^k, value at eta=1

    @property
    def n_nodes(self) -> int:
        return (self.n + 1) * self.k

    @property
    def n_cells(self) -> int:
        return self.n * self.k


def build_line_grid(n: int, k: int = 1) -> LineGrid:
    if n < 3:
        raise ValueError("need at least 3 cells for the boundary closures")
    h = 1.0 / n
    Ik = sp.identity(k, format="csr")

    def kr(a):
        """a (x) I_k as canonical CSR; a itself for one line."""
        a = sp.csr_matrix(a)
        if k > 1:
            return sp.kron(a, Ik, format="csr")
        a.sum_duplicates()
        return a

    # D: exact staggered difference, no boundary closure needed
    d = sp.diags([-np.ones(n), np.ones(n)], [0, 1], shape=(n, n + 1)) / h

    # R0/R1: linear extrapolation from the two nearest cell midpoints,
    # second order at the endpoints
    r0 = sp.csr_matrix(([1.5, -0.5], ([0, 0], [0, 1])), shape=(1, n))
    r1 = sp.csr_matrix(([1.5, -0.5], ([0, 0], [n - 1, n - 2])), shape=(1, n))
    # E0/E1: the endpoint nodes, so that e0 = en0^T and e1 = en1^T
    en0 = sp.csr_matrix(([1.0], ([0], [0])), shape=(1, n + 1))
    en1 = sp.csr_matrix(([1.0], ([0], [n])), shape=(1, n + 1))

    # Dt rows follow from the exactness requirement
    #   Mn Dt + D^T Mc = e1 r1 - e0 r0
    mn = np.full(n + 1, h); mn[0] = mn[-1] = 0.5 * h
    rhs = en1.T @ r1 - en0.T @ r0 - d.T * h
    dt = sp.diags(1.0 / mn) @ rhs

    # Lg1 injects externally supplied endpoint values of the cell field
    # into the boundary rows, in place of the extrapolation [r0; r1]
    lg1 = sp.csr_matrix(([2.0 / h, -2.0 / h], ([0, n], [0, 1])), shape=(n + 1, 2))

    return LineGrid(
        n=n, k=k, h=h,
        nodes=np.arange(n + 1) * h,
        cells=(np.arange(n) + 0.5) * h,
        D=kr(d), Dt=kr(dt), Lg=kr(lg1),
        Mn=kr(sp.diags(mn)), Mc=kr(sp.identity(n) * h),
        R0=kr(r0), R1=kr(r1),
        E0=kr(en0), E1=kr(en1),
    )


# ---------------------------------------------------------------------------
# assembled line blocks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LineBlocks:
    """Material and derivative blocks of the semi-discrete telegrapher system.

    Efforts (I, V) relate to states (psi, q) by I = Linv psi, V = Cinv q.
    The lossless dynamics read

        d/dt psi = -D V - R I          (cells)
        d/dt q   = -Dt I_tot - G V     (nodes)

    with I_tot = I on an uncoupled line; the field-coupling correction to
    I_tot is inserted at global assembly time.
    """

    grid: LineGrid
    Cinv: sp.csr_matrix      # node block-diagonal C(eta)^-1
    Linv: sp.csr_matrix      # cell block-diagonal L(eta)^-1
    Rm: sp.csr_matrix        # cell block-diagonal R(eta)
    Gm: sp.csr_matrix        # node block-diagonal G(eta)


def assemble_line(m: LineMaterials, g: LineGrid) -> LineBlocks:
    if m.k != g.k:
        raise MaterialsError(f"materials have k={m.k}, grid has k={g.k}")
    report = validate_line_materials(m)
    if not report["passed"]:
        bad = [name for name, ok in report["checks"].items() if not ok]
        raise MaterialsError(f"material assumptions violated for {bad}: margins {report['margins']}")

    c_nodes = m.sample("C", g.nodes)
    l_cells = m.sample("L", g.cells)
    return LineBlocks(
        grid=g,
        Cinv=_block_diag_samples(np.linalg.inv(c_nodes)),
        Linv=_block_diag_samples(np.linalg.inv(l_cells)),
        Rm=_block_diag_samples(m.sample("R", g.cells)),
        Gm=_block_diag_samples(m.sample("G", g.nodes)),
    )
