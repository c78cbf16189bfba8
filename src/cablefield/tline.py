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

The material laws C, L, R, G (``LineMaterials``) are constant k x k
matrices; ``LineBlocks`` keeps them and forms each material block, one
k x k matrix (C and L inverted) repeated over the nodes or cells, when it
is read, as ``maxwell.CurlPair`` forms the field's diagonals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, MaterialsError

_EIG_FLOOR = -1e-12


# ---------------------------------------------------------------------------
# materials
# ---------------------------------------------------------------------------

def _as_matrix(value, k: int, name: str) -> np.ndarray:
    """A scalar (times I_k) or (k,k) array as a (k,k) array."""
    arr = np.asarray(value)
    if arr.dtype.kind not in "biufc":
        raise MaterialsError(f"line material {name} must be a number or a ({k},{k}) "
                             f"array, got {type(value).__name__}")
    if arr.ndim == 0:
        arr = arr * np.eye(k)
    if arr.shape != (k, k):
        raise MaterialsError(f"line material {name} has shape {arr.shape}, expected ({k},{k})")
    return arr


@dataclass
class LineMaterials:
    """Per-unit-parameter material laws C, L, R, G of a k-line bundle.

    Each law is one constant along the line: a (k,k) array, or a scalar
    that stands for that multiple of I_k.  C and L must be Hermitian
    positive definite, R + R^H and G + G^H positive semidefinite.
    """

    k: int
    C: np.ndarray = 1.0
    L: np.ndarray = 1.0
    R: np.ndarray = 0.0
    G: np.ndarray = 0.0

    def __post_init__(self):
        for name in ("C", "L", "R", "G"):
            setattr(self, name, _as_matrix(getattr(self, name), self.k, name))


def validate_line_materials(m: LineMaterials) -> dict:
    """Check the positivity assumptions on the matrix of each law.

    Returns a report dict with per-law eigenvalue margins; ``passed`` is
    True iff C, L are HPD and R, G have PSD Hermitian part.
    """
    report = {"passed": True, "margins": {}, "checks": {}}
    for name, definite in (("C", True), ("L", True), ("R", False), ("G", False)):
        a = getattr(m, name)
        herm_defect = float(np.abs(a - a.conj().T).max()) if definite else 0.0
        margin = float(np.linalg.eigvalsh(0.5 * (a + a.conj().T)).min())
        ok = margin > 0.0 if definite else margin >= _EIG_FLOOR
        if definite and herm_defect > 1e-10:
            ok = False
        report["margins"][name] = margin
        report["checks"][name] = bool(ok)
        report["passed"] = report["passed"] and ok
    return report


def _repeat_block(block: np.ndarray, count: int) -> sp.csr_matrix:
    """``count`` copies of the (k,k) ``block`` down the diagonal, as CSR."""
    return sp.kron(sp.identity(count, format="csr"), block, format="csr")


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
        raise ConfigError(f"a line grid needs at least 3 cells for the boundary "
                          f"closures, got {n}")
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

    Efforts (I, V) relate to states (psi, q) by I = L^-1 psi, V = C^-1 q.
    The lossless dynamics read

        d/dt psi = -D V - R I          (cells)
        d/dt q   = -Dt I_tot - G V     (nodes)

    with I_tot = I on an uncoupled line; the field-coupling correction to
    I_tot is inserted at global assembly time.  The materials are
    constant, so each material block repeats one k x k matrix down its
    diagonal.  Only the grid and the materials are kept; the blocks are
    formed as CSR on each call: L^-1 (``linv``) and R (``rm``) over the
    cells, C^-1 (``cinv``) and G (``gm``) over the nodes.
    """

    grid: LineGrid
    materials: LineMaterials

    def linv(self) -> sp.csr_matrix:
        return _repeat_block(np.linalg.inv(self.materials.L), self.grid.n)

    def cinv(self) -> sp.csr_matrix:
        return _repeat_block(np.linalg.inv(self.materials.C), self.grid.n + 1)

    def rm(self) -> sp.csr_matrix:
        return _repeat_block(self.materials.R, self.grid.n)

    def gm(self) -> sp.csr_matrix:
        return _repeat_block(self.materials.G, self.grid.n + 1)


def assemble_line(m: LineMaterials, g: LineGrid) -> LineBlocks:
    """The line blocks of m on g, once k and the materials are checked."""
    if m.k != g.k:
        raise MaterialsError(f"materials have k={m.k}, grid has k={g.k}")
    report = validate_line_materials(m)
    if not report["passed"]:
        bad = [name for name, ok in report["checks"].items() if not ok]
        raise MaterialsError(f"material assumptions violated for {bad}: margins {report['margins']}")
    return LineBlocks(grid=g, materials=m)
