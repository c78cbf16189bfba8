"""
Implicit-midpoint integration of the boundary-controlled coupled system.

The step.  With h = dt/2 and the m inputs u, a step solves
(I - h A) x_mid = x + h Bu u(t_mid) = rhs, then x+ = 2 x_mid - x.  The
generator has no face-face block (the Faraday rows read only the node and
edge efforts), so the face block of I - h A is the identity and the faces
are eliminated exactly: with r the cells, nodes and edges and f the faces,

    S = I - h A_rr - (h A_rf)(h A_fr),   S x_r = P rhs = rhs_r + h A_rf rhs_f,
    x_f = rhs_f + h A_fr x_r.

The storage rule.  The stepper stores the generator once, as its blocks
with h folded in: the stacked CSR h [A_rr; A_fr] (rows r then f, columns
r) and h A_rf, with h A_fr a view of the stacked matrix's tail that shares
its arrays, and dt/2 Bu as CSC, by its m columns.  P rhs, the face rows
and the residual check are formed from these blocks and the loop's A,
whichever way S x_r = P rhs is solved.

The size rule.  How S x_r = P rhs is solved is decided by the reduced
unknowns against DIRECT_MAX_UNKNOWNS = 1500:

  * At or below it, S is formed from the blocks, inverted once per
    (loop, dt) as a dense matrix (np.linalg.inv) and dropped; a step solve
    is one matrix-vector product.  The inverse is real when the law and
    the materials are real, and a complex right-hand side on a real
    inverse is solved as two real products, of its real and imaginary
    parts.  Only the above-roundoff entries of the inverse are kept: with
    w = diag(M) diag(Hd) on the reduced unknowns, T_ij = |S^-1_ij|
    sqrt(w_i / w_j) is the inverse in the energy scaling, and the entries
    with T_ij <= u max T (u the unit roundoff of the dtype) are dropped.
    The step map contracts in the energy norm, so max T is about 1 and a
    dropped part changes a solve by at most u max T ||b~||_1, b~ the
    right-hand side in that scaling: no more than the dense product's own
    worst-case rounding, in any units.  When the kept entries are at most
    SPARSE_INVERSE_MAX_FILL = 0.2 of n^2 they are stored as CSR (int32
    indices) and the dense inverse is freed; otherwise the dense inverse
    is kept untouched.
  * Above it, neither an inverse nor S is built.  S is solved by BiCGStab
    (van der Vorst) through the block product
    S x = x - t_r - (h A_rf) t_f, t = h [A_rr; A_fr] x, in complex
    arithmetic when A or the right-hand side is complex.  It is
    right-preconditioned by M = blockdiag(S_LL, diag(S_EE)): the line
    unknowns L (the cells and nodes, the first nl of the reduced numbering)
    meet the field only through the lateral trace, so their block is the
    one a diagonal serves worst, and it is small (50 of 6,396 reduced
    unknowns on the two-cable pair at grid scale 1, 146 at scale 3).
    S_LL = I - (h A_rr)_LL - (h A_rf)_L. (h A_fr)_.L is formed from the
    first nl rows of the stored blocks and inverted densely once per
    (loop, dt); only the nl x nl inverse is kept.  On the field unknowns E,
    diag(S) = 1 - h diag(A_rr) - the row sums of (h A_rf) o (h A_fr)^T.
    M^-1 v is one nl x nl product and one diagonal scaling.  Each solve
    starts from the previous solve's x_r (the first from zero) and from the
    product S x_r that its last true-residual check formed, so a solve
    takes two S products per iteration and one for that check; the product
    is formed anew only when the solve's dtype changes or the right-hand
    side is zero.  Its face part is t_f = h A_fr x_r for the face rows.
    The memory stays linear in the unknowns: the nl x nl inverse and five
    work vectors of the reduced size, allocated once per solve and
    updated in place.

The Krylov tolerance.  BiCGStab stops at the true residual
||P rhs - S x_r|| <= KRYLOV_TOL_FACTOR solver_tol ||P rhs|| (1e-13 at the
default 1e-10).  The face rows are solved exactly, so this is also the
residual of the full step system; the margin of 1e-3 keeps the energy
drift and the reversibility error of 1000 lossless steps within the 1e-10
and 1e-8 of acceptance criterion 4.  A breakdown (<r^, r> = 0,
<r^, v> = 0 or omega = 0) restarts it from the current x_r with the
shadow residual r^ = r.  Every iteration, restarts included, counts
toward KRYLOV_MAX_ITERATIONS, and a solve that does not meet the
tolerance within them raises SolverError with the count and the residual
reached.

Input data is real unless it is complex: InputSignal keeps amplitudes and
tables whose imaginary parts are all zero as float64, so a real law with
such an input runs a real state.

The block loop.  run() advances the loop B steps at a time
(MidpointStepper.advance), B = RECORD_BLOCK_BYTES // (itemsize n) clamped
to [1, RECORD_BLOCK_MAX_COLUMNS]: 28 steps on the single cable
(n = 1,152), 2 on the pair (n = 13,852).  A step (MidpointStepper.step)
does only what the recurrence needs:

    rhs = x + h Bu u,  x_r = S^-1 (rhs_r + h A_rf rhs_f),  the face rows
    x_f = rhs_f + h A_fr x_r, and x+ = 2 x_mid - x written into row j of
    a row-major (B, n) block.

Everything else runs once per block, and still covers every step:

  * the input at all midpoint and record times of the block, from one
    InputSignal call on an array of times, and its finite check: a
    non-finite midpoint input is a DomainError naming the first such time;
  * h Bu u for all B steps, as one product (h Bu) U^T of the CSC columns
    with the (B, m) inputs U, summing each row over the ports in order;
  * every step's residual against the full system, read from the loop's A
    in one sparse product: X_mid - h A X_mid - RHS.  Each step must meet
    ||x_mid - h A x_mid - rhs|| <= solver_tol max(1, ||rhs||), and the
    first that does not is a SolverError naming the step and its midpoint
    time;
  * the records.

The records.  The recorded rows of each block (all of them at
record_stride 1, else every record_stride-th step and the last) are
reduced where the block lands, from one transposed copy, with sparse
matrix x dense block products into preallocated trajectory arrays: the
efforts E = Hd X, the energy Re(x^H M E) / 2 and ||x||_M with the diagonal
M, the dissipation rate Re(E^H M Rd E), the enforced ports
zeta = (G_fb B2 E + W1_inp u, B2 E) and the outputs y = W_C_out zeta.  The
initial state is one more record, of one row.

The scheme is A-stable, time-reversible and preserves the quadratic energy
exactly for skew flows, so the recorded energy ledger

    E(t) - E(0) = supplied - dissipated + boundary_form

closes to the time-quadrature error of the recorded samples (second
order in dt; the flow itself satisfies the balance identically at the
midpoints).  The Green identity M J + J^T M = B1^T B2 + B2^T B1 makes the
energy rate the port power z^H Sigma z / 2 = Re(z[:2k]^H z[2k:]) on the
enforced port vector z, less the dissipation, for every admissible law
(the boundary-control energy balance).  ``boundary_form`` is that port
power less the supply Re(u^H y), so the ledger needs neither the law nor
a co-located completion, and it closes for every law.

No SciPy solver module is loaded by any run: the direct branch inverts
with np.linalg.inv, and BiCGStab needs only products and inner products.

Threads.  A second BLAS thread does not pay on the small dense kernels of
a run.  With 2 OpenBLAS threads on a 2-core machine, the 412 x 412 inverse
of the single cable's S took about 0.2 s in a fresh process, against
0.02 s on one thread, and the record reductions and the Krylov inner
products wait on the second thread.  From order 1000 on it does pay: an
inverse of order 1000 took 0.06-0.07 s against 0.09-0.13 s, one of order
6001 5.8 s against 10.3 s, and a matrix-vector product of order 6001 12 ms
against 24 ms.  So a dense kernel below _THREADED_MIN_ORDER = 1000 runs on
one thread, and a larger one on the caller's count.  The rule is applied to
each inverse of the set-up (S, or the line block) and to the block loop
with its records, by the order of the dense operator a step multiplies by
(the dense inverse, the line block's inverse, none for a CSR inverse).
run() reports the loop's count as solver["blas_threads"].  The count is set
on the OpenBLAS that numpy loaded, found once from /proc/self/maps, and the
caller's is restored on exit, also when the block raises.  Where no
OpenBLAS is found (another BLAS, another OS) nothing is set and
blas_threads is None.

The measurements behind these rules (the size rule's crossover, the fill
switch, the block width, the storage of the blocks, the thread rule) are in
the BENCH_*.json files at the repository root and in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .assembly import ClosedLoop, OperatorBundle
from .certify import _real_if_real
from .errors import ConfigError, DomainError, SolverError

# Byte budget of one state block of run(): each MidpointStepper.advance()
# call runs clamp(budget // (itemsize n), 1, RECORD_BLOCK_MAX_COLUMNS) steps.
RECORD_BLOCK_BYTES = 256 * 2 ** 10
RECORD_BLOCK_MAX_COLUMNS = 256

# Size rule of the step solve: S is inverted densely up to this many
# reduced unknowns and solved by BiCGStab, preconditioned by the exact line
# block and the field diagonal, above it.
DIRECT_MAX_UNKNOWNS = 1500
# The inverse is stored as CSR of its above-roundoff entries when they are
# at most this fraction of its n^2 entries, and dense otherwise.
SPARSE_INVERSE_MAX_FILL = 0.2
# rows of S^-1 scaled at a time while its above-roundoff entries are found
_MASK_ROWS = 64
# BiCGStab stops at ||b - S x|| <= KRYLOV_TOL_FACTOR solver_tol ||b|| and
# gives up after KRYLOV_MAX_ITERATIONS iterations.
KRYLOV_TOL_FACTOR = 1e-3
KRYLOV_MAX_ITERATIONS = 500
# Dense kernels (an inverse, or the products with one) of at least this order
# run on the caller's BLAS threads, smaller ones on one thread (the module
# docstring's "Threads").
_THREADED_MIN_ORDER = 1000
# the thread-count entry points of an OpenBLAS, in the order tried: numpy >= 2
# wheels, other 64-bit-integer builds, the plain build
_OPENBLAS_THREAD_FUNCTIONS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)

# ---------------------------------------------------------------------------
# BLAS threads
# ---------------------------------------------------------------------------

@functools.cache
def _openblas_threads() -> Optional[tuple]:
    """The (get, set) thread-count functions of the first OpenBLAS mapped
    into this process (a file name containing "openblas" in /proc/self/maps)
    that has a pair of _OPENBLAS_THREAD_FUNCTIONS, found on the first call;
    None where there is none (another BLAS, another OS).  A command maps
    numpy's only: SciPy's own OpenBLAS is loaded with scipy.linalg, and its
    functions have none of these names."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            fields = [line.split(maxsplit=5) for line in maps]
    except OSError:
        return None
    paths = sorted({f[5].strip() for f in fields
                    if len(f) == 6 and "openblas" in os.path.basename(f[5]).lower()})
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_FUNCTIONS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, put = getattr(lib, get_name), getattr(lib, set_name)
                get.restype, get.argtypes = ctypes.c_int, []
                put.restype, put.argtypes = None, [ctypes.c_int]
                return get, put
    return None


@contextlib.contextmanager
def _blas_threads_for(order: int):
    """Run the block on the BLAS threads that pay for dense kernels of this
    order: one thread below _THREADED_MIN_ORDER, the caller's count from it
    on.  The caller's count is restored on exit, also when the block
    raises.  Yields the count the block runs with, or None where no
    OpenBLAS was found (nothing is set then)."""
    control = _openblas_threads()
    if control is None:
        yield None
        return
    get, put = control
    caller = get()
    if order < _THREADED_MIN_ORDER:
        put(1)
    try:
        yield get()
    finally:
        put(caller)


def _inverse(M: np.ndarray, what: str) -> np.ndarray:
    """np.linalg.inv(M) on the BLAS threads of ``_blas_threads_for``; a
    singular M is a SolverError naming ``what``."""
    try:
        with _blas_threads_for(M.shape[0]):
            return np.linalg.inv(M)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"{what} inversion failed: {exc}") from exc

# ---------------------------------------------------------------------------
# input signals
# ---------------------------------------------------------------------------

def _smoothstep(x):
    x = np.clip(x, 0.0, 1.0)
    return x ** 3 * (10.0 - 15.0 * x + 6.0 * x * x)


@dataclass
class InputSignal:
    """Per-port input u(t); kinds: zero | step | sine | table.

    The step is a C^2 ramp over ``ramp`` seconds starting at ``t_on`` (a
    hard jump would leave the classical solution class and spoil the
    second-order ledger quadrature).
    """

    m: int
    kind: str = "zero"
    amplitude: np.ndarray = None
    freq: float = 1.0
    phase: float = 0.0
    t_on: float = 0.0
    ramp: float = 0.05
    table_t: np.ndarray = None
    table_u: np.ndarray = None

    def __post_init__(self):
        if self.amplitude is None:
            self.amplitude = np.ones(self.m)
        self.amplitude = np.atleast_1d(_real_if_real(self.amplitude))
        if self.amplitude.size != self.m:
            raise ConfigError(f"input amplitude needs {self.m} entries")
        if self.kind not in ("zero", "step", "sine", "table"):
            raise ConfigError(f"unknown input kind {self.kind!r}")
        if self.kind == "table":
            if self.table_t is None or self.table_u is None:
                raise ConfigError("table input needs table_t and table_u")
            self.table_t = np.asarray(self.table_t, dtype=float)
            self.table_u = np.atleast_2d(_real_if_real(self.table_u))
            if self.table_t.ndim != 1 or np.any(np.diff(self.table_t) <= 0):
                raise ConfigError("table_t must be a strictly increasing list of times")
            if self.table_u.shape != (self.table_t.size, self.m):
                raise ConfigError(f"table_u has shape {self.table_u.shape}, expected "
                                  f"({self.table_t.size}, {self.m})")

    def __call__(self, t) -> np.ndarray:
        """u(t): (m,) at a scalar time, (len(t), m) at a 1-D array of times.

        A scalar is evaluated as a one-element array, so a scalar call and
        the same time inside an array call agree bit for bit.
        """
        times = np.reshape(np.asarray(t, dtype=float), (-1, 1))
        if self.kind == "zero":
            u = np.zeros((times.shape[0], self.m))
        elif self.kind == "step":
            u = self.amplitude * _smoothstep((times - self.t_on) / max(self.ramp, 1e-300))
        elif self.kind == "sine":
            u = self.amplitude * np.sin(2.0 * np.pi * self.freq * times + self.phase)
        else:
            u = np.empty((times.shape[0], self.m), dtype=self.table_u.dtype)
            for j in range(self.m):
                u[:, j] = np.interp(times[:, 0], self.table_t, self.table_u[:, j])
        return u[0] if np.ndim(t) == 0 else u


@dataclass
class SimConfig:
    dt: float
    T: float
    input: InputSignal
    solver_tol: float = 1e-10
    record_stride: int = 1

    def __post_init__(self):
        if not self.solver_tol > 0:
            raise ConfigError(f"sim.solver_tol must be > 0, got {self.solver_tol!r}")
        if not 0 < self.dt <= self.T < np.inf:         # NaN included
            raise ConfigError("need dt > 0 and T >= dt, both finite")
        steps = self.T / self.dt
        if abs(steps - round(steps)) > 1e-9 * steps:
            raise ConfigError(f"T = {self.T:g} is not a whole number of steps dt = {self.dt:g} "
                              f"(T / dt = {steps:.6g}); the nearest whole-step T is "
                              f"{round(steps) * self.dt:g}")
        if self.record_stride < 1:
            raise ConfigError("sim.record_stride must be >= 1")
        tab = self.input.table_t
        if self.input.kind == "table" and (tab[0] > 0.0 or tab[-1] < self.T):
            raise ConfigError(f"table input covers [{tab[0]:g}, {tab[-1]:g}], "
                              f"not the simulated interval [0, {self.T:g}]")


# ---------------------------------------------------------------------------
# initial conditions
# ---------------------------------------------------------------------------

def zero_state(bundle: OperatorBundle) -> np.ndarray:
    return np.zeros(bundle.n)


def random_state(bundle: OperatorBundle, seed: int = 0, scale: float = 1.0) -> np.ndarray:
    """Random state with divergence-consistent field blocks: B is a curl
    of an edge field and D a curl of a face field."""
    rng = np.random.default_rng(seed)
    lay = bundle.layout
    x = np.zeros(bundle.n)
    x[lay.sl_I] = scale * (rng.standard_normal(lay.n_cells))
    x[lay.sl_V] = scale * (rng.standard_normal(lay.n_nodes))
    inc = bundle.curls.incidence     # h times the curl
    a = rng.standard_normal(lay.n_edges)
    x[lay.sl_H] = scale * (inc @ a)
    b = rng.standard_normal(lay.n_faces)
    x[lay.sl_E] = scale * (inc.T @ b)
    return x


def smooth_state(bundle: OperatorBundle, scale: float = 1.0) -> np.ndarray:
    """Low-frequency divergence-consistent state (smooth vector potentials
    for both field blocks, sinusoidal line profiles).

    Preferred over white noise when the ledger's record-level quadrature
    error matters: the residual constant scales with the square of the
    excited frequencies.
    """
    lay = bundle.layout
    grid = bundle.curls.grid
    g = bundle.line.grid
    x = np.zeros(bundle.n)
    # line profiles vanish at the ends so (x0, u=0) is compatible with
    # homogeneous port laws and launches no boundary transient
    x[lay.sl_I] = scale * np.repeat(np.sin(np.pi * g.cells) ** 3, g.k)
    x[lay.sl_V] = scale * np.repeat(np.sin(np.pi * g.nodes) ** 2, g.k)

    def potential(pts, comps):
        kx, ky, kz = 2.0, 1.0, 1.0      # wave numbers along x, y, z
        f = np.sin(np.pi * kx * pts[:, 0]) * np.cos(np.pi * ky * pts[:, 1]) \
            * np.cos(np.pi * kz * pts[:, 2])
        signs = np.array([1.0, -0.5, 0.25])
        return f * signs[comps]

    emids = grid.edge_midpoints(grid.free_edges)
    a = potential(emids, grid.edge_direction(grid.free_edges))
    x[lay.sl_H] = scale * (bundle.curls.incidence @ a)
    fmids = grid.face_midpoints(grid.dof_faces)
    b = potential(fmids, grid.face_normal_axis(grid.dof_faces))
    x[lay.sl_E] = scale * (bundle.curls.incidence.T @ b)
    return x


def lifted_state(bundle: OperatorBundle, chart, V0: np.ndarray) -> np.ndarray:
    """State with charge C V0 on the line component of the chart's cable
    (``chart.curve.line``) and D = eps * lift(V0) around that cable, so the
    initial tangential trace matches the coupling condition."""
    from .coupling import lift_voltage

    lay = bundle.layout
    grid, line_grid = bundle.curls.grid, bundle.line.grid
    k = line_grid.k
    nodes = lay.n_nodes // k
    V_full = np.zeros((nodes, k))
    V_full[:, chart.curve.line] = V0
    q = (V_full @ bundle.line.materials.C.T).ravel()       # q = C V node by node
    lift = lift_voltage(chart, grid, np.asarray(V0, dtype=float), line_grid)
    d = lift[grid.free_edges] / bundle.curls.eps_inv()
    x = np.zeros(bundle.n, dtype=np.result_type(q, d))
    x[lay.sl_V] = q
    x[lay.sl_E] = d
    return x


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def _above_roundoff(Sinv: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Mask of the entries with T_ij = |Sinv_ij| s_i / s_j > u max T, u the
    unit roundoff of Sinv's dtype.

    T is formed _MASK_ROWS rows at a time, twice (for its maximum, then for
    the mask), so the mask is the only n x n temporary.
    """
    blocks = [slice(i, i + _MASK_ROWS) for i in range(0, Sinv.shape[0], _MASK_ROWS)]

    def scaled(rows):
        return np.abs(Sinv[rows]) * (s[rows, None] / s)

    floor = np.finfo(Sinv.dtype).eps * max(scaled(rows).max() for rows in blocks)
    keep = np.empty(Sinv.shape, dtype=bool)
    for rows in blocks:
        np.greater(scaled(rows), floor, out=keep[rows])
    return keep


def _csr_of(Sinv: np.ndarray, keep: np.ndarray) -> sp.csr_matrix:
    """The entries of Sinv where ``keep`` holds, as CSR with int32 indices."""
    indptr = np.zeros(Sinv.shape[0] + 1, dtype=np.int32)
    np.cumsum(np.count_nonzero(keep, axis=1), out=indptr[1:])
    indices = np.nonzero(keep)[1].astype(np.int32)
    return sp.csr_matrix((Sinv[keep], indices, indptr), shape=Sinv.shape)


def _csr_rows(X: sp.csr_matrix, lo: int, hi: int) -> sp.csr_matrix:
    """Rows lo:hi of the CSR matrix X as a CSR view: it shares X's data and
    indices, and only its row pointers are new."""
    indptr = X.indptr[lo:hi + 1] - X.indptr[lo]
    start, stop = X.indptr[lo], X.indptr[hi]
    return sp.csr_matrix((X.data[start:stop], X.indices[start:stop], indptr),
                         shape=(hi - lo, X.shape[1]))


def _nbytes(*arrays) -> int:
    """Stored bytes of arrays and sparse matrices (data, indices, indptr)."""
    total = 0
    for a in arrays:
        parts = (a.data, a.indices, a.indptr) if sp.issparse(a) else (a,)
        total += sum(part.nbytes for part in parts)
    return total


class MidpointStepper:
    """Implicit-midpoint stepper for one (loop, dt) pair.

    Stores the generator's blocks with h = dt/2 folded in, the stacked
    h [A_rr; A_fr] and h A_rf, and by the rules of the module docstring
    either inverts S once (keeping the above-roundoff entries, as CSR when
    few remain) or solves it by BiCGStab through the block product, with
    the exact line block and the field diagonal as its preconditioner.
    ``advance`` runs a block of steps: the input columns dt/2 Bu enter as
    one block product, each step (``step``) forms P rhs, solves and writes
    the face rows, and every step's residual is then checked against
    I - h A, read from the loop's A, in one sparse product over the block.
    ``stats`` reports the size, the method ("direct" or "bicgstab"), the
    set-up time (``factor_s``), the stored bytes of the step operators
    (``operator_bytes``: the blocks, the CSC input columns dt/2 Bu (data,
    indices and indptr), and the preconditioner's field diagonal and
    line-block inverse or the inverse of S), the stored bytes of the
    inverse (direct, ``inverse_bytes``: CSR data, indices and indptr, or
    the dense array) and the fraction of its entries above roundoff
    (``inverse_fill``), or the line block's size
    (``line_block_unknowns``) and the maximum and mean BiCGStab iterations
    per solve (two S products each), the number of step solves and the
    worst relative step residual so far.  A singular S, or a singular line
    block on the BiCGStab branch, raises SolverError.
    """

    def __init__(self, loop: ClosedLoop, dt: float, solver_tol: float = SimConfig.solver_tol):
        t0 = time.perf_counter()
        self.dt = dt
        self.solver_tol = solver_tol
        lay = loop.bundle.layout
        n = loop.bundle.n
        A = loop.A.tocsr()
        f = lay.sl_H
        a, b = f.start, f.stop
        r = np.r_[lay.sl_I, lay.sl_V.start:n]
        nr = r.size
        half = 0.5 * dt
        self._A, self._half, self._f = A, half, f
        Af = A[:, f]
        if _csr_rows(Af, a, b).count_nonzero():
            raise SolverError("the generator has a nonzero face-face block; the "
                              "face elimination of the midpoint step needs it empty")
        # h A_rf, and h [A_rr; A_fr]: the rows r then f of A's columns r
        Arf = Af[r]
        Arf.data *= half
        stacked = A[:, r][np.r_[r, a:b]]
        stacked.data *= half
        self._stacked, self._Arf = stacked, Arf
        self._Afr = _csr_rows(stacked, nr, stacked.shape[0])
        self._Bu = (half * loop.Bu).tocsc()             # dt/2 Bu by its m columns
        self.solves = 0
        self.max_rel_residual = 0.0
        self.iterations = []        # BiCGStab iterations of each solve
        self._Sinv = None
        Arr = _csr_rows(stacked, 0, nr)
        if nr > DIRECT_MAX_UNKNOWNS:
            nl = lay.n_cells + lay.n_nodes      # the line unknowns lead r
            # diag(S) = 1 - h diag(A_rr) - sum_j (h A_rf)_ij (h A_fr)_ji on
            # the field unknowns
            diag = (1.0 - Arr.diagonal()
                    - np.asarray(Arf.multiply(self._Afr.T).sum(axis=1)).ravel())[nl:]
            if not np.all(np.isfinite(diag) & (diag != 0)):
                raise SolverError("step matrix has a zero diagonal entry on the field "
                                  "unknowns; the preconditioner needs every one nonzero")
            self._dinv = 1.0 / diag
            # S_LL = I - (h A_rr)_LL - (h A_rf)_L. (h A_fr)_.L
            S_LL = np.identity(nl) - (Arr[:nl, :nl] + Arf[:nl] @ self._Afr[:, :nl]).toarray()
            self._line_inv = _inverse(S_LL, "step matrix line block")
            self._dense_order = nl      # of a step's dense operator, for its BLAS threads
            self._krylov_tol = KRYLOV_TOL_FACTOR * solver_tol
            # the warm start: x_r and its product (S x_r, h A_fr x_r), of x_r = 0
            zero = np.zeros(nr, dtype=stacked.dtype)
            self._warm = (zero, zero, np.zeros(b - a, dtype=stacked.dtype))
            self._stats = {"reduced_unknowns": int(nr), "method": "bicgstab",
                           "line_block_unknowns": int(nl)}
            solve_bytes = self._dinv.nbytes + self._line_inv.nbytes
        else:
            S = sp.identity(nr, dtype=A.dtype, format="csr") - Arr - Arf @ self._Afr
            Sinv = _inverse(S.toarray(), "step matrix")
            del S
            bundle = loop.bundle
            weight = (bundle.M.diagonal() * bundle.Hd.diagonal().real)[r]
            keep = _above_roundoff(Sinv, np.sqrt(weight))
            kept = int(np.count_nonzero(keep))
            if kept <= SPARSE_INVERSE_MAX_FILL * keep.size:
                Sinv = _csr_of(Sinv, keep)
            self._Sinv = Sinv
            self._dense_order = 0 if sp.issparse(Sinv) else nr     # as above
            solve_bytes = _nbytes(Sinv)
            self._stats = {"reduced_unknowns": int(nr), "method": "direct",
                           "inverse_bytes": int(solve_bytes),
                           "inverse_fill": kept / keep.size}
        self._stats["operator_bytes"] = int(
            _nbytes(stacked, Arf, self._Afr.indptr, self._Bu) + solve_bytes)
        self._stats["factor_s"] = time.perf_counter() - t0

    def stats(self) -> dict:
        out = {**self._stats, "solves": self.solves,
               "max_rel_residual": self.max_rel_residual}
        if self._Sinv is None:
            out["iterations_max"] = max(self.iterations, default=0)
            out["iterations_mean"] = float(np.mean(self.iterations)) if self.iterations else 0.0
        return out

    def _apply_S(self, x: np.ndarray) -> tuple:
        """(S x, h A_fr x): with t = h [A_rr; A_fr] x, S x = x - t_r - (h A_rf) t_f."""
        t = self._stacked @ x
        t_f = t[x.shape[0]:]
        Sx = self._Arf @ t_f
        Sx += t[:x.shape[0]]
        np.subtract(x, Sx, out=Sx)
        return Sx, t_f

    def _solve_reduced(self, b: np.ndarray) -> tuple:
        """(x_r, h A_fr x_r) with S x_r = b."""
        Sinv = self._Sinv
        if Sinv is None:
            self._warm = self._bicgstab(b, *self._warm)
            x_r, _, t_f = self._warm
            return x_r, t_f
        if np.iscomplexobj(b) and Sinv.dtype.kind != "c":
            x_r = Sinv @ b.real + 1j * (Sinv @ b.imag)
        else:
            x_r = Sinv @ b
        return x_r, self._Afr @ x_r

    def _precondition(self, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        """M^-1 v written into ``out``, M = blockdiag(S_LL, diag(S_EE)): the
        line block's inverse on the first nl entries, 1/diag(S) on the rest."""
        nl = self._line_inv.shape[0]
        np.matmul(self._line_inv, v[:nl], out=out[:nl])
        np.multiply(self._dinv, v[nl:], out=out[nl:])
        return out

    def _bicgstab(self, b: np.ndarray, x: np.ndarray, Sx: np.ndarray, t_f: np.ndarray) -> tuple:
        """Solve S x = b by BiCGStab, right-preconditioned by
        M = blockdiag(S_LL, diag(S_EE)), to the true residual
        ||b - S x|| <= tol ||b||, from the start x and its product
        (Sx, t_f) = (S x, h A_fr x); returns the solution and its product,
        formed by the last true-residual check.

        The start's product is formed anew when the solve's dtype is not
        that of Sx (a real solve after a complex one starts from the real
        part) or when b = 0 (the start is then zero).  The work vectors r,
        the shadow residual r^, p, v and a scratch row are one block
        allocated per solve and updated in place.  A pass ends when the
        recursive residual meets the tolerance or on a breakdown
        (<r^, r> = 0, <r^, v> = 0 or omega = 0); the true residual then
        decides whether a new pass starts from x with r^ = r.  Appends the
        iteration count, restarts included, to ``iterations``; raises
        SolverError after KRYLOV_MAX_ITERATIONS.
        """
        S, precondition = self._apply_S, self._precondition
        dtype = np.result_type(self._stacked.dtype, b.dtype)
        bnorm = np.linalg.norm(b)
        x = (x if dtype.kind == "c" else x.real).astype(dtype, copy=True)
        if bnorm == 0:
            x[:] = 0
        if bnorm == 0 or Sx.dtype != dtype:
            Sx, t_f = S(x)
        target = self._krylov_tol * bnorm
        r, shadow, p, v, z = np.empty((5, b.size), dtype=dtype)
        np.subtract(b, Sx, out=r)
        rnorm = np.linalg.norm(r)
        its = 0
        while not rnorm <= target:          # NaN included
            if its >= KRYLOV_MAX_ITERATIONS:
                raise SolverError(f"BiCGStab did not converge in {its} iterations: "
                                  f"relative residual {rnorm / bnorm:.3e}")
            shadow[:] = r
            p[:] = r
            rho = np.vdot(shadow, r)
            while its < KRYLOV_MAX_ITERATIONS:
                its += 1
                v[:] = S(precondition(p, z))[0]
                sigma = np.vdot(shadow, v)
                if sigma == 0:
                    break
                alpha = rho / sigma
                z *= alpha
                x += z
                np.multiply(v, alpha, out=z)
                r -= z
                if np.linalg.norm(r) <= target:
                    break
                t = S(precondition(r, z))[0]
                tt = np.vdot(t, t).real
                omega = np.vdot(t, r) / tt if tt else 0.0
                if omega == 0:
                    break
                z *= omega
                x += z
                t *= omega
                r -= t
                rho_next = np.vdot(shadow, r)
                if rho_next == 0 or np.linalg.norm(r) <= target:
                    break
                # p = r + beta (p - omega v)
                v *= omega
                p -= v
                p *= rho_next / rho * alpha / omega
                p += r
                rho = rho_next
            Sx, t_f = S(x)
            np.subtract(b, Sx, out=r)
            rnorm = np.linalg.norm(r)
        self.iterations.append(its)
        return x, Sx, t_f

    def advance(self, x: np.ndarray, U: np.ndarray, first_step: int = 0) -> tuple:
        """Advance len(U) steps from x with the midpoint inputs U (steps x m);
        returns (X, X_mid), whose row j is the state after step j + 1 and
        that step's midpoint.

        ``first_step`` is the number of steps before the block; it numbers
        the steps in errors.  Each step's residual ||x_mid - h A x_mid - rhs||
        (h = dt/2) must be at most solver_tol max(1, ||rhs||): the block's
        are checked in one sparse product, and the first step over the bound
        is a SolverError naming the step and its midpoint time.
        """
        U, m = np.asarray(U), self._Bu.shape[1]
        if U.ndim != 2 or U.shape[1] != m:
            raise DomainError(f"input block has shape {U.shape}, port law expects "
                              f"(steps, {m})")
        steps, n = U.shape[0], self._A.shape[0]
        # dt/2 Bu u of every step: the CSC product sums each row over the
        # ports in column order, so that a row does not depend on its block
        BU = (self._Bu @ U.T).T
        dtype = np.result_type(x, BU, self._stacked.dtype)
        rhs = np.empty((steps, n), dtype=dtype)
        X_mid = np.empty((steps, n), dtype=dtype)
        X = np.empty((steps, n), dtype=dtype)
        step = self.step
        for j in range(steps):
            step(x, BU[j], rhs[j], X_mid[j], X[j])
            x = X[j]
        self.solves += steps
        # X_mid - h A X_mid - rhs; one transposed copy in, one out: the
        # sparse product wants columns
        residual = np.ascontiguousarray((self._A @ np.ascontiguousarray(X_mid.T)).T)
        residual *= -self._half
        residual += X_mid
        residual -= rhs
        res = np.linalg.norm(residual, axis=1)
        scale = np.maximum(1.0, np.linalg.norm(rhs, axis=1))
        bad = ~(res <= self.solver_tol * scale)        # NaN included
        if bad.any():
            j = int(np.argmax(bad))
            raise SolverError(f"midpoint solve residual {res[j]:.3e} exceeds tolerance "
                              f"{self.solver_tol:.1e} at step {first_step + j + 1} "
                              f"(t = {(first_step + j + 0.5) * self.dt:.6g})")
        self.max_rel_residual = max(self.max_rel_residual,
                                    float(np.max(res / scale, initial=0.0)))
        return X, X_mid

    def step(self, x: np.ndarray, bu: np.ndarray, rhs: np.ndarray, x_mid: np.ndarray,
             x_next: np.ndarray) -> None:
        """One step of ``advance``, written into its rows rhs, x_mid and
        x_next: rhs = x + bu, S x_r = P rhs = rhs_r + h A_rf rhs_f, the face
        rows x_f = rhs_f + h A_fr x_r and x_next = 2 x_mid - x.  Its residual
        is checked by ``advance``."""
        np.add(x, bu, out=rhs)
        a, b = self._f.start, self._f.stop
        p = self._Arf @ rhs[a:b]
        p[:a] += rhs[:a]
        p[a:] += rhs[b:]
        x_r, t_f = self._solve_reduced(p)
        x_mid[:a] = x_r[:a]
        x_mid[b:] = x_r[a:]
        np.add(rhs[a:b], t_f, out=x_mid[a:b])
        np.multiply(x_mid, 2.0, out=x_next)
        x_next -= x


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    times: np.ndarray
    energy: np.ndarray
    xnorm: np.ndarray          # ||x||_M at records
    u: np.ndarray              # (nrec, m)
    y: np.ndarray              # (nrec, p)
    zeta: np.ndarray           # (nrec, 4k) enforced port vector
    diss_rate: np.ndarray      # Re <e, Rd e>_M
    x_final: np.ndarray
    ledger: Optional[dict] = None
    solver: Optional[dict] = None  # MidpointStepper.stats(), the step-loop timing and threads


def _column_forms(X: np.ndarray, Y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Re sum_i w_i conj(X[i, j]) Y[i, j] for every column j (w real)."""
    if np.iscomplexobj(X):
        X = X.conj()
    return w @ np.real(X * Y)


def run(loop: ClosedLoop, cfg: SimConfig, x0: Optional[np.ndarray] = None) -> Trajectory:
    """Integrate and record; attaches the energy ledger of the recorded
    samples (``energy_ledger``).

    The steps run in blocks of ``MidpointStepper.advance``, and the
    recorded rows of each block are reduced into the trajectory where the
    block lands (see the module docstring).  ``solver`` holds the
    stepper's stats, the step loop's wall time, records included:
    ``stepping_s`` (time.perf_counter) and ``steps_per_s``, and the BLAS
    thread count the loop ran with, ``blas_threads`` (None where no
    OpenBLAS was found; see "Threads" in the module docstring).
    """
    bundle, law = loop.bundle, loop.law
    if x0 is None:
        x0 = zero_state(bundle)
    x0 = np.asarray(x0)
    x0 = x0.astype(np.result_type(x0.dtype, float), copy=False)
    if x0.shape != (bundle.n,):
        raise DomainError(f"initial state has shape {x0.shape}, expected ({bundle.n},)")
    u0 = np.atleast_1d(cfg.input(0.0))
    if u0.shape != (law.m,):
        raise DomainError(f"input has {u0.size} ports, port law expects {law.m}")
    if not np.all(np.isfinite(u0)):
        raise DomainError("input signal is not finite at t = 0; (x0, u(0)) "
                          "must lie in the system-node domain")

    stepper = MidpointStepper(loop, cfg.dt, cfg.solver_tol)
    n_steps = int(round(cfg.T / cfg.dt))
    stride = cfg.record_stride
    # records: t = 0, every stride-th step and the last step
    n_rec = 1 + n_steps // stride + (n_steps % stride != 0)
    x = x0.astype(np.result_type(x0, loop.A.dtype, loop.Bu.dtype, u0), copy=True)
    mass = bundle.M.diagonal()              # M is the diagonal mass matrix
    z_dtype = np.result_type(x, bundle.Hd.dtype, loop.G_fb, loop.W1_inp, u0)
    times = np.empty(n_rec)
    energy, xnorm, diss = np.empty(n_rec), np.empty(n_rec), np.empty(n_rec)
    u_rec = np.empty((n_rec, law.m), dtype=u0.dtype)
    two_k = 2 * law.k
    zeta = np.empty((n_rec, 2 * two_k), dtype=z_dtype)
    # steps per advance() block
    B = min(max(RECORD_BLOCK_BYTES // (x.itemsize * bundle.n), 1), RECORD_BLOCK_MAX_COLUMNS)
    written = 0

    def record(t, X, U):
        """Reduce the states X (rows) at the times t with the inputs U into
        the next len(t) records."""
        nonlocal written
        sl = slice(written, written + len(t))
        written = sl.stop
        times[sl], u_rec[sl] = t, U
        X = np.ascontiguousarray(X.T)
        E = bundle.Hd @ X
        energy[sl] = 0.5 * _column_forms(X, E, mass)
        xnorm[sl] = np.sqrt(_column_forms(X, X, mass))
        diss[sl] = _column_forms(E, bundle.Rd @ E, mass)
        voltages = bundle.B2 @ E
        zeta[sl, :two_k] = (loop.G_fb @ voltages + loop.W1_inp @ U.T).T
        zeta[sl, two_k:] = voltages.T

    with _blas_threads_for(stepper._dense_order) as blas_threads:
        record([0.0], x[None], u0[None])
        clock = time.perf_counter()
        for start in range(0, n_steps, B):
            i = np.arange(start, min(start + B, n_steps))
            t_mid = (i + 0.5) * cfg.dt
            U = cfg.input(t_mid)
            finite = np.isfinite(U).all(axis=1)
            if not finite.all():
                j = int(np.argmin(finite))
                raise DomainError(f"input signal is not finite at t = {t_mid[j]:.6g} "
                                  f"(midpoint of step {i[j] + 1})")
            X, _ = stepper.advance(x, U, start)
            x = X[-1]
            if stride > 1:
                recorded = ((i + 1) % stride == 0) | (i == n_steps - 1)
                X, i = X[recorded], i[recorded]
            t = (i + 1) * cfg.dt
            record(t, X, cfg.input(t))
        stepping_s = time.perf_counter() - clock

    solver = {**stepper.stats(), "stepping_s": stepping_s,
              "steps_per_s": n_steps / stepping_s, "blas_threads": blas_threads}
    traj = Trajectory(
        times=times, energy=energy, xnorm=xnorm, u=u_rec, y=zeta @ law.W_C_out.T,
        zeta=zeta, diss_rate=diss, x_final=x.copy(), solver=solver,
    )
    traj.ledger = energy_ledger(traj)
    return traj


def _cumtrapz(y, t):
    out = np.zeros_like(np.asarray(y, dtype=float))
    if len(t) > 1:
        dt = np.diff(t)
        out[1:] = np.cumsum(0.5 * dt * (y[1:] + y[:-1]))
    return out


def energy_ledger(traj: Trajectory) -> dict:
    """Trapezoid-quadrature energy balance over the recorded samples.

    The rates are the supply Re(u^H y) (0 for a law with no inputs), the
    dissipation and the boundary term Re(z[:2k]^H z[2k:]) - Re(u^H y), the
    port power of the recorded port vector z less the supply; residual =
    dE - supplied + dissipated - boundary.  ``energy_drift`` is
    max_t |E(t) - E(0)| / peak energy (0 when the energy stays 0).
    """
    def rate(a, b):
        return np.real(np.einsum("ij,ij->i", np.conj(a), b))

    two_k = traj.zeta.shape[1] // 2
    if traj.u.shape[1]:
        supplied_rate = rate(traj.u, traj.y)
    else:                       # an autonomous run supplies nothing
        supplied_rate = np.zeros(len(traj.times))
    port_rate = rate(traj.zeta[:, :two_k], traj.zeta[:, two_k:])
    supplied = _cumtrapz(supplied_rate, traj.times)
    dissipated = _cumtrapz(traj.diss_rate, traj.times)
    boundary = _cumtrapz(port_rate - supplied_rate, traj.times)
    residual = traj.energy - traj.energy[0] - supplied + dissipated - boundary
    peak = float(traj.energy.max())
    drift = float(np.abs(traj.energy - traj.energy[0]).max())
    return {
        "supplied": supplied,
        "dissipated": dissipated,
        "boundary": boundary,
        "residual": residual,
        "max_residual": float(np.abs(residual).max()),
        "peak_energy": peak,
        "energy_drift": drift / peak if peak > 0 else 0.0,
    }


def wp_bound_series(traj: Trajectory, c_t: float) -> dict:
    """Sampled well-posedness bound ||x(t)|| + ||y||_L2 <= c_t (||x0|| + ||u||_L2)."""
    y2 = _cumtrapz(np.einsum("ij,ij->i", np.conj(traj.y), traj.y).real, traj.times)
    u2 = _cumtrapz(np.einsum("ij,ij->i", np.conj(traj.u), traj.u).real, traj.times)
    lhs = traj.xnorm + np.sqrt(np.maximum(y2, 0.0))
    rhs = c_t * (traj.xnorm[0] + np.sqrt(np.maximum(u2, 0.0)))
    return {"lhs": lhs, "rhs": rhs, "satisfied": bool(np.all(lhs <= rhs + 1e-12)),
            "max_ratio": float((lhs / np.maximum(rhs, 1e-300)).max())}


def write_trajectory_csv(traj: Trajectory, path: str) -> None:
    """Columns: t, energy, supplied, dissipated, boundary_term, residual,
    u_1..u_m, y_1..y_p (real parts; *_im columns appended when complex)."""
    led = traj.ledger
    m, p = traj.u.shape[1], traj.y.shape[1]
    complex_io = bool(np.any(traj.u.imag) or np.any(traj.y.imag))
    cols = ["t", "energy", "supplied", "dissipated", "boundary_term", "residual"]
    cols += [f"u_{j+1}" for j in range(m)] + [f"y_{j+1}" for j in range(p)]
    if complex_io:
        cols += [f"u_{j+1}_im" for j in range(m)] + [f"y_{j+1}_im" for j in range(p)]
    rows = [traj.times, traj.energy, led["supplied"], led["dissipated"],
            led["boundary"], led["residual"]]
    rows += [traj.u[:, j].real for j in range(m)] + [traj.y[:, j].real for j in range(p)]
    if complex_io:
        rows += [traj.u[:, j].imag for j in range(m)] + [traj.y[:, j].imag for j in range(p)]
    data = np.column_stack(rows)
    header = ",".join(cols)
    np.savetxt(path, data, delimiter=",", header=header, comments="",
               fmt="%.17g")
