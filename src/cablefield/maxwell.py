"""
Staggered-grid field discretization on a box with staircased cable tubes.

Layout (uniform spacing h, standard staggering):

    E, D  on edges:   x-edges (nx, ny+1, nz+1), midpoint ((i+.5)h, jh, kh)
    B, H  on faces:   x-faces (nx+1, ny, nz),   center (ih, (j+.5)h, (k+.5)h)

with y/z lattices cyclic.  The full-grid curl maps edges to faces as
D / h, with D the signed edge->face incidence (entries +-1, stored as
int8); the face->edge curl is D^T / h, so with the uniform masses
M_E = M_H = h^3 the pair is exactly adjoint.

Unknown selection around the staircased tubes:

    cell    "tube" if its center lies inside a cable, else "field"
    edge    EXCLUDED  all adjacent cells tube
            PEC       lies in an outer box face, or on a tube end cap
            BAND      touches a tube cell, near the lateral surface
                      (tangential E prescribed by the line coupling)
            FREE      otherwise (these are the E/D unknowns)
    face    dropped if on the outer box or buried between tube cells,
            else a B/H unknown

Restricting the full incidence to (dof faces) x (free edges) keeps the
exact transpose identity; the discarded columns at BAND edges carry the
lateral coupling, which enters through the surface trace instead.  There
is one: R_nu (``surface_trace``) interpolates H from the dof faces to the
chart quadrature points and takes nu x H there.

The cells around each edge and face are shifted slice views of one cell
array with a one-cell border (``_edge_cells``, ``_face_cells``), which grid
classification reads on the cell tags bordered by -2 (outside the box).

The materials eps, mu, sigma are constant with a diagonal (per-axis)
tensor (``FieldMaterials``): every d-edge unknown carries component d of
eps and sigma, and every d-face unknown component d of mu.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .errors import GridError, MaterialsError
from .geometry import GeometrySpec, TubeChart, is_inside_tube

EDGE_FREE, EDGE_PEC, EDGE_BAND, EDGE_EXCLUDED = 0, 1, 2, 3

_CAP_MARGIN_CELLS = 0.95   # surface edges within this many cells of a tube
                           # end (in eta arclength) are end-cap PEC


# ---------------------------------------------------------------------------
# materials
# ---------------------------------------------------------------------------

def _as_axis(value, name: str) -> np.ndarray:
    """A scalar or length-3 diagonal as a length-3 float array."""
    arr = np.asarray(value)
    if arr.dtype.kind not in "biuf":
        raise MaterialsError(f"field material {name} must be a real scalar or length-3 "
                             f"diagonal, got {type(value).__name__}")
    arr = np.full(3, float(arr)) if arr.ndim == 0 else arr.astype(float)
    if arr.shape != (3,):
        raise MaterialsError(f"field material {name} has shape {arr.shape}, expected a "
                             "scalar or a length-3 diagonal")
    return arr


@dataclass
class FieldMaterials:
    """Permittivity, permeability and conductivity, each constant over the
    box with a diagonal tensor: a scalar or per-axis [ax, ay, az]."""

    eps: np.ndarray = 1.0
    mu: np.ndarray = 1.0
    sigma: np.ndarray = 0.0

    def __post_init__(self):
        for name in ("eps", "mu", "sigma"):
            setattr(self, name, _as_axis(getattr(self, name), name))


def validate_field_materials(m: FieldMaterials) -> dict:
    """The smallest component of each material; ``passed`` iff eps and mu
    are positive and sigma is nonnegative."""
    report = {
        "eps_min": float(m.eps.min()),
        "mu_min": float(m.mu.min()),
        "sigma_min": float(m.sigma.min()),
    }
    report["passed"] = m.eps.min() > 0 and m.mu.min() > 0 and m.sigma.min() >= -1e-12
    return report


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------

def _edge_shapes(n):
    nx, ny, nz = n
    return [(nx, ny + 1, nz + 1), (nx + 1, ny, nz + 1), (nx + 1, ny + 1, nz)]


def _face_shapes(n):
    nx, ny, nz = n
    return [(nx + 1, ny, nz), (nx, ny + 1, nz), (nx, ny, nz + 1)]


# axes on which lattice d of the edges / faces is offset by h/2
_EDGE_HALVES = ({0}, {1}, {2})
_FACE_HALVES = ({1, 2}, {0, 2}, {0, 1})


def _lattice_midpoints(origin, h, shape, half_axes, local=None):
    """Midpoints of the points ``local`` (flat indices into ``shape``, all
    of them by default) of a lattice; coordinates in half_axes are offset
    by h/2."""
    ijk = np.unravel_index(np.arange(int(np.prod(shape))) if local is None else local, shape)
    pts = np.empty((ijk[0].size, 3))
    for d in range(3):
        idx = ijk[d].astype(float)
        if d in half_axes:
            idx += 0.5
        pts[:, d] = origin[d] + idx * h
    return pts


def _family_midpoints(origin, h, shapes, offsets, halves, ids=None):
    """Midpoints of the global ids (all by default) of the three edge or
    face lattices ``shapes``, lattice d starting at offsets[d] and offset
    by h/2 on the axes halves[d].  Only the requested points are formed."""
    ids = np.arange(offsets[-1]) if ids is None else np.asarray(ids)
    lattice = np.searchsorted(offsets[1:], ids, side="right")
    pts = np.empty((ids.size, 3))
    for d in range(3):
        sel = lattice == d
        pts[sel] = _lattice_midpoints(origin, h, shapes[d], halves[d], ids[sel] - offsets[d])
    return pts


@dataclass
class YeeGrid:
    """Masked staggered grid over a geometry's box: the int32 global ids of
    its unknowns and band edges, not their classification (``_classify``)."""

    n: tuple                     # (nx, ny, nz) cells
    h: float
    origin: np.ndarray
    free_edges: np.ndarray       # global edge ids with a D unknown
    band_edges: np.ndarray
    dof_faces: np.ndarray        # global face ids with a B unknown
    edge_offsets: np.ndarray     # lattice start offsets into global edge ids
    face_offsets: np.ndarray

    @property
    def n_free_edges(self):
        return self.free_edges.size

    @property
    def n_band_edges(self):
        return self.band_edges.size

    @property
    def n_dof_faces(self):
        return self.dof_faces.size

    # -- global id helpers ---------------------------------------------------

    def edge_midpoints(self, ids=None):
        return _family_midpoints(self.origin, self.h, _edge_shapes(self.n),
                                 self.edge_offsets, _EDGE_HALVES, ids)

    def face_midpoints(self, ids=None):
        return _family_midpoints(self.origin, self.h, _face_shapes(self.n),
                                 self.face_offsets, _FACE_HALVES, ids)

    def edge_direction(self, ids):
        """Lattice axis (0/1/2) of each global edge id."""
        return np.searchsorted(self.edge_offsets[1:], ids, side="right")

    def face_normal_axis(self, ids):
        return np.searchsorted(self.face_offsets[1:], ids, side="right")

    def edges_per_axis(self):
        """The number of free edges on each of the three edge lattices."""
        return np.diff(np.searchsorted(self.free_edges, self.edge_offsets))

    def faces_per_axis(self):
        """The number of dof faces on each of the three face lattices."""
        return np.diff(np.searchsorted(self.dof_faces, self.face_offsets))


def grid_spacing(spec: GeometrySpec, n: Sequence[int]) -> float:
    """The spacing h of an (nx, ny, nz) grid on spec.box; a GridError
    unless it is the same on all three axes and every cable's tube is at
    least 4 cells across."""
    hs = (spec.box[:, 1] - spec.box[:, 0]) / np.asarray(n, dtype=float)
    if np.abs(hs - hs[0]).max() > 1e-9 * hs[0]:
        raise GridError(f"box/resolution give unequal spacings {hs.tolist()}; use a uniform h")
    h = float(hs[0])
    for c in spec.cables:
        if 2.0 * c.radius < 4.0 * h - 1e-12:
            raise GridError(f"tube radius {c.radius} needs >= 4 cells across the diameter (h={h})")
    return h


def build_grid(spec: GeometrySpec, n: Sequence[int]) -> YeeGrid:
    """The grid (nx, ny, nz) on spec.box, with the ids of the unknowns and
    band edges of its classification (``_classify``)."""
    n = tuple(int(v) for v in n)
    h = grid_spacing(spec, n)
    origin = spec.box[:, 0].copy()
    _, edge_status, _, face_dof = _classify(spec, n, h, origin)
    return YeeGrid(
        n=n, h=h, origin=origin,
        free_edges=_ids(edge_status == EDGE_FREE),
        band_edges=_ids(edge_status == EDGE_BAND),
        dof_faces=_ids(face_dof),
        edge_offsets=_offsets(_edge_shapes(n)), face_offsets=_offsets(_face_shapes(n)),
    )


def _classify(spec: GeometrySpec, n: tuple, h: float, origin: np.ndarray):
    """Cells, edges and faces of the grid (n, h, origin) on spec.box, as the
    module docstring classifies them: each cell's cable id (-1: field), each
    global edge's EDGE_* code and BAND cable id (-1: not BAND), and the mask
    of the global faces that are unknowns."""
    # cells ------------------------------------------------------------------
    centers = _lattice_midpoints(origin, h, n, {0, 1, 2})
    cell_cable = np.full(centers.shape[0], -1, dtype=np.int32)
    for ci in range(len(spec.cables)):
        inside = is_inside_tube(spec, centers, ci)
        cell_cable[inside] = ci

    # edges --------------------------------------------------------------------
    edge_offsets = _offsets(_edge_shapes(n))
    pad = np.pad(cell_cable.reshape(n), 1, constant_values=-2)   # -2: outside the box
    edge_status, edge_cable = [], []
    for d in range(3):
        adj = _edge_cells(pad, d)
        tube_any = np.logical_or.reduce([c >= 0 for c in adj])
        field_any = np.logical_or.reduce([c == -1 for c in adj])
        on_bnd = np.logical_or.reduce([c == -2 for c in adj])

        # first match wins; BAND edges on a tube end cap turn PEC below
        status = np.select([tube_any & ~field_any, on_bnd, tube_any],
                           [EDGE_EXCLUDED, EDGE_PEC, EDGE_BAND], EDGE_FREE).astype(np.int8)
        edge_status.append(status.reshape(-1))
        edge_cable.append(np.where(status == EDGE_BAND, np.maximum.reduce(adj), -1).reshape(-1))
    edge_status = np.concatenate(edge_status)
    edge_cable = np.concatenate(edge_cable)

    # split surface edges into lateral band and end caps via the curve parameter
    band_ids = np.nonzero(edge_status == EDGE_BAND)[0]
    if band_ids.size:
        mids = _family_midpoints(origin, h, _edge_shapes(n), edge_offsets, _EDGE_HALVES,
                                 band_ids)
        for ci, curve in enumerate(spec.cables):
            sel = edge_cable[band_ids] == ci
            if not sel.any():
                continue
            eta, _, _ = curve.nearest_parameter_batch(mids[sel])
            margin = _CAP_MARGIN_CELLS * h / curve.length
            cap = (eta < margin) | (eta > 1.0 - margin)
            ids = band_ids[sel][cap]
            edge_status[ids] = EDGE_PEC
            edge_cable[ids] = -1

    # faces --------------------------------------------------------------------
    face_dof = []
    for d in range(3):
        lo, hi = _face_cells(pad, d)
        on_bnd = (lo == -2) | (hi == -2)
        buried = (lo >= 0) & (hi >= 0)
        face_dof.append((~on_bnd & ~buried).reshape(-1))
    return cell_cable, edge_status, edge_cable, np.concatenate(face_dof)


def _ids(mask):
    """Positions of the true entries of ``mask``, as int32."""
    return np.flatnonzero(mask).astype(np.int32)


def _offsets(shapes):
    """Start of each lattice's block in the global ids, and the total."""
    return np.r_[0, np.cumsum([int(np.prod(s)) for s in shapes])]


# slices of a padded cell array along one axis: the cells themselves, and the
# cell below / above each grid node
_INNER, _LOWER, _UPPER = slice(1, -1), slice(None, -1), slice(1, None)


def _view(pad, shifts):
    return pad[tuple(shifts.get(axis, _INNER) for axis in range(3))]


def _edge_cells(pad, d):
    """The 4 cells around each d-edge as views of the padded cell array: on
    the transverse axes a < b, offsets (-1, -1), (-1, 0), (0, -1), (0, 0)."""
    a, b = [(1, 2), (0, 2), (0, 1)][d]
    return [_view(pad, {a: sa, b: sb}) for sa in (_LOWER, _UPPER) for sb in (_LOWER, _UPPER)]


def _face_cells(pad, d):
    """The cells below and above each d-face along axis d, as views."""
    return [_view(pad, {d: s}) for s in (_LOWER, _UPPER)]


# ---------------------------------------------------------------------------
# curls and Hodge blocks
# ---------------------------------------------------------------------------

def _curl_block(n, faces, edges) -> sp.csr_matrix:
    """Rows ``faces`` and columns ``edges`` (ascending global ids) of the
    full-grid signed edge->face incidence D, as canonical CSR with int8
    entries +-1 and int32 indices and indptr.  The curl is D / h.

    Each face row holds its four lattice edges, written in ascending global
    id (by component, then by the shifted index), so the kept columns of a
    row come out sorted; edges outside the column set are dropped.  Two
    passes run over the rows of each lattice direction: the first counts
    the kept columns per row into indptr, the second writes them straight
    into the final arrays.
    """
    eshapes = _edge_shapes(n)
    fshapes = _face_shapes(n)
    eoff = _offsets(eshapes)
    foff = _offsets(fshapes)
    column = np.full(eoff[-1], -1, dtype=np.int32)    # global edge id -> column
    column[edges] = np.arange(edges.size, dtype=np.int32)
    first = np.searchsorted(faces, foff)

    def slots(d):
        """(sign, column or -1) of the four edges of the d-faces, in
        ascending global edge id: per component, the edge at the face's own
        lattice index and the one a step up the other tangential axis."""
        a, b = (d + 1) % 3, (d + 2) % 3   # (curl E)_d = dE_b/da - dE_a/db
        ijk = np.unravel_index(faces[first[d]:first[d + 1]] - foff[d], fshapes[d])
        for comp, axis, signs in sorted([(a, b, (1, -1)), (b, a, (-1, 1))]):
            base = eoff[comp] + np.ravel_multi_index(ijk, eshapes[comp])
            step = int(np.prod(eshapes[comp][axis + 1:]))
            for shift, sign in enumerate(signs):
                yield sign, column[base + shift * step]

    counts = np.zeros(faces.size, dtype=np.int32)
    for d in range(3):
        for _, cols in slots(d):
            counts[first[d]:first[d + 1]] += cols >= 0
    indptr = np.zeros(faces.size + 1, dtype=np.int32)
    np.cumsum(counts, out=indptr[1:])
    nxt = np.subtract(indptr[1:], counts, out=counts)  # next free slot of each row
    indices = np.empty(indptr[-1], dtype=np.int32)
    data = np.empty(indptr[-1], dtype=np.int8)
    for d in range(3):
        rows = nxt[first[d]:first[d + 1]]
        for sign, cols in slots(d):
            kept = np.nonzero(cols >= 0)[0]
            dest = rows[kept]
            indices[dest] = cols[kept]
            data[dest] = sign
            rows[kept] += 1
    return sp.csr_matrix((data, indices, indptr), shape=(faces.size, edges.size))


@dataclass
class CurlPair:
    """Masked curls as the signed incidence, and the field materials.

    A Yee field's discrete curl is topological: C_E = D / h maps free edges
    to dof faces, with D the signed edge->face incidence, entries +-1, and
    the mesh size enters only as a scalar (Bossavit, Computational
    Electromagnetism, 1998).  Only D is stored, as int8 (``incidence``).
    C_H = D^T / h is exactly the transpose of C_E (uniform masses
    M_E = M_H = h^3), so the discrete curl adjointness
    <C_E e, h>_MH - <e, C_H h>_ME = 0 holds for the retained unknowns; the
    boundary functional of the full-grid identity lives entirely on the
    discarded BAND columns.  D^T is read as the CSC view D.T, which shares
    D's arrays.

    The diagonal material Hodge and damping blocks are formed on each call
    (``eps_inv``, ``mu_inv``, ``sigma_edge``): component d of the constant
    material, repeated over lattice d's unknowns.
    """

    grid: YeeGrid
    incidence: sp.csr_matrix
    materials: FieldMaterials

    def eps_inv(self) -> np.ndarray:
        return 1.0 / np.repeat(self.materials.eps, self.grid.edges_per_axis())

    def mu_inv(self) -> np.ndarray:
        return 1.0 / np.repeat(self.materials.mu, self.grid.faces_per_axis())

    def sigma_edge(self) -> np.ndarray:
        return np.repeat(self.materials.sigma, self.grid.edges_per_axis())


def assemble_curls(grid: YeeGrid, m: FieldMaterials) -> CurlPair:
    """The incidence of the grid's unknowns, with the materials checked."""
    rep = validate_field_materials(m)
    if not rep["passed"]:
        raise MaterialsError(f"field material assumptions violated: {rep}")
    return CurlPair(grid=grid, incidence=_curl_block(grid.n, grid.dof_faces, grid.free_edges),
                    materials=m)


# ---------------------------------------------------------------------------
# surface trace / injection
# ---------------------------------------------------------------------------

# cell list of _ball_pairs: cells a little over radius / _PAIR_CELLS_PER_RADIUS
# on an edge; candidate pairs are tested _PAIR_CHUNK at a time.  A chunk's
# temporaries are about 50 bytes per candidate: at pair scale 3, 2^18
# candidates held 13 MB of them and 2^16 hold 8 MB, with the surface trace
# equally fast (median of 9, scales 3 and 4)
_PAIR_CELLS_PER_RADIUS = 2
_PAIR_CHUNK = 1 << 16
_PAIR_SLACK = 1e-6          # relative widening of the cell search against roundoff


def _ball_pairs(targets, sources, radius):
    """Every (target, source) pair with dx*dx + dy*dy + dz*dz <= radius**2,
    the squares summed left to right, as two int32 index arrays sorted by
    (target, source).

    A fixed-radius search by cell list (Allen & Tildesley, Computer
    Simulation of Liquids, 1987).  The targets' bounding box widened by the
    radius is cut into cubic cells of edge c a little over
    radius / _PAIR_CELLS_PER_RADIUS (coarser when the box would need more
    cells than a few per point); sources outside it are dropped, the rest
    are sorted by cell.  Cells run z fastest, so a target's candidates in
    one (x, y) column of cells are one contiguous run, cut in z to the
    ball's half-height over the column's nearest point.  The ball is
    widened by _PAIR_SLACK, so roundoff in the cell arithmetic can only add
    candidates.  Targets are processed in chunks of about _PAIR_CHUNK
    candidates; each chunk's pairs are tested exactly, sorted by the key
    target * len(sources) + source and split into int32 (target, source)
    before the next chunk.
    """
    targets = np.asarray(targets, dtype=float)
    sources = np.asarray(sources, dtype=float)
    nt, ns = targets.shape[0], sources.shape[0]
    if nt == 0 or ns == 0:
        return np.zeros(0, dtype=np.int32), np.zeros(0, dtype=np.int32)
    m = _PAIR_CELLS_PER_RADIUS
    pad = radius * (1.0 + _PAIR_SLACK)
    lo = targets.min(axis=0) - pad
    span = targets.max(axis=0) + pad - lo
    # with c > pad / m a widened ball meets at most 2m + 1 cells per axis
    c = max(radius * (1.0 + 2.0 * _PAIR_SLACK) / m,
            float(np.prod(span) / (8 * (nt + ns) + 4096)) ** (1.0 / 3.0))
    n = (span / c).astype(np.intp) + 1
    cell = np.zeros(ns, dtype=np.intp)
    inside = np.ones(ns, dtype=bool)
    for k in range(3):
        # truncation puts (-1, 0) into cell 0: extra candidates only
        q = ((sources[:, k] - lo[k]) / c).astype(np.intp)
        inside &= q.view(np.uintp) < np.uintp(n[k])
        cell *= n[k]
        cell += q
    src = np.nonzero(inside)[0]
    order = np.argsort(cell[src])
    src = src[order]
    first = np.zeros(n.prod() + 1, dtype=np.intp)
    np.cumsum(np.bincount(cell[src], minlength=n.prod()), out=first[1:])
    xs, ys, zs = (np.ascontiguousarray(sources[src, k]) for k in range(3))

    # runs: per target, the (2m+1)^2 columns of cells around it, in cell units
    u = (targets - lo) / c
    rc = pad / c
    w = np.arange(2 * m + 1)
    ix = np.floor(u[:, 0] - rc).astype(np.intp)[:, None] + w
    iy = np.floor(u[:, 1] - rc).astype(np.intp)[:, None] + w
    gx = np.maximum(0.0, np.maximum(ix - u[:, :1], u[:, :1] - ix - 1.0))
    gy = np.maximum(0.0, np.maximum(iy - u[:, 1:2], u[:, 1:2] - iy - 1.0))
    zh2 = rc * rc - gx[:, :, None] ** 2 - gy[:, None, :] ** 2
    live = ((zh2 >= 0.0) & ((ix >= 0) & (ix < n[0]))[:, :, None]
            & ((iy >= 0) & (iy < n[1]))[:, None, :])
    zh = np.sqrt(np.maximum(zh2, 0.0))
    uz = u[:, 2, None, None]
    col = ((np.clip(ix, 0, n[0] - 1) * n[1])[:, :, None]
           + np.clip(iy, 0, n[1] - 1)[:, None, :]) * n[2]
    a = first[col + np.clip(np.floor(uz - zh).astype(np.intp), 0, n[2] - 1)]
    b = first[col + np.clip(np.floor(uz + zh).astype(np.intp), 0, n[2] - 1) + 1]
    run = np.where(live, b - a, 0).reshape(nt, -1)
    a = a.reshape(nt, -1)
    per = run.sum(axis=1)
    cum = np.cumsum(per)

    r2 = radius * radius
    pairs = []                  # (targets, sources) of the pairs, chunk by chunk
    t0 = 0
    while t0 < nt:
        t1 = max(t0 + 1, int(np.searchsorted(cum, (cum[t0 - 1] if t0 else 0) + _PAIR_CHUNK,
                                             side="right")))
        ln = run[t0:t1].ravel()
        pos = np.arange(ln.sum()) - np.repeat(np.cumsum(ln) - ln - a[t0:t1].ravel(), ln)
        reps = per[t0:t1]
        d = xs[pos] - np.repeat(targets[t0:t1, 0], reps)
        d2 = d * d
        d = ys[pos] - np.repeat(targets[t0:t1, 1], reps)
        d2 += d * d
        d = zs[pos] - np.repeat(targets[t0:t1, 2], reps)
        d2 += d * d
        hit = np.nonzero(d2 <= r2)[0]
        tgt = np.repeat(np.arange(t0, t1), reps)[hit]
        # the targets ascend, so sorting the keys reorders each target's
        # sources only, and the targets of the sorted keys are tgt itself
        keys = np.sort(tgt * ns + src[pos[hit]])
        pairs.append((tgt.astype(np.int32), (keys - tgt * ns).astype(np.int32)))
        t0 = t1
    return tuple(np.concatenate(part) for part in zip(*pairs))


# _interp_rows: stencil radius in units of h, and the relative singular value
# under which a gradient column of the weighted design is dropped
_RADIUS_FACTOR = 2.25
_RANK_TOL = 1e-7


def _interp_rows(points, values_pts, h, describe=None):
    """Moving-least-squares linear interpolation weights.

    For each target point, weights over source points within
    _RADIUS_FACTOR*h.  The local basis (1, dx, dy, dz) is reduced by a
    greedy rank test so near-coplanar stencils drop the unresolvable
    gradient directions instead of going singular; the constant mode is
    always kept, so constants are reproduced exactly and linear fields
    exactly wherever the stencil spans them.

    The stencils come from one cell-list search (``_ball_pairs``), sorted
    by (target, source).  A source is in a stencil iff
    dx*dx + dy*dy + dz*dz <= (_RADIUS_FACTOR*h)**2, summed left to right.

    Stencils are processed in batches grouped by neighbour count.  The
    rank test first takes one stacked ``np.linalg.svd`` of the full
    4-column weighted design.  Deleting columns cannot lower the smallest
    singular value nor raise the largest (interlacing), so a stencil of at
    least 4 points that passes with all four columns passes every greedy
    trial; only the stencils that fail run the greedy column sequence,
    one stacked SVD per kept-column pattern.  A trial column is admitted
    only while the columns number no more than the stencil's points.  The
    normal equations are one stacked ``np.linalg.solve`` per final pattern.
    ``describe(i)``, when given, names target i in the GridError raised for
    a target without neighbours or with singular normal equations.  Returns
    (rows, cols, vals) as arrays, stencil by stencil.
    """
    radius = _RADIUS_FACTOR * h
    rows, cols = _ball_pairs(points, values_pts, radius)
    counts = np.bincount(rows, minlength=points.shape[0])
    if counts.size and counts.min() == 0:
        raise GridError(_empty_stencil_message(points, values_pts, radius,
                                               int(np.argmin(counts)), describe))
    starts = np.r_[0, np.cumsum(counts)[:-1]]
    vals = np.empty(cols.size)
    bits = np.array([1, 2, 4, 8])
    for n in np.unique(counts):
        stencils = np.nonzero(counts == n)[0]
        slots = starts[stencils][:, None] + np.arange(n)           # (b, n)
        d = values_pts[cols[slots]] - points[stencils][:, None, :]
        w = np.maximum(1e-3, 1.0 - np.linalg.norm(d, axis=2) / radius) ** 2
        phi = np.concatenate([np.ones((stencils.size, n, 1)), d / h], axis=2)
        b = np.sqrt(w)[:, :, None] * phi
        keep = np.ones(stencils.size, dtype=np.intp)               # bit mask, constant kept
        if n >= 4:
            sv = np.linalg.svd(b, compute_uv=False)
            keep[sv[:, -1] > _RANK_TOL * sv[:, 0]] = 15
        # greedy basis selection on the rest: keep gradient columns only
        # while the weighted design stays numerically full rank and has no
        # more columns than points (an n x k SVD has min(n, k) values)
        rest = np.nonzero(keep == 1)[0]
        for c in (1, 2, 3):
            for pattern in np.unique(keep[rest]):
                sel = rest[keep[rest] == pattern]
                trial = np.nonzero(bits & (pattern | bits[c]))[0]
                if trial.size > n:
                    continue
                sv = np.linalg.svd(b[sel][:, :, trial], compute_uv=False)
                keep[sel[sv[:, -1] > _RANK_TOL * sv[:, 0]]] |= bits[c]
        for pattern in np.unique(keep):
            sel = np.nonzero(keep == pattern)[0]
            phi_s = phi[sel][:, :, np.nonzero(bits & pattern)[0]]
            G = (phi_s * w[sel][:, :, None]).transpose(0, 2, 1) @ phi_s
            rhs = np.zeros(G.shape[:2] + (1,))
            rhs[:, 0] = 1.0
            try:
                coeff = np.linalg.solve(G, rhs)
            except np.linalg.LinAlgError:
                # the first stencil whose LU has a zero pivot, as in the solve
                i = stencils[sel[np.argmax(np.linalg.det(G) == 0)]]
                raise GridError(_singular_stencil_message(points, i, n, radius,
                                                          describe)) from None
            vals[slots[sel]] = w[sel] * (phi_s @ coeff)[:, :, 0]
    return rows, cols, vals


def _singular_stencil_message(points, i, n, radius, describe):
    where = f" {describe(i)}" if describe is not None else ""
    return (f"surface quadrature point {points[i].tolist()}{where} has a degenerate "
            f"stencil: the least-squares fit over its {n} field unknowns within the "
            f"stencil radius {radius:.4g} is singular")


def _empty_stencil_message(points, values_pts, radius, i, describe):
    dist = np.linalg.norm(values_pts - points[i], axis=1).min()
    where = f" {describe(i)}" if describe is not None else ""
    return (f"surface quadrature point {points[i].tolist()}{where} has no nearby "
            f"field unknowns: the nearest lies {dist:.4g} away, the stencil radius is "
            f"{radius:.4g}; refine the grid")


def surface_trace(grid: YeeGrid, charts: Sequence[TubeChart]) -> sp.csr_matrix:
    """R_nu: dof faces -> samples of nu x H at the chart quadrature points
    (component-major: row 3*q+c), with nu the domain-outward normal (i.e.
    minus the chart normal, which points out of the tube).  This is the
    field's only surface trace: the coupled assembly reads it, and
    ``cablefield converge`` and the trace tests check it.  The quadrature
    mass is ``CouplingMatrices.M_surf``.
    """
    normals = np.concatenate([ch.normal.reshape(-1, 3) for ch in charts])
    return (_block_diag_csr(_cross_matrices(-normals)) @ _component_interp(grid, charts)).tocsr()


def _component_interp(grid, charts):
    """Per-component interpolation of the dof faces (ascending global ids;
    face lattice c holds component c of H) to the chart quadrature points,
    interleaved row-wise: row 3*q + c.  The face midpoints are formed one
    component at a time, for the dof faces only."""
    quad_pts = np.concatenate([ch.quad_points() for ch in charts])
    nq = quad_pts.shape[0]
    first = np.cumsum([0] + [ch.n_quad for ch in charts])

    def describe(q):
        i = int(np.searchsorted(first, q, side="right")) - 1
        ie, it = divmod(q - int(first[i]), charts[i].n_theta)
        return (f"(cable {i}, eta {charts[i].eta[ie]:.4g}, "
                f"theta {charts[i].theta[it]:.4g})")

    ids = grid.dof_faces
    bounds = np.searchsorted(ids, grid.face_offsets)
    stencils = []
    for c in range(3):
        lo, hi = bounds[c], bounds[c + 1]
        if lo == hi:
            raise GridError("grid has no unknowns of some component near the surface")
        stencils.append(_interp_rows(quad_pts, grid.face_midpoints(ids[lo:hi]), grid.h,
                                     describe=describe))
    # row 3*q + c is the stencil of target q in component c, written in
    # place: the stencils come sorted by (target, source), so each row's
    # columns ascend
    counts = np.stack([np.bincount(r, minlength=nq) for r, _, _ in stencils], axis=1)
    indptr = np.r_[0, np.cumsum(counts)]
    indices = np.empty(indptr[-1], dtype=np.int32)
    data = np.empty(indptr[-1])
    for c, (r, k, v) in enumerate(stencils):
        dest = indptr[3 * r + c] + np.arange(r.size) - np.searchsorted(r, r)
        indices[dest] = bounds[c] + k
        data[dest] = v
    return sp.csr_matrix((data, indices, indptr), shape=(3 * nq, ids.size))


def _block_diag_csr(blocks):
    """CSR of the block diagonal of (m, 3, 3) blocks, zeros not stored.

    A product with it then reserves room only for the terms that can be
    nonzero.  The product is the same as with the zeros stored: the right
    factor (``_component_interp``) holds component c's unknowns in rows
    3*q + c only, so every entry of the product has one term, and a sparse
    product drops the entries that sum to zero.
    """
    m = blocks.shape[0]
    indices = np.repeat(3 * np.arange(m), 9) + np.tile([0, 1, 2], 3 * m)
    X = sp.csr_matrix((blocks.reshape(-1), indices, np.arange(0, 9 * m + 1, 3)),
                      shape=(3 * m, 3 * m))
    X.eliminate_zeros()
    return X


def _cross_matrices(v):
    m = np.zeros((v.shape[0], 3, 3))
    m[:, 0, 1] = -v[:, 2]; m[:, 0, 2] = v[:, 1]
    m[:, 1, 0] = v[:, 2];  m[:, 1, 2] = -v[:, 0]
    m[:, 2, 0] = -v[:, 1]; m[:, 2, 1] = v[:, 0]
    return m
