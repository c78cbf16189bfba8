import numpy as np
import pytest
import scipy.sparse as sp

from cablefield.coupling import assemble_P_el
from cablefield.errors import GridError, MaterialsError
from cablefield.geometry import GeometrySpec, StraightSegment, classify_point
from cablefield.maxwell import (
    EDGE_BAND,
    EDGE_EXCLUDED,
    EDGE_FREE,
    EDGE_PEC,
    FieldMaterials,
    _classify,
    _lattice_midpoints,
    assemble_curls,
    build_grid,
    surface_trace,
    validate_field_materials,
)
from cablefield.tline import build_line_grid

from oracles import divergence_matrix, float_curl_block, periodic_curl_pair


def empty_spec(box=((0, 1), (0, 1), (0, 1))):
    return GeometrySpec(box=np.array(box, dtype=float), cables=[])


def cell_cable(spec, grid):
    """The cable id of each cell of the grid (-1 for field cells)."""
    return _classify(spec, grid.n, grid.h, grid.origin)[0]


def cell_centers(grid):
    """The centre of each cell of the grid, in the cells' flat order."""
    return _lattice_midpoints(grid.origin, grid.h, grid.n, {0, 1, 2})


def tube_spec(n_cells=10, radius=0.2):
    # unit cross-section, z in [0, 1.4]; straight tube along z
    spec = GeometrySpec(
        box=np.array([[0, 1], [0, 1], [0, 1.4]], dtype=float),
        cables=[StraightSegment(p0=(0.5, 0.5, 0.2), direction=(0, 0, 1),
                                length=1.0, radius=radius)],
    )
    return spec


# ---------------------------------------------------------------------------
# grid construction
# ---------------------------------------------------------------------------

def test_empty_box_all_field_cells():
    spec = empty_spec()
    grid = build_grid(spec, (6, 6, 6))
    assert (cell_cable(spec, grid) == -1).all()
    assert grid.n_band_edges == 0
    # interior edges of each lattice: nx*(ny-1)*(nz-1) etc.
    assert grid.n_free_edges == 3 * 6 * 5 * 5
    assert grid.n_dof_faces == 3 * 6 * 6 * 5


def test_grid_requires_uniform_spacing():
    with pytest.raises(GridError):
        build_grid(empty_spec(box=((0, 1), (0, 2), (0, 1))), (6, 6, 6))


def test_grid_requires_resolved_tube():
    with pytest.raises(GridError):
        build_grid(tube_spec(radius=0.15), (10, 10, 14))


def test_tube_volume_fraction():
    spec = GeometrySpec(
        box=np.array([[0, 1], [0, 1], [0, 1]], dtype=float),
        cables=[StraightSegment(p0=(0.5, 0.5, 0.1), direction=(0, 0, 1),
                                length=0.8, radius=0.1)],
    )
    grid = build_grid(spec, (32, 32, 32))
    expected = np.pi * 0.1 ** 2 * 0.8
    assert abs((cell_cable(spec, grid) >= 0).mean() - expected) / expected < 0.10


def test_masks_consistent_with_classifier():
    spec = tube_spec()
    grid = build_grid(spec, (10, 10, 14))
    centers, tags = cell_centers(grid), cell_cable(spec, grid)
    rng = np.random.default_rng(5)
    for idx in rng.choice(centers.shape[0], 80, replace=False):
        tag = classify_point(spec, centers[idx])
        if tags[idx] >= 0:
            assert tag[0] == "inside_tube"
        else:
            assert tag[0] != "inside_tube"


def test_masks_mirror_symmetric():
    spec = tube_spec()
    n = (10, 10, 14)
    grid = build_grid(spec, n)
    cells = cell_cable(spec, grid).reshape(n)
    assert (cells == cells[::-1, :, :]).all()
    assert (cells == cells[:, ::-1, :]).all()


def test_band_edges_exist_and_caps_are_pec():
    spec = tube_spec()
    grid = build_grid(spec, (10, 10, 14))
    assert grid.n_band_edges > 0
    # every band edge touches the tube laterally: its nearest curve
    # parameter lies strictly inside (0, 1)
    mids = grid.edge_midpoints(grid.band_edges)
    curve = spec.cables[0]
    eta, gap, _ = curve.nearest_parameter_batch(mids)
    assert eta.min() > 0.0 and eta.max() < 1.0
    rad = np.linalg.norm(gap, axis=1)
    assert np.abs(rad - curve.radius).max() < grid.h


def brute_force_neighbours(points, centers, dist):
    """For each point, the ids of the cell centres at distance ``dist``."""
    out = []
    for chunk in np.array_split(points, max(1, len(points) // 256)):
        d = np.linalg.norm(chunk[:, None, :] - centers[None, :, :], axis=2)
        out += [np.nonzero(row)[0] for row in np.abs(d - dist) < 1e-9]
    return out


@pytest.mark.parametrize("box_z, n", [(1.4, (10, 10, 14)), (1.0, (10, 10, 10))],
                         ids=["inside", "cut-by-box"])
def test_classification_matches_brute_force_neighbours(box_z, n):
    # the tube spans z in [0.2, 1.2]; a box ending at z = 1 cuts it open
    spec = tube_spec()
    spec = GeometrySpec(box=np.array([[0, 1], [0, 1], [0, box_z]], dtype=float),
                        cables=spec.cables)
    grid = build_grid(spec, n)
    tags, edge_status, edge_cable, face_dof = _classify(spec, grid.n, grid.h, grid.origin)
    h, centers = grid.h, cell_centers(grid)
    edges = brute_force_neighbours(grid.edge_midpoints(), centers, h / np.sqrt(2.0))
    seen = set()
    for i, cells in enumerate(edges):
        tube, field = (tags[cells] >= 0).any(), (tags[cells] == -1).any()
        status = edge_status[i]
        if tube and not field:
            assert status == EDGE_EXCLUDED
        elif cells.size < 4:                   # in an outer box face
            assert status == EDGE_PEC
        elif tube:                             # lateral band or end cap
            assert status in (EDGE_BAND, EDGE_PEC)
        else:
            assert status == EDGE_FREE
        assert edge_cable[i] == (tags[cells].max() if status == EDGE_BAND else -1)
        seen.add((bool(tube), bool(field), cells.size == 4, int(status)))
    # every rule is exercised: excluded, band, cap PEC, box PEC, free, and
    # where the box cuts the tube, box PEC before band and excluded on the box
    assert {(True, False, True, EDGE_EXCLUDED), (True, True, True, EDGE_BAND),
            (True, True, True, EDGE_PEC), (False, True, False, EDGE_PEC),
            (False, True, True, EDGE_FREE)} <= seen
    if box_z < 1.2:
        assert {(True, True, False, EDGE_PEC), (True, False, False, EDGE_EXCLUDED)} <= seen

    faces = brute_force_neighbours(grid.face_midpoints(), centers, h / 2.0)
    dof = np.array([cells.size == 2 and (tags[cells] == -1).any() for cells in faces])
    assert np.array_equal(dof, face_dof)
    assert np.array_equal(np.nonzero(dof)[0], grid.dof_faces)
    assert any(cells.size == 2 and (tags[cells] >= 0).all() for cells in faces)


# ---------------------------------------------------------------------------
# curls
# ---------------------------------------------------------------------------

def test_curl_pair_exact_transpose():
    grid = build_grid(tube_spec(), (10, 10, 14))
    cp = assemble_curls(grid, FieldMaterials())
    C_E = cp.incidence / grid.h
    C_H = cp.incidence.T / grid.h
    assert (C_H - C_E.T).nnz == 0
    # adjointness <C_E e, h>_MH = <e, C_H h>_ME for random fields
    rng = np.random.default_rng(7)
    e = rng.standard_normal(grid.n_free_edges)
    hf = rng.standard_normal(grid.n_dof_faces)
    lhs = grid.h ** 3 * np.dot(hf, C_E @ e)
    rhs = grid.h ** 3 * np.dot(C_H @ hf, e)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_curl_block_is_the_sliced_full_curl():
    from cablefield.maxwell import _curl_block

    grid = build_grid(tube_spec(), (10, 10, 14))
    n_faces, n_edges = grid.face_offsets[-1], grid.edge_offsets[-1]
    full = _curl_block(grid.n, np.arange(n_faces), np.arange(n_edges))
    assert np.array_equal(np.diff(full.indptr), np.full(n_faces, 4))
    # each face row: two edges of each tangential component, one +1 and
    # one -1 per component, so the row sums vanish
    assert np.abs(full @ np.ones(n_edges)).max() == 0.0
    block = _curl_block(grid.n, grid.dof_faces, grid.band_edges)
    ref = full[grid.dof_faces, :][:, grid.band_edges].tocsr()
    ref.sort_indices()
    assert block.has_canonical_format
    for a, b in ((block.data, ref.data), (block.indices, ref.indices),
                 (block.indptr, ref.indptr)):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("n", [(10, 10, 14), (9, 7, 12)])
def test_incidence_is_int8_and_the_curl_times_h(n):
    from cablefield.maxwell import _curl_block

    spec = tube_spec()
    spec.box[:, 1] = 0.1 * np.asarray(n)
    grid = build_grid(spec, n)
    cp = assemble_curls(grid, FieldMaterials())
    for D, edges in ((cp.incidence, grid.free_edges),
                     (_curl_block(grid.n, grid.dof_faces, grid.band_edges), grid.band_edges)):
        assert D.dtype == np.int8 and set(np.unique(D.data)) == {-1, 1}
        assert D.indices.dtype == np.int32 and D.indptr.dtype == np.int32
        assert D.has_canonical_format
        ref = float_curl_block(grid.n, grid.h, grid.dof_faces, edges)
        C = D / grid.h
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(C, name), getattr(ref, name)), name


def test_grid_ids_are_int32():
    spec = tube_spec()
    grid = build_grid(spec, (10, 10, 14))
    edge_status = _classify(spec, grid.n, grid.h, grid.origin)[1]
    for ids, status in ((grid.free_edges, EDGE_FREE), (grid.band_edges, EDGE_BAND)):
        assert ids.dtype == np.int32
        assert np.array_equal(ids, np.nonzero(edge_status == status)[0])
    assert grid.dof_faces.dtype == np.int32 and grid.n_dof_faces > 0


def test_uniform_field_has_zero_curl_in_interior():
    grid = build_grid(empty_spec(), (8, 8, 8))
    cp = assemble_curls(grid, FieldMaterials())
    # constant x-directed E on all free edges; rows whose full four-edge
    # stencil is made of unknowns (interior faces) see zero curl, rows
    # touching the PEC boundary see the clamped jump instead
    dirs = grid.edge_direction(grid.free_edges)
    e = (dirs == 0).astype(float)
    C_E = cp.incidence / grid.h
    interior = np.asarray((C_E != 0).sum(axis=1)).ravel() == 4
    assert interior.sum() > 0
    assert np.abs((C_E @ e)[interior]).max() <= 1e-13


def test_dispersion_relation():
    # plane wave on the periodic reference grid reproduces the staggered
    # second-order dispersion omega^2 = (4/h^2) sum sin^2(k_i h/2)
    n, h = 8, 0.25
    C, CT = periodic_curl_pair(n, h)
    L = n * h
    kvec = 2 * np.pi * np.array([1.0, 2.0, 0.0]) / L
    ktil = (2.0 / h) * np.sin(kvec * h / 2.0)
    # polarization orthogonal to the effective wavevector
    pol = np.array([ktil[1], -ktil[0], 0.0])
    pol /= np.linalg.norm(pol)

    shape = (n, n, n)
    size = n ** 3
    idx = np.indices(shape).reshape(3, -1).T.astype(float)
    field = np.zeros(3 * size, dtype=complex)
    for c in range(3):
        offs = np.array([0.5 if a == c else 0.0 for a in range(3)])
        pts = (idx + offs) * h
        field[c * size:(c + 1) * size] = pol[c] * np.exp(1j * pts @ kvec)
    curl_curl = CT @ (C @ field)
    omega2 = (ktil ** 2).sum()
    assert np.abs(curl_curl - omega2 * field).max() <= 1e-10 * omega2


def test_materials_validation_and_hodge():
    grid = build_grid(empty_spec(), (6, 6, 6))
    cp = assemble_curls(grid, FieldMaterials(eps=2.0, mu=4.0, sigma=0.5))
    assert np.array_equal(cp.eps_inv(), np.full(grid.n_free_edges, 0.5))
    assert np.array_equal(cp.mu_inv(), np.full(grid.n_dof_faces, 0.25))
    assert np.array_equal(cp.sigma_edge(), np.full(grid.n_free_edges, 0.5))

    # per-axis [1, 2, 3]: lattice d of the edges and faces carries d + 1,
    # also on a grid whose tube removes unknowns from every lattice
    grid = build_grid(tube_spec(), (10, 10, 14))
    axes = np.array([1.0, 2.0, 3.0])
    cp = assemble_curls(grid, FieldMaterials(eps=axes, mu=axes, sigma=axes))
    on_edges = grid.edge_direction(grid.free_edges) + 1.0
    on_faces = grid.face_normal_axis(grid.dof_faces) + 1.0
    assert np.array_equal(cp.eps_inv(), 1.0 / on_edges)
    assert np.array_equal(cp.sigma_edge(), on_edges)
    assert np.array_equal(cp.mu_inv(), 1.0 / on_faces)

    rep = validate_field_materials(FieldMaterials(eps=-1.0))
    assert not rep["passed"]
    with pytest.raises(MaterialsError):
        assemble_curls(grid, FieldMaterials(eps=-1.0))


def test_field_materials_are_constants():
    with pytest.raises(MaterialsError, match="mu must be a real scalar"):
        FieldMaterials(mu=lambda x: np.ones(len(x)))


def test_divergence_of_curl_vanishes():
    spec = tube_spec()
    grid = build_grid(spec, (10, 10, 14))
    cp = assemble_curls(grid, FieldMaterials())
    div = divergence_matrix(spec, grid)
    rng = np.random.default_rng(2)
    e = rng.standard_normal(grid.n_free_edges)
    # .. on complete cells, including cells adjacent to band edges
    assert np.abs(div @ ((cp.incidence / grid.h) @ e)).max() <= 1e-12


# ---------------------------------------------------------------------------
# surface trace
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def traced():
    spec = tube_spec()
    grid = build_grid(spec, (10, 10, 14))
    chart = spec.chart(0, n_eta=12, n_theta=16)
    return spec, grid, chart, surface_trace(grid, [chart])


def nu_cross(chart, field):
    """nu x field at the chart's quadrature points, nu = -chart normal (the
    domain-outward normal)."""
    return np.cross(-chart.normal.reshape(-1, 3), field)


def test_trace_reproduces_constant_tangential_field(traced):
    spec, grid, chart, R_nu = traced
    axes = grid.face_normal_axis(grid.dof_faces)
    for c in range(3):
        vals = (R_nu @ (axes == c).astype(float)).reshape(-1, 3)
        assert np.abs(vals - nu_cross(chart, np.eye(3)[c])).max() <= 1e-12


def test_trace_exact_on_linear_field(traced):
    spec, grid, chart, R_nu = traced
    mids = grid.face_midpoints(grid.dof_faces)
    axes = grid.face_normal_axis(grid.dof_faces)
    # linear scalar profile on the z component only
    h = np.where(axes == 2, 0.3 * mids[:, 0] + 0.2 * mids[:, 2] - 0.1, 0.0)
    vals = (R_nu @ h).reshape(-1, 3)
    pts = chart.quad_points()
    field = np.zeros_like(vals)
    field[:, 2] = 0.3 * pts[:, 0] + 0.2 * pts[:, 2] - 0.1
    assert np.abs(vals - nu_cross(chart, field)).max() <= 1e-10


def test_trace_second_order_on_smooth_field():
    spec = tube_spec()
    errs = []
    for n in ((10, 10, 14), (20, 20, 28), (40, 40, 56)):
        grid = build_grid(spec, n)
        chart = spec.chart(0, n_eta=8, n_theta=8)
        R_nu = surface_trace(grid, [chart])
        mids = grid.face_midpoints(grid.dof_faces)
        axes = grid.face_normal_axis(grid.dof_faces)
        h = np.where(axes == 2, np.sin(2 * mids[:, 0]) * np.cos(mids[:, 2]), 0.0)
        vals = (R_nu @ h).reshape(-1, 3)
        pts = chart.quad_points()
        field = np.zeros_like(vals)
        field[:, 2] = np.sin(2 * pts[:, 0]) * np.cos(pts[:, 2])
        errs.append(np.abs(vals - nu_cross(chart, field)).max())
    rate = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
    assert min(rate) > 1.5
    assert errs[-1] < 5e-3


def test_trace_injection_adjointness(traced):
    spec, grid, chart, R_nu = traced
    M_surf = assemble_P_el([chart], build_line_grid(chart.n_eta, 1)).M_surf
    rng = np.random.default_rng(1)
    h = rng.standard_normal(grid.n_dof_faces)
    g = rng.standard_normal(3 * chart.n_quad)
    lhs = np.dot(g, M_surf @ (R_nu @ h))
    rhs = np.dot(R_nu.T @ (M_surf @ g), h)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


# ---------------------------------------------------------------------------
# batched MLS weights against a per-stencil reference
# ---------------------------------------------------------------------------

def per_stencil_interp(points, values_pts, h, radius_factor=2.25, rank_tol=1e-7):
    """One stencil at a time: greedy rank-revealing basis, then the weighted
    normal equations.  Returns (rows, cols, vals, kept column counts)."""
    from scipy.spatial import cKDTree

    groups = cKDTree(values_pts).query_ball_point(points, radius_factor * h)
    rows, cols, vals, kept = [], [], [], []
    for qi, grp in enumerate(groups):
        grp = np.asarray(grp)
        d = values_pts[grp] - points[qi]
        w = np.maximum(1e-3, 1.0 - np.linalg.norm(d, axis=1) / (radius_factor * h)) ** 2
        phi = np.column_stack([np.ones(len(grp)), d / h])
        b = np.sqrt(w)[:, None] * phi
        keep = [0]
        for c in (1, 2, 3):
            sv = np.linalg.svd(b[:, keep + [c]], compute_uv=False)
            if sv[-1] > rank_tol * sv[0]:
                keep = keep + [c]
        phi_s = phi[:, keep]
        G = (phi_s * w[:, None]).T @ phi_s
        coeff = np.linalg.solve(G, np.eye(len(keep))[:, 0])
        rows += [qi] * len(grp)
        cols += grp.tolist()
        vals += (w * (phi_s @ coeff)).tolist()
        kept.append(len(keep))
    return np.array(rows), np.array(cols), np.array(vals), np.array(kept)


def mls_cloud(kind, rng):
    h = 0.1
    if kind == "volume":
        src = rng.uniform(0.0, 1.0, size=(600, 3))
        tgt = rng.uniform(0.2, 0.8, size=(150, 3))
    elif kind == "clustered":
        # targets in a corner sub-box: the box prefilter drops most sources
        src = rng.uniform(0.0, 1.0, size=(600, 3))
        tgt = rng.uniform(0.1, 0.35, size=(60, 3))
    elif kind == "mixed":
        # a coplanar patch (z-gradient dropped) beside a sparse volume cloud,
        # far enough apart that no stencil reaches both
        g = np.stack(np.meshgrid(np.arange(11) * h, np.arange(11) * h, indexing="ij"), -1)
        plane = np.column_stack([g.reshape(-1, 2), np.full(121, 0.5)])
        src = np.concatenate([plane, rng.uniform([2.0, 0.0, 0.0], [3.0, 1.0, 1.0], (300, 3))])
        tgt = np.concatenate([
            np.column_stack([rng.uniform(0.2, 0.8, (80, 2)), 0.5 + rng.uniform(-0.05, 0.05, 80)]),
            rng.uniform([2.2, 0.2, 0.2], [2.8, 0.8, 0.8], (150, 3))])
    elif kind == "coplanar":
        # sources in the plane z = 0.5: the z-gradient column is dropped
        g = np.stack(np.meshgrid(np.arange(11) * h, np.arange(11) * h, indexing="ij"), -1)
        src = np.column_stack([g.reshape(-1, 2), np.full(121, 0.5)])
        tgt = np.column_stack([rng.uniform(0.2, 0.8, (80, 2)), 0.5 + rng.uniform(-0.05, 0.05, 80)])
    else:
        # sources on a line: both transverse gradient columns are dropped
        src = np.column_stack([np.arange(21) * 0.05, np.full(21, 0.3), np.full(21, 0.7)])
        tgt = np.column_stack([rng.uniform(0.2, 0.8, 60), 0.3 + rng.uniform(-0.05, 0.05, 60),
                               np.full(60, 0.7)])
    return tgt, src, h


@pytest.mark.parametrize("kind, dropped", [("volume", None), ("clustered", None), ("coplanar", 3),
                                           ("collinear", 2)])
def test_interp_rows_matches_per_stencil_reference(kind, dropped):
    from cablefield.maxwell import _interp_rows

    tgt, src, h = mls_cloud(kind, np.random.default_rng(23))
    rows, cols, vals = _interp_rows(tgt, src, h)
    assert all(isinstance(a, np.ndarray) for a in (rows, cols, vals))
    r_ref, c_ref, v_ref, kept = per_stencil_interp(tgt, src, h)
    assert np.array_equal(rows, r_ref) and np.array_equal(cols, c_ref)
    assert np.abs(vals - v_ref).max() <= 1e-13
    assert np.unique(np.bincount(rows)).size >= 2          # several neighbour counts
    if dropped is None:
        assert (kept == 4).all()
    else:
        assert (kept == dropped).all()                     # gradient columns dropped
    # constants are reproduced exactly by every stencil
    R = sp.csr_matrix((vals, (rows, cols)), shape=(tgt.shape[0], src.shape[0]))
    assert np.abs(R @ np.ones(src.shape[0]) - 1.0).max() <= 1e-12


def test_interp_rows_prefilter_drops_sources():
    from cablefield.geometry import box_prefilter

    tgt, src, h = mls_cloud("clustered", np.random.default_rng(23))
    inbox = box_prefilter(src, tgt, 2.25 * h)
    assert inbox.size < src.shape[0] // 2
    # no source left out lies within the stencil radius of any target
    out = np.setdiff1d(np.arange(src.shape[0]), inbox)
    gaps = np.linalg.norm(src[out][:, None, :] - tgt[None, :, :], axis=2)
    assert gaps.min() > 2.25 * h


def test_interp_rows_greedy_fallback_shares_a_batch():
    from cablefield.maxwell import _interp_rows

    tgt, src, h = mls_cloud("mixed", np.random.default_rng(23))
    rows, cols, vals = _interp_rows(tgt, src, h)
    r_ref, c_ref, v_ref, kept = per_stencil_interp(tgt, src, h)
    assert np.array_equal(rows, r_ref) and np.array_equal(cols, c_ref)
    assert np.abs(vals - v_ref).max() <= 1e-13
    # some neighbour count holds a coplanar stencil and a full-rank one, so
    # one batch mixes the one-SVD pass with the greedy column sequence
    counts = np.bincount(rows)
    assert set(kept) == {3, 4}
    assert set(counts[kept == 3]) & set(counts[kept == 4])


def test_interp_rows_empty_stencil_raises():
    from cablefield.maxwell import _interp_rows

    src = np.random.default_rng(2).uniform(0.0, 0.3, size=(40, 3))
    tgt = np.array([[0.1, 0.1, 0.1], [2.0, 2.0, 2.0]])
    with pytest.raises(GridError) as err:
        _interp_rows(tgt, src, 0.1)
    # the message names the point, its nearest source distance and the radius
    nearest = np.linalg.norm(src - tgt[1], axis=1).min()
    assert "[2.0, 2.0, 2.0]" in str(err.value)
    assert f"{nearest:.4g}" in str(err.value) and "0.225" in str(err.value)


def test_a_two_point_stencil_gets_finite_weights(scenario_config, monkeypatch):
    from cablefield import maxwell
    from cablefield.maxwell import _interp_rows
    from cablefield.scenario import read_scenario

    # at half the stencil radius the pair's first ring point keeps two field
    # unknowns of some component.  The rank test used to admit more
    # gradient columns than that (the SVD of a 2 x k design has two singular
    # values), so the normal equations were singular: a GridError.  Now the
    # fit keeps at most two columns and reproduces constants.
    spec = read_scenario(scenario_config).geometry
    grid = build_grid(spec, scenario_config["fields"]["grid"])
    quad = np.concatenate([spec.chart(i, n_eta=12, n_theta=12).quad_points()
                           for i in range(2)])
    bounds = np.searchsorted(grid.dof_faces, grid.face_offsets)
    monkeypatch.setattr(maxwell, "_RADIUS_FACTOR", 1.125)
    smallest = []
    for c in range(3):
        ids = grid.dof_faces[bounds[c]:bounds[c + 1]]
        rows, _, vals = _interp_rows(quad, grid.face_midpoints(ids), grid.h)
        smallest.append(np.bincount(rows).min())
        assert np.all(np.isfinite(vals))
        assert np.abs(np.bincount(rows, weights=vals) - 1.0).max() <= 1e-12
    assert min(smallest) == 2


def test_trace_failure_names_cable_and_chart_coordinates():
    spec = tube_spec()
    grid = build_grid(spec, (10, 10, 14))
    # a second cable far outside the grid: its quadrature points have no
    # field unknowns nearby
    far = GeometrySpec(box=np.array([[4, 6], [0, 1], [0, 1.4]], dtype=float),
                       cables=[StraightSegment(p0=(5.0, 0.5, 0.2), direction=(0, 0, 1),
                                               length=1.0, radius=0.2)])
    charts = [spec.chart(0, n_eta=12, n_theta=16), far.chart(0, n_eta=12, n_theta=16)]
    with pytest.raises(GridError) as err:
        surface_trace(grid, charts)
    msg = str(err.value)
    first = charts[1].quad_points()[0]
    assert str(first.tolist()) in msg
    assert f"(cable 1, eta {charts[1].eta[0]:.4g}, theta {charts[1].theta[0]:.4g})" in msg
    assert "stencil radius is 0.225" in msg


# ---------------------------------------------------------------------------
# cell-list neighbour pairs against a KD-tree
# ---------------------------------------------------------------------------

def kd_tree_pairs(targets, sources, radius):
    """(target, source) pairs of cKDTree.sparse_distance_matrix, sorted."""
    from scipy.spatial import cKDTree

    pairs = cKDTree(targets).sparse_distance_matrix(cKDTree(sources), radius,
                                                    output_type="ndarray")
    order = np.lexsort((pairs["j"], pairs["i"]))
    return pairs["i"][order], pairs["j"][order]


def pair_cloud(kind, rng):
    if kind == "volume":
        return rng.uniform(0.2, 0.8, (300, 3)), rng.uniform(0.0, 1.0, (2000, 3)), 0.1
    if kind == "clustered":
        # most sources lie outside the targets' widened box
        return rng.uniform(0.1, 0.3, (200, 3)), rng.uniform(0.0, 2.0, (3000, 3)), 0.08
    if kind == "flat":
        # targets in a plane: one cell layer in z
        tgt = np.column_stack([rng.uniform(0, 1, (300, 2)), np.full(300, 0.5)])
        return tgt, rng.uniform(0.0, 1.0, (2000, 3)), 0.07
    # a tiny radius on a wide box: the cell count cap makes the cells coarser
    return rng.uniform(0.0, 50.0, (400, 3)), rng.uniform(0.0, 50.0, (4000, 3)), 0.9


@pytest.mark.parametrize("kind", ["volume", "clustered", "flat", "sparse"])
def test_ball_pairs_match_kd_tree_on_random_clouds(kind, monkeypatch):
    import cablefield.maxwell as maxwell

    tgt, src, radius = pair_cloud(kind, np.random.default_rng(5))
    ref = kd_tree_pairs(tgt, src, radius)
    assert ref[0].size > 0
    for chunk in (maxwell._PAIR_CHUNK, 64):           # one chunk, then many
        monkeypatch.setattr(maxwell, "_PAIR_CHUNK", chunk)
        got = maxwell._ball_pairs(tgt, src, radius)
        assert got[0].dtype == got[1].dtype == np.int32
        assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])


def test_ball_pairs_match_kd_tree_on_lattice_ties():
    from cablefield.maxwell import _ball_pairs

    # targets and sources on one lattice of step h / 4: offsets such as
    # (9, 0, 0), (1, 4, 8) and (4, 4, 7) quarter steps lie at exactly 2.25 h,
    # where roundoff decides membership; both searches sum the squares
    # left to right and keep d^2 <= r^2 (at this h, sqrt(d^2) <= r would
    # decide thousands of them the other way)
    h = 0.06875
    rng = np.random.default_rng(8)
    ijk = np.stack(np.meshgrid(*[np.arange(24)] * 3, indexing="ij"), -1).reshape(-1, 3)
    si = ijk[rng.random(ijk.shape[0]) < 0.4]
    ti = ijk[rng.choice(ijk.shape[0], 400, replace=False)]
    src, tgt = si * (h / 4), ti * (h / 4)
    radius = 2.25 * h
    ref = kd_tree_pairs(tgt, src, radius)
    got = _ball_pairs(tgt, src, radius)
    assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])
    # lattice pairs at exactly 2.25 h (81 squared quarter steps): roundoff
    # keeps some of them and drops others
    on_sphere = ((si[None] - ti[:, None]) ** 2).sum(axis=2) == 81
    kept = np.zeros(on_sphere.shape, dtype=bool)
    kept[got[0], got[1]] = True
    assert (on_sphere & kept).any() and (on_sphere & ~kept).any()
