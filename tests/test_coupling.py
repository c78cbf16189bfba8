import numpy as np
import pytest

from cablefield import geometry
from cablefield.coupling import assemble_P_el, assemble_P_mag, lift_voltage
from cablefield.errors import ConfigError, CouplingError
from cablefield.geometry import (
    CableCurve,
    CircularArc,
    GeometrySpec,
    StraightSegment,
    build_chart,
    collar_candidates,
    cutoff_reach,
    nearest_curve_sample,
    validate_geometry,
)
from cablefield.maxwell import build_grid
from cablefield.tline import build_line_grid


def collar_coords(chart, pts):
    """Collar coordinates of arbitrary points, Newton from their nearest sample."""
    return chart.psi_hat(pts, nearest_curve_sample(chart.curve, pts)[0])


def straight_chart(n_eta, n_theta, radius=0.1, length=1.0, collar=0.3):
    curve = StraightSegment(p0=(0.0, 0.0, 0.0), direction=(0, 0, 1),
                            length=length, radius=radius)
    return build_chart(curve, n_eta, n_theta, collar_halfwidth=collar)


def arc_chart(n_eta, n_theta, radius=0.1, rho=1.5):
    curve = CircularArc(center=np.zeros(3), u=[1.0, 0, 0], v=[0, 1.0, 0],
                        rho=rho, phi0=0.0, phi1=1.0, radius=radius)
    return build_chart(curve, n_eta, n_theta)


def test_pel_constant_gradient_straight_cylinder():
    n, m = 16, 24
    chart = straight_chart(n, m, radius=0.1, length=2.0)
    lg = build_line_grid(n, 1)
    cp = assemble_P_el([chart], lg)
    f = np.full(n, 3.0)
    field = (cp.Pel @ f).reshape(-1, 3)
    assert np.abs(field - np.array([0.0, 0.0, 3.0 / 2.0])).max() <= 1e-12

    assert np.abs(cp.Pel @ np.zeros(n)).max() == 0.0


def test_pel_columns_tangential():
    chart = arc_chart(12, 16)
    lg = build_line_grid(12, 1)
    cp = assemble_P_el([chart], lg)
    rng = np.random.default_rng(0)
    f = rng.standard_normal(12)
    field = (cp.Pel @ f).reshape(-1, 3)
    normals = chart.normal.reshape(-1, 3)
    assert np.abs((field * normals).sum(axis=1)).max() <= 1e-12


def test_pmag_quadrature_ring_integral_oracle():
    # constant axial tangential field h * z_hat: the ring functional gives
    # +2 pi r h per ring (domain-outward normal, theta-increasing loop),
    # approached at second order in the angular step
    r, h_amp = 0.1, 2.0
    errs = []
    for m in (16, 32, 64):
        chart = straight_chart(8, m, radius=r)
        Pq = assemble_P_mag([chart], build_line_grid(8, 1))
        g = np.tile([0.0, 0.0, h_amp], chart.n_quad)
        out = Pq @ g
        errs.append(np.abs(out - 2 * np.pi * r * h_amp).max())
    assert errs[-1] <= 5e-3 * 2 * np.pi * r * h_amp
    rates = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
    assert min(rates) > 1.9

    # adjoint mode gives the ring value exactly for the constant field
    chart = straight_chart(8, 32, radius=r)
    cp = assemble_P_el([chart], build_line_grid(8, 1))
    g = np.tile([0.0, 0.0, h_amp], chart.n_quad)
    assert np.abs(cp.Pmag @ g - 2 * np.pi * r * h_amp).max() <= 1e-12


def test_pmag_azimuthal_field_no_axial_pickup():
    # purely azimuthal constant-magnitude field contributes nothing to the
    # (g x nu) . t functional on a straight cylinder
    chart = straight_chart(8, 48, radius=0.1)
    Pq = assemble_P_mag([chart], build_line_grid(8, 1))
    th = chart.theta
    azim = np.stack([np.cos(th), -np.sin(th), np.zeros_like(th)], axis=1)
    g = np.tile(azim, (chart.n_eta, 1)).reshape(-1)
    assert np.abs(Pq @ g).max() <= 1e-12


def test_adjointness_identity_exact():
    chart = straight_chart(12, 16)
    lg = build_line_grid(12, 1)
    cp = assemble_P_el([chart], lg)
    # Pmag == M_line^-1 Pel^T M_surf entrywise
    lhs = cp.Pmag.toarray()
    rhs = (np.diag(1.0 / lg.Mc.diagonal()) @ cp.Pel.T.toarray() @ cp.M_surf.toarray())
    denom = np.abs(rhs).max()
    assert np.abs(lhs - rhs).max() <= 1e-13 * max(denom, 1.0)

    # <Pel f, g>_Msurf == <f, Pmag g>_Mline for random data
    rng = np.random.default_rng(4)
    f = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    g = rng.standard_normal(3 * chart.n_quad) + 1j * rng.standard_normal(3 * chart.n_quad)
    lhs = np.vdot(g, cp.M_surf @ (cp.Pel @ f))
    rhs = np.vdot(cp.Pmag @ g, lg.Mc @ f)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_adjoint_vs_quadrature_convergence_curved():
    # the two discretizations agree at order >= 1.9 under simultaneous
    # (eta, theta) refinement on a curved tube as well
    diffs = []
    for n, m in ((8, 12), (16, 24), (32, 48)):
        chart = arc_chart(n, m)
        lg = build_line_grid(n, 1)
        cp = assemble_P_el([chart], lg)
        Pq = assemble_P_mag([chart], lg)
        pts = chart.quad_points()
        g = np.stack([np.sin(pts[:, 1]), np.cos(2 * pts[:, 0]), pts[:, 2] ** 2], axis=1).reshape(-1)
        diffs.append(np.abs(cp.Pmag @ g - Pq @ g).max())
    rates = np.log2(diffs[0] / diffs[1]), np.log2(diffs[1] / diffs[2])
    assert min(rates) >= 1.9


def test_pel_linear_in_input():
    chart = straight_chart(8, 8)
    cp = assemble_P_el([chart], build_line_grid(8, 1))
    rng = np.random.default_rng(9)
    f = rng.standard_normal(8)
    assert np.allclose(cp.Pel @ (2.5 * f), 2.5 * (cp.Pel @ f))


def test_chart_line_grid_mismatch_raises():
    chart = straight_chart(8, 8)
    with pytest.raises(CouplingError):
        assemble_P_el([chart], build_line_grid(10, 1))


# ---------------------------------------------------------------------------
# voltage lift
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def lift_setup():
    # fat collar so eps * r >= 2h on a 24^3 grid over the unit box
    spec = GeometrySpec(
        box=np.array([[0, 1], [0, 1], [0, 1]], dtype=float),
        cables=[StraightSegment(p0=(0.5, 0.5, 0.15), direction=(0, 0, 1),
                                length=0.7, radius=0.18)],
        collar_halfwidth=0.5,
    )
    grid = build_grid(spec, (24, 24, 24))
    lg = build_line_grid(12, 1)
    chart = spec.chart(0, n_eta=12, n_theta=16)
    return spec, grid, lg, chart


def test_lift_constant_voltage_is_zero(lift_setup):
    spec, grid, lg, chart = lift_setup
    lift = lift_voltage(chart, grid, np.full(lg.n + 1, 5.0), lg)
    assert not lift.any()


def test_lift_linear_voltage_axial_field(lift_setup):
    spec, grid, lg, chart = lift_setup
    V = lg.nodes.copy()            # V(eta) = eta
    lift = lift_voltage(chart, grid, V, lg)
    support = np.nonzero(lift)[0]
    assert support.size > 0
    mids = grid.edge_midpoints(support)
    dirs = grid.edge_direction(support)
    coords = collar_coords(chart, mids)
    chi = chart.chi(coords[:, 2], coords[:, 0])
    # interior field = chi / l * z_hat: z-edges carry chi/l, x/y edges 0
    expected = np.where(dirs == 2, chi / chart.curve.length, 0.0)
    assert np.abs(lift[support] - expected).max() <= 1e-9

    # identically zero outside the cutoff support: the nonzeros are the
    # z-edges with chi(s, eta) > 0, s and eta in the cylinder's closed form
    curve = spec.cables[0]
    all_mids = grid.edge_midpoints()
    z_edges = np.nonzero(grid.edge_direction(np.arange(all_mids.shape[0])) == 2)[0]
    rho = np.hypot(all_mids[z_edges, 0] - 0.5, all_mids[z_edges, 1] - 0.5)
    eta = (all_mids[z_edges, 2] - 0.15) / curve.length
    assert np.array_equal(support, z_edges[chart.chi(rho / curve.radius - 1.0, eta) > 0])


def test_lift_plateau_values_exact_for_any_voltage(lift_setup):
    # in the chi == 1 plateau of a straight cylinder the lift is exactly
    # dV(cell) / l along z, whatever the voltage profile
    spec, grid, lg, chart = lift_setup
    rng = np.random.default_rng(3)
    V = np.cumsum(rng.standard_normal(lg.n + 1)) * 0.1
    lift = lift_voltage(chart, grid, V, lg)
    dV = (lg.D @ V)

    support = np.nonzero(lift)[0]
    mids = grid.edge_midpoints(support)
    dirs = grid.edge_direction(support)
    coords = collar_coords(chart, mids)
    plateau = (chart.chi(coords[:, 2], coords[:, 0]) >= 1.0 - 1e-12)
    assert plateau.sum() > 0
    cell = np.clip((coords[plateau, 0] * lg.n).astype(int), 0, lg.n - 1)
    expected = np.where(dirs[plateau] == 2, dV[cell] / chart.curve.length, 0.0)
    assert np.abs(lift[support][plateau] - expected).max() <= 1e-9


def test_lift_trace_matches_pel(lift_setup, monkeypatch):
    # surface samples of the lift (interpolated from the plateau edges)
    # reproduce Pel(D_eta V) within the O(h) interpolation tolerance
    spec, grid, lg, chart = lift_setup
    V = np.sin(np.pi * lg.nodes)
    lift = lift_voltage(chart, grid, V, lg)
    target = (assemble_P_el([chart], lg).Pel @ (lg.D @ V)).reshape(-1, 3)

    from cablefield import maxwell
    from cablefield.maxwell import _interp_rows
    import scipy.sparse as sps
    monkeypatch.setattr(maxwell, "_RADIUS_FACTOR", 2.5)
    mids = grid.edge_midpoints()
    dirs_all = grid.edge_direction(np.arange(mids.shape[0]))
    support = np.nonzero(lift)[0]
    coords = collar_coords(chart, mids[support])
    plateau_ids = support[chart.chi(coords[:, 2], coords[:, 0]) >= 1.0 - 1e-12]
    pts = chart.quad_points()
    sampled = np.zeros_like(target)
    for c in range(3):
        sel = plateau_ids[dirs_all[plateau_ids] == c]
        if sel.size == 0:
            # the straight-cylinder lift is purely axial: transverse edge
            # values are identically zero and so is the target
            assert np.abs(target[:, c]).max() <= 1e-12
            continue
        rows, cols, vals = _interp_rows(pts, mids[sel], grid.h)
        R = sps.csr_matrix((vals, (rows, cols)), shape=(pts.shape[0], sel.size))
        sampled[:, c] = R @ lift[sel]
    err = np.abs(sampled - target).max()
    assert err <= 0.3 * np.abs(target).max()


def test_lift_inverts_only_the_cutoff_band(lift_setup, monkeypatch):
    # edges deeper than the cutoff (s < -2 eps / 3) have chi = 0: 1,900 of
    # the 8,016 outer-radius candidates are not handed to psi_hat
    spec, grid, lg, chart = lift_setup
    mids = grid.edge_midpoints()
    reach = cutoff_reach(chart.collar_halfwidth)
    outer, _ = collar_candidates(chart.curve, mids, reach, reach)
    band, _ = collar_candidates(chart.curve, mids, reach, reach, s_min=-reach)
    assert (outer.size, band.size) == (8016, 6116)
    dropped = np.setdiff1d(outer, band)
    assert collar_coords(chart, mids[dropped])[:, 2].max() < -reach

    # one nearest-sample query and one Newton batch, of the band only
    calls = []
    sample = geometry.nearest_curve_sample
    newton = CableCurve.nearest_parameter_batch

    def counted_sample(curve, pts):
        calls.append(("sample", len(pts)))
        return sample(curve, pts)

    def counted_newton(self, pts, eta=None):
        calls.append(("newton", len(pts)))
        return newton(self, pts, eta)

    monkeypatch.setattr(geometry, "nearest_curve_sample", counted_sample)
    monkeypatch.setattr(CableCurve, "nearest_parameter_batch", counted_newton)
    lift_voltage(chart, grid, np.sin(np.pi * lg.nodes), lg)
    assert [c[0] for c in calls] == ["sample", "newton"]
    assert calls[1][1] == band.size


def test_lift_matches_independent_inversions(lift_setup):
    # inverting each candidate once gives the same arrays as inverting the
    # band and then the live edges again, each from a fresh sample query
    spec, grid, lg, chart = lift_setup
    V = np.sin(np.pi * lg.nodes)
    lift = lift_voltage(chart, grid, V, lg)

    mids = grid.edge_midpoints()
    reach = cutoff_reach(chart.collar_halfwidth)
    band, _ = collar_candidates(chart.curve, mids, reach, reach, s_min=-reach)
    coords = collar_coords(chart, mids[band])
    chi = chart.chi(coords[:, 2], coords[:, 0])
    live = chi > 0
    sel = band[live]
    grad = chart.grad_eta(collar_coords(chart, mids[sel]))
    cell = np.clip((coords[live, 0] * lg.n).astype(int), 0, lg.n - 1)
    values = np.zeros(mids.shape[0])
    values[sel] = (chi[live] * ((V[1:] - V[:-1]) * lg.n)[cell]
                   * grad[np.arange(sel.size), grid.edge_direction(sel)])
    assert np.array_equal(lift, values)


def test_lift_rejects_thin_collar():
    spec = GeometrySpec(
        box=np.array([[0, 1], [0, 1], [0, 1]], dtype=float),
        cables=[StraightSegment(p0=(0.5, 0.5, 0.15), direction=(0, 0, 1),
                                length=0.7, radius=0.18)],
        collar_halfwidth=0.1,
    )
    grid = build_grid(spec, (12, 12, 12))
    lg = build_line_grid(12, 1)
    chart = spec.chart(0, n_eta=12, n_theta=16)
    with pytest.raises(CouplingError):
        lift_voltage(chart, grid, np.zeros(13), lg)


def test_lift_on_short_cable_inverts_every_candidate():
    # a cable shorter than the box: edges beyond the chart's eta window lie
    # within the collar radius of the end samples and must not be inverted
    spec = GeometrySpec(
        box=np.array([[0.2, 0.8], [0.2, 0.8], [0.0, 1.2]]),
        cables=[StraightSegment(p0=(0.5, 0.5, 0.3), direction=(0, 0, 1),
                                length=0.6, radius=0.12)],
        collar_halfwidth=0.3,
    )
    assert validate_geometry(spec)["passed"]
    grid = build_grid(spec, (36, 36, 72))
    lg = build_line_grid(12, 1)
    V = np.sin(np.pi * lg.nodes)
    lift = lift_voltage(spec.chart(0, n_eta=12, n_theta=16), grid, V, lg)
    assert lift.any()


def test_lift_support_is_the_whole_cutoff_support():
    # a wide collar reaches 2 eps / 3 = 0.4 past both ends; with V = eta the
    # lift on a straight cable is chi(s, eta) / l on z-edges, so its support
    # is known in closed form from the edge midpoints
    length, radius, z0 = 1.0, 0.1, 0.6
    spec = GeometrySpec(
        box=np.array([[0.3, 0.7], [0.3, 0.7], [0.0, 2.2]]),
        cables=[StraightSegment(p0=(0.5, 0.5, z0), direction=(0, 0, 1),
                                length=length, radius=radius)],
        collar_halfwidth=0.6,
    )
    grid = build_grid(spec, (16, 16, 88))
    lg = build_line_grid(12, 1)
    chart = spec.chart(0, n_eta=12, n_theta=16)
    lift = lift_voltage(chart, grid, lg.nodes.copy(), lg)

    mids = grid.edge_midpoints()
    z_edges = np.nonzero(grid.edge_direction(np.arange(mids.shape[0])) == 2)[0]
    rho = np.hypot(mids[z_edges, 0] - 0.5, mids[z_edges, 1] - 0.5)
    eta = (mids[z_edges, 2] - z0) / length
    expected = z_edges[chart.chi(rho / radius - 1.0, eta) > 0]
    assert expected.size > 0
    assert np.array_equal(np.nonzero(lift)[0], expected)


def test_chart_rejects_collar_beyond_the_eta_window():
    # eps = 0.9 on the wide-collar geometry above: the chart itself refuses
    # it, before lift_voltage could fail to invert a candidate
    curve = StraightSegment(p0=(0.5, 0.5, 0.6), direction=(0, 0, 1),
                            length=1.0, radius=0.1)
    with pytest.raises(ConfigError, match="collar_halfwidth"):
        build_chart(curve, 12, 16, collar_halfwidth=0.9)
