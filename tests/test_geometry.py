import numpy as np
import pytest

from cablefield.errors import ConfigError, GeometryError
from cablefield.geometry import (
    CURVE_SAMPLES,
    ETA_PAD,
    CircularArc,
    GeometrySpec,
    Helix,
    SplineCurve,
    StraightSegment,
    build_chart,
    build_frame,
    classify_point,
    is_inside_tube,
    nearest_curve_sample,
    validate_curve,
    validate_geometry,
)


def straight(p0=(0.0, 0.0, 0.0), direction=(0, 0, 1), length=1.0, radius=0.1):
    return StraightSegment(p0=np.array(p0), direction=np.array(direction),
                           length=length, radius=radius)


def quarter_arc(rho=2.0, radius=0.1):
    return CircularArc(center=np.zeros(3), u=np.array([1.0, 0, 0]),
                       v=np.array([0, 1.0, 0]), rho=rho,
                       phi0=0.0, phi1=0.5 * np.pi, radius=radius)


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------

def orthonormality_residual(frame, eta):
    t, k1, k2 = frame.at(eta)
    m = np.stack([t, k1, k2], axis=2)
    eye = np.einsum("nij,nkj->nik", m.transpose(0, 2, 1), m.transpose(0, 2, 1))
    res = np.abs(eye - np.eye(3)).max()
    dets = np.linalg.det(m.transpose(0, 2, 1))
    return res, np.abs(dets - 1.0).max()


def test_frame_straight_segment_is_constant():
    frame = build_frame(straight(), n_eta=33)
    eta = np.linspace(0, 1, 33)
    _, k1, k2 = frame.at(eta)
    assert np.abs(k1 - np.array([1.0, 0.0, 0.0])).max() < 1e-12
    assert np.abs(k2 - np.array([0.0, 1.0, 0.0])).max() < 1e-12


def test_frame_orthonormal_and_right_handed():
    for curve in [straight(), quarter_arc(),
                  Helix(base=np.zeros(3), axis=[0, 0, 1], a=0.5, b=0.15,
                        turns=1.0, radius=0.03)]:
        frame = build_frame(curve, n_eta=65)
        res, det_res = orthonormality_residual(frame, np.linspace(0, 1, 65))
        assert res <= 1e-10
        assert det_res <= 1e-10


def test_frame_matches_parallel_transport_on_planar_arc():
    # for a planar arc the rotation-minimizing normals are a fixed
    # combination of the plane normal and the in-plane radial direction
    curve = quarter_arc()
    n = 512
    eta = np.linspace(0, 1, n)
    frame = build_frame(curve, n_eta=eta)
    _, k1, k2 = frame.at(eta)

    phi = curve.phi0 + eta * (curve.phi1 - curve.phi0)
    radial = np.outer(np.cos(phi), curve.u) + np.outer(np.sin(phi), curve.v)
    zhat = np.cross(curve.u, curve.v)
    a0 = np.dot(k1[0], zhat)
    b0 = np.dot(k1[0], radial[0])
    expected = a0 * zhat + b0 * radial
    assert np.abs(k1 - expected).max() <= 1e-6


def test_frame_continuity():
    frame = build_frame(quarter_arc(), n_eta=257)
    jumps = np.linalg.norm(np.diff(frame.kappa1, axis=0), axis=1)
    assert jumps.max() < 0.05


def numpy_double_reflection(points, tangents, r0):
    """Reference recurrence, one numpy 3-vector operation per step."""
    normals = np.empty((points.shape[0], 3))
    normals[0] = r0
    for i in range(points.shape[0] - 1):
        v1 = points[i + 1] - points[i]
        c1 = np.dot(v1, v1)
        if c1 < 1e-30:
            normals[i + 1] = normals[i]
            continue
        rl = normals[i] - (2.0 / c1) * np.dot(v1, normals[i]) * v1
        tl = tangents[i] - (2.0 / c1) * np.dot(v1, tangents[i]) * v1
        v2 = tangents[i + 1] - tl
        c2 = np.dot(v2, v2)
        normals[i + 1] = rl if c2 < 1e-30 else rl - (2.0 / c2) * np.dot(v2, rl) * v2
    return normals


@pytest.mark.parametrize("kind", ["segment_x", "segment_y", "segment_z", "segment_oblique",
                                  "arc", "helix", "spline"])
def test_frame_recurrence_matches_numpy_reference(kind, monkeypatch):
    import cablefield.geometry as geometry

    curve = {
        "segment_x": lambda: straight(direction=(1, 0, 0)),
        "segment_y": lambda: straight(direction=(0, 1, 0)),
        "segment_z": lambda: straight(p0=(0.45, 0.5, 0.4), length=1.0, radius=0.2),
        "segment_oblique": lambda: straight(direction=(1, 2, 3)),
        "arc": quarter_arc,
        "helix": lambda: Helix(base=np.zeros(3), axis=[0, 0, 1], a=0.5, b=0.15,
                               turns=1.0, radius=0.03),
        "spline": lambda: SplineCurve(np.array([[0, 0, 0], [0.3, 0.1, 0.2], [0.5, 0.4, 0.5],
                                                [0.6, 0.5, 0.9]]), radius=0.05),
    }[kind]()
    eta = (np.arange(36) + 0.5) / 36
    frame = build_frame(curve, n_eta=eta)
    with monkeypatch.context() as m:
        m.setattr(geometry, "_double_reflection", numpy_double_reflection)
        ref = build_frame(curve, n_eta=eta)
    assert frame.kappa1.shape[0] > 2 * geometry._REFLECT_BLOCK     # several blocks
    # kappa2 = t x kappa1, completed by at() from the stored kappa1
    k2, k2_ref = frame.at(frame.eta)[2], ref.at(ref.eta)[2]
    if kind in ("segment_x", "segment_y", "segment_z"):
        assert np.array_equal(frame.kappa1, ref.kappa1)
        assert np.array_equal(k2, k2_ref)
    else:
        # unit vectors: absolute differences are relative ones
        assert np.abs(frame.kappa1 - ref.kappa1).max() <= 1e-14
        assert np.abs(k2 - k2_ref).max() <= 1e-14


def test_degenerate_tangent_raises():
    pts = np.array([[0, 0, 0], [0, 0, 0], [0, 0, 0], [1, 0, 0.0]])
    with pytest.raises(GeometryError):
        SplineCurve(pts, radius=0.05)


# ---------------------------------------------------------------------------
# curve validation
# ---------------------------------------------------------------------------

def test_validate_curve_examples():
    rep = validate_curve(straight())
    assert rep["arclength_ok"] and rep["curvature_ok"]

    # curve radius equal to tube radius sits exactly on the bound -> reject
    tight = CircularArc(center=np.zeros(3), u=[1, 0, 0], v=[0, 1, 0],
                        rho=0.1, phi0=0.0, phi1=np.pi, radius=0.1)
    rep = validate_curve(tight)
    assert not rep["curvature_ok"]


def test_validate_curve_monotone_in_radius():
    # shrinking the tube radius never flips a passing curvature check
    rho = 0.5
    margins = []
    for radius in (0.4, 0.2, 0.1, 0.05):
        arc = CircularArc(center=np.zeros(3), u=[1, 0, 0], v=[0, 1, 0],
                          rho=rho, phi0=0.0, phi1=np.pi, radius=radius)
        rep = validate_curve(arc)
        margins.append(rep["curvature_margin"])
    assert margins == sorted(margins)
    assert validate_curve(CircularArc(center=np.zeros(3), u=[1, 0, 0], v=[0, 1, 0],
                                      rho=rho, phi0=0.0, phi1=np.pi,
                                      radius=0.05))["curvature_ok"]


def test_spline_constant_speed():
    t = np.linspace(0, 1, 24)
    pts = np.column_stack([np.sin(t), 0.3 * t, t])
    curve = SplineCurve(pts, radius=0.05)
    eta = np.linspace(0, 1, 400)
    speed = np.linalg.norm(curve.d1(eta), axis=1)
    assert np.abs(speed - curve.length).max() / curve.length < 1e-6


@pytest.mark.parametrize("points", [
    # bends within 0.1 of the pair box's mid-plane; its arclength error was
    # 2.07e-6 with trapezoid arclength and three Newton sweeps
    [[0.4, 0.5, 0.4], [0.7, 0.45, 0.8], [0.9, 0.55, 1.1], [1.2, 0.5, 1.4]],
    [[0.4, 0.45, 0.05], [0.55, 0.5, 0.5], [0.5, 0.6, 0.9], [0.45, 0.5, 1.35]],
    [[0.0, 0.0, 0.0], [0.3, 0.1, 0.2], [0.5, 0.4, 0.5], [0.6, 0.5, 0.9]],
    [[0.5, 0.5, 0.2], [0.52, 0.5, 0.6], [0.5, 0.52, 1.0], [0.5, 0.5, 1.4]],
], ids=["bent", "oracle", "frame", "near_straight"])
def test_spline_reparameterization_is_admitted(points):
    curve = SplineCurve(np.array(points), radius=0.12)
    rep = validate_curve(curve)
    assert rep["arclength_ok"] and rep["curvature_ok"], rep
    assert rep["arclength_rel_err"] <= 1e-8
    build_frame(curve, n_eta=16)             # raises on an inadmissible curve


# ---------------------------------------------------------------------------
# charts
# ---------------------------------------------------------------------------

def test_chart_straight_cylinder_area_and_normals():
    curve = straight(radius=0.1, length=1.0)
    chart = build_chart(curve, 64, 64)
    area = chart.quad_weights().sum()
    assert abs(area - 2 * np.pi * 0.1 * 1.0) / (2 * np.pi * 0.1) <= 1e-3

    # outward radial normal (sin t, cos t, 0) for the canonical frame
    expected = np.stack([np.sin(chart.theta), np.cos(chart.theta),
                         np.zeros_like(chart.theta)], axis=1)
    assert np.abs(chart.normal[7] - expected).max() <= 1e-12

    # Jacobian columns orthogonal with norms l and r
    dots = (chart.jac_eta * chart.jac_theta).sum(axis=2)
    assert np.abs(dots).max() <= 1e-12
    assert np.abs(np.linalg.norm(chart.jac_eta, axis=2) - 1.0).max() <= 1e-12
    assert np.abs(np.linalg.norm(chart.jac_theta, axis=2) - 0.1).max() <= 1e-12


def test_chart_invariants_on_curved_tube():
    curve = quarter_arc()
    chart = build_chart(curve, 32, 24)
    nrm = np.linalg.norm(chart.normal, axis=2)
    assert np.abs(nrm - 1.0).max() <= 1e-10
    for jac in (chart.jac_eta, chart.jac_theta):
        assert np.abs((chart.normal * jac).sum(axis=2)).max() <= 1e-10
    assert chart.quad_weights().min() > 0


def test_chart_quadrature_order_two():
    # smooth integrand over a curved tube; midpoint rule in eta gives
    # second order under simultaneous refinement
    curve = quarter_arc()

    def integrate(n):
        chart = build_chart(curve, n, n)
        f = np.sin(3 * chart.points[..., 0]) * np.cos(2 * chart.points[..., 1])
        return (chart.weights * f).sum()

    vals = [integrate(n) for n in (8, 16, 32, 64)]
    errs = [abs(v - vals[-1]) for v in vals[:-1]]
    rate = np.log2(errs[0] / errs[1])
    assert rate >= 1.9


def test_collar_roundtrip():
    for curve in [straight(), quarter_arc()]:
        chart = build_chart(curve, 24, 16)
        rng = np.random.default_rng(3)
        eta = rng.uniform(0.05, 0.95, 40)
        theta = rng.uniform(-np.pi, np.pi, 40)
        s = rng.uniform(-0.2, 0.2, 40)
        pts = chart.phi_hat(eta, theta, s)
        coords = chart.psi_hat(pts, nearest_curve_sample(curve, pts)[0])
        assert np.abs(coords[:, 0] - eta).max() <= 1e-8
        assert np.abs(coords[:, 2] - s).max() <= 1e-8
        dth = np.angle(np.exp(1j * (coords[:, 1] - theta)))
        assert np.abs(dth).max() <= 1e-8


def test_surface_point_classifies_as_collar():
    spec = GeometrySpec(box=np.array([[-1, 1], [-1, 1], [-0.5, 1.5]]),
                        cables=[straight(p0=(0, 0, 0.2), length=0.9)])
    chart = spec.chart(0)
    p = chart.points[5, 3]
    tag = classify_point(spec, p)
    assert tag[0] == "collar" and tag[1] == 0
    assert abs(tag[2][2]) <= 1e-9

    assert classify_point(spec, np.array([0.0, 0.0, 0.5]))[0] == "inside_tube"
    assert classify_point(spec, np.array([5.0, 0.0, 0.5]))[0] == "exterior"
    assert classify_point(spec, np.array([0.6, 0.6, 0.5]))[0] == "field"


def test_validate_geometry_examples():
    r1, r2 = 0.05, 0.08
    sep = 4 * (r1 + r2)
    spec = GeometrySpec(
        box=np.array([[-2, 2], [-2, 2], [-1, 2]]),
        cables=[
            straight(p0=(0, 0, 0), radius=r1),
            straight(p0=(sep, 0, 0), radius=r2),
        ],
    )
    rep = validate_geometry(spec)
    assert rep["passed"]

    overlapping = GeometrySpec(
        box=np.array([[-2, 2], [-2, 2], [-1, 2]]),
        cables=[straight(), straight(p0=(0.05, 0, 0.3))],
    )
    assert not validate_geometry(overlapping)["disjoint_ok"]

    poking_out = GeometrySpec(
        box=np.array([[-0.05, 0.05], [-1, 1], [-1, 2]]),
        cables=[straight(radius=0.06)],
    )
    assert not validate_geometry(poking_out)["passed"]


def test_geometry_spec_rejects_bad_collar():
    # 0.7: the cutoff would reach 2 eps / 3 past the ends, beyond the chart window
    for eps in (1.5, 0.7):
        with pytest.raises(ConfigError):
            GeometrySpec(box=np.array([[-1, 1], [-1, 1], [-1, 1]]),
                         cables=[], collar_halfwidth=eps)


def test_is_inside_tube_matches_classify():
    spec = GeometrySpec(box=np.array([[-1, 1], [-1, 1], [-0.5, 1.5]]),
                        cables=[straight(p0=(0, 0, 0.2), length=0.9)])
    rng = np.random.default_rng(11)
    pts = rng.uniform([-0.4, -0.4, -0.2], [0.4, 0.4, 1.4], size=(60, 3))
    mask = is_inside_tube(spec, pts, 0)
    for p, inside in zip(pts, mask):
        assert inside == (classify_point(spec, p)[0] == "inside_tube")


def test_grad_eta_straight_cylinder():
    curve = straight(radius=0.1, length=1.0)
    chart = build_chart(curve, 16, 12)
    pts = chart.phi_hat(np.array([0.3, 0.6]), np.array([0.4, -1.0]), np.array([0.05, -0.05]))
    coords = chart.psi_hat(pts, nearest_curve_sample(curve, pts)[0])
    g = chart.grad_eta(coords)
    # one point is a batch of one: (1, 3) like every other batch
    one = chart.psi_hat(pts[:1], nearest_curve_sample(curve, pts[:1])[0])
    assert coords.shape == g.shape == (2, 3)
    assert one.shape == chart.grad_eta(one).shape == (1, 3)
    assert np.abs(g - np.array([0.0, 0.0, 1.0])).max() <= 1e-9


# ---------------------------------------------------------------------------
# nearest-sample query against a dense brute-force argmin
# ---------------------------------------------------------------------------

def dense_nearest_sample(curve, pts, chunk=1024):
    """Brute-force argmin over all (point, sample) pairs, in row chunks."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    etas = np.linspace(-ETA_PAD, 1.0 + ETA_PAD, CURVE_SAMPLES)
    samples = curve.alpha(etas)
    eta, d2 = np.empty(pts.shape[0]), np.empty(pts.shape[0])
    for s in range(0, pts.shape[0], chunk):
        dd = ((pts[s:s + chunk, None, :] - samples[None, :, :]) ** 2).sum(axis=2)
        j = dd.argmin(axis=1)
        eta[s:s + chunk] = etas[j]
        d2[s:s + chunk] = dd[np.arange(j.size), j]
    return eta, d2


ORACLE_CURVES = {
    "segment": lambda: StraightSegment(p0=np.array([0.5, 0.5, 0.05]),
                                       direction=np.array([0.05, 0.0, 1.0]),
                                       length=1.3, radius=0.17),
    "arc": lambda: CircularArc(center=np.array([-0.6, 0.5, 0.7]), u=np.array([1.0, 0, 0]),
                               v=np.array([0, 0, 1.0]), rho=1.1, phi0=-0.6, phi1=0.6,
                               radius=0.17),
    "helix": lambda: Helix(base=np.array([0.5, 0.5, 0.07]), axis=[0, 0, 1], a=0.15, b=0.2,
                           turns=1.0, radius=0.17),
    "spline": lambda: SplineCurve(np.array([[0.4, 0.45, 0.05], [0.55, 0.5, 0.5],
                                            [0.5, 0.6, 0.9], [0.45, 0.5, 1.35]]), radius=0.17),
}


def oracle_points(spec, rng):
    """Points inside the tube, on its surface, across the collar and beyond
    both ends, plus uniform points in the box."""
    chart = spec.chart(0)
    eta = rng.uniform(-0.4, 1.4, 1500)
    theta = rng.uniform(-np.pi, np.pi, 1500)
    s = np.concatenate([rng.uniform(-0.99, 0.0, 500), np.zeros(250),
                        rng.uniform(0.0, spec.collar_halfwidth, 500),
                        rng.uniform(spec.collar_halfwidth, 2.0, 250)])
    near = chart.phi_hat(eta, theta, s)
    box = rng.uniform(spec.box[:, 0], spec.box[:, 1], size=(1000, 3))
    return np.concatenate([near, box])


def with_dense_query(monkeypatch, fn):
    import cablefield.geometry as geometry

    with monkeypatch.context() as m:
        m.setattr(geometry, "nearest_curve_sample", dense_nearest_sample)
        return fn()


@pytest.mark.parametrize("kind", sorted(ORACLE_CURVES))
def test_curve_query_matches_dense_oracle(kind, monkeypatch):
    from cablefield.coupling import lift_voltage
    from cablefield.maxwell import _classify, build_grid
    from cablefield.tline import build_line_grid

    # collar with eps * r >= 2h for the voltage lift on h = 0.05; every point
    # gets a tag, with no collar inversion failure near a curved end
    spec = GeometrySpec(box=np.array([[0, 1], [0, 1], [0, 1.4]]),
                        cables=[ORACLE_CURVES[kind]()], collar_halfwidth=0.6)
    curve = spec.cables[0]
    pts = oracle_points(spec, np.random.default_rng(17))

    eta, d2 = nearest_curve_sample(curve, pts)
    eta_ref, d2_ref = dense_nearest_sample(curve, pts)
    assert np.array_equal(eta, eta_ref) and np.array_equal(d2, d2_ref)

    lg = build_line_grid(12, 1)
    V = np.sin(np.pi * lg.nodes)

    def run():
        eta, gap, converged = curve.nearest_parameter_batch(pts)
        grid = build_grid(spec, (20, 20, 28))
        return {
            "eta": eta, "gap": gap, "converged": converged,
            "mask": is_inside_tube(spec, pts, 0),
            "grid": _classify(spec, grid.n, grid.h, grid.origin),
            "lift": lift_voltage(spec.chart(0, n_eta=12, n_theta=16), grid, V, lg),
            "tags": [classify_point(spec, p) for p in pts[::10]],
        }

    tree = run()
    dense = with_dense_query(monkeypatch, run)
    assert np.array_equal(tree["converged"], dense["converged"])
    assert np.abs(tree["eta"] - dense["eta"]).max() <= 1e-14
    assert np.abs(tree["gap"] - dense["gap"]).max() <= 1e-14
    assert tree["mask"].any() and np.array_equal(tree["mask"], dense["mask"])
    for a, b in zip(tree["grid"], dense["grid"]):
        assert np.array_equal(a, b)
    assert (tree["grid"][0] == 0).any() and (tree["grid"][1] == 2).any()   # tube cells, band
    assert tree["lift"].any()
    assert np.array_equal(np.nonzero(tree["lift"])[0], np.nonzero(dense["lift"])[0])
    assert np.abs(tree["lift"] - dense["lift"]).max() <= 1e-14
    assert {t[0] for t in tree["tags"]} >= {"inside_tube", "collar", "field"}
    assert tree["tags"] == dense["tags"]
