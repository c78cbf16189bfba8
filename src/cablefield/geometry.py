"""
Cable geometry: center curves, adapted frames, lateral-surface charts.

Conventions
-----------
A cable is a tube of constant radius r around a center curve
alpha: [0,1] -> R^3 traversed at constant speed, |alpha'(eta)| = l (the
cable length).  Admissibility requires the curvature bound
|alpha''| < l^2 / r, which keeps the tube chart injective.

The frame (alpha'/l, kappa1, kappa2) is a right-handed orthonormal triple
at every sample; kappa1 is propagated by the double-reflection (rotation-
minimizing) recurrence and kappa2 = alpha'/l x kappa1, so both derivatives
are purely tangential:  kappa' = -(kappa . alpha'') alpha' / l^2.

Lateral surface chart:

    Phi(eta, theta) = alpha(eta) + beta_eta(theta),
    beta_eta(theta) = r (kappa1(eta) sin(theta) + kappa2(eta) cos(theta)),

theta in (-pi, pi], sampled uniformly with periodic trapezoid weights.
The collar extension Phi_hat(eta, theta, s) = alpha(eta) + (1+s) beta
is inverted by psi_hat without a 3x3 Newton: eta is the stationary point
of (p - alpha(eta)) . alpha'(eta) (1D Newton), after which theta and s
follow from decomposing p - alpha(eta) in the frame.

The chart normal points out of the tube (into the field region); for a
straight cylinder along z it is (sin t, cos t, 0).

Collar window
-------------
One rule decides which points a cable's collar chart may invert; every
caller (is_inside_tube, classify_point, coupling.lift_voltage) goes
through ``collar_candidates``.

  * The extended chart domain is eta in [-ETA_PAD, 1 + ETA_PAD].  build_frame
    propagates the frame over it, and nearest_curve_sample finds the exact
    nearest of its CURVE_SAMPLES uniform samples of alpha, scanning only the
    sample blocks whose chord can hold it.
  * Newton (nearest_parameter_batch) starts at the nearest sample and stays
    within two sample steps of it, NEWTON_SLACK in eta.  collar_candidates
    returns each candidate's nearest-sample eta with it, and is_inside_tube
    and TubeChart.psi_hat start Newton there, so no point is queried twice.
  * A point is a candidate for collar radius r (1 + s_max) and axial reach
    when its nearest sample lies within r (1 + s_max) + l NEWTON_SLACK and
    that sample's eta within [-reach - NEWTON_SLACK, 1 + reach + NEWTON_SLACK].
    Both bounds contain every point whose Newton result lies in the region.
  * The collar cutoff chi vanishes beyond cutoff_reach(eps) = 2 eps / 3, in s
    and past the cable ends in eta.  check_collar_halfwidth requires
    cutoff_reach(eps) + 2 NEWTON_SLACK <= ETA_PAD, i.e. eps <= 0.6527, so the
    Newton of every candidate stays inside the sampled domain; build_chart,
    hence every chart, and GeometrySpec apply it.
  * A caller that needs only s >= s_min (the lift: s_min = -2 eps / 3) also
    drops points whose nearest sample lies within r (1 + s_min).  The
    sample distance is never below the distance to the curve, so every
    dropped point has s < s_min.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, GeometryError

_CURVATURE_SLACK = 1.0 - 1e-6   # strictness margin on the curvature bound
_ARCLEN_TOL = 1e-6              # relative tolerance on |alpha'| = l
_SPLINE_NODES = 2049            # SplineCurve: equal-arclength nodes of the resampled spline
_ARC_GAUSS_POINTS = 8           # SplineCurve arclength: Gauss-Legendre points per piece,
_ARC_PIECES = 4                 # pieces per knot interval,
_ARC_NEWTON_TOL = 1e-14         # relative residual of the equal-arclength nodes
_ARC_NEWTON_MAX = 50            # and the Newton iteration cap

ETA_PAD = 0.45                  # extended chart domain [-ETA_PAD, 1 + ETA_PAD]
CURVE_SAMPLES = 512             # uniform samples of alpha on that domain
NEWTON_SLACK = 2.0 * (1.0 + 2.0 * ETA_PAD) / (CURVE_SAMPLES - 1)   # two sample steps
COLLAR_MAX = 1.5 * (ETA_PAD - 2.0 * NEWTON_SLACK)   # largest admissible eps
_FRAME_STEP = 1.0 / 1024.0      # coarsest frame propagation step
_REFLECT_BLOCK = 64             # frame samples converted to floats at a time
_SAMPLE_BLOCK = 32              # curve samples per chord of nearest_curve_sample
_QUERY_CHUNK = 1024             # points per pass of nearest_curve_sample
_VALIDATE_SAMPLES = 512         # curve samples of validate_curve and validate_geometry
_PAIR_ROWS = 16                 # pair-clearance rows per block: 64 KiB temporaries, not 2 MiB


def cutoff_reach(eps: float) -> float:
    """Support of the collar cutoff chi, in s and past the ends in eta."""
    return 2.0 * eps / 3.0


def check_collar_halfwidth(eps: float) -> None:
    """Raise ConfigError unless 0 < eps <= COLLAR_MAX (the collar window rule)."""
    if not (0.0 < eps <= COLLAR_MAX):
        raise ConfigError(
            f"collar_halfwidth must lie in (0, {COLLAR_MAX:.4f}]: its cutoff reach "
            "2 eps / 3 must fit inside the collar chart's eta window")


# ---------------------------------------------------------------------------
# center curves
# ---------------------------------------------------------------------------

class CableCurve:
    """Base class: twice differentiable constant-speed curve with a radius.

    Subclasses implement alpha/d1/d2 for eta arrays, valid slightly
    beyond [0,1] so the collar maps extend past the cable ends.
    ``line`` names the transmission-line component this cable carries.
    """

    radius: float
    length: float
    line: int

    def alpha(self, eta: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def d1(self, eta: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def d2(self, eta: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # -- shared helpers -----------------------------------------------------

    def nearest_parameter_batch(self, pts: np.ndarray, eta: np.ndarray = None):
        """Stationary parameters of |p - alpha(eta)|^2 near their coarse
        argmin, for every point p of a cloud.

        The coarse argmin is the nearest curve sample (``nearest_curve_sample``),
        or ``eta`` when the caller already holds those sample parameters.
        Newton on g(eta) = (p - alpha) . alpha' then runs from it, clamped to
        two samples on either side (the module's collar window); the
        curvature bound keeps g' negative for points within collar distance
        of the tube.  Returns (eta, gap, converged) with gap = p - alpha(eta);
        non-converged entries keep the best iterate so callers can decide
        whether the point matters.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if eta is None:
            eta, _ = nearest_curve_sample(self, pts)
        lo_i = np.maximum(-ETA_PAD, eta - NEWTON_SLACK)
        hi_i = np.minimum(1.0 + ETA_PAD, eta + NEWTON_SLACK)
        scale = max(1.0, self.length ** 2)
        g = np.full(pts.shape[0], np.inf)
        for _ in range(40):
            a = self.alpha(eta)
            t1 = self.d1(eta)
            t2 = self.d2(eta)
            w = pts - a
            g = (w * t1).sum(axis=1)
            gp = -(t1 * t1).sum(axis=1) + (w * t2).sum(axis=1)
            active = (np.abs(g) > 1e-12 * scale) & (gp < -1e-12 * scale)
            if not active.any():
                break
            eta = np.where(active, np.clip(eta - g / np.where(gp < 0, gp, -1.0), lo_i, hi_i), eta)
        return eta, pts - self.alpha(eta), np.abs(g) <= 1e-9 * scale


def nearest_curve_sample(curve: CableCurve, pts: np.ndarray):
    """Nearest of the CURVE_SAMPLES uniform curve samples on
    [-ETA_PAD, 1 + ETA_PAD] to every point: returns (eta, d2), the sample
    parameter and the squared distance |p - alpha(eta)|^2.

    The exact argmin of a dense point x sample scan, first index on ties,
    with d2 evaluated as that scan evaluates it.  The samples are cut into
    consecutive blocks of _SAMPLE_BLOCK, each within ``sag`` of the chord
    from its first to its last sample.  The sample at the nearest chord's
    closest point bounds the distance to the nearest sample, and only the
    blocks whose chord comes within that bound plus ``sag`` are scanned
    (one or two for a point near the cable).  Points go _QUERY_CHUNK at a
    time, so memory is linear in the number of points.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    etas = np.linspace(-ETA_PAD, 1.0 + ETA_PAD, CURVE_SAMPLES)
    samples = curve.alpha(etas)
    blocks = samples.reshape(-1, _SAMPLE_BLOCK, 3)
    nb = blocks.shape[0]
    coords = [np.ascontiguousarray(blocks[:, :, k]) for k in range(3)]
    a, chord = blocks[:, 0], blocks[:, -1] - blocks[:, 0]
    len2 = (chord * chord).sum(axis=1)
    inv = np.divide(1.0, len2, out=np.zeros_like(len2), where=len2 > 0)
    w = blocks - a[:, None]
    t = np.clip((w * chord[:, None]).sum(axis=2) * inv[:, None], 0.0, 1.0)
    sag = np.sqrt(((w - t[..., None] * chord[:, None]) ** 2).sum(axis=2).max())
    # the chord distances below are expanded; the slacks cover their roundoff
    scale = 1.0 + np.abs(samples).max() + np.abs(pts).max(initial=0.0)
    slack, slack2 = 1e-9 * scale + sag, 1e-12 * scale * scale
    a_chord, a2, chord_t, m2a_t = (a * chord).sum(axis=1), (a * a).sum(axis=1), chord.T, -2.0 * a.T
    eta, d2 = np.empty(pts.shape[0]), np.empty(pts.shape[0])
    for s in range(0, pts.shape[0], _QUERY_CHUNK):
        p = pts[s:s + _QUERY_CHUNK]
        n = p.shape[0]
        # squared distance to each chord: |p - a|^2 - t (2 (p - a) . chord - t |chord|^2)
        pc = p @ chord_t - a_chord
        t = np.clip(pc * inv, 0.0, 1.0)
        gap2 = p @ m2a_t + (p * p).sum(axis=1)[:, None] + a2 - t * (2.0 * pc - t * len2)
        near = np.argmin(gap2, axis=1)
        d = p - samples[near * _SAMPLE_BLOCK
                        + np.rint(t[np.arange(n), near] * (_SAMPLE_BLOCK - 1)).astype(np.intp)]
        bound = np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2]) + slack
        pi, bi = np.divmod(np.flatnonzero(gap2 <= (bound * bound + slack2)[:, None]), nb)
        # the scan's d2 over the candidate blocks, squares summed left to right
        dd = (p[pi, 0, None] - coords[0][bi]) ** 2
        dd += (p[pi, 1, None] - coords[1][bi]) ** 2
        dd += (p[pi, 2, None] - coords[2][bi]) ** 2
        j = dd.argmin(axis=1)
        best = dd[np.arange(pi.size), j]
        arg = bi * _SAMPLE_BLOCK + j
        if pi.size != n:
            # several blocks for some point: the least d2, the first block on ties
            start = np.r_[0, np.cumsum(np.bincount(pi, minlength=n))[:-1]]
            low = np.minimum.reduceat(best, start)
            first = np.minimum.reduceat(np.where(best == low[pi], np.arange(pi.size), pi.size),
                                        start)
            best, arg = low, arg[first]
        eta[s:s + n] = etas[arg]
        d2[s:s + n] = best
    return eta, d2


def collar_candidates(curve: CableCurve, pts: np.ndarray, s_max: float,
                      reach: float, s_min: float = -1.0):
    """Indices of the points that may invert to collar radius
    s_min <= s <= s_max with eta in [-reach, 1 + reach], and the eta of
    each one's nearest curve sample, where Newton starts
    (``TubeChart.psi_hat``, ``nearest_parameter_batch``).

    Every point whose Newton result lies in that region is kept: Newton ends
    within NEWTON_SLACK of the nearest sample's eta, and some sample lies
    within half a step, far less than l NEWTON_SLACK, of the Newton point.
    A point nearer than r (1 + s_min) to its nearest sample is nearer still
    to the curve, so it is dropped (s_min = -1 keeps every depth).  Points
    outside the samples' bounding box widened by the candidate distance
    are dropped before the sample query (``box_prefilter``).
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    rad = curve.radius * (1.0 + s_max) + curve.length * NEWTON_SLACK
    inner = curve.radius * (1.0 + s_min)
    ext = reach + NEWTON_SLACK
    samples = curve.alpha(np.linspace(-ETA_PAD, 1.0 + ETA_PAD, CURVE_SAMPLES))
    near = box_prefilter(pts, samples, rad)
    eta, d2 = nearest_curve_sample(curve, pts[near])
    keep = (d2 <= rad * rad) & (d2 >= inner * inner) & (eta >= -ext) & (eta <= 1.0 + ext)
    return near[keep], eta[keep]


def box_prefilter(pts: np.ndarray, cloud: np.ndarray, pad: float) -> np.ndarray:
    """Indices of the points inside the bounding box of ``cloud`` widened by
    ``pad``, and a further 0.1 % of it against roundoff.  Every point left
    out lies farther than ``pad`` from each point of the cloud, so a query
    within distance ``pad`` of the cloud may skip it.
    """
    pad = 1.001 * pad
    return np.nonzero(((pts >= cloud.min(axis=0) - pad)
                       & (pts <= cloud.max(axis=0) + pad)).all(axis=1))[0]


@dataclass
class StraightSegment(CableCurve):
    p0: np.ndarray
    direction: np.ndarray
    length: float
    radius: float
    line: int = 0

    def __post_init__(self):
        self.p0 = np.asarray(self.p0, dtype=float)
        d = np.asarray(self.direction, dtype=float)
        nrm = np.linalg.norm(d)
        if nrm < 1e-14:
            raise GeometryError("degenerate direction vector")
        self.direction = d / nrm

    def alpha(self, eta):
        eta = np.atleast_1d(np.asarray(eta, dtype=float))
        return self.p0 + np.outer(eta * self.length, self.direction)

    def d1(self, eta):
        eta = np.atleast_1d(np.asarray(eta, dtype=float))
        return np.broadcast_to(self.length * self.direction, (eta.size, 3)).copy()

    def d2(self, eta):
        eta = np.atleast_1d(np.asarray(eta, dtype=float))
        return np.zeros((eta.size, 3))


@dataclass
class CircularArc(CableCurve):
    """Arc of a circle of radius rho: alpha = c + rho(cos(phi) u + sin(phi) v)."""

    center: np.ndarray
    u: np.ndarray
    v: np.ndarray
    rho: float
    phi0: float
    phi1: float
    radius: float
    line: int = 0

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        u = np.asarray(self.u, dtype=float)
        u = u / np.linalg.norm(u)
        v = np.asarray(self.v, dtype=float)
        v = v - np.dot(v, u) * u
        nv = np.linalg.norm(v)
        if nv < 1e-12:
            raise GeometryError("arc plane vectors are collinear")
        self.u, self.v = u, v / nv
        self.length = self.rho * abs(self.phi1 - self.phi0)

    def _phi(self, eta):
        return self.phi0 + eta * (self.phi1 - self.phi0)

    def alpha(self, eta):
        eta = np.atleast_1d(np.asarray(eta, dtype=float))
        ph = self._phi(eta)
        return self.center + self.rho * (np.outer(np.cos(ph), self.u) + np.outer(np.sin(ph), self.v))

    def d1(self, eta):
        eta = np.atleast_1d(np.asarray(eta, dtype=float))
        ph = self._phi(eta)
        dphi = self.phi1 - self.phi0
        return self.rho * dphi * (np.outer(-np.sin(ph), self.u) + np.outer(np.cos(ph), self.v))

    def d2(self, eta):
        eta = np.atleast_1d(np.asarray(eta, dtype=float))
        ph = self._phi(eta)
        dphi = self.phi1 - self.phi0
        return self.rho * dphi ** 2 * (np.outer(-np.cos(ph), self.u) + np.outer(-np.sin(ph), self.v))


@dataclass
class Helix(CableCurve):
    """Helix around an axis line: radius a, axial advance b per radian."""

    base: np.ndarray
    axis: np.ndarray
    a: float
    b: float
    turns: float
    radius: float
    phase: float = 0.0
    line: int = 0

    def __post_init__(self):
        self.base = np.asarray(self.base, dtype=float)
        ax = np.asarray(self.axis, dtype=float)
        ax = ax / np.linalg.norm(ax)
        self.axis = ax
        ref = np.eye(3)[int(np.argmin(np.abs(ax)))]
        u = ref - np.dot(ref, ax) * ax
        self._u = u / np.linalg.norm(u)
        self._v = np.cross(ax, self._u)
        self._omega = 2.0 * np.pi * self.turns
        self.length = self._omega * np.hypot(self.a, self.b)

    def _ang(self, eta):
        return self.phase + self._omega * eta

    def alpha(self, eta):
        eta = np.atleast_1d(np.asarray(eta, dtype=float))
        ph = self._ang(eta)
        radial = np.outer(np.cos(ph), self._u) + np.outer(np.sin(ph), self._v)
        return self.base + self.a * radial + np.outer(self.b * self._omega * eta, self.axis)

    def d1(self, eta):
        eta = np.atleast_1d(np.asarray(eta, dtype=float))
        ph = self._ang(eta)
        tang = np.outer(-np.sin(ph), self._u) + np.outer(np.cos(ph), self._v)
        return self._omega * (self.a * tang + np.outer(np.ones(eta.size) * self.b, self.axis))

    def d2(self, eta):
        eta = np.atleast_1d(np.asarray(eta, dtype=float))
        ph = self._ang(eta)
        radial = np.outer(np.cos(ph), self._u) + np.outer(np.sin(ph), self._v)
        return -self._omega ** 2 * self.a * radial


class SplineCurve(CableCurve):
    """C^2 cubic spline through control points, reparameterized to
    constant speed on a dense grid of _SPLINE_NODES equal-arclength nodes.

    The chord-length spline is a cubic on each knot interval, so its speed
    is smooth there: the arclength is integrated by _ARC_GAUSS_POINTS-point
    Gauss-Legendre on _ARC_PIECES equal pieces of each interval, and the
    equal-arclength nodes are found by Newton on that arclength, run until
    the arclength residual is below _ARC_NEWTON_TOL relative.
    """

    def __init__(self, points: np.ndarray, radius: float, line: int = 0):
        # imported here: scipy.interpolate (and the scipy.optimize it pulls
        # in) would otherwise cost every import of the package
        from scipy.interpolate import CubicSpline

        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 4:
            raise GeometryError("spline needs at least 4 control points of shape (m,3)")
        self.radius = float(radius)
        self.line = line
        # chord-length parameterization, then arclength inversion
        seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        if seg.min() <= 1e-14:
            raise GeometryError("degenerate tangent: repeated control points")
        chord = np.r_[0.0, np.cumsum(seg)] / seg.sum()
        raw = CubicSpline(chord, pts, axis=0)
        speed = np.linalg.norm(raw(np.linspace(0.0, 1.0, 16 * _SPLINE_NODES), 1), axis=1)
        if speed.min() < 1e-12 * seg.sum():
            raise GeometryError("degenerate tangent along spline")
        gx, gw = np.polynomial.legendre.leggauss(_ARC_GAUSS_POINTS)
        edges = np.r_[np.linspace(chord[:-1], chord[1:], _ARC_PIECES + 1)[:-1].T.ravel(), 1.0]

        def arc(a, b):
            """Arclength from a to b, both inside one piece."""
            half = 0.5 * (b - a)
            t = (0.5 * (a + b))[:, None] + half[:, None] * gx
            return half * (np.linalg.norm(raw(t.ravel(), 1), axis=1).reshape(t.shape) @ gw)

        cum = np.r_[0.0, np.cumsum(arc(edges[:-1], edges[1:]))]
        self.length = float(cum[-1])
        targets = np.linspace(0.0, self.length, _SPLINE_NODES)
        t_of_s = np.interp(targets, cum, edges)
        for _ in range(_ARC_NEWTON_MAX):
            piece = np.clip(np.searchsorted(edges, t_of_s, side="right") - 1, 0, edges.size - 2)
            res = cum[piece] + arc(edges[piece], t_of_s) - targets
            if np.abs(res).max() <= _ARC_NEWTON_TOL * self.length:
                break
            t_of_s = np.clip(t_of_s - res / np.linalg.norm(raw(t_of_s, 1), axis=1), 0.0, 1.0)
        self._spline = CubicSpline(np.linspace(0.0, 1.0, _SPLINE_NODES), raw(t_of_s),
                                   axis=0, extrapolate=True)

    def alpha(self, eta):
        eta = np.atleast_1d(np.asarray(eta, dtype=float))
        return self._spline(eta)

    def d1(self, eta):
        eta = np.atleast_1d(np.asarray(eta, dtype=float))
        return self._spline(eta, 1)

    def d2(self, eta):
        eta = np.atleast_1d(np.asarray(eta, dtype=float))
        return self._spline(eta, 2)


def validate_curve(curve: CableCurve) -> dict:
    """Arclength-constancy and curvature-bound report for one cable, at
    _VALIDATE_SAMPLES samples."""
    eta = np.linspace(0.0, 1.0, _VALIDATE_SAMPLES)
    speed = np.linalg.norm(curve.d1(eta), axis=1)
    acc = np.linalg.norm(curve.d2(eta), axis=1)
    l = curve.length
    arc_err = float(np.abs(speed - l).max() / l)
    curv_bound = _CURVATURE_SLACK * l * l / curve.radius
    curv_margin = float((curv_bound - acc).min())
    closed = bool(np.linalg.norm(curve.alpha(np.array([0.0]))[0]
                                 - curve.alpha(np.array([1.0]))[0]) < 2 * curve.radius)
    return {
        "arclength_ok": arc_err <= _ARCLEN_TOL,
        "arclength_rel_err": arc_err,
        "curvature_ok": curv_margin > 0.0,
        "curvature_margin": curv_margin,
        "open_curve_ok": not closed,
    }


# ---------------------------------------------------------------------------
# adapted frames (rotation minimizing)
# ---------------------------------------------------------------------------

@dataclass
class AdaptedFrame:
    """Samples of kappa1 of the twist-free frame along a cable curve; ``at``
    completes the frame with t and kappa2 = t x kappa1 at each query."""

    curve: CableCurve
    eta: np.ndarray          # (m,) includes any collar extension
    kappa1: np.ndarray       # (m,3)

    def tangent(self, eta):
        d = self.curve.d1(np.atleast_1d(eta))
        return d / np.linalg.norm(d, axis=1, keepdims=True)

    def at(self, eta):
        """Frame (t, kappa1, kappa2) at query parameters.

        Linear interpolation of the stored samples followed by projection
        back onto the orthonormal constraint; exact at sample points.
        """
        eta_q = np.atleast_1d(np.asarray(eta, dtype=float))
        t = self.tangent(eta_q)
        k1 = np.empty((eta_q.size, 3))
        for c in range(3):
            k1[:, c] = np.interp(eta_q, self.eta, self.kappa1[:, c])
        k1 -= (k1 * t).sum(axis=1, keepdims=True) * t
        nrm = np.linalg.norm(k1, axis=1, keepdims=True)
        if nrm.min() < 1e-8:
            raise GeometryError("frame interpolation degenerated")
        k1 /= nrm
        k2 = np.cross(t, k1)
        return t, k1, k2

    def frame_derivatives(self, eta):
        """d/deta of kappa1, kappa2: purely tangential for an RMF."""
        eta_q = np.atleast_1d(np.asarray(eta, dtype=float))
        _, k1, k2 = self.at(eta_q)
        d1 = self.curve.d1(eta_q)
        d2 = self.curve.d2(eta_q)
        l2 = (d1 * d1).sum(axis=1, keepdims=True)
        dk1 = -((k1 * d2).sum(axis=1, keepdims=True)) * d1 / l2
        dk2 = -((k2 * d2).sum(axis=1, keepdims=True)) * d1 / l2
        return dk1, dk2


def _double_reflection(points, tangents, r0):
    """Propagate the normal r0 along the samples (Wang et al. 2008).

    The recurrence is sequential, so it runs on 3-tuples of Python floats:
    per-step numpy calls on 3-vectors cost several times the arithmetic.
    Samples are converted a block at a time, so few float objects are
    alive at once and the interpreter's small-object arenas do not grow.
    """
    normals = np.empty_like(points)
    r = tuple(float(v) for v in r0)
    normals[0] = r
    for i0 in range(0, points.shape[0] - 1, _REFLECT_BLOCK):
        pts = points[i0:i0 + _REFLECT_BLOCK + 1].tolist()
        tans = tangents[i0:i0 + _REFLECT_BLOCK + 1].tolist()
        block = []
        for (px, py, pz), (qx, qy, qz), (tx, ty, tz), tn in zip(pts, pts[1:], tans, tans[1:]):
            vx, vy, vz = qx - px, qy - py, qz - pz
            c1 = vx * vx + vy * vy + vz * vz
            if c1 >= 1e-30:
                f = (2.0 / c1) * (vx * r[0] + vy * r[1] + vz * r[2])
                r = (r[0] - f * vx, r[1] - f * vy, r[2] - f * vz)
                f = (2.0 / c1) * (vx * tx + vy * ty + vz * tz)
                wx, wy, wz = tn[0] - (tx - f * vx), tn[1] - (ty - f * vy), tn[2] - (tz - f * vz)
                c2 = wx * wx + wy * wy + wz * wz
                if c2 >= 1e-30:
                    f = (2.0 / c2) * (wx * r[0] + wy * r[1] + wz * r[2])
                    r = (r[0] - f * wx, r[1] - f * wy, r[2] - f * wz)
            block.append(r)
        normals[i0 + 1:i0 + 1 + len(block)] = block
    return normals


def build_frame(curve: CableCurve, n_eta=129) -> AdaptedFrame:
    """Rotation-minimizing frame via the double-reflection recurrence.

    ``n_eta`` may be a sample count (uniform on [0,1]) or an explicit array
    of parameters; propagation runs on a refinement of the extended chart
    domain [-ETA_PAD, 1 + ETA_PAD] with steps of at most 1/1024.
    """
    rep = validate_curve(curve)
    if not (rep["arclength_ok"] and rep["curvature_ok"]):
        raise GeometryError(f"curve fails admissibility: {rep}")
    if not rep["open_curve_ok"]:
        raise GeometryError("closed cables are not supported")

    if np.isscalar(n_eta):
        requested = np.linspace(0.0, 1.0, int(n_eta))
    else:
        requested = np.sort(np.asarray(n_eta, dtype=float))
    lo = min(-ETA_PAD, requested[0])
    hi = max(1.0 + ETA_PAD, requested[-1])
    n_fine = int(np.ceil((hi - lo) / _FRAME_STEP)) + 1
    grid = np.unique(np.concatenate([np.linspace(lo, hi, n_fine), requested]))

    pts = curve.alpha(grid)
    d1 = curve.d1(grid)
    speeds = np.linalg.norm(d1, axis=1)
    if speeds.min() < 1e-12 * curve.length:
        raise GeometryError("degenerate tangent along curve")
    tangents = d1 / speeds[:, None]

    # deterministic seed normal: coordinate axis most orthogonal to t(lo)
    t0 = tangents[0]
    axis = np.eye(3)[int(np.argmin(np.abs(t0)))]
    r0 = axis - np.dot(axis, t0) * t0
    r0 /= np.linalg.norm(r0)

    k1 = _double_reflection(pts, tangents, r0)
    k1 -= (k1 * tangents).sum(axis=1, keepdims=True) * tangents
    k1 /= np.linalg.norm(k1, axis=1, keepdims=True)
    return AdaptedFrame(curve=curve, eta=grid, kappa1=k1)


# ---------------------------------------------------------------------------
# lateral-surface chart with collar
# ---------------------------------------------------------------------------

def smooth_bump(s, eps: float):
    """C^2 cutoff in the collar coordinate: 1 for |s| <= cutoff_reach(eps)/2,
    0 for |s| >= cutoff_reach(eps)."""
    s = np.abs(np.asarray(s, dtype=float))
    plateau = cutoff_reach(eps) / 2.0
    x = (s - plateau) / plateau
    x = np.clip(x, 0.0, 1.0)
    return 1.0 - (10.0 * x ** 3 - 15.0 * x ** 4 + 6.0 * x ** 5)


@dataclass
class TubeChart:
    """Sampled lateral-surface parameterization of one cable tube."""

    curve: CableCurve
    frame: AdaptedFrame
    eta: np.ndarray          # (n_eta,) cell-midpoint samples in (0,1)
    theta: np.ndarray        # (n_theta,) uniform in (-pi, pi]
    points: np.ndarray       # (n_eta, n_theta, 3)
    jac_eta: np.ndarray      # (n_eta, n_theta, 3)
    jac_theta: np.ndarray    # (n_eta, n_theta, 3)
    normal: np.ndarray       # (n_eta, n_theta, 3), outward from the tube
    weights: np.ndarray      # (n_eta, n_theta) surface quadrature
    collar_halfwidth: float = 0.3    # build_chart's and GeometrySpec's default too

    @property
    def n_eta(self):
        return self.eta.size

    @property
    def n_theta(self):
        return self.theta.size

    @property
    def n_quad(self):
        return self.eta.size * self.theta.size

    def quad_points(self):
        return self.points.reshape(-1, 3)

    def quad_weights(self):
        return self.weights.reshape(-1)

    # -- collar maps --------------------------------------------------------

    def phi_hat(self, eta, theta, s):
        eta = np.atleast_1d(np.asarray(eta, dtype=float))
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        s = np.atleast_1d(np.asarray(s, dtype=float))
        _, k1, k2 = self.frame.at(eta)
        beta = self.curve.radius * (k1 * np.sin(theta)[:, None] + k2 * np.cos(theta)[:, None])
        return self.curve.alpha(eta) + (1.0 + s)[:, None] * beta

    def psi_hat(self, p, eta):
        """Collar coordinates (eta, theta, s), shape (n, 3), of n points near
        the lateral surface.  Newton starts at ``eta``, the parameters of
        their nearest curve samples (as ``collar_candidates`` returns them,
        or ``nearest_curve_sample``)."""
        p = np.atleast_2d(np.asarray(p, dtype=float))
        eta, w, converged = self.curve.nearest_parameter_batch(p, eta)
        if not converged.all():
            bad = p[~converged][0]
            raise GeometryError(f"collar inversion failed for point {bad.tolist()}")
        _, k1, k2 = self.frame.at(eta)
        c1 = (w * k1).sum(axis=1)
        c2 = (w * k2).sum(axis=1)
        rad = np.hypot(c1, c2)
        return np.column_stack([eta, np.arctan2(c1, c2), rad / self.curve.radius - 1.0])

    def grad_eta(self, coords):
        """Gradient of the collar eta-coordinate, shape (n, 3), at the points
        of collar coordinates ``coords`` (n, 3): row 1 of (grad Phi_hat)^-1,
        used by the chain rule when lifting voltages."""
        coords = np.atleast_2d(coords)
        r = self.curve.radius
        eta, th, s = coords[:, 0], coords[:, 1], coords[:, 2]
        _, k1, k2 = self.frame.at(eta)
        dk1, dk2 = self.frame.frame_derivatives(eta)
        sin, cos = np.sin(th)[:, None], np.cos(th)[:, None]
        beta = r * (sin * k1 + cos * k2)
        dbeta = r * (sin * dk1 + cos * dk2)
        J = np.stack([
            self.curve.d1(eta) + (1.0 + s)[:, None] * dbeta,
            (1.0 + s)[:, None] * r * (cos * k1 - sin * k2),
            beta,
        ], axis=2)
        return np.linalg.inv(J)[:, 0, :]

    def chi(self, s, eta):
        """Collar cutoff at (s, eta): radial C^2 bump, tapered axially past
        the ends by the same bump of eta's overshoot, so the lift stays
        supported inside the extended chart domain."""
        eta = np.asarray(eta, dtype=float)
        overshoot = np.maximum(0.0, np.maximum(eta - 1.0, -eta))
        return smooth_bump(s, self.collar_halfwidth) * smooth_bump(overshoot, self.collar_halfwidth)


def build_chart(curve: CableCurve, n_eta: int, n_theta: int,
                collar_halfwidth: float = TubeChart.collar_halfwidth) -> TubeChart:
    """Sample the lateral surface on cell-midpoint eta and uniform theta,
    in the curve's frame built with those eta among its samples."""
    check_collar_halfwidth(collar_halfwidth)
    eta = (np.arange(n_eta) + 0.5) / n_eta
    frame = build_frame(curve, n_eta=eta)
    theta = -np.pi + 2.0 * np.pi * np.arange(n_theta) / n_theta
    d_eta, d_theta = 1.0 / n_eta, 2.0 * np.pi / n_theta

    t, k1, k2 = frame.at(eta)
    dk1, dk2 = frame.frame_derivatives(eta)
    a = curve.alpha(eta)
    da = curve.d1(eta)
    r = curve.radius

    sin = np.sin(theta)[None, :, None]
    cos = np.cos(theta)[None, :, None]
    k1e = k1[:, None, :]
    k2e = k2[:, None, :]
    beta = r * (k1e * sin + k2e * cos)
    points = a[:, None, :] + beta
    jac_eta = da[:, None, :] + r * (dk1[:, None, :] * sin + dk2[:, None, :] * cos)
    jac_theta = r * (k1e * cos - k2e * sin)

    cross = np.cross(jac_eta, jac_theta)
    area = np.linalg.norm(cross, axis=2)
    if area.min() <= 0:
        raise GeometryError("degenerate surface Jacobian")
    normal = cross / area[:, :, None]
    # orient out of the tube
    flip = ((points - a[:, None, :]) * normal).sum(axis=2) < 0
    if flip.any():
        normal[flip] *= -1.0

    return TubeChart(
        curve=curve, frame=frame, eta=eta, theta=theta,
        points=points, jac_eta=jac_eta, jac_theta=jac_theta,
        normal=normal, weights=area * d_eta * d_theta,
        collar_halfwidth=collar_halfwidth,
    )


# ---------------------------------------------------------------------------
# full geometry: box + cables
# ---------------------------------------------------------------------------

@dataclass
class GeometrySpec:
    """Computational box with a list of cable tubes.

    Immutable after construction; charts for point classification are
    built lazily and cached.
    """

    box: np.ndarray                  # (3,2) axis-aligned bounds, meters
    cables: Sequence[CableCurve]
    collar_halfwidth: float = TubeChart.collar_halfwidth

    def __post_init__(self):
        self.box = np.asarray(self.box, dtype=float).reshape(3, 2)
        if not np.all(self.box[:, 1] > self.box[:, 0]):
            raise ConfigError("box bounds must satisfy lo < hi on every axis")
        check_collar_halfwidth(self.collar_halfwidth)
        self._charts = {}

    def chart(self, i: int, n_eta: int = 64, n_theta: int = 32) -> TubeChart:
        key = (i, n_eta, n_theta)
        if key not in self._charts:
            self._charts[key] = build_chart(self.cables[i], n_eta, n_theta,
                                            collar_halfwidth=self.collar_halfwidth)
        return self._charts[key]


def validate_geometry(spec: GeometrySpec) -> dict:
    """Evaluate all admissibility conditions at _VALIDATE_SAMPLES curve samples:
    validate's geometry report, with each cable's ``validate_curve`` report
    and containment margin under "cables".

    Containment is judged on the outer collar shell over the cutoff reach
    past both ends, a disk bundle (cable ends need no radial clearance): the
    disk of radius rho = (1 + eps) r normal to the unit tangent t at alpha
    has the coordinate extremes alpha_c +- rho sqrt(1 - t_c^2), exact in
    theta and with no frame.
    """
    eta = np.linspace(0.0, 1.0, _VALIDATE_SAMPLES)
    eps = spec.collar_halfwidth
    reach = cutoff_reach(eps)
    eta_ext = np.linspace(-reach, 1.0 + reach, _VALIDATE_SAMPLES)

    cable_reports = []
    for c in spec.cables:
        rep = validate_curve(c)
        if rep["arclength_ok"] and rep["curvature_ok"] and rep["open_curve_ok"]:
            t = c.d1(eta_ext)
            t /= np.linalg.norm(t, axis=1, keepdims=True)
            extent = (1.0 + eps) * c.radius * np.sqrt(np.maximum(1.0 - t * t, 0.0))
            centre = c.alpha(eta_ext)
            rep["containment_margin"] = float(min((centre - extent - spec.box[:, 0]).min(),
                                                  (spec.box[:, 1] - centre - extent).min()))
        else:
            rep["containment_margin"] = float("-inf")
        rep["containment_ok"] = rep["containment_margin"] > 0.0
        cable_reports.append(rep)

    clearance = np.inf
    for ci, cj in itertools.combinations(spec.cables, 2):
        ai, aj = ci.alpha(eta), cj.alpha(eta)
        # the squared sample distances, _PAIR_ROWS rows of ai at a time
        d2 = min(sum((ai[i:i + _PAIR_ROWS, None, c] - aj[None, :, c]) ** 2
                     for c in range(3)).min() for i in range(0, eta.size, _PAIR_ROWS))
        clearance = min(clearance, float(np.sqrt(d2) - (1.0 + eps) * (ci.radius + cj.radius)))

    # containment fails on a curve that fails a curve check
    disjoint_ok = clearance > 0.0
    return {"passed": disjoint_ok and all(r["containment_ok"] for r in cable_reports),
            "disjoint_ok": disjoint_ok, "min_pair_clearance": float(clearance),
            "cables": cable_reports}


def classify_point(spec: GeometrySpec, p) -> tuple:
    """Region tag of a point: ('exterior',), ('inside_tube', i),
    ('collar', i, (eta, theta, s)) or ('field',).

    Collar points have collar radius 0 <= s < collar_halfwidth and eta
    within the cutoff reach of [0, 1], the region validate_geometry checks
    for containment; deeper points with eta in [0,1] belong to the tube
    interior.  Only candidates of that collar are inverted.
    """
    p = np.asarray(p, dtype=float)
    if np.any(p < spec.box[:, 0]) or np.any(p > spec.box[:, 1]):
        return ("exterior",)
    eps = spec.collar_halfwidth
    reach = cutoff_reach(eps)
    for i, c in enumerate(spec.cables):
        near, eta = collar_candidates(c, p, eps, reach)
        if near.size == 0:
            continue
        eta, th, s = spec.chart(i).psi_hat(p, eta)[0]
        if 0.0 <= eta <= 1.0 and s < 0.0:
            return ("inside_tube", i)
        if 0.0 <= s < eps and -reach <= eta <= 1.0 + reach:
            return ("collar", i, (float(eta), float(th), float(s)))
    return ("field",)


def is_inside_tube(spec: GeometrySpec, pts: np.ndarray, i: int) -> np.ndarray:
    """Vectorized tube-interior test used when building field masks.

    The tube's collar candidates (s_max = 0, reach 0) are inverted by
    ``nearest_parameter_batch``, from the nearest samples the candidate
    test found, and tested for eta in [0, 1] and a radial distance below
    the radius; every other point is outside.
    """
    c = spec.cables[i]
    pts = np.atleast_2d(pts)
    out = np.zeros(pts.shape[0], dtype=bool)
    near, eta = collar_candidates(c, pts, 0.0, 0.0)
    if near.size == 0:
        return out
    eta, gap, _ = c.nearest_parameter_batch(pts[near], eta)
    rad = np.linalg.norm(gap, axis=1)
    out[near] = (eta >= 0.0) & (eta <= 1.0) & (rad < c.radius)
    return out
