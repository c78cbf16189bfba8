"""
Cable geometry: curves, twist-free frames, lateral-surface charts
=================================================================

Builds a few admissible cables, validates them, constructs the
rotation-minimizing frame and lateral-surface chart, and round-trips
points through the collar coordinates.
"""

import numpy as np

from cablefield.geometry import (
    CircularArc,
    GeometrySpec,
    Helix,
    StraightSegment,
    build_chart,
    build_frame,
    classify_point,
    nearest_curve_sample,
    validate_curve,
    validate_geometry,
)

# three cable shapes sharing a radius
cables = {
    "segment": StraightSegment(p0=(0.0, 0.0, 0.0), direction=(0, 0, 1),
                               length=1.0, radius=0.05),
    "arc": CircularArc(center=np.zeros(3), u=[1, 0, 0], v=[0, 1, 0],
                       rho=0.8, phi0=0.0, phi1=1.2, radius=0.05),
    "helix": Helix(base=(0, 0, 0), axis=(0, 0, 1), a=0.4, b=0.12,
                   turns=1.5, radius=0.05),
}

print("curve admissibility")
print("-------------------")
for name, curve in cables.items():
    rep = validate_curve(curve)
    print(f"{name:8s} length={curve.length:7.4f}  arclength rel err "
          f"{rep['arclength_rel_err']:.2e}  curvature margin "
          f"{rep['curvature_margin']:+.3f}")

# frame orthonormality along the helix
curve = cables["helix"]
frame = build_frame(curve, n_eta=129)
eta = np.linspace(0, 1, 129)
t, k1, k2 = frame.at(eta)
triads = np.stack([t, k1, k2], axis=2)
gram = np.einsum("nij,nik->njk", triads, triads)
print("\nhelix frame: max orthonormality residual "
      f"{np.abs(gram - np.eye(3)).max():.2e}")

# chart and collar round trip
chart = build_chart(curve, n_eta=48, n_theta=32)
print(f"helix lateral surface area (quadrature): {chart.quad_weights().sum():.6f}")
pts = chart.phi_hat(np.array([0.3, 0.7]), np.array([0.5, -2.0]), np.array([0.1, -0.1]))
coords = chart.psi_hat(pts, nearest_curve_sample(curve, pts)[0])
print("collar round trip (eta, theta, s):")
for row in coords:
    print(f"  ({row[0]:+.6f}, {row[1]:+.6f}, {row[2]:+.6f})")

# a full two-cable configuration and point classification
spec = GeometrySpec(
    box=np.array([[-1.5, 1.5], [-1.5, 1.5], [-0.5, 1.5]]),
    cables=[
        StraightSegment(p0=(-0.6, 0.0, 0.0), direction=(0, 0, 1),
                        length=1.0, radius=0.08, line=0),
        StraightSegment(p0=(0.6, 0.0, 0.0), direction=(0, 0, 1),
                        length=1.0, radius=0.08, line=1),
    ],
)
report = validate_geometry(spec)
print(f"\ntwo-cable geometry passes: {report['passed']} "
      f"(pair clearance {report['min_pair_clearance']:.3f} m)")
for p in [(-0.6, 0.0, 0.5), (-0.6 + 0.08, 0.0, 0.5), (0.0, 0.0, 0.5), (3.0, 0, 0)]:
    print(f"  classify {p}: {classify_point(spec, np.array(p))}")
