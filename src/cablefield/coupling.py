"""
Surface coupling operators between line quantities and field traces.

P_el maps per-cell samples of the voltage gradient (k lines, n cells) to
tangential 3-vector samples at the lateral-surface quadrature points of
each cable chart.  At a quadrature point with surface Jacobian
A = [d Phi/d eta, d Phi/d theta] (3x2) the column is

    A (A^T A)^{-1} (f, 0)^T,

the unique tangential field whose eta-component matches f by the chain
rule; on a straight cylinder of length l this is (f / l) * z_hat.

P_mag = M_line^{-1} P_el^T M_surf (CouplingMatrices.Pmag, M_line the line
grid's cell mass Mc) is the exact
quadrature-mass adjoint, used in assembly so the coupled block structure
stays symmetric.  assemble_P_mag builds, from the same charts and line
grid, an independent discretization of the ring integral closing around
the cable,  sum_m  g . (nu x ds),  from finite-difference tangents and
geometric normals (domain-outward, i.e. pointing at the cable axis).  It
serves only as a cross check; it agrees with the adjoint to second order
in the angular step.

The voltage lift evaluates chi * V'(eta) * grad(eta) at edge midpoints
inside the tube collar, reproducing the coupled tangential trace on the
lateral surface and vanishing outside the cutoff support.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .errors import CouplingError
from .geometry import TubeChart, collar_candidates, cutoff_reach
from .maxwell import YeeGrid
from .tline import LineGrid


@dataclass
class CouplingMatrices:
    """Discrete port operators for all cables on a shared line grid."""

    Pel: sp.csr_matrix            # (3*nq_total) x (n*k)
    Pmag: sp.csr_matrix           # (n*k) x (3*nq_total), quadrature-mass adjoint
    M_surf: sp.csr_matrix         # surface quadrature mass (3-vector samples)


def _pel_columns(chart: TubeChart) -> np.ndarray:
    """Tangential direction A (A^T A)^{-1} e_1 at every quadrature point."""
    je = chart.jac_eta.reshape(-1, 3)
    jt = chart.jac_theta.reshape(-1, 3)
    g11 = (je * je).sum(axis=1)
    g12 = (je * jt).sum(axis=1)
    g22 = (jt * jt).sum(axis=1)
    det = g11 * g22 - g12 ** 2
    if det.min() <= 0:
        raise CouplingError("rank-deficient surface Jacobian")
    # first column of A (A^T A)^{-1}
    return (je * (g22 / det)[:, None] - jt * (g12 / det)[:, None])


def assemble_P_el(charts: Sequence[TubeChart], line_grid: LineGrid) -> CouplingMatrices:
    """Assemble P_el for all cables and derive the adjoint P_mag.

    Every chart must sample eta at the line grid's cell midpoints (same
    count); its curve's ``line`` names the line component the cable feeds.
    """
    n, k = line_grid.n, line_grid.k
    cable_lines = np.array([ch.curve.line for ch in charts], dtype=int)
    if len(set(cable_lines.tolist())) != cable_lines.size:
        raise CouplingError("two cables feed the same line component")
    if cable_lines.size and (cable_lines.min() < 0 or cable_lines.max() >= k):
        raise CouplingError(f"cable line indices must lie in [0, {k})")

    rows, cols, vals, weights = [], [], [], []
    base = 0                                     # start of the chart's quad block
    for chart in charts:
        if chart.n_eta != n:
            raise CouplingError(
                f"chart eta sampling ({chart.n_eta}) must match the line grid cells ({n})")
        if np.abs(chart.eta - line_grid.cells).max() > 1e-12:
            raise CouplingError("chart eta samples are not the line cell midpoints")
        direction = _pel_columns(chart)            # (nq, 3)
        nq = chart.n_quad
        q_eta = np.repeat(np.arange(n), chart.n_theta)   # ring index per quad point
        for comp in range(3):
            rows.append(3 * (base + np.arange(nq)) + comp)
            cols.append(q_eta * k + chart.curve.line)
            vals.append(direction[:, comp])
        weights.append(chart.quad_weights())
        base += nq

    Pel = sp.csr_matrix(
        (np.concatenate(vals) if vals else np.zeros(0),
         (np.concatenate(rows) if rows else np.zeros(0, dtype=int),
          np.concatenate(cols) if cols else np.zeros(0, dtype=int))),
        shape=(3 * base, n * k),
    )
    M_surf = sp.diags(np.repeat(np.concatenate(weights) if weights else np.zeros(0), 3)).tocsr()
    M_line_inv = sp.diags(1.0 / line_grid.Mc.diagonal())
    Pmag = (M_line_inv @ Pel.T @ M_surf).tocsr()
    return CouplingMatrices(Pel=Pel, Pmag=Pmag, M_surf=M_surf)


def assemble_P_mag(charts: Sequence[TubeChart], line_grid: LineGrid) -> sp.csr_matrix:
    """Ring-integral P_mag of the charts that ``assemble_P_el`` takes, the
    independent cross check of its ``Pmag``."""
    n, k = line_grid.n, line_grid.k
    rows, cols, vals = [], [], []
    base = 0                                     # start of the chart's quad block
    for chart in charts:
        m = chart.n_theta
        pts = chart.points                       # (n_eta, m, 3)
        axis = chart.curve.alpha(chart.eta)      # (n_eta, 3)
        # finite-difference tangent along the ring (periodic, theta increasing)
        t_fd = 0.5 * (np.roll(pts, -1, axis=1) - np.roll(pts, 1, axis=1))
        nu = axis[:, None, :] - pts              # domain-outward: toward the axis
        nu = nu / np.linalg.norm(nu, axis=2, keepdims=True)
        coeff = np.cross(nu, t_fd)               # g . (nu x t) = (g x nu) . t
        q_eta = np.repeat(np.arange(n), m)
        for comp in range(3):
            rows.append(q_eta * k + chart.curve.line)
            cols.append(3 * (base + np.arange(chart.n_quad)) + comp)
            vals.append(coeff[:, :, comp].reshape(-1))
        base += chart.n_quad
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n * k, 3 * base),
    )


# ---------------------------------------------------------------------------
# voltage lifting
# ---------------------------------------------------------------------------

def check_lift_resolution(collar_halfwidth: float, radius: float, h: float) -> None:
    """CouplingError unless the collar of a cable of this radius spans at
    least two grid cells of spacing h: a thinner cutoff cannot be
    represented on the grid."""
    if collar_halfwidth * radius < 2.0 * h:
        raise CouplingError(f"collar halfwidth {collar_halfwidth * radius:.4g} m is thinner "
                            f"than two grid cells (h={h:.4g})")


def lift_voltage(chart: TubeChart, grid: YeeGrid, V: np.ndarray,
                 line_grid: LineGrid) -> np.ndarray:
    """chi * grad(V o Psi_hat) on the grid edges: one tangential value per
    global edge id, zero outside the cable's collar.

    V holds nodal samples of one line component; its cell-wise discrete
    derivative drives the tangential field.  Only the collar candidates of
    the cutoff support |s| < 2 eps / 3 (``collar_candidates``) are inverted
    by ``psi_hat``, once each, from their nearest-sample eta; the gradient
    reads the same collar coordinates.
    Raises if the collar is thinner than two grid cells
    (``check_lift_resolution``).
    """
    eps = chart.collar_halfwidth
    check_lift_resolution(eps, chart.curve.radius, grid.h)
    V = np.asarray(V)
    if V.shape != (line_grid.n + 1,):
        raise CouplingError(f"V must have {line_grid.n + 1} nodal samples")
    dV = (V[1:] - V[:-1]) * line_grid.n   # per-cell derivative, k=1 layout

    mids = grid.edge_midpoints()
    reach = cutoff_reach(eps)
    band, eta = collar_candidates(chart.curve, mids, reach, reach, s_min=-reach)

    values = np.zeros(mids.shape[0])
    if band.size:
        coords = chart.psi_hat(mids[band], eta)
        chi = chart.chi(coords[:, 2], coords[:, 0])
        live = chi > 0
        if live.any():
            sel = band[live]
            grad = chart.grad_eta(coords[live])
            cell = np.clip((coords[live, 0] * line_grid.n).astype(int), 0, line_grid.n - 1)
            dirs = grid.edge_direction(sel)
            tangential = grad[np.arange(sel.size), dirs]
            values[sel] = chi[live] * dV[cell] * tangential
    return values
