"""
Finite-dimensional certification of boundary-condition matrices.

All matrices act on the stacked port z = (I_tot(0), I_tot(1), V(0), -V(1))
with the pairing Sigma = [[0, I], [I, 0]] (sigma_matrix; see assembly for
the port convention).  The one boundary object is PortLaw: the law
W_B z = (u, 0) with W_B = [W_B_inp; W_B_0] and the outputs W_C_out; the
closed loop, the certificate and the scenario all hold it.  The energy
balance needs no more: the Green identity makes the energy rate the port
power z^H Sigma z / 2 less the dissipation for every admissible law (see
sim.energy_ledger).  A completion W_C of W_B enters only the
well-posedness constants and the co-location flag of the certificate.

W_B = [W1, W2] is admissible when it has full row rank and
K = W1 W2^H + W2 W1^H >= 0, which makes the kernel relation
{(x, y) : W1 x + W2 y = 0} maximally dissipative (Re <x, y> <= 0 on an
l-dimensional relation).  Strict positivity of K gives the well-posedness
constants

    delta = lambda_min( W2^-1 K W2^-H )
    gamma = || W_C_out [W_B; Wtilde_C]^-1 ||_2,   Wtilde_C = [W2^-H, 0]
    c_t   = max(1, c) max(1, gamma) (1 + gamma)

with c the energy-norm equivalence factor sqrt(hodge_max / hodge_min).

Co-located outputs complete W_B to [W_B; W_C] with

    Sigma - [W_B; W_C]^H Sigma [W_B; W_C] <= 0;

the builder solves W_B Sigma W_C^H = I, W_C Sigma W_C^H = 0, which always
satisfies the inequality: with M = [W_B; W_C] the defect is

    Sigma - M^H Sigma M = -M^H diag(0, K) M,

congruent to -diag(0, K), so it has rank(K) negative eigenvalues and
vanishes exactly when W_B is skew (K = 0).  A true Sigma-unitary
completion cannot exist otherwise: [W_B; W_C] Sigma-unitary forces
W_B Sigma W_B^H = 0.

Two closed forms solve the defining equations.  A strict law (K > 0, so
W2 is invertible) takes Wtilde_C = [W2^-H, 0]; its defect is
-blkdiag(W2^-1 K W2^-H, 0).  Every other admissible law takes the polar
completion.  The real involution P = [[I, I], [I, -I]] / sqrt(2) has
P Sigma P = diag(I, -I), so W_B P = [G+, G-] gives

    K = G+ G+^H - G- G-^H >= 0,   G+ G+^H = (W_B W_B^H + K) / 2,

hence G+ is invertible and C = G+^-1 G- is a contraction.  With the SVD
C = U S V^H and its unitary polar factor Q = U V^H (real for real W_B),

    L = [I, -Q] P,   L Sigma L^H = I - Q Q^H = 0,
    L Sigma W_B^H = U (I + S) U^H G+^H,

which is invertible because the eigenvalues of I + S lie in [1, 2].  Then
W_C = (L Sigma W_B^H)^-1 L satisfies both equations.  For a skew law C is
unitary, Q = C, and [W_B; W_C] is exactly Sigma-unitary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import CertificateError

_EIG_TOL = 1e-10
_COMPLETION_TOL = 1e-12    # relative residual of the completion equations


def sigma_matrix(two_k: int) -> np.ndarray:
    """The indefinite port pairing [[0, I], [I, 0]] on C^{2*two_k}."""
    z = np.zeros((two_k, two_k))
    eye = np.eye(two_k)
    return np.block([[z, eye], [eye, z]])


def _split(W_B: np.ndarray):
    two_k = W_B.shape[0]
    if W_B.shape[1] != 2 * two_k:
        raise CertificateError(f"W_B must be l x 2l, got {W_B.shape}")
    return W_B[:, :two_k], W_B[:, two_k:]


@dataclass
class PortLaw:
    """Admissible boundary law on the stacked port of a k-cable system.

    W_B = [W_B_inp; W_B_0] (2k x 4k) imposes W_B z = (u, 0) with m inputs;
    W_C_out (p x 4k) reads the outputs y = W_C_out z, co-located or not.
    Construction checks the shapes and admissibility and raises
    CertificateError otherwise.
    """

    W_B_inp: np.ndarray
    W_B_0: np.ndarray
    W_C_out: np.ndarray
    k: int

    def __post_init__(self):
        four_k = 4 * self.k
        self.W_B_inp = _port_rows(self.W_B_inp, four_k, "W_B_inp")
        self.W_B_0 = _port_rows(self.W_B_0, four_k, "W_B_0")
        self.W_C_out = _port_rows(self.W_C_out, four_k, "W_C_out")
        if self.W_B_inp.shape[0] + self.W_B_0.shape[0] != 2 * self.k:
            raise CertificateError("W_B_inp and W_B_0 must stack to 2k rows")
        adm = check_admissible(self.W_B)
        if not adm["admissible"]:
            raise CertificateError(f"W_B is not admissible: {adm}")

    @property
    def W_B(self):
        return np.vstack([self.W_B_inp, self.W_B_0])

    @property
    def m(self):
        return self.W_B_inp.shape[0]

    @property
    def p(self):
        return self.W_C_out.shape[0]


def _real_if_real(W) -> np.ndarray:
    """float64 when no entry has a nonzero imaginary part, else complex128."""
    W = np.asarray(W)
    if np.iscomplexobj(W) and np.any(W.imag):
        return W.astype(complex)
    return np.asarray(W.real, dtype=float)


def _port_rows(W, four_k: int, name: str) -> np.ndarray:
    W = _real_if_real(W)
    if W.size == 0:
        return W.reshape(0, four_k)
    W = np.atleast_2d(W)
    if W.ndim != 2 or W.shape[1] != four_k:
        raise CertificateError(f"{name} must have 4k = {four_k} columns, got shape {W.shape}")
    return W


@dataclass
class Certificate:
    admissible: bool
    strict: bool
    skew: bool
    colocated: Optional[bool]
    delta: Optional[float]
    gamma: Optional[float]
    c: Optional[float]
    c_t: Optional[float]
    margins: dict = field(default_factory=dict)

    def as_dict(self):
        out = {
            "admissible": self.admissible,
            "strict": self.strict,
            "skew": self.skew,
            "colocated": self.colocated,
            "delta": self.delta,
            "gamma": self.gamma,
            "c": self.c,
            "c_t": self.c_t,
        }
        out.update({f"margin_{k}": v for k, v in self.margins.items()})
        return out


# ---------------------------------------------------------------------------
# admissibility / dissipativity
# ---------------------------------------------------------------------------

def check_admissible(W_B: np.ndarray) -> dict:
    """Full row rank and positivity of W1 W2^H + W2 W1^H, with margins.

    The eigenvalue margins are relative to ||W_B||_2^2: K is quadratic in
    W_B, so a law and its row-scaled copies get the same verdict.  A real
    W_B is checked in real arithmetic.
    """
    W_B = _real_if_real(W_B)
    W1, W2 = _split(W_B)
    sv = np.linalg.svd(W_B, compute_uv=False)
    full_rank = sv[-1] > 1e-10 * sv[0]
    K = W1 @ W2.conj().T + W2 @ W1.conj().T
    lam = np.linalg.eigvalsh(0.5 * (K + K.conj().T))
    scale = sv[0] ** 2
    psd = lam.min() >= -_EIG_TOL * scale
    return {
        "admissible": bool(full_rank and psd),
        "strict": bool(full_rank and lam.min() > _EIG_TOL * scale),
        "skew": bool(full_rank and np.abs(lam).max() <= _EIG_TOL * scale),
        "sigma_min_WB": float(sv[-1]),
        "K_eig_min": float(lam.min()),
        "K_eig_max": float(lam.max()),
    }


def kernel_relation_oracle(W1: np.ndarray, W2: np.ndarray) -> dict:
    """Relation-level check: the kernel of [W1 W2] as a set of (x, y) pairs.

    Reports whether Re<x, y> <= 0 on the kernel (dissipative) and whether
    its dimension is l (which, for a dissipative relation, is maximal:
    the form Re<x,y> has exactly l nonpositive directions).
    """
    W1 = np.asarray(W1, dtype=complex)
    W2 = np.asarray(W2, dtype=complex)
    l = W1.shape[0]
    W = np.hstack([W1, W2])
    # orthonormal kernel basis
    _, s, vh = np.linalg.svd(W)
    rank = int((s > 1e-12 * max(s[0], 1.0)).sum())
    Z = vh[rank:].conj().T
    X, Y = Z[:l], Z[l:]
    form = X.conj().T @ Y + Y.conj().T @ X
    lam = np.linalg.eigvalsh(0.5 * (form + form.conj().T))
    dissip = lam.max() <= _EIG_TOL * max(1.0, np.abs(lam).max())
    return {
        "dimension": Z.shape[1],
        "dissipative": bool(dissip),
        "maximally_dissipative": bool(dissip and Z.shape[1] == l),
        "form_eig_max": float(lam.max()) if lam.size else 0.0,
    }


# ---------------------------------------------------------------------------
# co-located outputs
# ---------------------------------------------------------------------------

def colocation_defect(W_B: np.ndarray, W_C: np.ndarray) -> np.ndarray:
    """Eigenvalues of Sigma - [W_B; W_C]^H Sigma [W_B; W_C] (want <= 0)."""
    M = np.vstack([W_B, W_C])
    sig = sigma_matrix(W_B.shape[0])
    D = sig - M.conj().T @ sig @ M
    return np.linalg.eigvalsh(0.5 * (D + D.conj().T))


def build_colocated_output(W_B: np.ndarray) -> np.ndarray:
    """Completion W_C with W_B Sigma W_C^H = I and W_C Sigma W_C^H = 0.

    Strict laws take Wtilde_C = [W2^-H, 0]; every other admissible law
    takes the polar completion (L Sigma W_B^H)^-1 L, L = [I, -Q] P with Q
    the unitary polar factor of G+^-1 G- (module docstring).  The result
    is checked against both defining equations to
    1e-12 max(1, ||W_B||_2 ||W_C||_2), the output inequality and the
    conditioning of the completion (``_completion_cond``).  A real W_B is
    completed in real arithmetic.
    """
    W_B = _real_if_real(W_B)
    adm = check_admissible(W_B)
    if not adm["admissible"]:
        raise CertificateError(f"W_B is not admissible: {adm}")
    two_k = W_B.shape[0]
    sig = sigma_matrix(two_k)

    if adm["strict"]:
        W_C = _strict_completion(W_B)
    else:
        eye = np.eye(two_k)
        P = np.block([[eye, eye], [eye, -eye]]) / np.sqrt(2.0)
        G = W_B @ P
        U, _, Vh = np.linalg.svd(np.linalg.solve(G[:, :two_k], G[:, two_k:]))
        L = np.hstack([eye, -U @ Vh]) @ P
        W_C = np.linalg.inv(L @ sig @ W_B.conj().T) @ L

    res = max(np.abs(W_B @ sig @ W_C.conj().T - np.eye(two_k)).max(),
              np.abs(W_C @ sig @ W_C.conj().T).max())
    if res > _COMPLETION_TOL * max(1.0, np.linalg.norm(W_B, 2) * np.linalg.norm(W_C, 2)):
        raise CertificateError(
            f"completion violates W_B Sigma W_C^H = I, W_C Sigma W_C^H = 0: residual {res:.3e}")
    defect = colocation_defect(W_B, W_C)
    if defect.max() > _EIG_TOL * max(1.0, np.abs(defect).max()):
        raise CertificateError(
            f"completion violates the output inequality: max eig {defect.max():.3e}")
    if _completion_cond(W_B, W_C) > 1e12:
        raise CertificateError("completion is numerically singular")
    return W_C


def _completion_cond(W_B: np.ndarray, W_C: np.ndarray) -> float:
    """cond [W_B / s; s W_C] with s = ||W_B||_2.

    Scaling W_B by t scales its completion by 1/t and leaves admissibility
    alone, but grows cond [W_B; W_C] like t^2; the balanced pair is free of
    that row scale.
    """
    s = np.linalg.norm(W_B, 2)
    return float(np.linalg.cond(np.vstack([W_B / s, s * W_C])))


def _strict_completion(W_B: np.ndarray) -> np.ndarray:
    """Wtilde_C = [W2^-H, 0], the completion of a strict law."""
    _, W2 = _split(W_B)
    return np.hstack([np.linalg.inv(W2).conj().T, np.zeros_like(W2)])


# ---------------------------------------------------------------------------
# well-posedness constants
# ---------------------------------------------------------------------------

def is_colocated(W_B: np.ndarray, W_C_out: np.ndarray) -> bool:
    """Whether W_C_out leads a co-located completion W_C of the admissible
    law W_B.

    The candidate is W_C_out itself when it has as many rows as W_B, else
    W_C_out over the trailing rows of the builder's completion.  It
    qualifies when it satisfies the output inequality with [W_B; W_C]
    invertible (``_completion_cond``).  False when W_C_out has more rows
    than W_B or the builder fails.  Real data is checked in real
    arithmetic.
    """
    W_B = _real_if_real(W_B)
    W_C = np.atleast_2d(_real_if_real(W_C_out))
    m, two_k = W_C.shape[0], W_B.shape[0]
    if m > two_k:
        return False
    if m < two_k:
        try:
            W_C = np.vstack([W_C, build_colocated_output(W_B)[m:]])
        except CertificateError:
            return False
    defect = colocation_defect(W_B, W_C)
    return bool(defect.max() <= _EIG_TOL * max(1.0, np.abs(defect).max())
                and _completion_cond(W_B, W_C) < 1e12)


def wellposedness_constants(law: PortLaw,
                            hodge_min: float, hodge_max: float) -> Certificate:
    """Certificate with delta, gamma, c, c_t for a strict port law;
    admissibility flags are reported for any law."""
    W_B = law.W_B
    adm = check_admissible(W_B)
    delta = gamma = c = c_t = None

    if adm["strict"]:
        Wtilde = _strict_completion(W_B)
        W1, W2 = _split(W_B)
        W2_inv_H = Wtilde[:, :W2.shape[0]]
        K = W1 @ W2.conj().T + W2 @ W1.conj().T
        Wmat = W2_inv_H.conj().T @ K @ W2_inv_H
        delta = float(np.linalg.eigvalsh(0.5 * (Wmat + Wmat.conj().T)).min())
        big = np.vstack([W_B, Wtilde])
        gamma = float(np.linalg.norm(law.W_C_out @ np.linalg.inv(big), 2))
        c = float(np.sqrt(hodge_max / hodge_min))
        c_t = max(1.0, c) * max(1.0, gamma) * (1.0 + gamma)

    colocated = None
    if adm["admissible"] and law.p == law.m:
        colocated = is_colocated(W_B, law.W_C_out)

    return Certificate(
        admissible=adm["admissible"],
        strict=adm["strict"],
        skew=adm["skew"],
        colocated=colocated,
        delta=delta, gamma=gamma, c=c, c_t=c_t,
        margins={
            "sigma_min_WB": adm["sigma_min_WB"],
            "K_eig_min": adm["K_eig_min"],
            "K_eig_max": adm["K_eig_max"],
        },
    )

