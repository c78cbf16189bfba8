import numpy as np
import pytest

from cablefield.certify import (
    PortLaw,
    build_colocated_output,
    check_admissible,
    colocation_defect,
    is_colocated,
    kernel_relation_oracle,
    sigma_matrix,
    wellposedness_constants,
)
from cablefield.errors import CertificateError


def random_admissible(rng, l, kind="strict"):
    """Port laws [W1, W2] with K = W1 W2^H + W2 W1^H of the requested type."""
    W2 = rng.standard_normal((l, l)) + 1j * rng.standard_normal((l, l))
    W2 += 3.0 * np.eye(l)
    N = rng.standard_normal((l, l)) + 1j * rng.standard_normal((l, l))
    N = 0.5 * (N - N.conj().T)
    if kind == "strict":
        K0 = rng.standard_normal((l, l)) + 1j * rng.standard_normal((l, l))
        K0 = K0 @ K0.conj().T + 0.3 * np.eye(l)
    elif kind == "skew":
        K0 = np.zeros((l, l))
    else:
        v = rng.standard_normal((l, max(1, l // 2)))
        K0 = v @ v.T
    W1 = 0.5 * (K0 + N) @ np.linalg.inv(W2.conj().T)
    return np.hstack([W1, W2])


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------

def test_admissible_examples():
    # resistive law [I, I]: strict with K = 2 I
    W = np.hstack([np.eye(2), np.eye(2)])
    rep = check_admissible(W)
    assert rep["admissible"] and rep["strict"] and not rep["skew"]
    assert abs(rep["K_eig_min"] - 2.0) < 1e-12 and abs(rep["K_eig_max"] - 2.0) < 1e-12

    # open-circuit law [I, 0]: admissible with equality (skew)
    rep = check_admissible(np.hstack([np.eye(2), np.zeros((2, 2))]))
    assert rep["admissible"] and rep["skew"] and not rep["strict"]

    # duplicated row: rank deficient
    W = np.vstack([np.ones((1, 4)), np.ones((1, 4))])
    assert not check_admissible(W)["admissible"]


def test_lemma_counterexample_rejected():
    assert not check_admissible(np.hstack([np.eye(2), -np.eye(2)]))["admissible"]


def test_lemma_agrees_with_kernel_oracle():
    rng = np.random.default_rng(0)
    for i in range(100):
        kind = ("strict", "skew", "mixed")[i % 3]
        l = 2 + (i % 2) * 2
        W = random_admissible(rng, l, kind)
        W1, W2 = W[:, :l], W[:, l:]
        assert check_admissible(np.hstack([W1, W2]))["admissible"]
        oracle = kernel_relation_oracle(W1, W2)
        assert oracle["maximally_dissipative"]
        assert oracle["dimension"] == l

    # and the criterion failing matches the oracle failing on the
    # canonical counterexample
    oracle = kernel_relation_oracle(np.eye(2), -np.eye(2))
    assert not oracle["dissipative"]


def test_admissibility_invariant_under_row_scaling():
    rng = np.random.default_rng(1)
    W = random_admissible(rng, 2, "strict")
    T = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) + 2 * np.eye(2)
    for probe in (W, T @ W):
        rep = check_admissible(probe)
        assert rep["admissible"] and rep["strict"]
    assert kernel_relation_oracle((T @ W)[:, :2], (T @ W)[:, 2:])["maximally_dissipative"]


@pytest.mark.parametrize("t", [1e-7, 1.0, 1e6])
def test_strictness_invariant_under_scaling(t):
    # K = 2 t^2 I is strict at every t; the margins scale with ||W_B||^2,
    # so even 1e-7 [I, I] (K = 2e-14 I) certifies, with the delta of [I, I]
    W_B = t * np.hstack([np.eye(2), np.eye(2)])
    rep = check_admissible(W_B)
    assert rep["admissible"] and rep["strict"] and not rep["skew"]
    law = PortLaw(W_B_inp=W_B, W_B_0=np.zeros((0, 4)),
                  W_C_out=build_colocated_output(W_B), k=1)
    cert = wellposedness_constants(law, hodge_min=1.0, hodge_max=1.0)
    assert cert.strict and abs(cert.delta - 2.0) <= 1e-9


# ---------------------------------------------------------------------------
# co-located outputs
# ---------------------------------------------------------------------------

def test_colocation_block_swap_seed():
    W_B = np.hstack([np.eye(2), np.zeros((2, 2))])
    W_C = build_colocated_output(W_B)
    # Sigma-unitary completion: equality in the output inequality
    assert np.abs(colocation_defect(W_B, W_C)).max() <= 1e-10
    assert np.allclose(W_C, np.hstack([np.zeros((2, 2)), np.eye(2)]), atol=1e-12)


def test_colocation_strict_seed_inequality():
    W_B = np.hstack([np.eye(2), np.eye(2)]) / np.sqrt(2.0)
    W_C = build_colocated_output(W_B)
    lam = colocation_defect(W_B, W_C)
    assert lam.max() <= 1e-10
    # no Sigma-unitary completion exists for a non-skew law: the defect
    # carries exactly the eigenvalues of -W2^-1 K W2^-H (here -2, -2)
    assert np.allclose(sorted(lam)[:2], [-2.0, -2.0], atol=1e-10)


def check_completion(W_B):
    """Assert what every completion must meet and return it: both defining
    equations to 1e-12 relative, the output inequality, cond [W_B; W_C]
    <= 1e6, and a real PortLaw.W_C_out for a real W_B."""
    l = W_B.shape[0]
    W_C = build_colocated_output(W_B)
    sig = sigma_matrix(l)
    res = max(np.abs(W_B @ sig @ W_C.conj().T - np.eye(l)).max(),
              np.abs(W_C @ sig @ W_C.conj().T).max())
    assert res <= 1e-12 * max(1.0, np.linalg.norm(W_B, 2) * np.linalg.norm(W_C, 2))
    assert colocation_defect(W_B, W_C).max() <= 1e-10
    assert np.linalg.cond(np.vstack([W_B, W_C])) <= 1e6
    law = PortLaw(W_B_inp=W_B, W_B_0=np.zeros((0, 2 * l)), W_C_out=W_C, k=l // 2)
    if not np.iscomplexobj(W_B):
        assert law.W_C_out.dtype == np.float64
    return W_C


def test_colocation_random_laws():
    rng = np.random.default_rng(2)
    for i in range(60):
        kind = ("strict", "skew", "mixed")[i % 3]
        l = (2, 4)[i % 4 == 0]
        W_B = random_admissible(rng, l, kind)
        W_C = check_completion(W_B)
        if kind == "skew":
            assert np.abs(colocation_defect(W_B, W_C)).max() <= 1e-10


# resistive rows next to imposed-current or shorted rows: K = W_B Sigma W_B^H is
# singular but nonzero
I2, I4 = np.eye(2), np.eye(4)
DIAGONAL_MIXED_LAWS = [np.hstack([I2, np.diag([1.0, 0.0])]),
                       np.hstack([np.diag([1.0, 0.0]), I2]),
                       np.hstack([I4, np.diag([1.0, 1.0, 0.0, 0.0])]),
                       np.hstack([I4, np.diag([1.0, 0.0, 1.0, 0.0])])]


def test_colocation_mixed_law_search():
    rng = np.random.default_rng(3)
    for W_B in [random_admissible(rng, 2, "mixed")] + DIAGONAL_MIXED_LAWS:
        rep = check_admissible(W_B)
        assert rep["admissible"] and not rep["strict"] and not rep["skew"]
        check_completion(W_B)


# admissible laws with a large or small row scale: admissibility does not see
# the scale, and neither may the completion's conditioning check
ROW_SCALED_LAWS = [(1e6, np.hstack([I2, I2])), (1e-7, np.hstack([I2, I2])),
                   (1e6, np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 0.0]]))]
ROW_SCALED_IDS = ["1e6-strict", "1e-7-strict", "1e6-mixed"]


@pytest.mark.parametrize("t, W0", ROW_SCALED_LAWS, ids=ROW_SCALED_IDS)
def test_colocation_row_scaled_laws(t, W0):
    # t W0 is the same law as W0, so the checks of check_completion hold,
    # with cond taken on the balanced pair [W_B / s; s W_C], s = ||W_B||_2
    check_completion(W0)
    W_B = t * W0
    W_C = build_colocated_output(W_B)
    l = W_B.shape[0]
    sig = sigma_matrix(l)
    res = max(np.abs(W_B @ sig @ W_C.conj().T - np.eye(l)).max(),
              np.abs(W_C @ sig @ W_C.conj().T).max())
    assert res <= 1e-12 * max(1.0, np.linalg.norm(W_B, 2) * np.linalg.norm(W_C, 2))
    assert colocation_defect(W_B, W_C).max() <= 1e-10
    s = np.linalg.norm(W_B, 2)
    assert np.linalg.cond(np.vstack([W_B / s, s * W_C])) <= 1e6


@pytest.mark.parametrize("W_B", [np.hstack([np.eye(2), np.eye(2)]),
                                 np.hstack([np.eye(2), np.zeros((2, 2))])]
                         + [t * W0 for t, W0 in ROW_SCALED_LAWS],
                         ids=["strict", "skew"] + ROW_SCALED_IDS)
def test_colocation_builder_checks_defining_equations(W_B, monkeypatch):
    # a completion off by a factor 1 + 1e-6 still satisfies the output
    # inequality; only the defining equations W_B Sigma W_C^H = I and
    # W_C Sigma W_C^H = 0 expose it
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: 1.000001 * inv(a))
    with pytest.raises(CertificateError, match="completion violates W_B Sigma"):
        build_colocated_output(W_B)


def test_is_colocated_roundtrip():
    for W_B in [np.hstack([np.eye(2), np.eye(2)])] + [t * W0 for t, W0 in ROW_SCALED_LAWS]:
        W_C = build_colocated_output(W_B)
        assert is_colocated(W_B, W_C[:1])
        assert is_colocated(W_B, W_C)
        assert not is_colocated(W_B, np.ones((1, 4)))
        assert not is_colocated(W_B, -W_C)


# ---------------------------------------------------------------------------
# well-posedness constants
# ---------------------------------------------------------------------------

def test_delta_oracle():
    # W1 = W2 = I: W = W2^-1 (2 I) W2^-H = 2 I, delta = 2
    law = PortLaw(
        W_B_inp=np.hstack([np.eye(2), np.eye(2)]),
        W_B_0=np.zeros((0, 4)),
        W_C_out=np.hstack([np.eye(2), np.zeros((2, 2))]),
        k=1,
    )
    cert = wellposedness_constants(law, hodge_min=1.0, hodge_max=1.0)
    assert cert.strict and abs(cert.delta - 2.0) <= 1e-12


def test_gamma_oracle_explicit_inverse():
    # W_C_out = Wtilde_C rows: gamma = || [0, I] block of the identity || = 1
    W_B = np.hstack([np.eye(2), np.eye(2)])
    Wtilde = np.hstack([np.eye(2), np.zeros((2, 2))])
    law = PortLaw(W_B_inp=W_B, W_B_0=np.zeros((0, 4)), W_C_out=Wtilde, k=1)
    cert = wellposedness_constants(law, 1.0, 1.0)
    big = np.vstack([W_B, Wtilde])
    expected = np.linalg.norm(Wtilde @ np.linalg.inv(big), 2)
    assert abs(cert.gamma - expected) <= 1e-12
    assert abs(cert.gamma - 1.0) <= 1e-12
    assert abs(cert.c_t - max(1, cert.gamma) * (1 + cert.gamma)) <= 1e-12


def test_skew_law_has_no_constants():
    law = PortLaw(
        W_B_inp=np.hstack([np.eye(2), np.zeros((2, 2))]),
        W_B_0=np.zeros((0, 4)),
        W_C_out=np.hstack([np.zeros((2, 2)), np.eye(2)]),
        k=1,
    )
    cert = wellposedness_constants(law, 1.0, 1.0)
    assert cert.skew and cert.delta is None


def test_c_t_scales_with_hodge_conditioning():
    law = PortLaw(
        W_B_inp=np.hstack([np.eye(2), np.eye(2)]),
        W_B_0=np.zeros((0, 4)),
        W_C_out=np.hstack([np.eye(2), np.zeros((2, 2))]),
        k=1,
    )
    flat = wellposedness_constants(law, 1.0, 1.0)
    steep = wellposedness_constants(law, 0.25, 4.0)
    assert steep.c == pytest.approx(4.0)
    assert steep.c_t == pytest.approx(4.0 * flat.c_t)
