import numpy as np
import pytest

from kgard.core import KgardSolver
from kgard.kernel import KernelParams, gram_matrix
from kgard.theory import (
    best_certificate,
    residual_oracle,
    spectral_diagnostics,
    theorem_check,
)
from oracle import residual


def _instance(seed, n=20, sigma=0.15):
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0, 1, size=n))
    gram = gram_matrix(x, KernelParams(sigma))
    return rng, gram


def _dense_ridge_hat_diag(gram, lam):
    x0 = np.hstack([gram, np.ones((gram.shape[0], 1))])
    h = x0 @ np.linalg.solve(x0.T @ x0 + lam * np.eye(x0.shape[1]), x0.T)
    return np.diag(h)


def test_ridge_leverage_matches_dense_inverse():
    _, gram = _instance(0)
    diag = spectral_diagnostics(gram, lam=0.3)
    assert np.allclose(diag.hat_diag_reg, _dense_ridge_hat_diag(gram, 0.3), atol=1e-10)


def test_ridge_leverage_strictly_below_unregularized():
    _, gram = _instance(1)
    diag = spectral_diagnostics(gram, lam=0.5)
    assert np.all(diag.hat_diag_reg < diag.hat_diag + 1e-12)
    assert np.all(diag.g_diag < 1.0)
    assert np.all(diag.g_diag > 0.0)


def test_phi_diag_bounded_by_half_sqrt_lambda():
    # lambda * s / (s^2 + lambda) is maximized at s = sqrt(lambda)
    # where it equals sqrt(lambda) / 2
    _, gram = _instance(2)
    for lam in (0.01, 1.0, 100.0):
        diag = spectral_diagnostics(gram, lam)
        assert np.max(diag.phi_diag) <= np.sqrt(lam) / 2.0 + 1e-12


def test_spectral_diagnostics_requires_positive_lambda():
    _, gram = _instance(3)
    with pytest.raises(ValueError):
        spectral_diagnostics(gram, 0.0)


def _certified_setup(seed, magnitude=800.0, n=40):
    rng = np.random.default_rng(seed)
    x = np.linspace(0, 1, n)
    gram = gram_matrix(x, KernelParams(0.1))
    alpha = np.zeros(n)
    idx = rng.choice(n, size=5, replace=False)
    alpha[idx] = rng.normal(0, 0.5, size=5)
    theta = np.append(alpha, 0.0)
    u = np.zeros(n)
    support = rng.choice(n, size=4, replace=False)
    u[support] = np.where(rng.random(4) < 0.5, -1, 1) * magnitude
    return gram, theta, u, support


def test_theorem_check_report_fields():
    gram, theta, u, _ = _certified_setup(0)
    report = theorem_check(gram, theta, u, lam=4000.0)
    min_u = np.min(np.abs(u[u != 0]))
    assert report.min_outlier == pytest.approx(min_u)
    assert report.lambda_cap == pytest.approx(
        (min_u / np.linalg.norm(theta)) ** 2 / 2.0
    )
    assert report.gamma is not None and 0 < report.gamma < 1
    assert report.sigma_max > 0


def test_theorem_check_gamma_none_above_cap():
    gram, theta, u, _ = _certified_setup(1)
    report = theorem_check(gram, theta, u, lam=4000.0)
    over = theorem_check(gram, theta, u, lam=report.lambda_cap * 1.01)
    assert over.gamma is None and not over.holds


def test_theorem_check_holds_for_large_outliers_only():
    gram, theta, u, _ = _certified_setup(2, magnitude=800.0)
    assert theorem_check(gram, theta, u, 4000.0).holds
    gram, theta, u, _ = _certified_setup(2, magnitude=30.0)
    assert not theorem_check(gram, theta, u, 4000.0).holds


def test_theorem_check_memo_keyed_by_content():
    gram, theta, u, _ = _certified_setup(4)
    before = theorem_check(gram, theta, u, 4000.0).sigma_max
    gram *= 2.0
    after = theorem_check(gram, theta, u, 4000.0).sigma_max
    x0 = np.hstack([gram, np.ones((gram.shape[0], 1))])
    assert after == float(np.linalg.svd(x0, compute_uv=False)[0])
    assert after != before


def test_theorem_check_rejects_empty_support():
    gram, theta, _, _ = _certified_setup(3)
    with pytest.raises(ValueError):
        theorem_check(gram, theta, np.zeros(gram.shape[0]), 1.0)


def _solver_residual(gram, y, lam, k):
    """Residual and support of the greedy fit after k selections."""
    sol = KgardSolver(gram, lam).fit(y, epsilon=0.0, max_selections=k)
    return residual(gram, y, sol), sol.support


def test_residual_oracle_k0_matches_ridge_solve():
    gram, theta, u, _ = _certified_setup(4)
    x0 = np.hstack([gram, np.ones((gram.shape[0], 1))])
    y = x0 @ theta + u
    r0, inter = residual_oracle(gram, theta, u, lam=4000.0, selected=[])
    r_fit, _ = _solver_residual(gram, y, 4000.0, 0)
    assert np.allclose(r0, r_fit, atol=1e-8)
    assert inter.u_k.tolist() == u.tolist()


def test_residual_oracle_matches_constrained_solve_k1_k2():
    gram, theta, u, support = _certified_setup(5)
    x0 = np.hstack([gram, np.ones((gram.shape[0], 1))])
    y = x0 @ theta + u
    for k in (1, 2):
        r_fit, picks = _solver_residual(gram, y, 4000.0, k)
        assert len(picks) == k and set(picks) <= set(support.tolist())
        rk, _ = residual_oracle(gram, theta, u, lam=4000.0, selected=picks)
        assert np.allclose(rk, r_fit, atol=1e-8)


def test_residual_oracle_zero_at_selected_coordinates():
    gram, theta, u, support = _certified_setup(6)
    picks = sorted(support.tolist())[:2]
    rk, _ = residual_oracle(gram, theta, u, lam=4000.0, selected=picks)
    assert np.max(np.abs(rk[picks])) < 1e-8


def test_residual_oracle_input_validation():
    gram, theta, u, support = _certified_setup(7)
    outside = next(j for j in range(gram.shape[0]) if u[j] == 0)
    with pytest.raises(ValueError):
        residual_oracle(gram, theta, u, 1.0, [outside])
    j = int(support[0])
    with pytest.raises(ValueError):
        residual_oracle(gram, theta, u, 1.0, [j, j])


def test_best_certificate_finds_holding_lambda():
    gram, theta, u, _ = _certified_setup(8, magnitude=900.0)
    report = best_certificate(gram, theta, u)
    assert report is not None
    assert report.holds
    assert report.lam < report.lambda_cap
    # the hoisted SVD gives the same report as a full check at that lambda
    assert report == theorem_check(gram, theta, u, report.lam)
