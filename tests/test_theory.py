import dataclasses

import numpy as np
import pytest

from kgard.core import KgardSolver
from kgard.denoise import roi_lattice
from kgard.kernel import KernelParams, gram_matrix
from kgard.noise import lattice_nodes
from kgard.theory import (
    BoundReport,
    design_sigma_max,
    spectral_diagnostics,
    theorem_check,
)
from oracle import residual, residual_oracle, theorem_check_reference


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
    with pytest.raises(ValueError, match="lambda must be positive and finite"):
        spectral_diagnostics(gram, np.inf)


def test_spectral_diagnostics_uses_the_float_it_checked():
    # the checked float was thrown away, and numpy then met the string
    _, gram = _instance(3)
    got, want = spectral_diagnostics(gram, "0.5"), spectral_diagnostics(gram, 0.5)
    for field in dataclasses.fields(got):
        assert getattr(got, field.name).tobytes() == getattr(want, field.name).tobytes()


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


def _check(gram, theta, u, lam):
    """The report of one truth, as a one-row stack."""
    return theorem_check(design_sigma_max(gram), theta[None], u[None], lam)


@pytest.mark.parametrize(
    "points, sigma",
    [
        pytest.param(roi_lattice(12), 0.3, id="roi-144"),
        pytest.param(np.linspace(0.0, 1.0, 100), 0.1, id="sweep-100"),
        pytest.param(lattice_nodes()[1], 0.2, id="lattice-256"),
    ],
)
def test_design_sigma_max_matches_numpy_svd(points, sigma):
    gram = gram_matrix(points, KernelParams(sigma))
    x0 = np.hstack([gram, np.ones((gram.shape[0], 1))])
    expected = np.linalg.svd(x0, compute_uv=False)[0]
    assert abs(design_sigma_max(gram) - expected) <= 1e-13 * expected


def test_theorem_check_report_fields():
    gram, theta, u, _ = _certified_setup(0)
    report = _check(gram, theta, u, lam=4000.0)
    min_u = np.min(np.abs(u[u != 0]))
    assert report.min_outlier[0] == pytest.approx(min_u)
    assert report.lambda_cap[0] == pytest.approx(
        (min_u / np.linalg.norm(theta)) ** 2 / 2.0
    )
    assert 0 < report.gamma[0] < 1
    assert report.sigma_max > 0


def test_theorem_check_gamma_none_above_cap():
    gram, theta, u, _ = _certified_setup(1)
    report = _check(gram, theta, u, lam=4000.0)
    over = _check(gram, theta, u, lam=report.lambda_cap[0] * 1.01)
    assert np.isnan(over.gamma[0]) and not over.holds[0]


def test_theorem_check_holds_for_large_outliers_only():
    gram, theta, u, _ = _certified_setup(2, magnitude=800.0)
    assert _check(gram, theta, u, 4000.0).holds.tolist() == [True]
    gram, theta, u, _ = _certified_setup(2, magnitude=30.0)
    assert _check(gram, theta, u, 4000.0).holds.tolist() == [False]
    # below lambda_cap gamma exists, and the certificate still fails
    below = _check(gram, theta, u, _check(gram, theta, u, 1.0).lambda_cap[0] / 4)
    assert not np.isnan(below.gamma[0]) and below.holds.tolist() == [False]


def test_theorem_check_rejects_empty_support():
    gram, theta, _, _ = _certified_setup(3)
    with pytest.raises(ValueError, match="empty support in row 0"):
        _check(gram, theta, np.zeros(gram.shape[0]), 1.0)


def test_theorem_check_rejects_bad_sigma_max():
    _, theta, u, _ = _certified_setup(10)
    for sigma_max in (np.nan, np.inf, -1.0):
        with pytest.raises(ValueError, match="sigma_max must be nonnegative and finite"):
            theorem_check(sigma_max, theta[None], u[None], 1.0)
    # an int past the largest float has no float; Python's float() raised
    # OverflowError, and a string reached the range check as a TypeError
    with pytest.raises(ValueError, match="sigma_max must convert to a float"):
        theorem_check(10**400, theta[None], u[None], 1.0)


def test_theorem_check_takes_a_sigma_max_that_converts_to_a_float():
    _, theta, u, _ = _certified_setup(10)
    report = theorem_check("1", theta[None], u[None], 1.0)
    assert type(report.sigma_max) is float
    expected = theorem_check(1.0, theta[None], u[None], 1.0)
    for field in dataclasses.fields(BoundReport):
        got, want = getattr(report, field.name), getattr(expected, field.name)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), field.name


def test_theorem_check_rejects_theta_of_wrong_length():
    gram, theta, u, _ = _certified_setup(11)
    for bad in (theta[:-1], np.append(theta, 0.0)):
        with pytest.raises(ValueError, match=r"expected theta of shape \(B, N\+1\)"):
            _check(gram, bad, u, 1.0)


def test_theorem_check_rejects_non_finite_truth():
    gram, theta, u, support = _certified_setup(12)
    for bad_theta, bad_u in (
        (np.where(theta == theta[0], np.nan, theta), u),
        (theta, np.where(np.arange(u.size) == support[0], np.inf, u)),
        (theta, np.where(np.arange(u.size) == 0, -np.inf, u)),
    ):
        with pytest.raises(ValueError, match="must be finite"):
            _check(gram, bad_theta, bad_u, 1.0)


def _bound_cases():
    """Seeded (sigma_max, theta, u, lam) cases: certified and not, gamma
    None above the cap, theta = 0 (an infinite cap) and -0.0 entries in u."""
    rng = np.random.default_rng(7)
    cases = []
    for i in range(60):
        n = int(rng.integers(1, 120))
        theta = rng.normal(0.0, 0.5, size=n + 1) * 10.0 ** rng.integers(-3, 3)
        if i % 6 == 0:
            theta[:] = 0.0
        u = np.zeros(n)
        k = int(rng.integers(1, n + 1))
        u[rng.choice(n, size=k, replace=False)] = rng.choice([-1.0, 1.0], size=k) * (
            10.0 ** rng.uniform(-1.0, 3.5, size=k)
        )
        if i % 4 == 0:
            u[u == 0] = -0.0
        lam = float(10.0 ** rng.uniform(-6.0, 4.0))
        cases.append((float(10.0 ** rng.uniform(-1.0, 2.0)), theta, u, lam))
    gram, theta, u, _ = _certified_setup(4)
    sigma_max = design_sigma_max(gram)
    cases.append((sigma_max, theta, u, 4000.0))
    cases.append((sigma_max, -theta, np.where(u == 0, -0.0, u), 4000.0))
    # ||theta|| = 1, so the cap is POW_MISROUNDED ** 2 / 2
    cases.append((1.0, np.array([1.0, 0.0, 0.0]), np.array([POW_MISROUNDED, -3.0]), 0.1))
    return cases


# glibc's pow, which Python's ** calls, squares this float one ulp away
# from x * x
POW_MISROUNDED = 1.6121007653006214


def _assert_row_is_reference(report, i, expected):
    """Row ``i`` of a report carries the bits of the per-row reference,
    with NaN for its gamma of None."""
    assert type(report.sigma_max) is float and type(report.lam) is float
    assert report.holds.dtype == bool
    for field in dataclasses.fields(BoundReport):
        got, want = getattr(report, field.name), expected[field.name]
        if field.name in ("sigma_max", "lam"):
            assert got == want, field.name
            continue
        assert got.shape == (report.holds.shape[0],), field.name
        if field.name == "holds":
            assert bool(got[i]) is want
        elif want is None:
            assert np.isnan(got[i]), field.name
        else:
            assert got[i].tobytes() == np.float64(want).tobytes(), field.name


def test_theorem_check_matches_numpy_reference_bit_for_bit():
    """Each bound case, checked as a one-row stack, carries the bits of
    the per-row reference."""
    cases = _bound_cases()
    seen = []
    for sigma_max, theta, u, lam in cases:
        report = theorem_check(sigma_max, theta[None], u[None], lam)
        expected = theorem_check_reference(sigma_max, theta, u, lam)
        _assert_row_is_reference(report, 0, expected)
        seen.append(expected)
    assert any(r["lambda_cap"] == np.inf for r in seen)
    assert any(r["gamma"] is None for r in seen)
    assert any(r["holds"] for r in seen)
    assert any(r["gamma"] is not None and not r["holds"] for r in seen)


def test_stacked_theorem_check_rows_match_1d_reports():
    """Every row of a stack of the bound cases of one N, at every case's
    sigma_max and lambda, equals the report of that row's truth alone,
    checked as a one-row stack, and the per-row reference."""
    groups = {}
    for case in _bound_cases():
        groups.setdefault(case[2].size, []).append(case)
    seen = []
    for cases in groups.values():
        thetas = np.stack([theta for _, theta, _, _ in cases])
        us = np.stack([u for _, _, u, _ in cases])
        for sigma_max, _, _, lam in cases:
            stacked = theorem_check(sigma_max, thetas, us, lam)
            for i, (theta, u) in enumerate(zip(thetas, us)):
                alone = theorem_check(sigma_max, theta[None], u[None], lam)
                for field in dataclasses.fields(BoundReport):
                    got, want = getattr(stacked, field.name), getattr(alone, field.name)
                    if field.name in ("sigma_max", "lam"):
                        assert got == want, field.name
                    else:
                        assert got[i].tobytes() == want[0].tobytes(), field.name
                expected = theorem_check_reference(sigma_max, theta, u, lam)
                _assert_row_is_reference(stacked, i, expected)
                seen.append(expected)
    assert any(len(cases) > 2 for cases in groups.values())
    assert any(r["theta_norm"] == 0 for r in seen)
    assert any(r["gamma"] is None for r in seen)
    assert any(r["holds"] for r in seen)
    assert any(r["gamma"] is not None and not r["holds"] for r in seen)
    assert any(np.signbit(u[u == 0]).any() for _, _, u, _ in _bound_cases())


def test_stacked_theorem_check_of_no_rows_is_empty():
    report = theorem_check(1.0, np.empty((0, 5)), np.empty((0, 4)), 1.0)
    assert report.holds.shape == report.gamma.shape == (0,)


SHAPES = r"expected theta of shape \(B, N\+1\) and outliers of shape \(B, N\), got"


@pytest.mark.parametrize(
    "theta, u, match",
    [
        pytest.param(np.ones((3, 5)), np.ones((2, 4)), SHAPES, id="rows"),
        pytest.param(np.ones((3, 4)), np.ones((3, 4)), SHAPES, id="length"),
        pytest.param(np.ones(5), np.ones(4), SHAPES, id="1-d"),
        pytest.param(np.ones(5), np.ones((1, 4)), SHAPES, id="1-d-theta"),
        pytest.param(np.ones((1, 5)), np.ones(4), SHAPES, id="1-d-u"),
        pytest.param(np.ones((1, 1, 5)), np.ones((1, 1, 4)), SHAPES, id="3-d"),
        pytest.param(np.ones((3, 5)), np.eye(3, 4) * [[1.0], [0.0], [1.0]],
                     "empty support in row 1", id="empty-row"),
        pytest.param(np.ones((3, 5)), np.full((3, 4), -0.0), "empty support in row 0",
                     id="negative-zero-row"),
        pytest.param(np.where(np.eye(3, 5) == 1, np.nan, 1.0), np.ones((3, 4)),
                     "must be finite", id="nan-theta"),
        pytest.param(np.ones((3, 5)), np.where(np.eye(3, 4) == 1, -np.inf, 1.0),
                     "must be finite", id="inf-u"),
    ],
)
def test_stacked_theorem_check_rejects_bad_input(theta, u, match):
    with pytest.raises(ValueError, match=match):
        theorem_check(1.0, theta, u, 1.0)


@pytest.mark.parametrize("rows", [1, 2], ids=["one-row", "2-d"])
@pytest.mark.parametrize("name", ["outliers", "theta"])
def test_theorem_check_rejects_an_overflowing_norm(rows, name):
    # finite entries whose squares sum past the largest float, after
    # rows - 1 benign rows; the test configuration turns the dot's
    # overflow warning into an error
    u = np.zeros(10)
    u[:3] = 1e200 if name == "outliers" else 1.0
    theta = np.full(11, 1e200 if name == "theta" else 1.0)
    theta = np.vstack([np.ones((rows - 1, 11)), theta])
    u = np.vstack([np.ones((rows - 1, 10)), u])
    with pytest.raises(ValueError, match=f"squared norm of the true {name} overflows"):
        theorem_check(1.0, theta, u, 1.0)


def test_theorem_check_lambda_cap_past_the_largest_float_is_inf():
    # (1e100 / 1e-100)^2 / 2 is no float; Python's ** raised OverflowError
    report = theorem_check(1.0, np.array([[1e-100, 0.0]]), np.array([[1e100]]), 1.0)
    assert report.lambda_cap.tolist() == [np.inf]


def _solver_residual(gram, y, lam, k):
    """Residual and support of the greedy fit after k selections."""
    fit = KgardSolver(gram, lam).fit(y[None], epsilon=0.0, max_selections=k)
    return residual(gram, y, fit), fit.support[0, : fit.selections[0]].tolist()


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


def test_spectral_functions_reject_an_empty_gram():
    # a 0 x 0 Gram once raised IndexError from inside both
    empty = np.zeros((0, 0))
    with pytest.raises(ValueError, match="must be square and nonempty"):
        spectral_diagnostics(empty, 1.0)
    with pytest.raises(ValueError, match="must be square and nonempty"):
        design_sigma_max(empty)


def test_theorem_check_rejects_non_finite_gram():
    gram, theta, u, _ = _certified_setup(9)
    gram[0, 1] = np.nan
    with pytest.raises(ValueError, match="gram matrix must be finite"):
        _check(gram, theta, u, 1.0)


def test_residual_oracle_input_validation():
    gram, theta, u, support = _certified_setup(7)
    outside = next(j for j in range(gram.shape[0]) if u[j] == 0)
    with pytest.raises(ValueError):
        residual_oracle(gram, theta, u, 1.0, [outside])
    j = int(support[0])
    with pytest.raises(ValueError):
        residual_oracle(gram, theta, u, 1.0, [j, j])

