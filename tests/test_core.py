import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kgard.core import (
    Dataset,
    KgardConfig,
    KgardSolver,
    NumericalError,
    RegularizerKind,
    kgard_fit,
    predict,
    _cholesky,
    _normal_matrix,
)
from kgard.kernel import KernelParams, gram_matrix
from oracle import dense_solve, design_matrix, residual, solution_vector


def _random_gram(rng, n, d=1, sigma=0.4):
    pts = rng.uniform(0, 1, size=(n, d))
    return gram_matrix(pts, KernelParams(sigma)), pts


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros(3), np.zeros(4))
    data = Dataset([0.0, 1.0], [1.0, 2.0])
    assert data.size == 2
    assert data.inputs.shape == (2, 1)


def test_config_validation():
    with pytest.raises(ValueError):
        KgardConfig(lam=0.0, epsilon=1.0)
    with pytest.raises(ValueError):
        KgardConfig(lam=1.0, epsilon=-1.0)
    with pytest.raises(ValueError):
        KgardConfig(lam=1.0, epsilon=1.0, stop_norm="l1")
    with pytest.raises(ValueError):
        KgardConfig(lam=1.0, epsilon=1.0, tikhonov_weights=[1.0, 0.0])


def test_regularized_ls_matches_dense_oracle():
    rng = np.random.default_rng(0)
    # narrow kernel keeps the Gram well conditioned so the RKHS-norm
    # variant (whose penalty vanishes along near-null directions of K)
    # stays factorizable
    gram, _ = _random_gram(rng, 20, sigma=0.05)
    y = rng.normal(size=20)
    for kind in RegularizerKind:
        sol = KgardSolver(gram, 0.5, kind).fit(y, epsilon=0.0, max_selections=0)
        expected = dense_solve(gram, y, 0.5, regularizer=kind)
        assert np.allclose(solution_vector(sol), expected, atol=1e-10)


def test_selected_identity_column_zeroes_its_residual():
    # an unregularized identity column lets the solve drive that
    # coordinate's residual to exactly zero
    rng = np.random.default_rng(1)
    gram, _ = _random_gram(rng, 15)
    y = rng.normal(size=15)
    y[7] += 50.0
    sol = KgardSolver(gram, 0.5).fit(y, epsilon=0.0, max_selections=1)
    assert sol.support == [7]
    r = residual(gram, y, sol)
    assert abs(r[7]) < 1e-9
    assert np.linalg.norm(r) > 1e-3  # other coordinates still misfit


def test_fit_matches_dense_oracle_per_selection():
    rng = np.random.default_rng(2)
    gram, _ = _random_gram(rng, 25)
    y = rng.normal(size=25)
    solver = KgardSolver(gram, 0.3)
    support = []
    for k in (1, 2, 3):
        sol = solver.fit(y, epsilon=0.0, max_selections=k)
        assert sol.support[:-1] == support  # one more selection per step
        support = sol.support
        expected = dense_solve(gram, y, 0.3, support)
        assert np.allclose(solution_vector(sol), expected, atol=1e-9)


def test_cholesky_failure_reports_pivot():
    with pytest.raises(NumericalError) as err:
        _cholesky(np.array([[1.0, 0.0], [0.0, -1.0]]))
    assert err.value.pivot == 1


def test_fit_tie_picks_smallest_index():
    # with K = I the residuals at 1 and 2 tie exactly in magnitude
    for y in ([0.0, -3.0, 3.0, 0.0], [0.0, 3.0, -3.0, 0.0]):
        sol = KgardSolver(np.eye(4), lam=1.0).fit(
            np.array(y), epsilon=0.0, max_selections=1
        )
        assert sol.support == [1]


def test_fit_recovers_planted_outliers():
    rng = np.random.default_rng(4)
    n = 60
    gram, pts = _random_gram(rng, n)
    alpha = rng.normal(0, 0.5, size=n)
    truth = gram @ alpha + 2.0
    y = truth.copy()
    planted = [5, 23, 48]
    y[planted] += np.array([30.0, -25.0, 40.0])
    solver = KgardSolver(gram, lam=1.0)
    sol = solver.fit(y, epsilon=0.0, max_selections=3)
    assert sorted(sol.support) == planted
    for j in planted:
        assert sol.outliers[j] == pytest.approx(y[j] - truth[j], abs=2.0)


def test_fit_residual_history_decreases():
    rng = np.random.default_rng(5)
    gram, _ = _random_gram(rng, 40)
    y = rng.normal(size=40)
    y[[3, 17]] += 20.0
    sol = KgardSolver(gram, lam=0.5).fit(y, epsilon=0.0, max_selections=5)
    hist = sol.residual_history
    assert all(b < a for a, b in zip(hist, hist[1:]))
    assert len(hist) == sol.iterations + 1


def test_fit_truncation_flag_and_epsilon_stop():
    rng = np.random.default_rng(6)
    gram, _ = _random_gram(rng, 30)
    y = rng.normal(size=30)
    capped = KgardSolver(gram, lam=1.0).fit(y, epsilon=0.0, max_selections=2)
    assert capped.truncated and capped.iterations == 2
    loose = KgardSolver(gram, lam=1.0).fit(y, epsilon=1e6)
    assert not loose.truncated and loose.iterations == 0


def test_fit_linf_stop_norm():
    rng = np.random.default_rng(7)
    gram, _ = _random_gram(rng, 30)
    y = rng.normal(size=30)
    y[12] += 15.0
    sol = KgardSolver(gram, lam=1.0).fit(y, epsilon=3.0, stop_norm="linf")
    fitted = gram @ sol.alpha + sol.bias
    for j, u in sol.outliers.items():
        fitted[j] += u
    assert np.max(np.abs(y - fitted)) <= 3.0


def test_fit_epsilon_fn_overrides_epsilon():
    rng = np.random.default_rng(8)
    gram, _ = _random_gram(rng, 30)
    y = rng.normal(size=30)
    calls = []

    def eps_fn(abs_r):
        calls.append(abs_r.copy())
        return float(np.max(abs_r)) + 1.0  # always satisfied

    sol = KgardSolver(gram, lam=1.0).fit(
        y, epsilon=0.0, stop_norm="linf", epsilon_fn=eps_fn
    )
    assert sol.iterations == 0
    assert len(calls) == 1 and calls[0].shape == (30,)


def test_fit_matches_dense_oracle():
    rng = np.random.default_rng(9)
    gram, _ = _random_gram(rng, 35)
    y = rng.normal(size=35)
    y[[4, 20]] += np.array([25.0, -30.0])
    sol = KgardSolver(gram, lam=0.7).fit(y, epsilon=0.0, max_selections=2)
    assert sorted(sol.support) == [4, 20]
    z = dense_solve(gram, y, 0.7, sol.support)
    assert np.allclose(sol.alpha, z[:35], atol=1e-9)
    assert sol.bias == pytest.approx(z[35], abs=1e-9)
    assert np.allclose(list(sol.outliers.values()), z[36:], atol=1e-9)


@given(
    n=st.integers(5, 60),
    sigma=st.floats(0.05, 0.6),
    lam=st.floats(1e-3, 30.0),
    k_frac=st.floats(0.0, 0.5),
    weighted=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_fit_matches_dense_oracle_property(n, sigma, lam, k_frac, weighted, seed):
    rng = np.random.default_rng(seed)
    gram, _ = _random_gram(rng, n, sigma=sigma)
    y = rng.normal(size=n)
    y[rng.choice(n, size=n // 5, replace=False)] += rng.normal(0, 20, size=n // 5)
    weights = rng.uniform(0.5, 2.0, size=n + 1) if weighted else None
    k = int(k_frac * n)
    sol = KgardSolver(gram, lam, tikhonov_weights=weights).fit(
        y, epsilon=0.0, max_selections=k
    )
    expected = dense_solve(gram, y, lam, sol.support, weights=weights)
    err = np.linalg.norm(solution_vector(sol) - expected)
    assert err <= 1e-8 * np.linalg.norm(expected)


@pytest.mark.parametrize(
    "y, max_selections, match",
    [
        ([0.0, np.nan, 0.0, 0.0], None, "finite"),
        ([0.0, np.inf, 0.0, 0.0], None, "finite"),
        ([0.0, 1.0, 0.0, 0.0], -1, "max_selections"),
        ([0.0, 1.0, 0.0, 0.0], 5, "max_selections"),
        ([1e300, -1e300, 1e300, -1e300], None, "overflows"),
    ],
    ids=["nan", "inf", "negative-cap", "cap-above-n", "overflow"],
)
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_fit_rejects_bad_input(y, max_selections, match):
    solver = KgardSolver(np.eye(4), lam=1.0)
    with pytest.raises(ValueError, match=match):
        solver.fit(np.array(y), epsilon=0.0, max_selections=max_selections)


def test_tikhonov_weights_scale_effective_penalty():
    rng = np.random.default_rng(10)
    n = 20
    gram, _ = _random_gram(rng, n, sigma=0.05)
    y = rng.normal(size=n)
    y[6] += 20.0
    w = np.ones(n + 1)
    w[:5] = np.sqrt(5.0)
    for kind in RegularizerKind:
        sol = KgardSolver(gram, 0.4, kind, tikhonov_weights=w).fit(
            y, epsilon=0.0, max_selections=2
        )
        expected = dense_solve(gram, y, 0.4, sol.support, kind, weights=w)
        assert np.allclose(solution_vector(sol), expected, atol=1e-10)
        unweighted = dense_solve(gram, y, 0.4, sol.support, kind)
        assert not np.allclose(unweighted, expected)


def test_solver_rejects_wrong_length_weights():
    gram = np.eye(5)
    KgardSolver(gram, 1.0, tikhonov_weights=np.ones(6))
    for bad in (np.ones(5), np.ones(7)):
        with pytest.raises(ValueError, match="expected 6 tikhonov_weights"):
            KgardSolver(gram, 1.0, tikhonov_weights=bad)


def test_rkhs_regularizer_uses_gram_penalty():
    rng = np.random.default_rng(11)
    gram, _ = _random_gram(rng, 15, sigma=0.05)
    y = rng.normal(size=15)
    y[3] += 20.0
    sol = KgardSolver(gram, 0.5, RegularizerKind.RKHS_NORM).fit(
        y, epsilon=0.0, max_selections=2
    )
    rkhs = dense_solve(gram, y, 0.5, sol.support, RegularizerKind.RKHS_NORM)
    assert np.allclose(solution_vector(sol), rkhs, atol=1e-10)
    coef = dense_solve(gram, y, 0.5, sol.support, RegularizerKind.COEFFICIENT_NORM)
    assert not np.allclose(rkhs, coef)


def test_b_matrix_zero_padding_for_selected_columns():
    # the normal matrix covers (alpha; c) only: selected identity
    # columns are unregularized and never enter it (the oracle tests
    # cover them)
    rng = np.random.default_rng(12)
    gram, _ = _random_gram(rng, 8)
    x0 = design_matrix(gram)
    for kind, head in (
        (RegularizerKind.COEFFICIENT_NORM, np.eye(9)),
        (RegularizerKind.RKHS_NORM, np.pad(gram, ((0, 1), (0, 1)))),
    ):
        m = _normal_matrix(gram, kind, 0.3, None)
        assert m.shape == (9, 9)
        assert np.allclose(m, x0.T @ x0 + 0.3 * head, atol=1e-14)


def _degenerate_case():
    # a very narrow kernel with a tiny ridge leaves every identity
    # column nearly in the span of [K 1]
    x = np.linspace(0, 1, 30)
    gram = gram_matrix(x, KernelParams(0.02))
    y = np.sin(2 * np.pi * x)
    y[[3, 17]] += 20.0
    return gram, y


def test_fit_stops_on_degenerate_pivot():
    gram, y = _degenerate_case()
    sol = KgardSolver(gram, 1e-12).fit(y, epsilon=0.0, max_selections=10)
    # the ridge fit already interpolates y, so no pivot clears the floor
    assert sol.iterations == 0 and not sol.truncated
    assert sol.residual_history[0] > 0.0
    r = residual(gram, y, sol)
    assert np.max(np.abs(r)) <= 1e-6 * np.linalg.norm(y)


def test_fit_pivot_failure_reports_pivot():
    gram, y = _degenerate_case()
    # the ridge no longer keeps the bias pivot of [K 1] positive
    with pytest.raises(NumericalError) as err:
        KgardSolver(gram, 1e-16).fit(y, epsilon=0.0, max_selections=10)
    assert err.value.pivot == 30


def test_kgard_fit_and_predict_end_to_end():
    rng = np.random.default_rng(13)
    x = np.linspace(0, 1, 50)
    params = KernelParams(0.2)
    gram = gram_matrix(x, params)
    truth = gram @ rng.normal(0, 0.5, size=50) + 1.0
    y = truth.copy()
    y[10] += 40.0
    config = KgardConfig(lam=0.1, epsilon=0.0, max_selections=1)
    sol = kgard_fit(Dataset(x, y), params, config)
    assert sol.support == [10]
    pred = predict(sol, x, x, params)
    assert np.sqrt(np.mean((pred - truth) ** 2)) < 0.5


def test_predict_rejects_mismatched_coefficients():
    sol = KgardSolver(np.eye(3) * 0.5 + 0.5, lam=1.0).fit(np.zeros(3), epsilon=1.0)
    with pytest.raises(ValueError):
        predict(sol, np.zeros((4, 1)), np.zeros((2, 1)), KernelParams(1.0))
