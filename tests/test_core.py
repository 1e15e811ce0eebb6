import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

import kgard.core
from kgard.core import (
    KgardBatch,
    KgardConfig,
    KgardSolver,
    NumericalError,
    _cholesky,
    _solve_triangular,
)
from kgard.denoise import RoiConfig, auto_epsilon, roi_lattice
from kgard.kernel import KernelParams, cross_gram, gram_matrix
from kgard.noise import lattice_nodes
from kgard.theory import theorem_check
from oracle import (
    coefficient_map_reference,
    dense_solve,
    design_matrix,
    residual,
    residual_map_reference,
    solution_vector,
)


def _random_gram(rng, n, d=1, sigma=0.4):
    pts = rng.uniform(0, 1, size=(n, d))
    return gram_matrix(pts, KernelParams(sigma)), pts


def _support(fit, i=0):
    """Row i's outlier indices in selection order, as a list."""
    return fit.support[i, : fit.selections[i]].tolist()


def test_config_validation():
    with pytest.raises(ValueError):
        KgardConfig(lam=0.0, epsilon=1.0)
    with pytest.raises(ValueError):
        KgardConfig(lam=1.0, epsilon=-1.0)


def test_config_stores_the_floats_it_checked():
    cfg = KgardConfig(lam="0.2", epsilon=np.float32(10.0))
    assert (type(cfg.lam), type(cfg.epsilon)) == (float, float)
    assert (cfg.lam, cfg.epsilon) == (0.2, 10.0)


BAD_SETTINGS = [
    pytest.param(dict(lam=0.0), "lambda must be positive and finite", id="zero-lam"),
    pytest.param(dict(lam=np.inf), "lambda must be positive and finite", id="inf-lam"),
    pytest.param(dict(lam=np.nan), "lambda must be positive and finite", id="nan-lam"),
]


@pytest.mark.parametrize(
    "kwargs, match",
    BAD_SETTINGS
    + [
        pytest.param(
            dict(tikhonov_weights=-np.ones(5)), "weights must be positive and finite",
            id="negative-weights",
        ),
        pytest.param(
            dict(tikhonov_weights=np.zeros(5)), "weights must be positive and finite",
            id="zero-weights",
        ),
        pytest.param(
            dict(tikhonov_weights=[1, 1, np.nan, 1, 1]), "weights must be positive and finite",
            id="nan-weight",
        ),
        pytest.param(
            dict(tikhonov_weights=[1, 1, np.inf, 1, 1]), "weights must be positive and finite",
            id="inf-weight",
        ),
        pytest.param(dict(gram=np.ones((3, 4))), "must be square", id="non-square-gram"),
        pytest.param(dict(gram=np.zeros((0, 0))), "must be square and nonempty", id="empty-gram"),
        pytest.param(dict(gram=np.diag([1, np.nan, 1, 1])), "gram matrix must be finite",
                     id="nan-gram"),
        pytest.param(dict(gram=np.diag([1, np.inf, 1, 1])), "gram matrix must be finite",
                     id="inf-gram"),
        pytest.param(dict(lam=[]), "scalar or a nonempty 1-D sequence", id="empty-lams"),
        pytest.param(dict(lam=[[1.0, 5.0]]), "scalar or a nonempty 1-D sequence",
                     id="2d-lams"),
        pytest.param(dict(lam=[1.0, np.inf]), "lambda must be positive and finite",
                     id="inf-tier"),
        pytest.param(dict(lam=[np.nan, 1.0]), "lambda must be positive and finite",
                     id="nan-tier"),
        pytest.param(dict(lam=[1.0, -5.0]), "lambda must be positive and finite",
                     id="negative-tier"),
        pytest.param(dict(gram=np.full((4, 4), 1e200)), "normal matrix .* overflows",
                     id="overflowing-gram"),
        pytest.param(dict(lam=[1.0, 1e300], tikhonov_weights=np.full(5, 1e10)),
                     "normal matrix .* overflows at lambda 1e\\+300",
                     id="overflowing-penalty"),
    ],
)
def test_solver_rejects_bad_settings(kwargs, match):
    with pytest.raises(ValueError, match=match):
        KgardSolver(**(dict(gram=np.eye(4), lam=1.0) | kwargs))


@pytest.mark.parametrize(
    "kwargs, match",
    BAD_SETTINGS
    + [
        pytest.param(dict(epsilon=np.nan), "epsilon must be nonnegative", id="nan-epsilon"),
        pytest.param(dict(epsilon=-1.0), "epsilon must be nonnegative", id="negative-epsilon"),
    ],
)
def test_config_rejects_bad_settings(kwargs, match):
    with pytest.raises(ValueError, match=match):
        KgardConfig(**(dict(lam=1.0, epsilon=0.0) | kwargs))


# every numeric boundary converts with float(): an int too large for a
# float, a string or None is a ValueError naming the value, not an
# OverflowError or a TypeError from deep inside
NO_FLOAT_BOUNDARIES = {
    "KernelParams-sigma": ("sigma", lambda v: KernelParams(v)),
    "RoiConfig-sigma": ("sigma", lambda v: RoiConfig(sigma=v)),
    "RoiConfig-lambda0": ("lambda0", lambda v: RoiConfig(lambda0=v)),
    "RoiConfig-e0": ("e0", lambda v: RoiConfig(e0=v)),
    "auto_epsilon-e0": ("e0", lambda v: auto_epsilon(np.ones((1, 4)), v)),
    "KgardConfig-lam": ("lambda", lambda v: KgardConfig(lam=v, epsilon=1.0)),
    "KgardConfig-epsilon": ("epsilon", lambda v: KgardConfig(lam=1.0, epsilon=v)),
    "KgardSolver-lam": ("lambda", lambda v: KgardSolver(np.eye(3), v)),
    "KgardSolver-tier": ("lambda", lambda v: KgardSolver(np.eye(3), [1.0, v])),
    "fit-epsilon": ("epsilon", lambda v: KgardSolver(np.eye(3), 1.0).fit(np.ones((1, 3)), v)),
    "theorem_check-sigma_max": (
        "sigma_max", lambda v: theorem_check(v, np.ones((1, 3)), np.ones((1, 2)), 1.0)
    ),
}


@pytest.mark.parametrize("value", [10**400, -(10**400), "abc", None], ids=repr)
@pytest.mark.parametrize(
    "name, make", NO_FLOAT_BOUNDARIES.values(), ids=NO_FLOAT_BOUNDARIES.keys()
)
def test_boundary_rejects_a_value_without_a_float(name, make, value):
    with pytest.raises(ValueError, match=f"^{name} must convert to a float"):
        make(value)


def test_regularized_ls_matches_dense_oracle():
    rng = np.random.default_rng(0)
    gram, _ = _random_gram(rng, 20, sigma=0.05)
    y = rng.normal(size=20)
    fit = KgardSolver(gram, 0.5).fit(y[None], epsilon=0.0, max_selections=0)
    expected = dense_solve(gram, y, 0.5)
    assert np.allclose(solution_vector(fit), expected, atol=1e-10)


def test_selected_identity_column_zeroes_its_residual():
    # an unregularized identity column lets the solve drive that
    # coordinate's residual to exactly zero
    rng = np.random.default_rng(1)
    gram, _ = _random_gram(rng, 15)
    y = rng.normal(size=15)
    y[7] += 50.0
    fit = KgardSolver(gram, 0.5).fit(y[None], epsilon=0.0, max_selections=1)
    assert fit.support.tolist() == [[7]]
    r = residual(gram, y, fit)
    assert abs(r[7]) < 1e-9
    assert np.linalg.norm(r) > 1e-3  # other coordinates still misfit


def test_fit_matches_dense_oracle_per_selection():
    rng = np.random.default_rng(2)
    gram, _ = _random_gram(rng, 25)
    y = rng.normal(size=25)
    solver = KgardSolver(gram, 0.3)
    support = []
    for k in (1, 2, 3):
        fit = solver.fit(y[None], epsilon=0.0, max_selections=k)
        assert _support(fit)[:-1] == support  # one more selection per step
        support = _support(fit)
        expected = dense_solve(gram, y, 0.3, support)
        assert np.allclose(solution_vector(fit), expected, atol=1e-9)


def test_cholesky_failure_reports_pivot():
    with pytest.raises(NumericalError) as err:
        _cholesky(np.array([[1.0, 0.0], [0.0, -1.0]]))
    assert err.value.pivot == 1


def test_fit_tie_picks_smallest_index():
    # with K = I the residuals at 1 and 2 tie exactly in magnitude
    y = np.array([[0.0, -3.0, 3.0, 0.0], [0.0, 3.0, -3.0, 0.0]])
    fit = KgardSolver(np.eye(4), lam=1.0).fit(y, epsilon=0.0, max_selections=1)
    assert fit.support.tolist() == [[1], [1]]


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
    fit = solver.fit(y[None], epsilon=0.0, max_selections=3)
    assert sorted(_support(fit)) == planted
    for j, u in zip(fit.support[0], fit.outliers[0]):
        assert u == pytest.approx(y[j] - truth[j], abs=2.0)


def test_fit_residual_norm_decreases_with_each_selection():
    rng = np.random.default_rng(5)
    gram, _ = _random_gram(rng, 40)
    y = rng.normal(size=40)
    y[[3, 17]] += 20.0
    solver = KgardSolver(gram, lam=0.5)
    fits = [solver.fit(y[None], epsilon=0.0, max_selections=k) for k in range(6)]
    assert [fit.selections[0] for fit in fits] == list(range(6))
    for a, b in zip(fits, fits[1:]):
        assert b.residual_norm[0] < a.residual_norm[0]
        assert _support(b)[:-1] == _support(a)


def test_fit_truncation_flag_and_epsilon_stop():
    rng = np.random.default_rng(6)
    gram, _ = _random_gram(rng, 30)
    y = rng.normal(size=30)
    solver = KgardSolver(gram, lam=1.0)
    capped = solver.fit(y[None], epsilon=0.0, max_selections=2)
    assert capped.stop_reason.tolist() == ["cap"] and capped.selections.tolist() == [2]
    loose = solver.fit(y[None], epsilon=1e6)
    assert loose.stop_reason.tolist() == ["threshold"] and loose.selections.tolist() == [0]
    # plain KRR: no selection allowed, and the norm still exceeds epsilon
    krr = solver.fit(y[None], epsilon=1e-3, max_selections=0)
    assert krr.residual_norm[0] > 1e-3
    assert krr.stop_reason.tolist() == ["cap"] and krr.selections.tolist() == [0]


def test_fit_linf_stop_norm():
    rng = np.random.default_rng(7)
    gram, _ = _random_gram(rng, 30)
    y = rng.normal(size=30)
    y[12] += 15.0
    fit = KgardSolver(gram, lam=1.0).fit(y[None], epsilon=3.0, stop_norm="linf")
    assert fit.selections[0] > 0
    fitted = gram @ fit.alpha[0] + fit.bias[0]
    fitted[_support(fit)] += fit.outliers[0, : fit.selections[0]]
    assert np.max(np.abs(y - fitted)) <= 3.0


def test_fit_epsilon_callable_gives_the_threshold():
    rng = np.random.default_rng(8)
    gram, _ = _random_gram(rng, 30)
    y = rng.normal(size=30)
    calls = []

    def eps_fn(abs_r):
        calls.append(abs_r.copy())
        return float(np.max(abs_r)) + 1.0  # always satisfied

    fit = KgardSolver(gram, lam=1.0).fit(y[None], epsilon=eps_fn, stop_norm="linf")
    assert fit.selections.tolist() == [0] and fit.stop_reason.tolist() == ["threshold"]
    assert fit.epsilon.tolist() == [float(np.max(calls[0])) + 1.0]
    assert len(calls) == 1 and calls[0].shape == (1, 30)


@pytest.mark.parametrize("batched", [False, True], ids=["single", "batch"])
@pytest.mark.parametrize(
    "thresholds, match",
    [
        pytest.param(lambda rows: math.nan, "negative or NaN", id="nan"),
        pytest.param(lambda rows: np.full(rows, -1.0), "negative or NaN", id="negative"),
        pytest.param(lambda rows: np.zeros(rows + 1), "one per running row", id="wrong-length"),
        pytest.param(lambda rows: np.zeros((rows, 1)), "one per running row", id="2-d"),
    ],
)
def test_fit_rejects_bad_epsilon_callable_result(thresholds, match, batched):
    solver = KgardSolver(np.eye(4), lam=1.0)
    y = np.array([0.0, 9.0, 0.0, 3.0])
    y = np.stack([y, -y, 2 * y]) if batched else y[None]
    calls = []

    def eps_fn(abs_r):
        calls.append(abs_r.shape)
        # good thresholds at the first step, bad ones from the second on
        rows = abs_r.shape[0]
        return np.zeros(rows) if len(calls) == 1 else thresholds(rows)

    with pytest.raises(ValueError, match=match) as exc:
        solver.fit(y, epsilon=eps_fn)
    assert str(exc.value).startswith("epsilon ")
    assert len(calls) == 2


def test_fit_matches_dense_oracle():
    rng = np.random.default_rng(9)
    gram, _ = _random_gram(rng, 35)
    y = rng.normal(size=35)
    y[[4, 20]] += np.array([25.0, -30.0])
    fit = KgardSolver(gram, lam=0.7).fit(y[None], epsilon=0.0, max_selections=2)
    assert sorted(_support(fit)) == [4, 20]
    z = dense_solve(gram, y, 0.7, _support(fit))
    assert np.allclose(fit.alpha[0], z[:35], atol=1e-9)
    assert fit.bias[0] == pytest.approx(z[35], abs=1e-9)
    assert np.allclose(fit.outliers[0], z[36:], atol=1e-9)


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
    fit = KgardSolver(gram, lam, tikhonov_weights=weights).fit(
        y[None], epsilon=0.0, max_selections=k
    )
    expected = dense_solve(gram, y, lam, _support(fit), weights=weights)
    err = np.linalg.norm(solution_vector(fit) - expected)
    assert err <= 1e-8 * np.linalg.norm(expected)


@pytest.mark.parametrize(
    "y, kwargs, match",
    [
        ([0.0, np.nan, 0.0, 0.0], {}, "finite"),
        ([0.0, np.inf, 0.0, 0.0], {}, "finite"),
        ([0.0, 1.0, 0.0, 0.0], dict(max_selections=-1), "max_selections"),
        ([0.0, 1.0, 0.0, 0.0], dict(max_selections=5), "max_selections"),
        ([1e300, -1e300, 1e300, -1e300], {}, "overflows"),
        ([0.0, 1.0, 0.0, 0.0], dict(stop_norm="l1"), "stop_norm must be 'l2' or 'linf'"),
        ([0.0, 1.0, 0.0, 0.0], dict(epsilon=np.nan), "epsilon must be nonnegative"),
        ([0.0, 1.0, 0.0, 0.0], dict(epsilon=-1.0), "epsilon must be nonnegative"),
        ([0.0, 1.0, 0.0, 0.0], dict(max_selections=2.5), "max_selections must be an integer"),
        ([0.0, 1.0, 0.0, 0.0], dict(max_selections=True), "max_selections must be an integer"),
    ],
    ids=["nan", "inf", "negative-cap", "cap-above-n", "overflow", "l1-stop-norm",
         "nan-epsilon", "negative-epsilon", "float-cap", "bool-cap"],
)
def test_fit_rejects_bad_input(y, kwargs, match):
    solver = KgardSolver(np.eye(4), lam=1.0)
    with pytest.raises(ValueError, match=match):
        solver.fit(np.array([y]), **(dict(epsilon=0.0) | kwargs))


@pytest.mark.parametrize(
    "shape", [(4,), (), (1, 3), (2, 5), (1, 1, 4)], ids=["1-d", "0-d", "short", "long", "3-d"]
)
def test_fit_takes_a_stack_only(shape):
    # one fit is a one-row stack; a 1-D y and a row of the wrong length
    # (more or fewer observations than the Gram's N) raise
    with pytest.raises(ValueError, match="expected a \\(B, N\\) stack with N = 4, got shape"):
        KgardSolver(np.eye(4), lam=1.0).fit(np.ones(shape), epsilon=0.0)


@pytest.mark.parametrize(
    "y, stop_norm",
    [
        # R y is finite, its squared entries are not
        pytest.param(np.full(4, 1e160), "l2", id="l2-square"),
        # R y itself overflows to -inf in its last entry
        pytest.param(np.array([1.0, 1.0, 1.0, -1.0]) * 1.7e308, "linf", id="linf-product"),
        pytest.param(np.array([1.0, 1.0, 1.0, -1.0]) * 1.7e308, "l2", id="l2-product"),
    ],
)
@pytest.mark.parametrize("batched", [False, True], ids=["single", "batch"])
def test_fit_overflow_raises_value_error_without_a_warning(y, stop_norm, batched):
    # the test configuration turns every warning into an error, so a
    # warning ahead of the ValueError fails this test
    solver = KgardSolver(np.eye(4) * 0.5 + 0.5, 1.0)
    ys = np.stack([np.ones(4), y]) if batched else y[None]
    with pytest.raises(ValueError, match=f"initial residual's {stop_norm} norm overflows"):
        solver.fit(ys, epsilon=1.0, stop_norm=stop_norm)


@pytest.mark.parametrize("batched", [False, True], ids=["single", "batch"])
def test_fit_that_overflows_after_the_first_step_raises_value_error(batched):
    # the initial residual is finite, a later step is not; under the
    # warnings-as-errors configuration no RuntimeWarning may come first
    solver = KgardSolver(np.eye(4) * 0.5 + 0.5, 1.0)
    y = np.array([1e308, -1e308, 1e308, -1e308])
    ys = np.stack([np.ones(4), y]) if batched else y[None]
    with pytest.raises(ValueError, match="the fit overflows"):
        solver.fit(ys, epsilon=1.0, stop_norm="linf")


def _copying_cholesky(m):
    """The factorization before it worked in place: dpotrf on a copy of
    ``m``, then the lower triangle of the result."""
    c, info = scipy.linalg.lapack.dpotrf(m, lower=1, overwrite_a=0)
    assert info == 0
    return np.tril(c)


def test_cholesky_factors_in_place():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(30, 12))
    a = np.tril(x.T @ x + np.eye(12)).copy(order="F")
    expected = _copying_cholesky(a)
    factor = _cholesky(a)
    assert np.shares_memory(factor, a)
    assert factor.tobytes(order="F") == expected.tobytes(order="F")


@pytest.mark.parametrize(
    "points, sigma, lams",
    [
        pytest.param(roi_lattice(12), 0.3, [1.0, 5.0, 15.0], id="roi-144"),
        pytest.param(np.linspace(0.0, 1.0, 100), 0.1, 4000.0, id="sweep-100"),
        pytest.param(lattice_nodes()[1], 0.2, 0.15, id="lattice-256"),
    ],
)
def test_in_place_cholesky_keeps_the_maps(monkeypatch, points, sigma, lams):
    gram = gram_matrix(points, KernelParams(sigma))
    solver = KgardSolver(gram, lams)
    monkeypatch.setattr(kgard.core, "_cholesky", _copying_cholesky)
    copying = KgardSolver(gram, lams)
    assert solver._residual_map.tobytes() == copying._residual_map.tobytes()
    assert solver._coef_map.tobytes() == copying._coef_map.tobytes()


@pytest.mark.parametrize(
    "y_shape, tier, match",
    [
        ((2, 4), None, "tier is required: the solver has 2 ridge parameters"),
        ((2, 4), np.array([True, False]), "tier must be an integer array"),
        ((2, 4), np.array([0.0, 1.0]), "tier must be an integer array"),
        ((2, 4), [0, 1, 1], "tier must have shape \\(2,\\)"),
        ((2, 4), [[0, 1]], "tier must have shape"),
        ((2, 4), [0, 2], "tier must be in \\[0, 2\\)"),
        ((2, 4), [-1, 0], "tier must be in"),
    ],
    ids=["missing", "bool", "float", "too-long", "2d", "above-range", "negative"],
)
def test_fit_rejects_bad_tier(y_shape, tier, match):
    solver = KgardSolver(np.eye(4), lam=[1.0, 5.0])
    with pytest.raises(ValueError, match=match):
        solver.fit(np.ones(y_shape), epsilon=0.0, tier=tier)


def test_fit_tier_selects_the_ridge_parameter():
    rng = np.random.default_rng(29)
    gram, _ = _random_gram(rng, 25)
    y = rng.normal(size=25)
    y[[2, 11]] += 30.0
    kwargs = dict(epsilon=0.5, max_selections=4)
    solver = KgardSolver(gram, [0.5, 2.0])
    for t, lam in ((np.int32(1), 2.0), (0, 0.5)):
        expected = KgardSolver(gram, lam).fit(y[None], **kwargs)
        _assert_row_matches(solver.fit(y[None], tier=np.array([t]), **kwargs), 0, expected)
    empty = solver.fit(np.empty((0, 25)), tier=np.empty(0, dtype=int), **kwargs)
    assert empty.alpha.shape == (0, 25) and empty.support.shape == (0, 4)
    for field in (empty.bias, empty.selections, empty.residual_norm, empty.stop_reason):
        assert field.shape == (0,)
    single = KgardSolver(gram, 0.5)
    expected = single.fit(y[None], **kwargs)
    _assert_row_matches(single.fit(y[None], tier=[0], **kwargs), 0, expected)
    with pytest.raises(ValueError, match="tier must be in \\[0, 1\\)"):
        single.fit(y[None], tier=[1], **kwargs)


def test_fit_accepts_numpy_integer_cap():
    y = np.array([[0.0, 9.0, 0.0, 0.0]])
    fit = KgardSolver(np.eye(4), lam=1.0).fit(y, epsilon=0.0, max_selections=np.int64(1))
    assert fit.support.tolist() == [[1]]


# the benchmark's three Gram shapes: ROI (at its three ridge tiers),
# sweep and lattice
_BENCHMARK_GRAMS = pytest.mark.parametrize(
    "points, sigma, lam",
    [
        pytest.param(roi_lattice(12), 0.3, 1.0, id="roi-144"),
        pytest.param(roi_lattice(12), 0.3, 5.0, id="roi-144-lam5"),
        pytest.param(roi_lattice(12), 0.3, 15.0, id="roi-144-lam15"),
        pytest.param(np.linspace(0.0, 1.0, 100), 0.1, 4000.0, id="sweep-100"),
        pytest.param(lattice_nodes()[1], 0.2, 0.15, id="lattice-256"),
    ],
)
_WEIGHTED = pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])


def _benchmark_solver(points, sigma, lam, weighted):
    """A three-tier solver over the case's Gram matrix: the case's lambda
    between lambda / 3 and 3 lambda, so every slot of the stacked maps
    meets the oracle."""
    gram = gram_matrix(points, KernelParams(sigma))
    n = gram.shape[0]
    weights = np.random.default_rng(n).uniform(0.5, 2.0, size=n + 1) if weighted else None
    lams = [lam / 3.0, lam, 3.0 * lam]
    return gram, weights, lams, KgardSolver(gram, lams, tikhonov_weights=weights)


@_BENCHMARK_GRAMS
@_WEIGHTED
def test_residual_map_matches_dense_oracle(points, sigma, lam, weighted):
    # R's entries lie in [-1, 1]
    gram, weights, lams, solver = _benchmark_solver(points, sigma, lam, weighted)
    n = gram.shape[0]
    assert solver._residual_map.shape == (3, n, n)
    for r, tier_lam in zip(solver._residual_map, lams):
        assert np.array_equal(r, r.T)
        expected = residual_map_reference(gram, tier_lam, weights)
        assert np.max(np.abs(r - expected)) <= 1e-12


@_BENCHMARK_GRAMS
@_WEIGHTED
def test_coefficient_map_matches_dense_oracle(points, sigma, lam, weighted):
    gram, weights, lams, solver = _benchmark_solver(points, sigma, lam, weighted)
    n = gram.shape[0]
    assert solver._coef_map.shape == (3, n + 1, n)
    for p, tier_lam in zip(solver._coef_map, lams):
        # Fortran-ordered, as LAPACK wrote it
        assert p.flags.f_contiguous
        expected = coefficient_map_reference(gram, tier_lam, weights)
        assert np.max(np.abs(p - expected)) <= 1e-11 * np.max(np.abs(expected))


def test_tikhonov_weights_scale_effective_penalty():
    rng = np.random.default_rng(10)
    n = 20
    gram, _ = _random_gram(rng, n, sigma=0.05)
    y = rng.normal(size=n)
    y[6] += 20.0
    w = np.ones(n + 1)
    w[:5] = np.sqrt(5.0)
    fit = KgardSolver(gram, 0.4, tikhonov_weights=w).fit(y[None], epsilon=0.0, max_selections=2)
    expected = dense_solve(gram, y, 0.4, _support(fit), weights=w)
    assert np.allclose(solution_vector(fit), expected, atol=1e-10)
    unweighted = dense_solve(gram, y, 0.4, _support(fit))
    assert not np.allclose(unweighted, expected)


def test_solver_rejects_wrong_length_weights():
    gram = np.eye(5)
    KgardSolver(gram, 1.0, tikhonov_weights=np.ones(6))
    for bad in (np.ones(5), np.ones(7)):
        with pytest.raises(ValueError, match="expected 6 tikhonov_weights"):
            KgardSolver(gram, 1.0, tikhonov_weights=bad)


def test_b_matrix_zero_padding_for_selected_columns():
    # the normal matrix covers (alpha; c) only: selected identity
    # columns are unregularized and never enter it (the oracle tests
    # cover them)
    rng = np.random.default_rng(12)
    gram, _ = _random_gram(rng, 8)
    x0 = design_matrix(gram)
    w = rng.uniform(0.5, 2.0, size=9)
    for weights, head in ((None, np.eye(9)), (w, np.diag(w**2))):
        coef_map = KgardSolver(gram, 0.3, tikhonov_weights=weights)._coef_map
        expected = np.linalg.solve(x0.T @ x0 + 0.3 * head, x0.T)
        assert coef_map.shape == (1, 9, 8)
        assert np.max(np.abs(coef_map[0] - expected)) <= 1e-11 * np.max(np.abs(expected))


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
    fit = KgardSolver(gram, 1e-12).fit(y[None], epsilon=0.0, max_selections=10)
    # the ridge fit already interpolates y, so no pivot clears the floor
    assert fit.selections.tolist() == [0] and fit.stop_reason.tolist() == ["pivot"]
    assert fit.residual_norm[0] > 0.0
    r = residual(gram, y, fit)
    assert np.max(np.abs(r)) <= 1e-6 * np.linalg.norm(y)


def test_fit_pivot_failure_reports_pivot():
    gram, y = _degenerate_case()
    # the ridge no longer keeps the bias pivot of [K 1] positive
    with pytest.raises(NumericalError) as err:
        KgardSolver(gram, 1e-16).fit(y[None], epsilon=0.0, max_selections=10)
    assert err.value.pivot == 30


def test_fit_and_predict_end_to_end():
    rng = np.random.default_rng(13)
    x = np.linspace(0, 1, 50)
    params = KernelParams(0.2)
    gram = gram_matrix(x, params)
    truth = gram @ rng.normal(0, 0.5, size=50) + 1.0
    y = truth.copy()
    y[10] += 40.0
    config = KgardConfig(lam=0.1, epsilon=1.0)
    fit = KgardSolver(gram, config.lam).fit(np.stack([y, 2 * y]), epsilon=config.epsilon)
    assert _support(fit, 0) == [10]
    # KgardBatch.evaluate predicts every row at the queries of a cross-Gram
    kernel = cross_gram(np.linspace(0.1, 0.9, 7), x, params)
    pred = fit.evaluate(kernel)
    assert pred.shape == (2, 7)
    for i in range(2):  # each row is that row's expansion at the queries
        expected = kernel @ fit.alpha[i] + fit.bias[i]
        assert pred[i].tobytes() == expected.tobytes()
    assert np.sqrt(np.mean((fit.evaluate(gram)[0] - truth) ** 2)) < 0.5


def test_predict_rejects_mismatched_coefficients():
    fit = KgardSolver(np.eye(3) * 0.5 + 0.5, lam=1.0).fit(np.zeros((1, 3)), epsilon=1.0)
    for shape in [(2, 4), (2, 2), (3,), (1, 2, 3)]:
        with pytest.raises(ValueError, match=r"expected a \(Q, 3\) kernel matrix"):
            fit.evaluate(np.zeros(shape))


def _duplicate_pairs():
    # the degenerate case plus copies of points 3 and 17: the ridge fit
    # interpolates every coordinate except the difference across each
    # duplicate pair, so one selection per differing pair clears the
    # pivot floor and every later pivot falls below it
    x = np.linspace(0, 1, 30)
    pts = np.r_[x, x[3], x[17]]
    gram = gram_matrix(pts, KernelParams(0.02))
    base = np.sin(2 * np.pi * pts)
    pair = np.zeros((2, 32))
    pair[0, 3], pair[1, 17] = 20.0, -15.0
    return gram, base, pair


def _duplicate_pair_case():
    gram, base, pair = _duplicate_pairs()
    return KgardSolver(gram, 1e-12), base, pair


def _assert_row_matches(batch, i, one):
    """Row i of a batch holds the bits of the one-row fit ``one`` in
    every field, and 0 past its selections."""
    for field in dataclasses.fields(KgardBatch):
        row, alone = getattr(batch, field.name)[i], getattr(one, field.name)[0]
        assert row.tobytes() == alone.tobytes(), field.name
    k = batch.selections[i]
    assert not batch.support[i, k:].any() and not batch.outliers[i, k:].any()


@pytest.mark.parametrize("stop_norm", ["l2", "linf"])
def test_batched_fit_rows_stop_independently(stop_norm):
    solver, base, pair = _duplicate_pair_case()
    rows = np.array(
        [
            np.zeros(32),  # threshold at step 0 (r = 0)
            1e9 * base,  # pivot floor at step 0
            base + pair[0],  # threshold at step 1
            1e9 * (base + pair[0]),  # pivot floor at step 1
            base + pair.sum(axis=0),  # threshold at step 2
            1e9 * (base + pair.sum(axis=0)),  # cap at step 2
        ]
    )
    kwargs = dict(epsilon=1e-4, stop_norm=stop_norm, max_selections=2)
    batch = solver.fit(rows, **kwargs)
    assert isinstance(batch, KgardBatch) and batch.support.shape == (len(rows), 2)
    stops = list(zip(batch.selections.tolist(), batch.stop_reason.tolist()))
    assert stops == [
        (0, "threshold"), (0, "pivot"), (1, "threshold"),
        (1, "pivot"), (2, "threshold"), (2, "cap"),
    ]
    for i, y in enumerate(rows):
        _assert_row_matches(batch, i, solver.fit(y[None], **kwargs))
    # the batch's row order does not matter either
    backwards = solver.fit(rows[::-1], **kwargs)
    for i, y in enumerate(rows[::-1]):
        _assert_row_matches(backwards, i, solver.fit(y[None], **kwargs))


@pytest.mark.parametrize("gather_rows", [128, 1, 5])
def test_tiered_batch_mixes_every_stop_and_matches_single_fits(monkeypatch, gather_rows):
    # the duplicate-pair rows, each under both tiers, in one batch; the
    # rows finishing at one step are gathered in blocks of gather_rows
    monkeypatch.setattr(kgard.core, "_GATHER_ROWS", gather_rows)
    gram, base, pair = _duplicate_pairs()
    lams = [1e-12, 1e-11]
    solver = KgardSolver(gram, lams)
    rows = np.array(
        [np.zeros(32), 1e9 * base, base + pair[0], 1e9 * (base + pair[0]),
         base + pair.sum(axis=0), 1e9 * (base + pair.sum(axis=0))]
    )
    rows, tier = np.concatenate([rows, rows]), np.repeat([0, 1], len(rows))
    kwargs = dict(epsilon=1e-4, max_selections=2)
    batch = solver.fit(rows, tier=tier, **kwargs)
    assert set(batch.stop_reason.tolist()) == {"threshold", "pivot", "cap"}
    assert set(batch.selections.tolist()) == {0, 1, 2}
    for i, (y, t) in enumerate(zip(rows, tier)):
        _assert_row_matches(batch, i, KgardSolver(gram, lams[t]).fit(y[None], **kwargs))


@given(
    design=st.sampled_from(["kernel", "duplicate-pairs"]),
    rows=st.integers(1, 8),
    tiers=st.integers(1, 3),
    weighted=st.booleans(),
    stop_norm=st.sampled_from(["l2", "linf"]),
    threshold=st.sampled_from(["fixed", "scalar-fn", "auto-epsilon", "never"]),
    cap_frac=st.floats(0.0, 0.5),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_fit_matches_single_fits(
    design, rows, tiers, weighted, stop_norm, threshold, cap_frac, seed
):
    # a solver carrying T ridge parameters fits each row as the
    # single-parameter solver of its tier does (weights: kernel design)
    rng = np.random.default_rng(seed)
    if design == "kernel":
        n = int(rng.integers(6, 50))
        gram, _ = _random_gram(rng, n, sigma=rng.uniform(0.05, 0.6))
        weights = rng.uniform(0.5, 2.0, size=n + 1) if weighted else None
        lams = rng.uniform(1e-3, 30.0, size=tiers).tolist()
        solver = KgardSolver(gram, lams, tikhonov_weights=weights)
        singles = [KgardSolver(gram, lam, tikhonov_weights=weights) for lam in lams]
        y = rng.normal(size=(rows, n))
        for i in range(rows):  # a different outlier count per row
            spikes = rng.choice(n, size=int(rng.integers(0, n // 3 + 1)), replace=False)
            y[i, spikes] += rng.normal(0, 20, size=spikes.size)
        y[rng.random(rows) < 0.2] = 0.0
    else:
        gram, base, pair = _duplicate_pairs()
        lams = [1e-12, 1e-10, 1e-8][:tiers]
        solver = KgardSolver(gram, lams)
        singles = [KgardSolver(gram, lam) for lam in lams]
        n = base.size
        scale = rng.choice([0.0, 1.0, 1e9], size=(rows, 1))
        y = scale * (base + rng.integers(0, 2, size=(rows, 2)) @ pair)
    tier = rng.integers(0, tiers, size=rows)
    # a one-tier solver also runs without a tier
    batch_tier = None if tiers == 1 and rng.random() < 0.5 else tier
    cap = int(cap_frac * n)
    first = solver.fit(y, 0.0, stop_norm, 0, tier=batch_tier)
    eps = float(rng.uniform(0.0, first.residual_norm.max()))
    epsilon = {
        "fixed": eps,
        "scalar-fn": lambda abs_r: eps,
        "auto-epsilon": lambda abs_r: auto_epsilon(abs_r, 40.0),
        "never": lambda abs_r: np.zeros(abs_r.shape[:-1]),
    }[threshold]
    kwargs = dict(epsilon=epsilon, stop_norm=stop_norm, max_selections=cap)
    batch = solver.fit(y, **kwargs, tier=batch_tier)
    assert batch.alpha.shape == (rows, n) and batch.support.shape == (rows, cap)
    # each row carries both sides of its last stop test
    threshold_stop = batch.stop_reason == "threshold"
    assert (threshold_stop == (batch.residual_norm <= batch.epsilon)).all()
    for i, (row, t) in enumerate(zip(y, tier)):
        _assert_row_matches(batch, i, singles[t].fit(row[None], **kwargs))


def test_dtrtrs_matches_solve_triangular_bit_for_bit():
    # the finished-row solve calls LAPACK's dtrtrs on q[:, S] = Q[S]^T
    # (upper triangular), the call solve_triangular makes for the lower
    # triangular Q[S] with trans="T"
    rng = np.random.default_rng(17)
    for k in range(1, 41):
        upper = np.triu(rng.normal(size=(k, k)))
        upper[np.diag_indices(k)] = rng.uniform(0.05, 2.0, size=k)
        c = rng.normal(size=k)
        u, info = scipy.linalg.lapack.dtrtrs(upper, c, lower=0)
        assert info == 0
        expected = scipy.linalg.solve_triangular(
            upper.T.copy(), c, lower=True, trans="T", check_finite=False
        )
        assert u.tobytes() == expected.tobytes()


def test_finished_row_solve_raises_on_a_singular_system():
    upper = np.zeros((1, 1))  # a zero diagonal: Q[S] is singular
    with pytest.raises(np.linalg.LinAlgError, match="info 1"):
        _solve_triangular(upper, np.ones(1), lower=0, trans=0)


def test_batch_mixes_rows_without_selections_and_rows_that_run_on():
    rng = np.random.default_rng(23)
    gram, _ = _random_gram(rng, 40)
    solver = KgardSolver(gram, 0.5)
    y = rng.normal(scale=1e-3, size=(6, 40))
    for i in (1, 2, 4):  # rows 0, 3 and 5 stop before any selection
        y[i, rng.choice(40, size=i + 1, replace=False)] += 30.0
    kwargs = dict(epsilon=0.1, max_selections=8)
    batch = solver.fit(y, **kwargs)
    assert (batch.selections == 0).tolist() == [True, False, False, True, False, True]
    for i, row in enumerate(y):
        _assert_row_matches(batch, i, solver.fit(row[None], **kwargs))
    for i in (0, 3, 5):  # no selection: the plain ridge fit
        z = dense_solve(gram, y[i], 0.5)
        assert np.allclose(batch.alpha[i], z[:40], atol=1e-9)
