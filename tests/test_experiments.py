import dataclasses
import math
import time

import numpy as np
import pytest

import kgard.core
import kgard.experiments as experiments
import kgard.theory
from kgard.core import KgardConfig, KgardSolver, NumericalError
from kgard.experiments import (
    SWEEP_LAMBDA,
    SWEEP_N,
    border_weights,
    run_monte_carlo,
    sweep_outlier_magnitude,
)
from kgard.denoise import denoise_image
from kgard.kernel import KernelParams, cross_gram, gram_matrix
from kgard.noise import (
    LATTICE_KERNEL_SIGMA,
    SUPPORT_KERNEL_SIGMA,
    NoiseSpec,
    corrupt,
    lattice_nodes,
    make_lattice_dataset,
    make_support_dataset,
    rng_for,
)
from kgard.theory import design_sigma_max, theorem_check
from oracle import support_metrics

SINC = (
    "sinc1d",
    NoiseSpec(inlier_snr_db=20.0, impulse_fraction=0.10),
    KgardConfig(lam=0.2, epsilon=10.0),
)
LATTICE = (
    "lattice2d",
    NoiseSpec(inlier_sigma=3.0, impulse_fraction=0.05, impulse_magnitude=40.0),
    KgardConfig(lam=0.15, epsilon=46.0),
)
PROTOCOL_CASES = pytest.mark.parametrize(
    "protocol,noise,config", [SINC, LATTICE], ids=["sinc1d", "lattice2d"]
)


def _count_calls(monkeypatch, owner, attr, counter: list) -> None:
    original = getattr(owner, attr)

    def counted(*args, **kwargs):
        counter.append(attr)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counted)


def test_support_metrics_examples():
    assert support_metrics({1, 2}, {1, 2}) == (1.0, 0.0)
    assert support_metrics({1, 2, 5}, {1, 2}) == (1.0, 0.5)
    assert support_metrics(set(), {1, 2}) == (0.0, 0.0)
    with pytest.raises(ValueError):
        support_metrics({1}, set())


def test_border_weights():
    w = border_weights(199)
    assert w.shape == (200,)
    assert np.allclose(w[:5], np.sqrt(5.0))
    assert np.allclose(w[194:199], np.sqrt(5.0))
    assert np.all(w[5:194] == 1.0)
    assert w[199] == 1.0  # bias never boosted
    with pytest.raises(ValueError):
        border_weights(8)


def test_unknown_protocol_rejected():
    with pytest.raises(ValueError):
        run_monte_carlo("cubic", NoiseSpec(), KgardConfig(lam=1, epsilon=1), 1)
    with pytest.raises(ValueError):
        run_monte_carlo("sinc1d", NoiseSpec(), KgardConfig(lam=1, epsilon=1), 0)


@PROTOCOL_CASES
def test_trials_deterministic(protocol, noise, config):
    stats1, rows1 = run_monte_carlo(protocol, noise, config, 6, 3)
    stats2, rows2 = run_monte_carlo(protocol, noise, config, 6, 3)
    assert len(rows1) == len(rows2) == 6
    for a, b in zip(rows1, rows2):
        assert a.seed == b.seed
        assert a.mse_validation == b.mse_validation
        assert a.correct_fraction == b.correct_fraction
    assert stats1.mean_mse == stats2.mean_mse


def test_mse_is_against_truth_not_observations():
    # impulses of magnitude 15 make the corrupted observations differ
    # from the truth by ~11 in MSE; a fit scored against observations
    # could never reach the sub-0.1 range
    noise = NoiseSpec(inlier_snr_db=20.0, impulse_fraction=0.10)
    config = KgardConfig(lam=0.2, epsilon=10.0)
    stats, rows = run_monte_carlo("sinc1d", noise, config, 4, 0)
    observation_mse_floor = 0.10 * 15.0**2 * 0.5  # fraction * magnitude^2 / 2
    assert stats.mean_mse < 1.0 < observation_mse_floor
    assert all(r.mse_validation < 1.0 for r in rows)


@PROTOCOL_CASES
def test_wall_time_measures_fit_only(monkeypatch, protocol, noise, config):
    # solver setup happens once per run and is not part of any trial's time
    setup = KgardSolver.__init__

    def slow_setup(self, *args, **kwargs):
        time.sleep(0.2)
        setup(self, *args, **kwargs)

    monkeypatch.setattr(KgardSolver, "__init__", slow_setup)
    t0 = time.perf_counter()
    _, rows = run_monte_carlo(protocol, noise, config, 3, 0)
    total = time.perf_counter() - t0
    assert all(0 < r.wall_time_seconds < 0.2 for r in rows)
    assert sum(r.wall_time_seconds for r in rows) < total - 0.2


@PROTOCOL_CASES
def test_setup_seconds_times_setup_apart_from_fit(monkeypatch, protocol, noise, config):
    stats, _ = run_monte_carlo(protocol, noise, config, 2, 0)
    assert stats.setup_seconds > 0
    # the validation cross-Gram closes the setup
    build = experiments.cross_gram

    def slow_cross_gram(*args, **kwargs):
        time.sleep(0.2)
        return build(*args, **kwargs)

    monkeypatch.setattr(experiments, "cross_gram", slow_cross_gram)
    t0 = time.perf_counter()
    stats, rows = run_monte_carlo(protocol, noise, config, 3, 0)
    total = time.perf_counter() - t0
    assert 0.2 <= stats.setup_seconds < total
    assert all(0 < r.wall_time_seconds < 0.2 for r in rows)
    assert stats.setup_seconds + sum(r.wall_time_seconds for r in rows) <= total


@PROTOCOL_CASES
def test_setup_built_once_per_run(monkeypatch, protocol, noise, config):
    calls = []
    _count_calls(monkeypatch, experiments, "gram_matrix", calls)
    _count_calls(monkeypatch, kgard.core, "gram_matrix", calls)
    _count_calls(monkeypatch, KgardSolver, "__init__", calls)
    run_monte_carlo(protocol, noise, config, 3, 0)
    assert sorted(calls) == ["__init__", "gram_matrix"]


def test_lattice_trials_match_per_trial_reference():
    # the shared solver and cross-Gram must reproduce fitting each trial
    # from scratch on its own dataset, bit for bit
    _, noise, config = LATTICE
    _, rows = run_monte_carlo("lattice2d", noise, config, 3, 11)
    params = KernelParams(LATTICE_KERNEL_SIGMA)
    _, train_pts, val_pts = lattice_nodes()
    for t, row in enumerate(rows):
        rng = rng_for(11 + t)
        train_truth, val_truth, _ = make_lattice_dataset(rng)
        y, support, _ = corrupt(train_truth, noise, rng=rng)
        fit = KgardSolver(gram_matrix(train_pts, params), config.lam).fit(
            y[None], epsilon=config.epsilon
        )
        fitted = fit.evaluate(cross_gram(val_pts, train_pts, params))[0]
        mse = float(np.mean((fitted - val_truth) ** 2))
        assert row.mse_validation == mse
        assert (row.correct_fraction, row.wrong_fraction) == support_metrics(
            fit.support[0, : fit.selections[0]], support
        )


def test_lattice_protocol_smoke():
    _, noise, config = LATTICE
    stats, rows = run_monte_carlo("lattice2d", noise, config, 3, 0)
    assert stats.trials == 3 and stats.failures == 0
    assert all(r.mse_validation < 10.0 for r in rows)
    assert stats.mean_correct > 0.8


def test_no_outliers_records_nan_metrics():
    noise = NoiseSpec(inlier_snr_db=40.0, impulse_fraction=0.0)
    config = KgardConfig(lam=0.2, epsilon=1000.0)
    stats, rows = run_monte_carlo("sinc1d", noise, config, 2, 0)
    assert all(math.isnan(r.correct_fraction) for r in rows)
    assert math.isnan(stats.mean_correct)
    assert not math.isnan(stats.mean_mse)


@PROTOCOL_CASES
def test_setup_failure_fails_the_run(monkeypatch, protocol, noise, config):
    def boom(*args, **kwargs):
        raise NumericalError("forced setup failure", pivot=0)

    monkeypatch.setattr(kgard.core, "_cholesky", boom)
    with pytest.raises(NumericalError, match="forced setup failure"):
        run_monte_carlo(protocol, noise, config, 3, 0)


def test_stable_protocol_runs():
    from kgard.noise import StableParams

    noise = NoiseSpec(stable_params=StableParams(1.5, 0.05), impulse_fraction=0.05)
    config = KgardConfig(lam=0.2, epsilon=10.0)
    stats, _ = run_monte_carlo("sinc1d", noise, config, 2, 0)
    assert stats.trials == 2


def test_sweep_validation():
    with pytest.raises(ValueError):
        sweep_outlier_magnitude([])
    with pytest.raises(ValueError):
        sweep_outlier_magnitude([100.0], trials=0)


@pytest.mark.parametrize("fraction", [0.001, 0.0, -0.1, 0.995, math.nan, math.inf])
def test_sweep_checks_fraction_before_any_work(monkeypatch, fraction):
    calls = []
    _count_calls(monkeypatch, experiments, "gram_matrix", calls)
    _count_calls(monkeypatch, experiments, "make_support_dataset", calls)
    with pytest.raises(ValueError, match=r"^fraction must be finite .* \[1, 99\]"):
        sweep_outlier_magnitude([100.0], fraction=fraction, trials=2)
    assert calls == []


@pytest.mark.parametrize("bad", [-1.0, -math.inf, math.nan, math.inf])
def test_sweep_checks_every_magnitude_before_any_work(monkeypatch, bad):
    calls = []
    _count_calls(monkeypatch, experiments, "gram_matrix", calls)
    _count_calls(monkeypatch, experiments, "make_support_dataset", calls)
    with pytest.raises(ValueError, match=r"^impulse_magnitude must be nonnegative and finite"):
        sweep_outlier_magnitude([100.0, bad], trials=2)
    assert calls == []


@pytest.mark.parametrize(
    "kwargs, match",
    [
        (dict(magnitudes=[100.0, 10**400]), "impulse_magnitude"),
        (dict(magnitudes=[100.0], fraction=10**400), "fraction"),
    ],
    ids=["magnitude", "fraction"],
)
def test_sweep_rejects_a_value_no_float_holds_before_any_work(monkeypatch, kwargs, match):
    calls = []
    _count_calls(monkeypatch, experiments, "gram_matrix", calls)
    _count_calls(monkeypatch, experiments, "make_support_dataset", calls)
    with pytest.raises(ValueError, match=f"^{match} must convert to a float"):
        sweep_outlier_magnitude(trials=1, **kwargs)
    assert calls == []


@pytest.mark.parametrize("fraction, impulses", [(0.005, 1), (0.994, 99)])
def test_sweep_accepts_the_extreme_impulse_counts(monkeypatch, fraction, impulses):
    caps = []
    real_fit = KgardSolver.fit

    def fit(self, y, *args, **kwargs):
        caps.append(kwargs["max_selections"])
        return real_fit(self, y, *args, **kwargs)

    monkeypatch.setattr(KgardSolver, "fit", fit)
    (point,) = sweep_outlier_magnitude([100.0], fraction=fraction, trials=1)
    assert caps == [impulses] and point.trials == 1


@pytest.mark.parametrize("trials", [2.5, True, np.float64(2.0), "2"])
def test_trials_must_be_an_integer(trials):
    noise, config = SINC[1], SINC[2]
    with pytest.raises(ValueError, match="trials must be an integer"):
        run_monte_carlo("sinc1d", noise, config, trials)
    with pytest.raises(ValueError, match="trials must be an integer"):
        sweep_outlier_magnitude([100.0], trials=trials)


@pytest.mark.parametrize(
    "base_seed, match",
    [
        (0.5, "base_seed must be an integer"),
        ("0", "base_seed must be an integer"),
        (True, "base_seed must be an integer"),
        (-5, "base_seed must be nonnegative"),
    ],
    ids=["float", "str", "bool", "negative"],
)
def test_base_seed_is_checked_before_any_work(monkeypatch, base_seed, match):
    def boom(*args, **kwargs):
        raise AssertionError("the Gram matrix was built")

    monkeypatch.setattr(experiments, "gram_matrix", boom)
    with pytest.raises(ValueError, match=match):
        run_monte_carlo("sinc1d", SINC[1], SINC[2], 2, base_seed=base_seed)
    with pytest.raises(ValueError, match=match):
        sweep_outlier_magnitude([100.0], trials=2, base_seed=base_seed)


def test_trials_accept_numpy_integers():
    _, rows = run_monte_carlo("sinc1d", SINC[1], SINC[2], np.int64(2))
    assert [r.seed for r in rows] == [0, 1]
    (point,) = sweep_outlier_magnitude([100.0], trials=np.int32(2))
    assert point.trials == 2


def test_sweep_zero_magnitude_degrades_without_error():
    points = sweep_outlier_magnitude([0.0], trials=3, base_seed=0)
    assert len(points) == 1
    assert points[0].bound_hold_rate == 0.0
    assert points[0].mean_correct < 1.0


def test_sweep_builds_one_solver(monkeypatch):
    calls = []
    _count_calls(monkeypatch, KgardSolver, "__init__", calls)
    _count_calls(monkeypatch, kgard.theory, "dgesdd", calls)
    sweep_outlier_magnitude([100.0, 300.0], trials=3, base_seed=0)
    assert sorted(calls) == ["__init__", "dgesdd"]
    # nothing is kept between calls: a second sweep takes its own
    sweep_outlier_magnitude([100.0], trials=2, base_seed=0)
    assert sorted(calls) == ["__init__", "__init__", "dgesdd", "dgesdd"]


def test_sweep_draws_each_truth_once(monkeypatch):
    calls = []
    _count_calls(monkeypatch, experiments, "make_support_dataset", calls)
    _count_calls(monkeypatch, experiments, "corrupt", calls)
    sweep_outlier_magnitude([100.0, 300.0, 600.0, 900.0], trials=3, base_seed=0)
    assert calls == ["make_support_dataset", "corrupt"] * 3


def test_sweep_checks_each_magnitude_in_one_stacked_call(monkeypatch):
    shapes = []
    real_check = experiments.theorem_check

    def check(sigma_max, theta, u, lam):
        shapes.append((theta.shape, u.shape, lam))
        return real_check(sigma_max, theta, u, lam)

    monkeypatch.setattr(experiments, "theorem_check", check)
    sweep_outlier_magnitude([300.0, 0.0, 100.0, 600.0], trials=3, base_seed=0)
    assert shapes == [((3, SWEEP_N + 1), (3, SWEEP_N), SWEEP_LAMBDA)] * 3


def test_sweep_overflow_raises_value_error_without_a_warning():
    # the test configuration turns every warning into an error
    with pytest.raises(ValueError, match="initial residual's l2 norm overflows"):
        sweep_outlier_magnitude([1e160], trials=2)


def test_sweep_point_matches_per_trial_reference(monkeypatch):
    """Every magnitude, in any order and 0.0 included, gives what fresh
    draws at that magnitude would: the same observation and impulse
    bytes, and the same points, field for field."""
    trials, base_seed = 4, 2
    magnitudes = [600.0, 0.0, 300.0, 37.5, 100.0]
    fitted, certified = [], []
    real_fit, real_check = KgardSolver.fit, experiments.theorem_check

    def fit(self, y, *args, **kwargs):
        fitted.append(np.array(y))
        return real_fit(self, y, *args, **kwargs)

    def check(sigma_max, theta, u, lam):
        # one stack of every trial per magnitude, recorded row by row
        assert theta.shape == (trials, SWEEP_N + 1) and u.shape == (trials, SWEEP_N)
        certified.extend(np.array(u))
        return real_check(sigma_max, theta, u, lam)

    monkeypatch.setattr(KgardSolver, "fit", fit)
    monkeypatch.setattr(experiments, "theorem_check", check)
    points = sweep_outlier_magnitude(magnitudes, trials=trials, base_seed=base_seed)
    monkeypatch.undo()

    params = KernelParams(SUPPORT_KERNEL_SIGMA)
    expected, ys, us = [], [], []
    for magnitude in magnitudes:
        spec = NoiseSpec(impulse_fraction=0.1, impulse_magnitude=magnitude)
        rows = []
        for t in range(trials):
            rng = rng_for(base_seed + t)
            x, truth, alpha = make_support_dataset(rng)
            y, support, u = corrupt(truth, spec, rng=rng)
            ys.append(y)
            gram = gram_matrix(x, params)
            fit = KgardSolver(gram, SWEEP_LAMBDA).fit(
                y[None], epsilon=0.0, max_selections=support.size
            )
            holds = False
            if np.any(u):
                us.append(u)
                sigma_max = design_sigma_max(gram)
                theta = np.append(alpha, 0.0)
                report = theorem_check(sigma_max, theta[None], u[None], SWEEP_LAMBDA)
                holds = report.holds[0]
            picks = fit.support[0, : fit.selections[0]]
            rows.append(support_metrics(picks, support) + (float(holds),))
        expected.append(
            experiments.SweepPoint(
                magnitude=magnitude,
                mean_correct=float(np.mean([r[0] for r in rows])),
                mean_wrong=float(np.mean([r[1] for r in rows])),
                bound_hold_rate=float(np.mean([r[2] for r in rows])),
                trials=trials,
            )
        )
    assert np.concatenate(fitted).tobytes() == np.stack(ys).tobytes()
    assert np.stack(certified).tobytes() == np.stack(us).tobytes()
    assert points == expected
    # the reference is not degenerate: recovery and certificates vary
    assert len({p.mean_correct for p in points}) > 1
    assert len({p.bound_hold_rate for p in points}) > 1


def _poisoned_padding(batch):
    """The batch with 3 more padding columns and every padding entry
    set to an index no row has and a NaN value."""
    support = np.pad(batch.support, ((0, 0), (0, 3)))
    outliers = np.pad(batch.outliers, ((0, 0), (0, 3)))
    padding = np.arange(support.shape[1]) >= batch.selections[:, None]
    support[padding] = 2**40
    outliers[padding] = np.nan
    return dataclasses.replace(batch, support=support, outliers=outliers)


def test_pipelines_never_read_the_padding_past_selections(monkeypatch):
    rng = rng_for(3)
    image = np.full((32, 32), 120.0)
    image[:, 16:] += np.round(rng.normal(0, 5, (32, 16)))  # the left half stops at once
    image.ravel()[rng.choice(image.size, 60, replace=False)] += 100.0

    def outputs():
        result = denoise_image(image)
        return (
            [result.denoised.tobytes(), result.outlier_map.tobytes(), result.diagnostics],
            [
                dataclasses.replace(trial, wall_time_seconds=0.0)
                for trial in run_monte_carlo(*LATTICE, trials=3)[1]
            ],
            sweep_outlier_magnitude([0.0, 300.0], trials=3),
        )

    expected = outputs()
    real_fit = KgardSolver.fit
    monkeypatch.setattr(
        KgardSolver, "fit", lambda self, *a, **kw: _poisoned_padding(real_fit(self, *a, **kw))
    )
    poisoned = outputs()
    # == on floats: no NaN occurs in these outputs
    assert poisoned == expected
