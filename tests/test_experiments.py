import math
import time

import numpy as np
import pytest

import kgard.core
import kgard.experiments as experiments
import kgard.theory
from kgard.core import (
    Dataset,
    KgardConfig,
    KgardSolver,
    NumericalError,
    kgard_fit,
    predict,
)
from kgard.experiments import (
    SWEEP_LAMBDA,
    SWEEP_N,
    border_weights,
    run_monte_carlo,
    support_metrics,
    sweep_outlier_magnitude,
)
from kgard.kernel import KernelParams, gram_matrix
from kgard.noise import (
    LATTICE_KERNEL_SIGMA,
    SUPPORT_KERNEL_SIGMA,
    NoiseSpec,
    corrupt,
    make_lattice_dataset,
    make_support_dataset,
    rng_for,
)
from kgard.theory import theorem_check

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
        border_weights(8, count=5)


def test_unknown_protocol_rejected():
    with pytest.raises(ValueError):
        run_monte_carlo("cubic", NoiseSpec(), KgardConfig(lam=1, epsilon=1), 1)
    with pytest.raises(ValueError):
        run_monte_carlo("sinc1d", NoiseSpec(), KgardConfig(lam=1, epsilon=1), 0)


@PROTOCOL_CASES
def test_trials_deterministic_and_csv(tmp_path, protocol, noise, config):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    stats1, rows1 = run_monte_carlo(protocol, noise, config, 6, 3, csv_path=p1)
    stats2, rows2 = run_monte_carlo(protocol, noise, config, 6, 3, csv_path=p2)
    for a, b in zip(rows1, rows2):
        assert a.seed == b.seed
        assert a.mse_validation == b.mse_validation
        assert a.correct_fraction == b.correct_fraction
    assert stats1.mean_mse == stats2.mean_mse
    header = p1.read_text().splitlines()[0]
    assert header == "seed,mse,correct,wrong,seconds,failed"
    assert len(p1.read_text().splitlines()) == 7


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
    for t, row in enumerate(rows):
        rng = rng_for(11 + t)
        data = make_lattice_dataset(rng)
        y, support, _ = corrupt(data.train_truth, noise, rng=rng)
        solution = kgard_fit(Dataset(data.train.inputs, y), params, config)
        fitted = predict(solution, data.train.inputs, data.validation.inputs, params)
        mse = float(np.mean((fitted - data.validation_truth) ** 2))
        assert row.mse_validation == mse
        assert (row.correct_fraction, row.wrong_fraction) == support_metrics(
            solution.support, support
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


def test_failed_trials_counted_separately(monkeypatch):
    def boom(*args, **kwargs):
        raise NumericalError("forced failure", pivot=0)

    monkeypatch.setattr(experiments.KgardSolver, "fit", boom)
    _, noise, config = LATTICE
    stats, rows = run_monte_carlo("lattice2d", noise, config, 3, 0)
    assert stats.failures == 3 and stats.trials == 0
    assert all(r.failed for r in rows)
    assert math.isnan(stats.mean_mse)


@PROTOCOL_CASES
def test_setup_failure_fails_the_run(monkeypatch, tmp_path, protocol, noise, config):
    def boom(*args, **kwargs):
        raise NumericalError("forced setup failure", pivot=0)

    monkeypatch.setattr(kgard.core, "_cholesky", boom)
    out = tmp_path / "trials.csv"
    with pytest.raises(NumericalError, match="forced setup failure"):
        run_monte_carlo(protocol, noise, config, 3, 0, csv_path=out)
    assert not out.exists()


def test_stable_protocol_runs():
    from kgard.noise import StableParams

    noise = NoiseSpec(stable_params=StableParams(1.5, 0.05), impulse_fraction=0.05)
    config = KgardConfig(lam=0.2, epsilon=10.0)
    stats, _ = run_monte_carlo("stable1d", noise, config, 2, 0)
    assert stats.trials == 2


def test_sweep_validation():
    with pytest.raises(ValueError):
        sweep_outlier_magnitude([])
    with pytest.raises(ValueError):
        sweep_outlier_magnitude([100.0], trials=0)


def test_sweep_zero_magnitude_degrades_without_error():
    points = sweep_outlier_magnitude([0.0], trials=3, base_seed=0)
    assert len(points) == 1
    assert points[0].bound_hold_rate == 0.0
    assert points[0].mean_correct < 1.0


def test_sweep_builds_one_solver(monkeypatch):
    calls = []
    _count_calls(monkeypatch, KgardSolver, "__init__", calls)
    _count_calls(monkeypatch, np.linalg, "svd", calls)
    kgard.theory._sigma_max.cache_clear()
    sweep_outlier_magnitude([100.0, 300.0], trials=3, base_seed=0)
    assert sorted(calls) == ["__init__", "svd"]


def test_sweep_point_matches_per_trial_reference():
    trials, base_seed = 4, 2
    (point,) = sweep_outlier_magnitude([300.0], trials=trials, base_seed=base_seed)
    params = KernelParams(SUPPORT_KERNEL_SIGMA)
    spec = NoiseSpec(impulse_fraction=0.1, impulse_magnitude=300.0)
    rows = []
    for t in range(trials):
        rng = rng_for(base_seed + t)
        x, truth, alpha = make_support_dataset(rng, SWEEP_N)
        y, support, u = corrupt(truth, spec, rng=rng)
        gram = gram_matrix(x, params)
        solution = KgardSolver(gram, SWEEP_LAMBDA).fit(
            y, epsilon=0.0, max_selections=support.size
        )
        holds = theorem_check(gram, np.append(alpha, 0.0), u, SWEEP_LAMBDA).holds
        rows.append(support_metrics(solution.support, support) + (float(holds),))
    assert point.mean_correct == float(np.mean([r[0] for r in rows]))
    assert point.mean_wrong == float(np.mean([r[1] for r in rows]))
    assert point.bound_hold_rate == float(np.mean([r[2] for r in rows]))
