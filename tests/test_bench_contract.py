"""What the benchmark reads of kgard.

``bench/spans.py`` wraps every ``(owner, attr)`` of its ``BOUNDARIES``,
among them ``kgard.core.KgardSolver.fit`` and the ``auto_epsilon`` name
in ``kgard.denoise``, and ``bench/selftest.py`` requires every workload
to reach them.  These tests keep every boundary resolvable, and the
batched entry points going through both, with one fit per batch: per
image when denoising, per run for the Monte-Carlo protocols and per
magnitude for the sweep.  Every workload of ``bench/workloads.py``
also runs here, reduced, through its call, output checks and quality
metrics, so a result attribute the benchmark reads cannot go missing
unnoticed.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import kgard.denoise as denoise_mod
import kgard.experiments as experiments_mod
import kgard.noise as noise_mod
from kgard.core import KgardConfig, KgardSolver
from kgard.denoise import (
    RoiConfig,
    _mean_gradients,
    auto_lambda_map,
    denoise_image,
    pad_image,
)
from kgard.experiments import run_monte_carlo, sweep_outlier_magnitude
from kgard.noise import NoiseSpec


def _load_bench(name: str):
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_bench_boundary_resolves():
    spans = _load_bench("spans")
    missing = [
        f"{owner}.{attr}"
        for owner, attr, _ in spans.BOUNDARIES
        if getattr(spans._resolve(owner), attr, None) is None
    ]
    assert missing == []


@pytest.mark.parametrize("name", ["denoise-64", "sinc1d", "lattice2d", "sweep"])
def test_every_bench_workload_runs_reduced(name):
    workloads = _load_bench("workloads")
    assert sorted(workloads.WORKLOADS) == ["denoise-64", "lattice2d", "sinc1d", "sweep"]
    workload = workloads.WORKLOADS[name][1](1)
    out = workload.call()
    verdict = workload.check(out)
    assert verdict.checks > 0 and verdict.failed_checks == []
    assert verdict.items > 0 and verdict.failed_items == 0
    assert workload.quality(out)


@pytest.mark.parametrize("seed", [1, 2, 31])
@pytest.mark.parametrize("which", ["clean", "noisy"])
def test_lambda_map_matches_per_window_mean_on_bench_image(seed, which):
    cfg = RoiConfig()
    n, ell = cfg.roi_size, cfg.core_size
    workloads = _load_bench("workloads")
    clean, noisy, _ = workloads.synthetic_image(workloads._rng(seed), 256)
    padded = pad_image(clean if which == "clean" else noisy, cfg)
    gy, gx = np.gradient(padded)
    grad = np.sqrt(gx**2 + gy**2)
    origins = [
        (r, c)
        for r in range(0, padded.shape[0] - n + 1, ell)
        for c in range(0, padded.shape[1] - n + 1, ell)
    ]
    means = np.array([float(np.mean(grad[r : r + n, c : c + n])) for r, c in origins])
    assert _mean_gradients(padded, cfg).tobytes() == means.tobytes()
    m, s = float(np.mean(means)), float(np.std(means))
    expected = np.full(means.shape, 5.0 * cfg.lambda0)
    expected[means > m + s] = cfg.lambda0
    expected[means < m - s / 10.0] = 15.0 * cfg.lambda0
    lambdas = auto_lambda_map(padded, cfg)
    assert lambdas.tobytes() == expected.tobytes()
    assert np.unique(lambdas).size == 3


@pytest.fixture
def fit_batches(monkeypatch):
    """Rows of y in each KgardSolver.fit call, in call order."""
    batches = []
    real_fit = KgardSolver.fit

    def counting_fit(self, y, *args, **kwargs):
        batches.append(1 if np.ndim(y) == 1 else len(y))
        return real_fit(self, y, *args, **kwargs)

    monkeypatch.setattr(KgardSolver, "fit", counting_fit)
    return batches


def test_denoise_fits_once_per_image(monkeypatch, fit_batches):
    cfg = RoiConfig()
    img = np.full((32, 32), 100.0)
    img[:8, :8] = np.indices((8, 8)).sum(axis=0) % 2 * 80
    img[20:, 20:] += np.indices((12, 12))[0] * 3.0
    lambdas = auto_lambda_map(pad_image(img, cfg), cfg)
    thresholds = []
    real_auto_epsilon = denoise_mod.auto_epsilon

    def counting_auto_epsilon(*args, **kwargs):
        thresholds.append(1)
        return real_auto_epsilon(*args, **kwargs)

    monkeypatch.setattr(denoise_mod, "auto_epsilon", counting_auto_epsilon)
    result = denoise_image(img, cfg)
    assert np.unique(lambdas).size >= 2
    # every ROI, whatever its tier, in one fit
    assert fit_batches == [lambdas.size]
    # auto_epsilon runs once on the final residuals and, during the fit,
    # only at a step where some row could stop: here within the cap plus one
    max_selections = cfg.roi_size**2 // 3
    assert 0 < len(thresholds) <= max_selections + 1
    assert len(result.diagnostics) == lambdas.size


@pytest.mark.parametrize("protocol", ["sinc1d", "lattice2d"])
def test_monte_carlo_fits_once_per_run(fit_batches, protocol):
    noise = NoiseSpec(inlier_sigma=1.0, impulse_fraction=0.05, impulse_magnitude=40.0)
    run_monte_carlo(protocol, noise, KgardConfig(lam=0.2, epsilon=10.0), 4, 0)
    assert fit_batches == [4]


def test_sweep_fits_once_per_magnitude(fit_batches):
    sweep_outlier_magnitude([100.0, 300.0, 600.0], trials=3, base_seed=0)
    assert fit_batches == [3, 3, 3]


def _counting(monkeypatch, owner, attr) -> list:
    calls = []
    real = getattr(owner, attr)

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counted)
    return calls


def test_lattice_run_draws_each_truth_through_the_boundary(monkeypatch):
    calls = _counting(monkeypatch, experiments_mod, "make_lattice_dataset")
    noise = NoiseSpec(inlier_sigma=1.0, impulse_fraction=0.05, impulse_magnitude=40.0)
    run_monte_carlo("lattice2d", noise, KgardConfig(lam=0.2, epsilon=10.0), 5, 0)
    assert len(calls) == 5


def test_sweep_evaluates_each_truth_through_the_boundary(monkeypatch):
    calls = _counting(monkeypatch, noise_mod, "cross_gram")
    sweep_outlier_magnitude([100.0, 300.0], trials=4, base_seed=0)
    assert len(calls) == 4
