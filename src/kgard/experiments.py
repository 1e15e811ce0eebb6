"""Monte-Carlo harness for the regression benchmarks.

Runs repeated corrupt/fit/score trials for two protocols:

- ``sinc1d``: the fixed sinc train/validation split, kernel width 0.15,
  border-boosted Tikhonov weights.
- ``lattice2d``: a fresh random 2-D lattice target per trial, kernel
  width 0.2.

The inlier noise is the run's ``NoiseSpec``, alpha-stable noise
included, whichever the protocol.

Each trial reports validation MSE against the noise-free truth, support
recovery versus the true outlier locations, and its share of the fit
time.  A run draws every trial first, then fits all of them as one
batch against the run's shared solver, on the calling thread; trial t
derives every random draw from seed base_seed + t, so a run is
reproducible from its base seed.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass

import numpy as np

from .core import KgardConfig, KgardSolver, _check_count
from .kernel import KernelParams, cross_gram, gram_matrix
from .noise import (
    LATTICE_KERNEL_SIGMA,
    SINC_KERNEL_SIGMA,
    SUPPORT_KERNEL_SIGMA,
    NoiseSpec,
    corrupt,
    lattice_nodes,
    make_lattice_dataset,
    make_sinc_dataset,
    make_support_dataset,
    rng_for,
    round_half_away,
)
from .theory import design_sigma_max, theorem_check

PROTOCOLS = ("sinc1d", "lattice2d")

# the pure-outlier magnitude sweep uses one fixed, deliberately large
# ridge parameter for both the fit and the certificate check
SWEEP_LAMBDA = 4000.0
SWEEP_N = 100

BORDER_BOOST_COUNT = 5
BORDER_BOOST_FACTOR = np.sqrt(5.0)


@dataclass
class TrialResult:
    """One Monte-Carlo trial.  correct/wrong fractions are NaN when the
    trial had no true outliers (metrics not applicable).
    ``wall_time_seconds`` is the run's batched fit time divided by its
    number of trials.  ``stop_reason`` is the fit's
    ``KgardSolution.stop_reason``.  Nothing sets ``failed``, kept for
    ``bench/workloads.py``: a fit that cannot run fails the whole run."""

    mse_validation: float
    correct_fraction: float
    wrong_fraction: float
    wall_time_seconds: float
    seed: int
    stop_reason: str
    failed: bool = False


@dataclass
class AggregateStats:
    """Means over a run's trials.  ``failures`` stays 0, kept for
    ``bench/workloads.py``: a fit that cannot run fails the whole run."""

    mean_mse: float
    std_mse: float
    mean_correct: float
    mean_wrong: float
    mean_time: float
    trials: int
    failures: int = 0


def support_metrics(estimated, truth) -> tuple[float, float]:
    """(|S_hat & T| / |T|, |S_hat - T| / |T|) for index sets."""
    t = set(int(i) for i in truth)
    if not t:
        raise ValueError("true support set is empty")
    s = set(int(i) for i in estimated)
    return len(s & t) / len(t), len(s - t) / len(t)


def border_weights(n: int) -> np.ndarray:
    """Tikhonov weights boosting the first and last ``BORDER_BOOST_COUNT``
    kernel coefficients by ``BORDER_BOOST_FACTOR``; the bias weight stays
    1.  Counteracts boundary oscillation in 1-D fits."""
    count = BORDER_BOOST_COUNT
    if 2 * count > n:
        raise ValueError(f"cannot boost {count} coefficients per side with n={n}")
    w = np.ones(n + 1)
    w[:count] = BORDER_BOOST_FACTOR
    w[n - count : n] = BORDER_BOOST_FACTOR
    return w


def _nan_mean(values) -> float:
    vals = [v for v in values if not math.isnan(v)]
    return float(np.mean(vals)) if vals else math.nan


def _aggregate(results: list[TrialResult]) -> AggregateStats:
    mses = np.array([r.mse_validation for r in results])
    return AggregateStats(
        mean_mse=float(np.mean(mses)),
        std_mse=float(np.std(mses)),
        mean_correct=_nan_mean(r.correct_fraction for r in results),
        mean_wrong=_nan_mean(r.wrong_fraction for r in results),
        mean_time=float(np.mean([r.wall_time_seconds for r in results])),
        trials=len(results),
    )


def _write_trial_csv(path, results: list[TrialResult]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seed", "mse", "correct", "wrong", "seconds", "stop_reason"])
        for r in results:
            writer.writerow(
                [
                    r.seed,
                    repr(r.mse_validation),
                    repr(r.correct_fraction),
                    repr(r.wrong_fraction),
                    repr(r.wall_time_seconds),
                    r.stop_reason,
                ]
            )


def run_monte_carlo(
    protocol: str,
    noise: NoiseSpec,
    config: KgardConfig,
    trials: int,
    base_seed: int = 0,
    csv_path=None,
) -> tuple[AggregateStats, list[TrialResult]]:
    """Run ``trials`` independent corrupt/fit/score trials.

    The Gram matrix, the solver's initial factorization and the
    validation cross-Gram depend only on the protocol's fixed inputs,
    so they are built once, before the first trial; a
    ``NumericalError`` there fails the whole run.  ``sinc1d`` fits with
    :func:`border_weights`, ``lattice2d`` with unit weights, both at the
    solver's default cap.  The trials are then drawn and fitted as one
    batch.  Each trial's ``wall_time_seconds``
    (the CSV ``seconds`` column) is the batch's fit time divided by the
    number of trials; drawing, setup and scoring are not counted.  The
    trial list (and the CSV, when requested) is ordered by trial index;
    the CSV's last column is each trial's ``stop_reason``.
    """
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}; expected one of {PROTOCOLS}")
    _check_count("trials", trials, 1)

    if protocol == "lattice2d":
        fixed = None  # each trial draws its own target on the fixed lattice
        _, train, validation = lattice_nodes()
        params = KernelParams(LATTICE_KERNEL_SIGMA)
        weights = None
    else:
        fixed = make_sinc_dataset()
        train, validation = fixed.train.inputs, fixed.validation.inputs
        params = KernelParams(SINC_KERNEL_SIGMA)
        weights = border_weights(fixed.train.size)
    solver = KgardSolver(gram_matrix(train, params), config.lam, tikhonov_weights=weights)
    cross = cross_gram(validation, train, params)

    draws = []
    for t in range(trials):
        seed = base_seed + t
        rng = rng_for(seed)
        data = make_lattice_dataset(rng) if fixed is None else fixed
        y, support, _ = corrupt(data.train_truth, noise, rng=rng)
        # only what scoring reads: whole datasets would all stay alive
        # until the batch is scored
        draws.append((seed, data.validation_truth, y, support))

    t0 = time.perf_counter()
    solutions = solver.fit(
        np.stack([y for _, _, y, _ in draws]),
        epsilon=config.epsilon,
        stop_norm=config.stop_norm,
    )
    wall = (time.perf_counter() - t0) / trials

    results = []
    for (seed, validation_truth, _, support), solution in zip(draws, solutions):
        fitted_val = cross @ solution.alpha + solution.bias
        mse = float(np.mean((fitted_val - validation_truth) ** 2))
        if support.size:
            correct, wrong = support_metrics(solution.support, support)
        else:
            correct = wrong = math.nan
        results.append(TrialResult(mse, correct, wrong, wall, seed, solution.stop_reason))
    if csv_path is not None:
        _write_trial_csv(csv_path, results)
    return _aggregate(results), results


@dataclass
class SweepPoint:
    magnitude: float
    mean_correct: float
    mean_wrong: float
    bound_hold_rate: float
    trials: int


def sweep_outlier_magnitude(
    magnitudes,
    fraction: float = 0.1,
    trials: int = 100,
    base_seed: int = 0,
) -> list[SweepPoint]:
    """Pure-outlier identification sweep over impulse magnitudes.

    Protocol: 100 equidistant points on [0, 1], kernel width 0.1, a
    sparse random kernel target, impulses of the given magnitude at
    the given fraction, no inlier noise.  ``fraction`` must give between
    1 and 99 impulses, checked before any work.  Each trial fits with the
    fixed sweep ridge parameter, stopping after exactly |T| selections,
    and evaluates the identification certificate at the same lambda.
    Every trial shares one Gram matrix and solver: the trials of one
    magnitude are fitted as one batch, and sigma_max([K 1]) is computed
    once per call.  Each trial's truth is drawn once per call; every
    magnitude corrupts it from the generator state that followed the
    draw, as if the trial were drawn afresh.
    """
    magnitudes = list(magnitudes)
    if not magnitudes:
        raise ValueError("magnitudes list is empty")
    _check_count("trials", trials, 1)
    n_impulses = round_half_away(fraction * SWEEP_N) if math.isfinite(fraction) else 0
    if not 1 <= n_impulses < SWEEP_N:
        raise ValueError(
            f"fraction must be finite and give round(fraction * {SWEEP_N}) impulses "
            f"in [1, {SWEEP_N - 1}], got {fraction}"
        )

    params = KernelParams(SUPPORT_KERNEL_SIGMA)
    gram = gram_matrix(np.linspace(0.0, 1.0, SWEEP_N), params)
    solver = KgardSolver(gram, SWEEP_LAMBDA)
    sigma_max = design_sigma_max(gram)
    truths = []
    for t in range(trials):
        rng = rng_for(base_seed + t)
        _, truth, alpha = make_support_dataset(rng, SWEEP_N)
        truths.append((rng, rng.bit_generator.state, truth, alpha))

    points = []
    for magnitude in magnitudes:
        spec = NoiseSpec(impulse_fraction=fraction, impulse_magnitude=magnitude)
        draws = []
        for rng, state, truth, alpha in truths:
            rng.bit_generator.state = state
            y, support, u = corrupt(truth, spec, rng=rng)
            draws.append((alpha, y, support, u))
        solutions = solver.fit(
            np.stack([y for _, y, _, _ in draws]), epsilon=0.0, max_selections=n_impulses
        )
        rows = []
        for (alpha, _, support, u), solution in zip(draws, solutions):
            correct, wrong = support_metrics(solution.support, support)
            if np.any(u):
                theta = np.append(alpha, 0.0)  # the protocol target has no bias
                holds = theorem_check(sigma_max, theta, u, SWEEP_LAMBDA).holds
            else:
                holds = False  # zero-magnitude impulses carry no certificate
            rows.append((correct, wrong, holds))
        points.append(
            SweepPoint(
                magnitude=float(magnitude),
                mean_correct=float(np.mean([r[0] for r in rows])),
                mean_wrong=float(np.mean([r[1] for r in rows])),
                bound_hold_rate=float(np.mean([1.0 if r[2] else 0.0 for r in rows])),
                trials=trials,
            )
        )
    return points
