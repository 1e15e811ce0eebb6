"""Monte-Carlo harness for the regression benchmarks.

Runs repeated corrupt/fit/score trials for three protocols:

- ``sinc1d``: the fixed sinc train/validation split, kernel width 0.15,
  border-boosted Tikhonov weights.
- ``lattice2d``: a fresh random 2-D lattice target per trial, kernel
  width 0.2.
- ``stable1d``: the sinc geometry again, intended for alpha-stable
  inlier noise.

Each trial reports validation MSE against the noise-free truth, support
recovery versus the true outlier locations, and the wall time of the
fit call alone.  Trials run one after another on the calling thread;
trial t derives every random draw from seed base_seed + t, so a run is
reproducible from its base seed.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass

import numpy as np

from .core import KgardConfig, KgardSolver, NumericalError
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
from .theory import theorem_check

PROTOCOLS = ("sinc1d", "lattice2d", "stable1d")

# the pure-outlier magnitude sweep uses one fixed, deliberately large
# ridge parameter for both the fit and the certificate check
SWEEP_LAMBDA = 4000.0
SWEEP_N = 100

BORDER_BOOST_COUNT = 5
BORDER_BOOST_FACTOR = np.sqrt(5.0)


@dataclass
class TrialResult:
    """One Monte-Carlo trial.  correct/wrong fractions are NaN when the
    trial had no true outliers (metrics not applicable)."""

    mse_validation: float
    correct_fraction: float
    wrong_fraction: float
    wall_time_seconds: float
    seed: int
    failed: bool = False


@dataclass
class AggregateStats:
    """Means over the successful trials; failures counted separately."""

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


def border_weights(
    n: int,
    count: int = BORDER_BOOST_COUNT,
    factor: float = BORDER_BOOST_FACTOR,
) -> np.ndarray:
    """Tikhonov weights boosting the first and last ``count`` kernel
    coefficients by ``factor``; the bias weight stays 1.  Counteracts
    boundary oscillation in 1-D fits."""
    if count < 0 or 2 * count > n:
        raise ValueError(f"cannot boost {count} coefficients per side with n={n}")
    w = np.ones(n + 1)
    if count:
        w[:count] = factor
        w[n - count : n] = factor
    return w


def _nan_mean(values) -> float:
    vals = [v for v in values if not math.isnan(v)]
    return float(np.mean(vals)) if vals else math.nan


def _aggregate(results: list[TrialResult]) -> AggregateStats:
    ok = [r for r in results if not r.failed]
    failures = len(results) - len(ok)
    if not ok:
        return AggregateStats(
            math.nan, math.nan, math.nan, math.nan, math.nan, 0, failures
        )
    mses = np.array([r.mse_validation for r in ok])
    return AggregateStats(
        mean_mse=float(np.mean(mses)),
        std_mse=float(np.std(mses)),
        mean_correct=_nan_mean(r.correct_fraction for r in ok),
        mean_wrong=_nan_mean(r.wrong_fraction for r in ok),
        mean_time=float(np.mean([r.wall_time_seconds for r in ok])),
        trials=len(ok),
        failures=failures,
    )


def _write_trial_csv(path, results: list[TrialResult]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seed", "mse", "correct", "wrong", "seconds", "failed"])
        for r in results:
            writer.writerow(
                [
                    r.seed,
                    repr(r.mse_validation),
                    repr(r.correct_fraction),
                    repr(r.wrong_fraction),
                    repr(r.wall_time_seconds),
                    int(r.failed),
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
    ``NumericalError`` there fails the whole run.  A trial whose fit
    raises ``NumericalError`` is recorded with ``failed=True`` and
    excluded from the aggregates.  The trial list (and the CSV, when
    requested) is ordered by trial index.
    """
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}; expected one of {PROTOCOLS}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")

    weights = config.tikhonov_weights
    if protocol == "lattice2d":
        fixed = None  # each trial draws its own target on the fixed lattice
        _, train, validation = lattice_nodes()
        params = KernelParams(LATTICE_KERNEL_SIGMA)
    else:
        fixed = make_sinc_dataset()
        train, validation = fixed.train.inputs, fixed.validation.inputs
        params = KernelParams(SINC_KERNEL_SIGMA)
        if weights is None:
            weights = border_weights(fixed.train.size)
    solver = KgardSolver(
        gram_matrix(train, params),
        config.lam,
        regularizer=config.regularizer,
        tikhonov_weights=weights,
    )
    cross = cross_gram(validation, train, params)

    def one(t: int) -> TrialResult:
        seed = base_seed + t
        rng = rng_for(seed)
        data = make_lattice_dataset(rng) if fixed is None else fixed
        y, support, _ = corrupt(data.train_truth, noise, rng=rng)
        t0 = time.perf_counter()
        try:
            solution = solver.fit(
                y,
                epsilon=config.epsilon,
                stop_norm=config.stop_norm,
                max_selections=config.max_selections,
            )
        except NumericalError:
            return TrialResult(math.nan, math.nan, math.nan, math.nan, seed, True)
        wall = time.perf_counter() - t0
        fitted_val = cross @ solution.alpha + solution.bias
        mse = float(np.mean((fitted_val - data.validation_truth) ** 2))
        if support.size:
            correct, wrong = support_metrics(solution.support, support)
        else:
            correct = wrong = math.nan
        return TrialResult(mse, correct, wrong, wall, seed)

    results = [one(t) for t in range(trials)]
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
    the given fraction, no inlier noise.  Each trial fits with the
    fixed sweep ridge parameter, stopping after exactly |T| selections,
    and evaluates the identification certificate at the same lambda.
    Every trial shares one Gram matrix, so ``theorem_check`` takes the
    SVD of [K 1] at most once per call.
    """
    magnitudes = list(magnitudes)
    if not magnitudes:
        raise ValueError("magnitudes list is empty")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")

    params = KernelParams(SUPPORT_KERNEL_SIGMA)
    n_impulses = round_half_away(fraction * SWEEP_N)
    gram = gram_matrix(np.linspace(0.0, 1.0, SWEEP_N), params)
    solver = KgardSolver(gram, SWEEP_LAMBDA)

    def one(spec: NoiseSpec, t: int) -> tuple[float, float, bool]:
        rng = rng_for(base_seed + t)
        _, truth, alpha = make_support_dataset(rng, SWEEP_N)
        y, support, u = corrupt(truth, spec, rng=rng)
        solution = solver.fit(y, epsilon=0.0, max_selections=n_impulses)
        correct, wrong = support_metrics(solution.support, support)
        if np.any(u):
            theta = np.append(alpha, 0.0)  # the protocol target has no bias
            holds = theorem_check(gram, theta, u, SWEEP_LAMBDA).holds
        else:
            holds = False  # zero-magnitude impulses carry no certificate
        return correct, wrong, holds

    points = []
    for magnitude in magnitudes:
        spec = NoiseSpec(impulse_fraction=fraction, impulse_magnitude=magnitude)
        rows = [one(spec, t) for t in range(trials)]
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
