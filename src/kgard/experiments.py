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

import math
import time
from dataclasses import dataclass

import numpy as np

from .core import KgardConfig, KgardSolver, _check_count
from .kernel import KernelParams, _as_float, cross_gram, gram_matrix
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
    number of trials.  ``stop_reason`` is the trial's row of the
    batch's ``stop_reason``.  Nothing sets ``failed``, kept for
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
    """Means over a run's trials, and the run's setup time:
    ``setup_seconds`` is the wall time of building the Gram matrix, the
    solver and the validation cross-Gram, once per run and in no
    trial's ``wall_time_seconds``.  ``failures`` stays 0, kept for
    ``bench/workloads.py``: a fit that cannot run fails the whole run."""

    mean_mse: float
    std_mse: float
    mean_correct: float
    mean_wrong: float
    mean_time: float
    trials: int
    setup_seconds: float
    failures: int = 0


def _support_fractions(batch, truth: np.ndarray) -> tuple:
    """(|S & T| / |T|, |S - T| / |T|) of every row of a fit batch, S its
    selections and T the true outliers of a (B, N) boolean mask, as two
    (B,) arrays; NaN where a row has no true outlier.  A row's picks
    are distinct, so k - hits of its k picks are wrong."""
    rows, index, _ = batch.selected()
    hits = np.bincount(rows, weights=truth[rows, index], minlength=truth.shape[0])
    size = truth.sum(axis=1, dtype=np.float64)
    size[size == 0] = math.nan
    return hits / size, (batch.selections - hits) / size


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


def run_monte_carlo(
    protocol: str,
    noise: NoiseSpec,
    config: KgardConfig,
    trials: int,
    base_seed: int = 0,
) -> tuple[AggregateStats, list[TrialResult]]:
    """Run ``trials`` independent corrupt/fit/score trials.

    The Gram matrix, the solver's initial factorization and the
    validation cross-Gram depend only on the protocol's fixed inputs,
    so they are built once, before the first trial; a
    ``NumericalError`` there fails the whole run.  ``sinc1d`` fits with
    :func:`border_weights`, ``lattice2d`` with unit weights, both at the
    solver's default cap.  The trials are then drawn and fitted as one
    batch.  Each trial's ``wall_time_seconds`` is the batch's fit time
    divided by the number of trials; drawing, setup and scoring are not
    counted.  The setup's wall time is the aggregate's
    ``setup_seconds``.  The trial list is ordered by trial index.
    ``trials`` and ``base_seed`` are checked before any work.
    """
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}; expected one of {PROTOCOLS}")
    _check_count("trials", trials, 1)
    _check_count("base_seed", base_seed)

    lattice = protocol == "lattice2d"
    if lattice:  # each trial draws its own target on the fixed lattice
        _, train, validation = lattice_nodes()
        validation_truth = np.empty((trials, validation.shape[0]))
        params = KernelParams(LATTICE_KERNEL_SIGMA)
        weights = None
    else:
        train, train_truth, validation, validation_truth = make_sinc_dataset()
        params = KernelParams(SINC_KERNEL_SIGMA)
        weights = border_weights(train.shape[0])
    t0 = time.perf_counter()
    solver = KgardSolver(gram_matrix(train, params), config.lam, tikhonov_weights=weights)
    cross = cross_gram(validation, train, params)
    setup = time.perf_counter() - t0

    ys = np.empty((trials, train.shape[0]))
    truth = np.zeros(ys.shape, dtype=bool)
    for t in range(trials):
        rng = rng_for(base_seed + t)
        if lattice:
            train_truth, validation_truth[t], _ = make_lattice_dataset(rng)
        ys[t], support, _ = corrupt(train_truth, noise, rng=rng)
        truth[t, support] = True

    t0 = time.perf_counter()
    batch = solver.fit(ys, epsilon=config.epsilon)
    wall = (time.perf_counter() - t0) / trials

    # one truth row per lattice trial; the sinc truth broadcasts
    mses = np.mean((batch.evaluate(cross) - validation_truth) ** 2, axis=1)
    correct, wrong = _support_fractions(batch, truth)
    scored = ~np.isnan(correct)  # the trials with at least one true outlier
    stats = AggregateStats(
        mean_mse=float(np.mean(mses)),
        std_mse=float(np.std(mses)),
        mean_correct=float(np.mean(correct[scored])) if scored.any() else math.nan,
        mean_wrong=float(np.mean(wrong[scored])) if scored.any() else math.nan,
        mean_time=wall,
        trials=trials,
        setup_seconds=setup,
    )
    per_trial = zip(mses.tolist(), correct.tolist(), wrong.tolist(), batch.stop_reason.tolist())
    results = [
        TrialResult(mse, c, w, wall, base_seed + t, reason)
        for t, (mse, c, w, reason) in enumerate(per_trial)
    ]
    return stats, results


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
    1 and 99 impulses, every magnitude must be nonnegative and finite,
    and ``base_seed`` a nonnegative integer, all checked before any work.  Each trial fits with the
    fixed sweep ridge parameter, stopping after exactly |T| selections,
    and evaluates the identification certificate at the same lambda.
    Every trial shares one Gram matrix and solver: the trials of one
    magnitude are fitted as one batch and their certificates checked in
    one stacked ``theorem_check`` call, and sigma_max([K 1]) is computed
    once per call.  A magnitude large enough that a truth's squared
    norm or the initial residual's norm overflows raises
    ``ValueError``.  Each trial's truth and its impulse positions and
    signs are drawn once per call, as unit impulses; every magnitude
    scales them.  With no inlier noise this gives the observations a
    fresh draw at that magnitude would, bit for bit.
    """
    magnitudes = list(magnitudes)
    if not magnitudes:
        raise ValueError("magnitudes list is empty")
    _check_count("trials", trials, 1)
    _check_count("base_seed", base_seed)
    fraction = _as_float("fraction", fraction)
    n_impulses = round_half_away(fraction * SWEEP_N) if math.isfinite(fraction) else 0
    if not 1 <= n_impulses < SWEEP_N:
        raise ValueError(
            f"fraction must be finite and give round(fraction * {SWEEP_N}) impulses "
            f"in [1, {SWEEP_N - 1}], got {fraction}"
        )
    magnitudes = [
        NoiseSpec(impulse_fraction=fraction, impulse_magnitude=m).impulse_magnitude
        for m in magnitudes
    ]

    params = KernelParams(SUPPORT_KERNEL_SIGMA)
    gram = gram_matrix(np.linspace(0.0, 1.0, SWEEP_N), params)
    solver = KgardSolver(gram, SWEEP_LAMBDA)
    sigma_max = design_sigma_max(gram)
    # corrupt writes sign * magnitude at each impulse and 0.0 elsewhere,
    # so magnitude * (unit impulses) is the same float, -0.0 included
    unit = NoiseSpec(impulse_fraction=fraction, impulse_magnitude=1.0)
    truths = np.empty((trials, SWEEP_N))
    units = np.empty((trials, SWEEP_N))
    truth = np.zeros((trials, SWEEP_N), dtype=bool)
    thetas = np.zeros((trials, SWEEP_N + 1))  # the protocol target has no bias
    for t in range(trials):
        rng = rng_for(base_seed + t)
        _, truths[t], thetas[t, :SWEEP_N] = make_support_dataset(rng, SWEEP_N)
        _, support, units[t] = corrupt(truths[t], unit, rng=rng)
        truth[t, support] = True

    points = []
    for magnitude in magnitudes:
        u = magnitude * units
        batch = solver.fit(truths + u, epsilon=0.0, max_selections=n_impulses)
        correct, wrong = _support_fractions(batch, truth)
        holds = np.zeros(trials, dtype=bool)  # zero impulses carry no certificate
        if magnitude > 0:
            holds = theorem_check(sigma_max, thetas, u, SWEEP_LAMBDA).holds
        points.append(
            SweepPoint(
                magnitude=magnitude,
                mean_correct=float(np.mean(correct)),
                mean_wrong=float(np.mean(wrong)),
                bound_hold_rate=float(np.mean(holds)),
                trials=trials,
            )
        )
    return points
