"""Reproducible synthetic datasets and noise models.

Datasets mirror the benchmark protocols used throughout: a 1-D sinc
target split into interleaved train/validation grids, a 2-D lattice
target that is a sparse combination of Gaussian kernels, and a 1-D
pure-outlier protocol for support-identification studies.  Each
generator returns a tuple of plain arrays.

Corruption combines sparse impulses of fixed magnitude with either
Gaussian inlier noise at a prescribed SNR or symmetric alpha-stable
noise sampled with the Chambers-Mallows-Stuck transform.

All randomness flows through numpy's PCG64 generator; identical seeds
give identical streams on every platform.  Monte-Carlo trial t should
use seed base_seed + t so results do not depend on scheduling.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .kernel import KernelParams, _as_float, cross_gram, grid_points

SINC_KERNEL_SIGMA = 0.15
LATTICE_KERNEL_SIGMA = 0.2
SUPPORT_KERNEL_SIGMA = 0.1


@dataclass(frozen=True)
class StableParams:
    """Symmetric alpha-stable parameters (skewness 0, location 0), held
    as Python floats."""

    alpha: float
    gamma_scale: float

    def __post_init__(self) -> None:
        for name in ("alpha", "gamma_scale"):
            object.__setattr__(self, name, _as_float(name, getattr(self, name)))
        if not 0 < self.alpha <= 2:
            raise ValueError(f"alpha must be in (0, 2], got {self.alpha}")
        if not 0 < self.gamma_scale < math.inf:
            raise ValueError(
                f"gamma_scale must be positive and finite, got {self.gamma_scale}"
            )


@dataclass
class NoiseSpec:
    """Corruption model: impulses plus at most one inlier-noise family.

    Every numeric value is held as a Python float and must be finite.
    ``inlier_snr_db`` also needs 10^(snr_db / 10) to be a finite, normal
    float, since the inlier variance is divided by it.
    """

    inlier_snr_db: Optional[float] = None
    inlier_sigma: Optional[float] = None
    impulse_fraction: float = 0.0
    impulse_magnitude: float = 15.0
    stable_params: Optional[StableParams] = None

    def __post_init__(self) -> None:
        self.impulse_fraction = _as_float("impulse_fraction", self.impulse_fraction)
        self.impulse_magnitude = _as_float("impulse_magnitude", self.impulse_magnitude)
        for name in ("inlier_snr_db", "inlier_sigma"):  # None: the family is off
            if getattr(self, name) is not None:
                setattr(self, name, _as_float(name, getattr(self, name)))
        if not 0 <= self.impulse_fraction < 1:
            raise ValueError(
                f"impulse_fraction must be in [0, 1), got {self.impulse_fraction}"
            )
        if not 0 <= self.impulse_magnitude < math.inf:
            raise ValueError(
                f"impulse_magnitude must be nonnegative and finite, "
                f"got {self.impulse_magnitude}"
            )
        if not (self.stable_params is None or isinstance(self.stable_params, StableParams)):
            raise ValueError(
                f"stable_params must be None or a StableParams, got {self.stable_params!r}"
            )
        families = [
            self.inlier_snr_db is not None,
            self.inlier_sigma is not None,
            self.stable_params is not None,
        ]
        if sum(families) > 1:
            raise ValueError(
                "set at most one of inlier_snr_db, inlier_sigma, stable_params"
            )
        if self.inlier_sigma is not None and not 0 < self.inlier_sigma < math.inf:
            raise ValueError(
                f"inlier_sigma must be positive and finite, got {self.inlier_sigma}"
            )
        if self.inlier_snr_db is not None:
            # numpy's power gives inf where Python's ** raises OverflowError
            with np.errstate(over="ignore", under="ignore"):
                scale = np.power(10.0, self.inlier_snr_db / 10.0)
            if not sys.float_info.min <= scale < math.inf:
                raise ValueError(
                    f"inlier_snr_db must be finite with 10^(snr_db / 10) a finite, "
                    f"normal float, got {self.inlier_snr_db}"
                )


def rng_for(seed: int) -> np.random.Generator:
    """The package-wide PRNG: PCG64 seeded deterministically."""
    return np.random.Generator(np.random.PCG64(seed))


def round_half_away(x: float) -> int:
    """round(x) with halves going away from zero (0.5 -> 1)."""
    # math.floor raises ValueError on NaN and OverflowError on inf
    return int(math.copysign(math.floor(abs(x) + 0.5), x))


def sinc_target(x: np.ndarray) -> np.ndarray:
    """20 * sinc(2 pi x) with the normalized sinc convention
    sinc(t) = sin(pi t) / (pi t); the peak value is 20 at x = 0."""
    return 20.0 * np.sinc(2.0 * np.pi * np.asarray(x, dtype=np.float64))


def make_sinc_dataset() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """398 equidistant points on [-0.99, 1) with spacing 0.005; the 199
    odd-indexed points (first, third, ...) form the training set and
    the rest the validation set.

    Returns (train_inputs, train_truth, validation_inputs,
    validation_truth), each of shape (199,).
    """
    x = -0.99 + 0.005 * np.arange(398)
    f = sinc_target(x)
    return x[0::2], f[0::2], x[1::2], f[1::2]


def lattice_nodes() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(all 961 nodes, 256 training nodes, 225 validation nodes) of the
    31 x 31 lattice over [0,1]^2.  The 16 odd-indexed axis points give
    the training nodes and the remaining 15 the validation nodes."""
    axis = np.linspace(0.0, 1.0, 31)
    train, val = axis[0::2], axis[1::2]
    return grid_points(axis, axis), grid_points(train, train), grid_points(val, val)


@functools.lru_cache(maxsize=1)
def _lattice_kernels() -> tuple[np.ndarray, np.ndarray]:
    """The fixed center-by-training-node and center-by-validation-node
    kernel matrices of ``lattice_nodes()``, center-major so that a draw
    reads the rows of its support.  Every draw shares them, so they are
    built once and marked read-only."""
    centers, train_pts, val_pts = lattice_nodes()
    params = KernelParams(LATTICE_KERNEL_SIGMA)
    kernels = cross_gram(centers, train_pts, params), cross_gram(centers, val_pts, params)
    for k in kernels:
        k.flags.writeable = False
    return kernels


def make_lattice_dataset(
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """2-D target on the lattice of ``lattice_nodes``.

    The target is a sparse combination of Gaussian kernels (sigma 0.2)
    centered at all 961 nodes; the number of nonzero coefficients is
    uniform over 4%-17.5% of the 256 training points and their values
    are N(0, 25.6^2).  Every draw shares the training and validation
    nodes of ``lattice_nodes()``.

    Each truth is one product over the support only: the kernel rows of
    the nonzero coefficients, in increasing center order, against those
    coefficients.  A product over all 961 centers can differ from it in
    the last bits.

    Returns (train_truth, validation_truth, true_alpha): the truths at
    the 256 training and 225 validation nodes, and the coefficients
    over all 961 nodes.
    """
    train_kernels, val_kernels = _lattice_kernels()
    n_centers, n_train = train_kernels.shape
    lo = math.ceil(0.04 * n_train)
    hi = math.floor(0.175 * n_train)
    nnz = int(rng.integers(lo, hi + 1))
    alpha = np.zeros(n_centers)
    alpha[rng.choice(n_centers, size=nnz, replace=False)] = rng.normal(
        0.0, 25.6, size=nnz
    )
    idx = np.flatnonzero(alpha)
    weights = alpha[idx]
    return weights @ train_kernels[idx], weights @ val_kernels[idx], alpha


@functools.lru_cache(maxsize=4)
def _support_inputs(n: int) -> np.ndarray:
    """The n equidistant points on [0, 1] of ``make_support_dataset``.
    Every draw of one n shares them, so they are built once and marked
    read-only."""
    x = np.linspace(0.0, 1.0, n)
    x.flags.writeable = False
    return x


def make_support_dataset(
    rng: np.random.Generator, n: int = 100
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pure-outlier identification protocol: n equidistant points on
    [0, 1], target a sparse kernel combination (sigma 0.1) with 2 to 23
    nonzero coefficients drawn from N(0, 0.5^2).  The truth is
    evaluated from the support only, as ``cross_gram(x, x[idx]) @
    alpha[idx]`` over the nonzero indices ``idx`` in increasing order.

    Returns (inputs, truth, true_alpha).  The inputs are shared by every
    draw of the same n and read-only; truth and true_alpha are the
    draw's own.
    """
    x = _support_inputs(n)
    nnz = int(rng.integers(2, 24))
    alpha = np.zeros(n)
    alpha[rng.choice(n, size=nnz, replace=False)] = rng.normal(0.0, 0.5, size=nnz)
    idx = np.flatnonzero(alpha)
    truth = cross_gram(x, x[idx], KernelParams(SUPPORT_KERNEL_SIGMA)) @ alpha[idx]
    return x, truth, alpha


def sample_alpha_stable(
    rng: np.random.Generator, params: StableParams, size: int
) -> np.ndarray:
    """Symmetric alpha-stable samples via the Chambers-Mallows-Stuck
    transform (beta = 0, delta = 0)."""
    v = rng.uniform(-np.pi / 2.0, np.pi / 2.0, size=size)
    w = rng.exponential(1.0, size=size)
    a = params.alpha
    if a == 2.0:
        # the transform reduces to a Gaussian with variance 2 gamma^2
        return params.gamma_scale * 2.0 * np.sqrt(w) * np.sin(v)
    if a == 1.0:
        x = np.tan(v)
    else:
        x = (
            np.sin(a * v)
            / np.cos(v) ** (1.0 / a)
            * (np.cos(v - a * v) / w) ** ((1.0 - a) / a)
        )
    return params.gamma_scale * x


def _noise_family(spec: NoiseSpec) -> str:
    """The inlier-noise family of ``spec`` and its scale, for messages."""
    if spec.inlier_snr_db is not None:
        return f"Gaussian inlier noise at inlier_snr_db={spec.inlier_snr_db}"
    if spec.inlier_sigma is not None:
        return f"Gaussian inlier noise at inlier_sigma={spec.inlier_sigma}"
    return f"alpha-stable noise at gamma_scale={spec.stable_params.gamma_scale}"


def corrupt(
    truth: np.ndarray,
    spec: NoiseSpec,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Apply the noise model to a noise-free target vector.

    Returns (observations, outlier support indices in draw order, dense
    outlier vector).  The impulse count is round(fraction * N) with
    halves away from zero; signs are independent equiprobable +/-.
    Gaussian inlier variance is mean(truth^2) / 10^(snr_db / 10).
    ``truth`` must be finite, and so must that variance and the
    observations: a sum that overflows raises ``ValueError`` naming the
    noise family.

    Every draw comes from ``rng``, typically ``rng_for(seed)``; a caller
    that drew the dataset from the same stream keeps consuming it here.
    """
    truth = np.asarray(truth, dtype=np.float64).ravel()
    n = truth.shape[0]

    count = round_half_away(spec.impulse_fraction * n)
    if count >= n:
        raise ValueError(f"impulse count {count} must be below N={n}")
    support = rng.choice(n, size=count, replace=False)
    u = np.zeros(n)
    signs = np.where(rng.random(count) < 0.5, -1.0, 1.0)
    u[support] = signs * spec.impulse_magnitude

    # one finiteness check of y covers every term, the noise draws
    # included; only a failure looks for the first term that overflows
    with np.errstate(over="ignore", invalid="ignore"):
        y = truth + u
        if spec.inlier_snr_db is not None:
            # a huge truth at a low SNR can overflow truth^2 or the quotient
            var = float(np.mean(truth**2)) / 10.0 ** (spec.inlier_snr_db / 10.0)
            if not math.isfinite(var):
                if not np.isfinite(truth).all():
                    raise ValueError("truth must be finite")
                raise ValueError(
                    f"the Gaussian inlier variance mean(truth^2) / 10^(snr_db / 10) "
                    f"overflows at inlier_snr_db={spec.inlier_snr_db}"
                )
            y += rng.normal(0.0, np.sqrt(var), size=n)
        elif spec.inlier_sigma is not None:
            y += rng.normal(0.0, spec.inlier_sigma, size=n)
        elif spec.stable_params is not None:
            y += sample_alpha_stable(rng, spec.stable_params, n)
        if not np.isfinite(y).all():
            if not np.isfinite(truth).all():
                raise ValueError("truth must be finite")
            if not np.isfinite(truth + u).all():
                raise ValueError(
                    "truth plus an impulse overflows at "
                    f"impulse_magnitude={spec.impulse_magnitude}"
                )
            raise ValueError(
                f"truth plus the impulses and the {_noise_family(spec)} overflows"
            )
    return y, support, u
