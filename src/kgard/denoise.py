"""Impulse-noise image denoising via tiled robust kernel regression.

The image is split into overlapping N x N regions of interest (ROIs)
stepping by L, whose central L x L cores tile the image exactly once;
the ROIs are one strided view of the replicate-padded image.  Each ROI is
treated as a regression surface over the unit square: a Gaussian-kernel
ridge fit with sparse outlier estimation separates the smooth intensity
surface from impulses.  The ridge parameter is picked per ROI from the
local gradient statistics and the stopping threshold is re-derived at
every iteration from a histogram of the current residuals, row-wise
over the (L, N) stack of the ROIs still running.  All ROIs of an image
are fitted as one lockstep batch by one solver that carries every
ridge tier.

Outputs are the denoised image (the fitted smooth surfaces), the
outlier map (estimated impulses at full resolution), and the original
image minus the outlier map, which preserves inlier texture for a
downstream Gaussian-denoising stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import KgardSolver, _check_count
from .kernel import KernelParams, _as_float, gram_matrix, grid_points
from .pgm import _as_image

_DEGENERATE_SPAN = 1e-9
_DISPERSION_GATE = 0.9

# outlier-map values are snapped to this grid so that, for images whose
# pixels sit on a coarser dyadic grid (8-bit files in particular),
# original - outlier_map is exact and the reconstruction identity
# impulse_removed + outlier_map == original holds bit for bit
_MAP_QUANTUM = 2.0**-30


@dataclass(frozen=True)
class RoiConfig:
    """Tiling and solver parameters for the pipeline.

    ``roi_size`` (N) and ``core_size`` (L) must satisfy N > L >= 1 with
    N - L even so the core sits centrally.  ``e0`` is the hard upper
    cap on the automatic stopping threshold.
    """

    roi_size: int = 12
    core_size: int = 8
    sigma: float = 0.3
    lambda0: float = 1.0
    e0: float = 40.0

    def __post_init__(self) -> None:
        for name, minimum in (("roi_size", 0), ("core_size", 1)):
            value = getattr(self, name)
            _check_count(name, value, minimum)
            object.__setattr__(self, name, int(value))  # origins stay Python ints
        if not self.roi_size > self.core_size:
            raise ValueError(
                f"roi_size {self.roi_size} must exceed core_size {self.core_size}"
            )
        if (self.roi_size - self.core_size) % 2:
            raise ValueError("roi_size - core_size must be even")
        object.__setattr__(self, "sigma", KernelParams(self.sigma).sigma)
        # the smooth tier, 15 lambda0, is the largest ridge parameter used
        lambda0 = _as_float("lambda0", self.lambda0)
        if not (lambda0 > 0 and 15.0 * lambda0 < math.inf):
            raise ValueError(
                f"lambda0 must be positive with 15 * lambda0 finite, got {self.lambda0}"
            )
        e0 = _as_float("e0", self.e0)
        if not e0 > 0:
            raise ValueError(f"e0 must be positive, got {self.e0}")
        object.__setattr__(self, "lambda0", lambda0)
        object.__setattr__(self, "e0", e0)

    @property
    def pad(self) -> int:
        return (self.roi_size - self.core_size) // 2


def pad_image(image, cfg: RoiConfig) -> np.ndarray:
    """Grow both sides to multiples of the core size by replicating the
    last row/column, then replicate-pad all sides by (N - L) / 2."""
    img = _as_image(image)
    pad, ell = cfg.pad, cfg.core_size
    h, w = img.shape
    return np.pad(img, ((pad, pad + -h % ell), (pad, pad + -w % ell)), mode="edge")


def _rois(padded: np.ndarray, cfg: RoiConfig) -> np.ndarray:
    """The ROIs of a padded image as a read-only (rows, cols, N, N) view:
    ROI (i, j) has its top-left corner at (i L, j L)."""
    n, ell = cfg.roi_size, cfg.core_size
    if any(side < n or (side - n) % ell for side in padded.shape):
        raise ValueError(
            f"padded image shape {padded.shape} does not fit ROIs of size {n} "
            f"stepping by {ell}; pass the output of pad_image"
        )
    return sliding_window_view(padded, (n, n))[::ell, ::ell]


def _cores(stack: np.ndarray, cfg: RoiConfig) -> np.ndarray:
    """The central L x L cores of a (rows, cols, N, N) stack, assembled
    into one (rows L, cols L) image."""
    rows, cols = stack.shape[:2]
    pad, ell = cfg.pad, cfg.core_size
    cores = stack[:, :, pad : pad + ell, pad : pad + ell]
    return cores.transpose(0, 2, 1, 3).reshape(rows * ell, cols * ell)


def roi_lattice(n: int) -> np.ndarray:
    """The N^2 regression inputs: pixel (i, j) maps to
    ((i-1)/(N-1), (j-1)/(N-1)) in [0, 1]^2, in row-major order."""
    axis = np.arange(n) / (n - 1)
    return grid_points(axis, axis)


def _mean_gradients(padded: np.ndarray, cfg: RoiConfig) -> np.ndarray:
    """Each ROI's mean gradient magnitude, (R,) in raster order."""
    # central differences with replicated borders (one-sided at edges)
    gy, gx = np.gradient(padded)
    # each ROI copied into one contiguous row sums in the order np.mean of
    # the window does; mean(axis=(2, 3)) on the strided view does not
    return _rois(np.sqrt(gx**2 + gy**2), cfg).reshape(-1, cfg.roi_size**2).mean(axis=1)


def auto_lambda_map(padded, cfg: RoiConfig) -> np.ndarray:
    """Per-ROI ridge parameters, (R,) in raster order, in three tiers.

    ``padded`` is the image as returned by :func:`pad_image`.  Detailed
    ROIs (mean gradient above m + s) get lambda0, smooth ones (below
    m - s/10) get 15 lambda0, the rest 5 lambda0, where m and s are the
    mean and standard deviation over all ROI mean gradients.  A finite
    image whose gradients are too large for these statistics raises
    ``ValueError``.
    """
    padded = _as_image(padded)
    _rois(padded, cfg)  # rejects a shape that is not a padded image's
    # finite pixels can overflow a squared gradient; the statistics are
    # checked once
    with np.errstate(over="ignore", invalid="ignore"):
        means = _mean_gradients(padded, cfg)
        m = float(np.mean(means))
        s = float(np.std(means))
    if not (math.isfinite(m) and math.isfinite(s)):
        raise ValueError("the ROI mean gradients overflow: the pixel values are too large")
    lambdas = np.full(means.shape, 5.0 * cfg.lambda0)
    lambdas[means > m + s] = cfg.lambda0
    lambdas[means < m - s / 10.0] = 15.0 * cfg.lambda0
    return lambdas


def _magnitude_rows(residual_abs) -> tuple:
    """Validated (L, N) residual magnitudes, with each row's minimum and
    maximum."""
    r = np.asarray(residual_abs, dtype=np.float64)
    if r.ndim != 2:
        raise ValueError(f"residual magnitudes must be an (L, N) stack, got {r.shape}")
    if r.size == 0:
        raise ValueError("residual vector is empty")
    first, last = r.min(axis=1), r.max(axis=1)
    # min and max propagate NaN, so these two bounds catch every bad value
    if not (first.min() >= 0 and last.max() < math.inf):
        if not np.all(np.isfinite(r)):
            raise ValueError("residual magnitudes must be finite")
        raise ValueError("residual magnitudes must be nonnegative")
    return r, first, last


def _histograms(r: np.ndarray, first: np.ndarray, last: np.ndarray) -> tuple:
    """Row-wise ``np.histogram(row, bins, range=(row.min(), row.max()))``
    of an (L, N) array whose row minima and maxima are ``first`` and
    ``last``, bit for bit: the same linspace edges, the same index
    formula with its +-1 edge corrections, and a closed last bin; then
    each row's E1, E2 (+inf when none) and dispersion, as in auto_epsilon."""
    rows_n, n = r.shape
    bins = n // 10 + 1
    half = 0.5 * (first == last)  # np.histogram widens an empty range by 0.5
    first = first - half
    last = last + half
    delta = last - first
    # np.linspace with scalar ends: i * step + first, last edge exact
    edges = np.arange(bins + 1.0) * (delta / bins)[:, None] + first[:, None]
    edges[:, -1] = last
    if (edges[:, :-1] >= edges[:, 1:]).any():
        raise ValueError(
            f"Too many bins for data range. Cannot create {bins} finite-sized bins."
        )
    # indices into the raveled edges, row i's bins starting at i (bins + 1)
    flat_edges = edges.ravel()
    offset = np.arange(0, rows_n * (bins + 1), bins + 1)
    scaled = r - first[:, None]
    scaled /= delta[:, None]
    scaled *= bins
    idx = scaled.astype(np.intp)
    np.minimum(idx, bins - 1, out=idx)
    idx += offset[:, None]
    idx -= r < flat_edges.take(idx)
    # a value on the last edge moves to the spare bin `bins`, folded back
    # below: the last bin is closed
    idx += r >= flat_edges[1:].take(idx)
    counts = np.bincount(idx.ravel(), minlength=rows_n * (bins + 1))
    counts = counts.reshape(rows_n, bins + 1)
    counts[:, -2] += counts[:, -1]
    heights = counts[:, :-1]

    h_min = heights.min(axis=1)
    e1 = flat_edges.take(heights.argmin(axis=1) + offset)
    # E2 scan: the first bar ell >= 1 rising by >= 1 from a near-minimum
    # bar; a one-bar histogram has none
    e2 = np.full(rows_n, np.inf)
    if bins > 1:
        before = heights[:, :-1]
        rise = (heights[:, 1:] > before) & (before <= h_min[:, None] + 5)
        ell = rise.argmax(axis=1)
        e2 = np.where(rise.any(axis=1), flat_edges[1:].take(ell + offset), np.inf)
    # np.var's arithmetic: every value lands in one bin, so the float sum
    # of a row's heights is n and their mean n / bins
    mean = n / bins
    dev = heights - mean
    dev *= dev
    dispersion = np.sqrt(dev.sum(axis=1) / bins) / mean
    return e1, e2, dispersion


def auto_epsilon(residual_abs: np.ndarray, e0: float) -> np.ndarray:
    """Stopping thresholds of an (L, N) stack of residual magnitudes, as
    an (L,) array, from each row's histogram over floor(N/10) + 1 equal
    bins.  E1 is the left edge of the first bar of minimum height.  E2 is
    the left edge of the first bar (second or later) that rises by at
    least 1 from a predecessor of near-minimum height (h <= h_min + 5).

    Returns min(e0, E1, E2) when the bar heights are strongly dispersed
    (sqrt(var)/mean > 0.9, the signature of a separated outlier mode)
    and min(e0, E1) otherwise.  A degenerate row (residual span below
    1e-9) returns e0.  ``e0`` must be positive.
    """
    e0 = _as_float("e0", e0)
    if not e0 > 0:
        raise ValueError(f"e0 must be positive, got {e0}")
    r, first, last = _magnitude_rows(residual_abs)
    eps = np.full(r.shape[0], e0)
    live = last - first >= _DEGENERATE_SPAN
    if not live.all():
        r, first, last = r[live], first[live], last[live]
    if r.shape[0]:
        e1, e2, dispersion = _histograms(r, first, last)
        e2 = np.where(dispersion > _DISPERSION_GATE, e2, np.inf)
        eps[live] = np.minimum(np.minimum(eps[live], e1), e2)
    return eps


@dataclass
class RoiDiagnostics:
    """One ROI's fit.  Nothing sets ``failed``, kept for
    ``bench/workloads.py``: a fit that cannot run fails the whole call."""

    index: int
    origin: tuple
    lam: float
    epsilon: float
    outliers: int
    stop_reason: str
    failed: bool = False


@dataclass
class DenoiseResult:
    denoised: np.ndarray
    outlier_map: np.ndarray
    impulse_removed: np.ndarray
    diagnostics: list = field(default_factory=list)


def denoise_image(image, cfg: Optional[RoiConfig] = None) -> DenoiseResult:
    """Run the full tiled pipeline on a grayscale image.

    The ROIs are read off the padded image as one (R, N^2) stack in
    raster order.  Each ROI is fitted with the robust kernel ridge model
    on the N^2 lattice and the ROI's automatic ridge parameter, using
    the max-norm stopping rule with the threshold recomputed from the
    residual histogram at every iteration.  One solver carries the
    lambda tiers over the shared Gram matrix, and all ROIs are fitted
    as one lockstep batch, on the calling thread.  The fitted smooth
    surfaces' cores form the denoised image and the estimated impulses'
    cores the outlier map.  Diagnostics are in raster order.  A finite
    image too large for the pipeline's arithmetic, one that would give
    an output that is not finite, raises ``ValueError``.
    """
    if cfg is None:
        cfg = RoiConfig()
    img = _as_image(image)
    padded = pad_image(img, cfg)
    lambdas = auto_lambda_map(padded, cfg)
    n, ell = cfg.roi_size, cfg.core_size
    rois = _rois(padded, cfg)
    rows, cols = rois.shape[:2]
    ys = rois.reshape(rows * cols, n * n)

    gram = gram_matrix(roi_lattice(n), KernelParams(cfg.sigma))
    lams, tier = np.unique(lambdas, return_inverse=True)
    batch = KgardSolver(gram, lams).fit(
        ys,
        epsilon=lambda abs_r: auto_epsilon(abs_r, cfg.e0),
        stop_norm="linf",
        max_selections=(n * n) // 3,
        tier=tier,
    )

    outliers = np.zeros(ys.shape)
    roi, index, value = batch.selected()
    outliers[roi, index] = value
    per_roi = zip(
        lambdas.tolist(), batch.epsilon.tolist(), batch.selections.tolist(),
        batch.stop_reason.tolist(),
    )
    diagnostics = [
        RoiDiagnostics(idx, (idx // cols * ell, idx % cols * ell), lam, eps, count, reason)
        for idx, (lam, eps, count, reason) in enumerate(per_roi)
    ]

    h, w = img.shape
    # a fit of finite pixels can still overflow here; the outputs are
    # checked once
    with np.errstate(over="ignore", invalid="ignore"):
        surfaces = batch.evaluate(gram)
        denoised = _cores(surfaces.reshape(rows, cols, n, n), cfg)[:h, :w]
        outlier_map = _cores(outliers.reshape(rows, cols, n, n), cfg)[:h, :w]
        outlier_map = np.round(outlier_map / _MAP_QUANTUM) * _MAP_QUANTUM
        impulse_removed = img - outlier_map
    if not all(np.isfinite(a).all() for a in (denoised, outlier_map, impulse_removed)):
        raise ValueError("denoising overflows: an output pixel is not finite")
    return DenoiseResult(
        denoised=denoised,
        outlier_map=outlier_map,
        impulse_removed=impulse_removed,
        diagnostics=diagnostics,
    )


def psnr(a, b) -> float:
    """Peak signal-to-noise ratio in dB against a 255 peak; identical
    images return +inf."""
    a = _as_image(a)
    b = _as_image(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(255.0**2 / mse)
