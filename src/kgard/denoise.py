"""Impulse-noise image denoising via tiled robust kernel regression.

The image is split into overlapping N x N regions of interest (ROIs)
whose central L x L cores tile the image exactly once.  Each ROI is
treated as a regression surface over the unit square: a Gaussian-kernel
ridge fit with sparse outlier estimation separates the smooth intensity
surface from impulses.  The ridge parameter is picked per ROI from the
local gradient statistics and the stopping threshold is re-derived at
every iteration from a histogram of the current residuals.

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

from .core import KgardSolver, NumericalError
from .kernel import KernelParams, gram_matrix

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
        if not self.core_size >= 1:
            raise ValueError(f"core_size must be >= 1, got {self.core_size}")
        if not self.roi_size > self.core_size:
            raise ValueError(
                f"roi_size {self.roi_size} must exceed core_size {self.core_size}"
            )
        if (self.roi_size - self.core_size) % 2:
            raise ValueError("roi_size - core_size must be even")
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if not self.lambda0 > 0:
            raise ValueError(f"lambda0 must be positive, got {self.lambda0}")
        if not self.e0 > 0:
            raise ValueError(f"e0 must be positive, got {self.e0}")

    @property
    def pad(self) -> int:
        return (self.roi_size - self.core_size) // 2


@dataclass
class TilePlan:
    """Geometry of one tiling: ROI origins are top-left corners in
    padded coordinates, stepping by the core size in raster order."""

    original_shape: tuple
    extended_shape: tuple  # original grown to multiples of core_size
    padded_shape: tuple
    pad: int
    roi_origins: list
    rois_per_row: int


def _as_image(image) -> np.ndarray:
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2 or img.size == 0:
        raise ValueError(f"image must be a nonempty 2-D array, got shape {img.shape}")
    if not np.all(np.isfinite(img)):
        raise ValueError("image pixels must be finite")
    return img


def _replicate_extend(image: np.ndarray, multiple: int) -> np.ndarray:
    """Grow both dimensions up to the next multiple by replicating the
    last row/column."""
    h, w = image.shape
    eh = math.ceil(h / multiple) * multiple
    ew = math.ceil(w / multiple) * multiple
    return np.pad(image, ((0, eh - h), (0, ew - w)), mode="edge")


def tile_plan(image, cfg: RoiConfig) -> TilePlan:
    """Plan the ROI grid for an image under the given configuration."""
    img = _as_image(image)
    n, ell, pad = cfg.roi_size, cfg.core_size, cfg.pad
    extended = _replicate_extend(img, ell)
    eh, ew = extended.shape
    origins = [
        (r, c) for r in range(0, eh, ell) for c in range(0, ew, ell)
    ]
    return TilePlan(
        original_shape=img.shape,
        extended_shape=(eh, ew),
        padded_shape=(eh + 2 * pad, ew + 2 * pad),
        pad=pad,
        roi_origins=origins,
        rois_per_row=ew // ell,
    )


def pad_image(image, cfg: RoiConfig) -> np.ndarray:
    """Extend to core-size multiples, then replicate-pad all sides."""
    img = _replicate_extend(_as_image(image), cfg.core_size)
    return np.pad(img, cfg.pad, mode="edge")


def rearrange(roi: np.ndarray) -> np.ndarray:
    """Flatten a square block row by row into a vector."""
    roi = np.asarray(roi, dtype=np.float64)
    if roi.ndim != 2 or roi.shape[0] != roi.shape[1]:
        raise ValueError(f"ROI must be square, got shape {roi.shape}")
    return roi.reshape(-1)


def unrearrange(vector: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`rearrange`."""
    v = np.asarray(vector, dtype=np.float64).ravel()
    if v.shape[0] != n * n:
        raise ValueError(f"expected {n * n} values, got {v.shape[0]}")
    return v.reshape(n, n)


def roi_lattice(n: int) -> np.ndarray:
    """The N^2 regression inputs: pixel (i, j) maps to
    ((i-1)/(N-1), (j-1)/(N-1)) in [0, 1]^2, in row-major order."""
    axis = np.arange(n) / (n - 1)
    rr, cc = np.meshgrid(axis, axis, indexing="ij")
    return np.column_stack([rr.ravel(), cc.ravel()])


@dataclass
class LambdaMap:
    lambdas: np.ndarray  # per-ROI ridge parameter, one of the 3 tiers
    mean_gradients: np.ndarray
    m: float
    s: float


def _gradient_magnitude(image: np.ndarray) -> np.ndarray:
    # central differences with replicated borders (one-sided at edges)
    gy, gx = np.gradient(image)
    return np.sqrt(gx**2 + gy**2)


def auto_lambda_map(padded, plan: TilePlan, cfg: RoiConfig) -> LambdaMap:
    """Three-tier ridge selection from local gradient statistics.

    ``padded`` is the image as returned by :func:`pad_image`.  Detailed
    ROIs (mean gradient above m + s) get lambda0, smooth ones (below
    m - s/10) get 15 lambda0, the rest 5 lambda0, where m and s are the
    mean and standard deviation over all ROI mean gradients.
    """
    padded = _as_image(padded)
    if padded.shape != plan.padded_shape:
        raise ValueError("tile plan does not match this image and configuration")
    grad = _gradient_magnitude(padded)
    n = cfg.roi_size
    means = np.array(
        [float(np.mean(grad[r : r + n, c : c + n])) for r, c in plan.roi_origins]
    )
    m = float(np.mean(means))
    s = float(np.std(means))
    lambdas = np.full(means.shape, 5.0 * cfg.lambda0)
    lambdas[means > m + s] = cfg.lambda0
    lambdas[means < m - s / 10.0] = 15.0 * cfg.lambda0
    return LambdaMap(lambdas=lambdas, mean_gradients=means, m=m, s=s)


@dataclass
class EpsilonHistogram:
    edges: np.ndarray
    heights: np.ndarray
    h_min: int
    e1: float
    e2: float  # +inf when no bar satisfies the jump scan
    dispersion: float


def epsilon_histogram(residual_abs: np.ndarray) -> EpsilonHistogram:
    """Histogram of |r| over floor(len/10) + 1 equal bins with the two
    threshold candidates read off it.

    E1 is the left edge of the first bar of minimum height.  E2 is the
    left edge of the first bar (second or later) that rises by at least
    1 from a predecessor of near-minimum height (h <= h_min + 5).
    """
    r = np.asarray(residual_abs, dtype=np.float64).ravel()
    if r.size == 0:
        raise ValueError("residual vector is empty")
    if np.any(r < 0):
        raise ValueError("residual magnitudes must be nonnegative")
    bins = r.size // 10 + 1
    heights, edges = np.histogram(r, bins=bins, range=(r.min(), r.max()))
    h_min = int(heights.min())
    e1 = float(edges[int(np.argmax(heights == h_min))])
    e2 = math.inf
    for ell in range(1, bins):
        if heights[ell] - heights[ell - 1] >= 1 and heights[ell - 1] <= h_min + 5:
            e2 = float(edges[ell])
            break
    mean_h = float(np.mean(heights))
    dispersion = float(np.sqrt(np.var(heights)) / mean_h) if mean_h > 0 else 0.0
    return EpsilonHistogram(
        edges=edges,
        heights=heights,
        h_min=h_min,
        e1=e1,
        e2=e2,
        dispersion=dispersion,
    )


def auto_epsilon(residual_abs: np.ndarray, e0: float) -> float:
    """Stopping threshold from the residual-magnitude histogram.

    Returns min(e0, E1, E2) when the bar heights are strongly dispersed
    (sqrt(var)/mean > 0.9, the signature of a separated outlier mode)
    and min(e0, E1) otherwise.  A degenerate histogram (all residuals
    equal) returns e0.
    """
    r = np.asarray(residual_abs, dtype=np.float64).ravel()
    if r.size == 0:
        raise ValueError("residual vector is empty")
    if float(r.max() - r.min()) < _DEGENERATE_SPAN:
        return float(e0)
    hist = epsilon_histogram(r)
    if hist.dispersion > _DISPERSION_GATE:
        return float(min(e0, hist.e1, hist.e2))
    return float(min(e0, hist.e1))


@dataclass
class RoiDiagnostics:
    index: int
    origin: tuple
    lam: float
    epsilon: float
    outliers: int
    iterations: int
    failed: bool = False


@dataclass
class DenoiseResult:
    denoised: np.ndarray
    outlier_map: np.ndarray
    impulse_removed: np.ndarray
    diagnostics: list = field(default_factory=list)


def denoise_image(image, cfg: Optional[RoiConfig] = None) -> DenoiseResult:
    """Run the full tiled pipeline on a grayscale image.

    Per ROI: fit the robust kernel ridge model on the N^2 lattice with
    the ROI's automatic ridge parameter, using the max-norm stopping
    rule with the threshold recomputed from the residual histogram at
    every iteration.  The fitted smooth surface fills the denoised
    image's core pixels and the estimated impulses fill the outlier
    map.  A ROI whose solve fails passes through unchanged and is
    flagged in the diagnostics.  ROIs run one after another, in raster
    order, on the calling thread.
    """
    if cfg is None:
        cfg = RoiConfig()
    img = _as_image(image)
    plan = tile_plan(img, cfg)
    padded = pad_image(img, cfg)
    lam_map = auto_lambda_map(padded, plan, cfg)
    n, ell, pad = cfg.roi_size, cfg.core_size, cfg.pad
    inner = np.s_[pad : pad + ell, pad : pad + ell]

    gram = gram_matrix(roi_lattice(n), KernelParams(cfg.sigma))
    solvers = {
        lam: KgardSolver(gram, lam) for lam in sorted(set(lam_map.lambdas.tolist()))
    }
    max_sel = (n * n) // 3

    denoised_ext = np.empty(plan.extended_shape)
    outlier_ext = np.zeros(plan.extended_shape)
    diagnostics: list[RoiDiagnostics] = []

    for idx, (r0, c0) in enumerate(plan.roi_origins):
        block = padded[r0 : r0 + n, c0 : c0 + n]
        core = np.s_[r0 : r0 + ell, c0 : c0 + ell]
        lam = float(lam_map.lambdas[idx])
        last_eps = [float(cfg.e0)]

        def eps_fn(abs_r: np.ndarray) -> float:
            last_eps[0] = auto_epsilon(abs_r, cfg.e0)
            return last_eps[0]

        try:
            sol = solvers[lam].fit(
                rearrange(block),
                epsilon=cfg.e0,
                stop_norm="linf",
                max_selections=max_sel,
                epsilon_fn=eps_fn,
            )
        except NumericalError:
            denoised_ext[core] = block[inner]
            diagnostics.append(
                RoiDiagnostics(idx, (r0, c0), lam, last_eps[0], 0, 0, failed=True)
            )
            continue
        u = np.zeros(n * n)
        for j, val in sol.outliers.items():
            u[j] = val
        denoised_ext[core] = unrearrange(gram @ sol.alpha + sol.bias, n)[inner]
        outlier_ext[core] = unrearrange(u, n)[inner]
        diagnostics.append(
            RoiDiagnostics(
                idx, (r0, c0), lam, last_eps[0], len(sol.outliers), sol.iterations
            )
        )

    h, w = plan.original_shape
    denoised = denoised_ext[:h, :w]
    outlier_map = np.round(outlier_ext[:h, :w] / _MAP_QUANTUM) * _MAP_QUANTUM
    return DenoiseResult(
        denoised=denoised,
        outlier_map=outlier_map,
        impulse_removed=img - outlier_map,
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
