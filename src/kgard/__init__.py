"""Robust kernel ridge regression with greedy outlier identification.

The model y = K alpha + c 1 + u + eta combines a Gaussian-kernel ridge
fit with a sparse outlier vector u selected greedily, one coordinate
per iteration.  The package also provides spectral identification
certificates, Monte-Carlo benchmark protocols, and a tiled
impulse-noise image denoising pipeline.
"""

from .core import (
    KgardBatch,
    KgardConfig,
    KgardSolver,
    NumericalError,
)
from .denoise import DenoiseResult, RoiConfig, denoise_image, psnr
from .experiments import (
    AggregateStats,
    TrialResult,
    run_monte_carlo,
    sweep_outlier_magnitude,
)
from .kernel import KernelParams, cross_gram, gram_matrix
from .noise import (
    NoiseSpec,
    StableParams,
    corrupt,
    make_lattice_dataset,
    make_sinc_dataset,
    rng_for,
)
from .pgm import PgmFormatError, read_pgm, write_pgm
from .theory import (
    BoundReport,
    SpectralDiagnostics,
    design_sigma_max,
    spectral_diagnostics,
    theorem_check,
)

__version__ = "0.1.0"

__all__ = [
    "AggregateStats",
    "BoundReport",
    "DenoiseResult",
    "KernelParams",
    "KgardBatch",
    "KgardConfig",
    "KgardSolver",
    "NoiseSpec",
    "NumericalError",
    "PgmFormatError",
    "RoiConfig",
    "SpectralDiagnostics",
    "StableParams",
    "TrialResult",
    "corrupt",
    "cross_gram",
    "denoise_image",
    "design_sigma_max",
    "gram_matrix",
    "make_lattice_dataset",
    "make_sinc_dataset",
    "psnr",
    "read_pgm",
    "rng_for",
    "run_monte_carlo",
    "spectral_diagnostics",
    "sweep_outlier_magnitude",
    "theorem_check",
    "write_pgm",
]
