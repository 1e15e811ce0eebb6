"""Spectral diagnostics and outlier-identification certificates.

Everything here works from the SVD of the initial design X0 = [K 1],
built by the same function as the solver's, under the solver's penalty
lam ||theta||^2 on theta = (alpha; c) with unit Tikhonov weights:
leverage (hat-matrix) diagnostics showing how the ridge term
down-weights leverage points, and the sufficient condition under which
the greedy selection is guaranteed to pick true outlier locations first
(pure-outlier regime).

The certificate sigma_max(X0) < gamma sqrt(lambda), with gamma from
theta and u, takes sigma_max itself: a caller checking many truths
against one Gram matrix computes it once, with ``design_sigma_max``,
and checks them all in one ``theorem_check`` call on (B, N+1) and
(B, N) stacks of theta and u, as a 2-D ``KgardSolver.fit`` fits a
batch; one truth is a one-row stack.  The norms of theta and u are
numpy's OpenBLAS dots on one thread, so their bits do not depend on
the thread setting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import svdvals

from .core import _check_lambda, _one_blas_thread, _ridge_design
from .kernel import _as_float

_RANK_TOL = 1e-10


@dataclass
class SpectralDiagnostics:
    hat_diag: np.ndarray  # unregularized leverage h_ii
    hat_diag_reg: np.ndarray  # ridge leverage h~_ii at the given lambda
    g_diag: np.ndarray  # sigma^2 / (sigma^2 + lambda)
    phi_diag: np.ndarray  # lambda sigma / (sigma^2 + lambda)


def spectral_diagnostics(gram: np.ndarray, lam: float) -> SpectralDiagnostics:
    """Leverage analysis of X0 = [K 1] under ridge regularization.

    The regularized hat matrix is Q G Q^T with G = diag(sigma_i^2 /
    (sigma_i^2 + lambda)): each spectral direction of the plain hat
    matrix Q Q^T is shrunk by the factor sigma_i^2 / (sigma_i^2 +
    lambda), so every ridge leverage is strictly below its
    unregularized counterpart.  The SVD runs pinned to one OpenBLAS
    thread, like ``design_sigma_max``, so the arrays' bits do not depend
    on the thread setting.
    """
    lam = _check_lambda(lam)
    x0 = _ridge_design(gram)
    with _one_blas_thread():
        q, s, _ = np.linalg.svd(x0, full_matrices=False)  # q: N x N, s: N
    g = s**2 / (s**2 + lam)
    phi = lam * s / (s**2 + lam)
    # unregularized leverage via the pseudoinverse convention: only
    # directions with nonzero singular value contribute
    mask = (s > _RANK_TOL * s[0]).astype(np.float64)
    hat_diag = np.einsum("ij,j,ij->i", q, mask, q)
    hat_diag_reg = np.einsum("ij,j,ij->i", q, g, q)
    return SpectralDiagnostics(
        hat_diag=hat_diag, hat_diag_reg=hat_diag_reg, g_diag=g, phi_diag=phi
    )


@dataclass
class BoundReport:
    """The guaranteed-identification condition for B truths: every
    field is a (B,) array, row i for truth i, except ``sigma_max`` and
    ``lam``, the floats the check ran at.

    ``gamma`` is NaN where min|u| - sqrt(2 lambda) ||theta|| <= 0, in
    which case the certificate cannot hold at this lambda.
    ``lambda_cap`` is the largest admissible lambda,
    (min|u| / ||theta||)^2 / 2: inf when theta = 0 or when it exceeds
    the largest float.
    """

    sigma_max: float
    gamma: np.ndarray
    lambda_cap: np.ndarray
    holds: np.ndarray  # bool
    min_outlier: np.ndarray
    theta_norm: np.ndarray
    outlier_norm: np.ndarray
    lam: float


def design_sigma_max(gram: np.ndarray) -> float:
    """sigma_max of the ridge design X0 = [K 1].  scipy's SVD shares the
    solver setup's OpenBLAS; numpy's would wait for the other's threads.
    Like solver setup, it runs pinned to one OpenBLAS thread, restoring
    the counts afterwards, so its bits do not depend on the thread
    setting (with another BLAS, only at a fixed setting)."""
    x0 = _ridge_design(gram)
    with _one_blas_thread():
        return float(svdvals(x0, check_finite=False)[0])


def _squared_norms(x: np.ndarray, name: str) -> np.ndarray:
    """x . x of every row of a (B, M) stack, each row the one BLAS dot
    that ``x[i].dot(x[i])`` makes; ValueError when one overflows.  It
    runs on one numpy OpenBLAS thread: above 10 000 entries OpenBLAS
    splits a dot over its threads, and the bits with it."""
    with np.errstate(over="ignore"), _one_blas_thread():
        squares = np.matmul(x[:, None, :], x[:, :, None])[:, 0, 0]
    if not np.isfinite(squares).all():
        raise ValueError(f"the squared norm of the true {name} overflows")
    return squares


def theorem_check(
    sigma_max: float,
    true_theta: np.ndarray,
    true_outliers: np.ndarray,
    lam: float,
) -> BoundReport:
    """Check sigma_max(X0) < gamma * sqrt(lambda) for B known truths.

    ``sigma_max`` is ``design_sigma_max`` of the Gram matrix the truths
    share, ``true_theta`` a (B, N+1) stack of (alpha; c) vectors and
    ``true_outliers`` a dense (B, N) stack, each row zero off its
    outlier support.  Applies to the pure-outlier regime (no inlier
    noise).  Every row must be finite with a nonzero u and finite
    squared norms of theta and u; otherwise, or for any other shape,
    ``ValueError``.
    """
    lam = _check_lambda(lam)
    sigma_max = _as_float("sigma_max", sigma_max)
    if not 0 <= sigma_max < math.inf:
        raise ValueError(f"sigma_max must be nonnegative and finite, got {sigma_max}")
    u = np.asarray(true_outliers, dtype=np.float64)
    theta = np.asarray(true_theta, dtype=np.float64)
    if u.ndim != 2 or theta.shape != (u.shape[0], u.shape[1] + 1):
        raise ValueError(
            "expected theta of shape (B, N+1) and outliers of shape (B, N), "
            f"got {theta.shape} and {u.shape}"
        )
    if not (np.isfinite(theta).all() and np.isfinite(u).all()):
        raise ValueError("true theta and outliers must be finite")
    nonzero = u != 0
    empty = ~nonzero.any(axis=1)
    if empty.any():
        raise ValueError(f"true outlier vector has empty support in row {empty.argmax()}")
    min_outlier = np.where(nonzero, np.abs(u), math.inf).min(axis=1)
    # sqrt(x . x) is exactly what np.linalg.norm computes for a 1-D array
    theta_norm = np.sqrt(_squared_norms(theta, "theta"))
    outlier_norm = np.sqrt(_squared_norms(u, "outliers"))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # float_power is libm's pow, the one Python's ** calls; x * x
        # differs from it in the last bit for about 1 in 1200 x.
        # theta = 0 and a cap past the largest float both give inf.
        lambda_cap = np.float_power(min_outlier / theta_norm, 2.0) / 2.0
        # sqrt(2 lambda) may be inf, and inf * 0 NaN: no certificate
        penalty = math.sqrt(2.0 * lam) * theta_norm
        numerator = min_outlier - penalty
        certified = numerator > 0
        gamma = np.sqrt(numerator / (2.0 * outlier_norm - min_outlier + penalty))
    gamma[~certified] = math.nan
    return BoundReport(
        sigma_max=sigma_max,
        gamma=gamma,
        lambda_cap=lambda_cap,
        holds=certified & (sigma_max < gamma * math.sqrt(lam)),
        min_outlier=min_outlier,
        theta_norm=theta_norm,
        outlier_norm=outlier_norm,
        lam=lam,
    )
