"""Spectral diagnostics and outlier-identification certificates.

Everything here works from the SVD of the initial design X0 = [K 1]:
leverage (hat-matrix) diagnostics showing how the ridge term
down-weights leverage points, the sufficient condition under which the
greedy selection is guaranteed to pick true outlier locations first
(pure-outlier regime), and a closed-form expression for the residual
after k correct selections that serves as an independent oracle for
the solver.

The certificate needs only sigma_max(X0), computed once per distinct
Gram matrix: a single-entry memo keyed by the exact bytes of X0 serves
repeated checks and retains the bytes of the last Gram checked.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import NumericalError

_RANK_TOL = 1e-10


def _initial_design(gram: np.ndarray) -> np.ndarray:
    gram = np.asarray(gram, dtype=np.float64)
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
        raise ValueError(f"gram matrix must be square, got shape {gram.shape}")
    n = gram.shape[0]
    return np.hstack([gram, np.ones((n, 1))])


@dataclass
class SpectralDiagnostics:
    singular_values: np.ndarray  # sigma_i of X0 = [K 1]
    hat_diag: np.ndarray  # unregularized leverage h_ii
    hat_diag_reg: np.ndarray  # ridge leverage h~_ii at the given lambda
    g_diag: np.ndarray  # sigma^2 / (sigma^2 + lambda)
    phi_diag: np.ndarray  # lambda sigma / (sigma^2 + lambda)
    rank_deficient: bool


def spectral_diagnostics(gram: np.ndarray, lam: float) -> SpectralDiagnostics:
    """Leverage analysis of X0 = [K 1] under ridge regularization.

    The regularized hat matrix is Q G Q^T with G = diag(sigma_i^2 /
    (sigma_i^2 + lambda)): each spectral direction of the plain hat
    matrix Q Q^T is shrunk by the factor sigma_i^2 / (sigma_i^2 +
    lambda), so every ridge leverage is strictly below its
    unregularized counterpart.
    """
    if not lam > 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    x0 = _initial_design(gram)
    q, s, _ = np.linalg.svd(x0, full_matrices=False)  # q: N x N, s: N
    rank_deficient = bool(np.any(s <= _RANK_TOL * s[0]))
    g = s**2 / (s**2 + lam)
    phi = lam * s / (s**2 + lam)
    # unregularized leverage via the pseudoinverse convention: only
    # directions with nonzero singular value contribute
    mask = (s > _RANK_TOL * s[0]).astype(np.float64)
    hat_diag = np.einsum("ij,j,ij->i", q, mask, q)
    hat_diag_reg = np.einsum("ij,j,ij->i", q, g, q)
    return SpectralDiagnostics(
        singular_values=s,
        hat_diag=hat_diag,
        hat_diag_reg=hat_diag_reg,
        g_diag=g,
        phi_diag=phi,
        rank_deficient=rank_deficient,
    )


@dataclass
class BoundReport:
    """Evaluation of the guaranteed-identification condition.

    ``gamma`` is None when min|u| - sqrt(2 lambda) ||theta|| <= 0, in
    which case the certificate cannot hold at this lambda.
    ``lambda_cap`` is the largest admissible lambda,
    (min|u| / ||theta||)^2 / 2.
    """

    sigma_max: float
    gamma: Optional[float]
    lambda_cap: float
    holds: bool
    min_outlier: float
    theta_norm: float
    outlier_norm: float
    lam: float


def _outlier_stats(true_outliers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    u = np.asarray(true_outliers, dtype=np.float64).ravel()
    support = np.flatnonzero(u)
    return u, support


@functools.lru_cache(maxsize=1)
def _sigma_max(x0_bytes: bytes, shape: tuple[int, int]) -> float:
    """sigma_max of the C-ordered float64 matrix with these bytes; keyed by
    content, so an array changed in place is never served a stale value."""
    x0 = np.frombuffer(x0_bytes).reshape(shape)
    return float(np.linalg.svd(x0, compute_uv=False)[0])


def theorem_check(
    gram: np.ndarray,
    true_theta: np.ndarray,
    true_outliers: np.ndarray,
    lam: float,
) -> BoundReport:
    """Check sigma_max(X0) < gamma * sqrt(lambda) for a known truth.

    ``true_theta`` is the (alpha; c) vector of length N+1 and
    ``true_outliers`` a dense N-vector that is zero off the outlier
    support.  Applies to the pure-outlier regime (no inlier noise).
    sigma_max(X0) is computed once per distinct Gram matrix.
    """
    if not lam > 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    u, support = _outlier_stats(true_outliers)
    if support.size == 0:
        raise ValueError("true outlier vector has empty support")
    theta = np.asarray(true_theta, dtype=np.float64).ravel()
    x0 = _initial_design(gram)
    if theta.shape[0] != x0.shape[1]:
        raise ValueError(f"expected theta of length {x0.shape[1]}, got {theta.shape[0]}")
    sigma_max = _sigma_max(x0.tobytes(), x0.shape)
    min_outlier = float(np.min(np.abs(u[support])))
    theta_norm = float(np.linalg.norm(theta))
    outlier_norm = float(np.linalg.norm(u))
    lambda_cap = (
        np.inf if theta_norm == 0 else (min_outlier / theta_norm) ** 2 / 2.0
    )

    numerator = min_outlier - np.sqrt(2.0 * lam) * theta_norm
    gamma: Optional[float] = None
    holds = False
    if numerator > 0:
        gamma = float(
            np.sqrt(
                numerator
                / (2.0 * outlier_norm - min_outlier + np.sqrt(2.0 * lam) * theta_norm)
            )
        )
        holds = sigma_max < gamma * np.sqrt(lam)
    return BoundReport(
        sigma_max=sigma_max,
        gamma=gamma,
        lambda_cap=float(lambda_cap),
        holds=holds,
        min_outlier=min_outlier,
        theta_norm=theta_norm,
        outlier_norm=outlier_norm,
        lam=float(lam),
    )


@dataclass
class OracleIntermediates:
    p_matrix: np.ndarray
    w_matrix: np.ndarray
    u_k: np.ndarray


def residual_oracle(
    gram: np.ndarray,
    true_theta: np.ndarray,
    true_outliers: np.ndarray,
    lam: float,
    selected,
) -> tuple[np.ndarray, OracleIntermediates]:
    """Closed-form residual after the given (correct) selections.

    Valid for the coefficient-norm regularizer in the pure-outlier
    regime, with ``selected`` a subset of the true outlier support (or
    empty).  With X0 = Q S V^T, G = diag(sigma^2/(sigma^2+lambda)) and
    F = S - G S, the residual after k selections is

        r_k = u_k + P_k Q F V^T theta - Q G Q^T u_k,

    where u_k keeps the not-yet-selected outliers plus a correction
    through W_k = I_k - I_S^T Q G Q^T I_S, and
    P_k = I_N + Q G Q^T I_S W_k^{-1} I_S^T - I_S W_k^{-1} I_S^T.
    For k = 0 this reduces to r_0 = u + Q F V^T theta - Q G Q^T u.
    """
    if not lam > 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    u, support = _outlier_stats(true_outliers)
    selected = [int(j) for j in selected]
    if len(set(selected)) != len(selected):
        raise ValueError("selected indices contain duplicates")
    if not set(selected) <= set(support.tolist()):
        raise ValueError("selected indices must lie inside the true outlier support")
    theta = np.asarray(true_theta, dtype=np.float64).ravel()

    x0 = _initial_design(gram)
    n = x0.shape[0]
    q, s, vt = np.linalg.svd(x0, full_matrices=False)
    g = s**2 / (s**2 + lam)
    phi = lam * s / (s**2 + lam)
    qgqt = (q * g) @ q.T
    smooth = (q * phi) @ (vt @ theta)  # Q F V^T theta

    k = len(selected)
    if k == 0:
        r0 = u + smooth - qgqt @ u
        return r0, OracleIntermediates(
            p_matrix=np.eye(n), w_matrix=np.zeros((0, 0)), u_k=u.copy()
        )

    i_s = np.zeros((n, k))
    for pos, j in enumerate(selected):
        i_s[j, pos] = 1.0
    w = np.eye(k) - i_s.T @ qgqt @ i_s
    try:
        w_inv = np.linalg.inv(w)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("W_k is numerically singular", pivot=-1) from exc

    u_rest = u.copy()
    u_rest[selected] = 0.0  # outliers not yet selected
    u_k = u_rest + i_s @ (w_inv @ (i_s.T @ (qgqt @ u_rest)))
    p = np.eye(n) + qgqt @ i_s @ w_inv @ i_s.T - i_s @ w_inv @ i_s.T
    r_k = u_k + p @ smooth - qgqt @ u_k
    return r_k, OracleIntermediates(p_matrix=p, w_matrix=w, u_k=u_k)


def best_certificate(
    gram: np.ndarray,
    true_theta: np.ndarray,
    true_outliers: np.ndarray,
    grid_size: int = 60,
) -> Optional[BoundReport]:
    """Scan lambda below lambda_cap and return the report with the
    largest margin gamma*sqrt(lambda) - sigma_max, or None if gamma is
    undefined everywhere.  Each grid point is a ``theorem_check``, which
    takes the SVD of X0 at most once per Gram matrix."""
    # min|u|, ||theta|| and lambda_cap do not depend on lambda
    truth = theorem_check(gram, true_theta, true_outliers, 1.0)
    # with theta = 0 any lambda is admissible; pick a wide absolute grid
    cap = truth.lambda_cap if truth.theta_norm else truth.min_outlier**2
    best: Optional[BoundReport] = None
    best_margin = -np.inf
    for lam in np.geomspace(1e-6, 0.999, grid_size) * cap:
        report = theorem_check(gram, true_theta, true_outliers, lam)
        if report.gamma is None:
            continue
        margin = report.gamma * np.sqrt(lam) - report.sigma_max
        if margin > best_margin:
            best, best_margin = report, margin
    return best
