"""Gaussian RBF kernel evaluation and Gram matrices.

The kernel is kappa(x, x') = exp(-||x - x'||^2 / sigma^2).  All other
modules build on the Gram matrices produced here.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np


def _as_float(name: str, value) -> float:
    """``value`` as a Python float, or ValueError when it has none (an
    int too large for a float included)."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError) as err:
        raise ValueError(f"{name} must convert to a float: {err}") from None


@dataclass(frozen=True)
class KernelParams:
    """Width of the Gaussian RBF kernel, in input-space units.

    sigma must be positive and finite, with sigma^2 a finite, normal
    float: every squared distance is divided by it.
    """

    sigma: float

    def __post_init__(self) -> None:
        # a Python float product overflows to inf where sigma**2 would raise
        sigma = _as_float("sigma", self.sigma)
        if not (0 < sigma < math.inf and sys.float_info.min <= sigma * sigma < math.inf):
            raise ValueError(
                f"sigma must be positive and finite with sigma^2 a finite, "
                f"normal float, got {self.sigma}"
            )
        object.__setattr__(self, "sigma", sigma)


def as_point_matrix(points) -> np.ndarray:
    """Normalize points to a 2-D float array of shape (N, d).

    Accepts a 1-D array of scalars (d = 1) or an (N, d) array.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2:
        raise ValueError(f"points must be 1-D or 2-D, got shape {pts.shape}")
    return pts


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, (len(a), len(b)): the squared
    differences summed one input dimension at a time, in increasing
    order, into one (M, N) array.  The entry for (a_i, b_j) is the
    entry for (b_j, a_i) bit for bit."""
    out = None
    for j in range(a.shape[1]):
        diff = np.subtract.outer(a[:, j], b[:, j])
        diff *= diff
        if out is None:
            out = diff
        else:
            out += diff
    # points with no coordinates are all at distance 0
    return np.zeros((a.shape[0], b.shape[0])) if out is None else out


def _rbf(a: np.ndarray, b: np.ndarray, params: KernelParams) -> np.ndarray:
    """kappa(a_i, b_j) for (M, d) and (N, d) point matrices."""
    k = _sq_dists(a, b)
    # d^2 / -sigma^2 is exactly -(d^2 / sigma^2).  A small admitted sigma
    # can send it to -inf, and exp(-inf) = 0 is then the exact kernel value
    with np.errstate(over="ignore"):
        np.divide(k, -(params.sigma**2), out=k)
    return np.exp(k, out=k)


def gram_matrix(points, params: KernelParams) -> np.ndarray:
    """Kernel Gram matrix K with K[i, j] = kappa(x_i, x_j).

    Symmetric with unit diagonal; positive definite whenever the points
    are pairwise distinct.  Duplicate points are permitted (the matrix
    then becomes singular and it is up to the caller's regularization
    to keep solves well posed).
    """
    pts = as_point_matrix(points)
    if pts.shape[0] == 0:
        raise ValueError("point set must be nonempty")
    # exactly symmetric, as kappa(x_i, x_j) and kappa(x_j, x_i) are
    # formed by the same operations on the same numbers
    k = _rbf(pts, pts, params)
    np.fill_diagonal(k, 1.0)
    return k


def cross_gram(query_points, train_points, params: KernelParams) -> np.ndarray:
    """Rectangular kernel matrix kappa(q_i, x_j) for prediction."""
    q = as_point_matrix(query_points)
    x = as_point_matrix(train_points)
    if q.shape[1] != x.shape[1]:
        raise ValueError(
            f"dimension mismatch: query dim {q.shape[1]} vs train dim {x.shape[1]}"
        )
    return _rbf(q, x, params)
