"""Gaussian RBF kernel evaluation and Gram matrices.

The kernel is kappa(x, x') = exp(-||x - x'||^2 / sigma^2).  All other
modules build on the Gram matrices produced here.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class KernelParams:
    """Width of the Gaussian RBF kernel, in input-space units.

    sigma must be positive and finite, with sigma^2 a finite, normal
    float: every squared distance is divided by it.
    """

    sigma: float

    def __post_init__(self) -> None:
        # a Python float product overflows to inf where sigma**2 would raise
        sigma = float(self.sigma) if self.sigma > 0 else 0.0
        if not (sigma < math.inf and sys.float_info.min <= sigma * sigma < math.inf):
            raise ValueError(
                f"sigma must be positive and finite with sigma^2 a finite, "
                f"normal float, got {self.sigma}"
            )


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


def rbf_eval(a, b, params: KernelParams) -> float:
    """Evaluate kappa(a, b) for two points of the same dimension."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(_rbf(a[None, :], b[None, :], params)[0, 0])


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # exact squared Euclidean distances, (len(a), len(b))
    diff = a[:, None, :] - b[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def _rbf(a: np.ndarray, b: np.ndarray, params: KernelParams) -> np.ndarray:
    """kappa(a_i, b_j) for (M, d) and (N, d) point matrices."""
    # a small admitted sigma can send d^2 / sigma^2 to inf, and
    # exp(-inf) = 0 is then the exact kernel value
    with np.errstate(over="ignore"):
        return np.exp(-_sq_dists(a, b) / params.sigma**2)


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
    k = _rbf(pts, pts, params)
    # enforce exact symmetry/unit diagonal against round-off
    k = 0.5 * (k + k.T)
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
