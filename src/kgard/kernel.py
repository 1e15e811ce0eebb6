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


def _as_real_array(name: str, value) -> np.ndarray:
    """``value`` as a float64 array, or ValueError naming ``name`` when
    it holds complex numbers, whose imaginary parts a cast would drop,
    or values without a float."""
    if np.iscomplexobj(value):
        raise ValueError(f"{name} must be real, got complex values")
    try:
        return np.asarray(value, dtype=np.float64)
    except TypeError as err:  # an object array holding a complex, say
        raise ValueError(f"{name} must be real numbers: {err}") from None


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

    Accepts a 1-D array of scalars (d = 1) or an (N, d) array with
    d >= 1, of finite values only.
    """
    pts = _as_real_array("points", points)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2:
        raise ValueError(f"points must be 1-D or 2-D, got shape {pts.shape}")
    if pts.shape[1] == 0:
        raise ValueError("points must have at least one coordinate")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    return pts


def grid_points(a, b) -> np.ndarray:
    """The points (a_i, b_j) of the grid a x b as a (len(a) len(b), 2)
    array, in row-major order."""
    aa, bb = np.meshgrid(a, b, indexing="ij")
    return np.column_stack([aa.ravel(), bb.ravel()])


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, (len(a), len(b)): the squared
    differences summed one input dimension at a time, in increasing
    order, into one (M, N) array.  The entry for (a_i, b_j) is the
    entry for (b_j, a_i) bit for bit."""
    out = np.subtract.outer(a[:, 0], b[:, 0])
    out *= out
    for j in range(1, a.shape[1]):
        diff = np.subtract.outer(a[:, j], b[:, j])
        diff *= diff
        out += diff
    return out


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
    # formed by the same operations on the same numbers.  The diagonal is
    # exactly 1: a finite point is at squared distance 0.0 from itself,
    # 0.0 / -sigma^2 is -0.0 for every admitted sigma, and exp(-0.0) = 1.0
    return _rbf(pts, pts, params)


def cross_gram(query_points, train_points, params: KernelParams) -> np.ndarray:
    """Rectangular kernel matrix kappa(q_i, x_j) for prediction."""
    q = as_point_matrix(query_points)
    x = as_point_matrix(train_points)
    if q.shape[1] != x.shape[1]:
        raise ValueError(
            f"dimension mismatch: query dim {q.shape[1]} vs train dim {x.shape[1]}"
        )
    return _rbf(q, x, params)
