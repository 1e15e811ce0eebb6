"""Greedy robust kernel ridge regression solver.

The model is y = K alpha + c 1 + u + eta, with u a sparse outlier
vector.  The solver alternates a regularized least-squares fit over the
active columns of the augmented design X = [K 1 I_N] with a greedy
selection of the identity column whose residual coordinate is largest
in magnitude.  Selected identity columns carry no regularization, so
the residual at a selected coordinate is driven exactly to zero.

The normal matrix grows by one row/column per selection; its Cholesky
factor is updated incrementally instead of refactorized.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpotrf

from .kernel import KernelParams, as_point_matrix, cross_gram, gram_matrix

# below this, 1 - ||d||^2 is considered numerically unsafe and the
# factor is rebuilt from scratch
_EXTEND_FLOOR = 1e-12


class NumericalError(Exception):
    """Factorization of the normal matrix failed.

    ``pivot`` is the zero-based index of the offending pivot.
    """

    def __init__(self, message: str, pivot: int):
        super().__init__(message)
        self.pivot = pivot


class RegularizerKind(Enum):
    # penalize ||(alpha; c)||_2^2
    COEFFICIENT_NORM = "coefficient_norm"
    # penalize alpha^T K alpha (the RKHS norm of the expansion)
    RKHS_NORM = "rkhs_norm"


@dataclass
class Dataset:
    """Training inputs (N points, any dimension) and observations y."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self) -> None:
        self.inputs = as_point_matrix(self.inputs)
        self.targets = np.asarray(self.targets, dtype=np.float64).ravel()
        if self.inputs.shape[0] != self.targets.shape[0]:
            raise ValueError(
                f"{self.inputs.shape[0]} inputs but {self.targets.shape[0]} targets"
            )

    @property
    def size(self) -> int:
        return self.inputs.shape[0]


@dataclass
class KgardConfig:
    """Solver parameters.

    ``tikhonov_weights`` holds N+1 positive multipliers (kernel
    coefficients plus bias); the effective penalty on coefficient i is
    lam * w_i**2.  ``max_selections`` defaults to N // 2, which keeps
    termination guaranteed even with epsilon = 0.
    """

    lam: float
    epsilon: float
    regularizer: RegularizerKind = RegularizerKind.COEFFICIENT_NORM
    stop_norm: str = "l2"
    tikhonov_weights: Optional[np.ndarray] = None
    max_selections: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.lam > 0:
            raise ValueError(f"lambda must be positive, got {self.lam}")
        if self.epsilon < 0:
            raise ValueError(f"epsilon must be nonnegative, got {self.epsilon}")
        if self.stop_norm not in ("l2", "linf"):
            raise ValueError(f"stop_norm must be 'l2' or 'linf', got {self.stop_norm!r}")
        if self.tikhonov_weights is not None:
            w = np.asarray(self.tikhonov_weights, dtype=np.float64).ravel()
            if not np.all(w > 0):
                raise ValueError("all tikhonov_weights must be positive")
            self.tikhonov_weights = w


def _normal_matrix(
    gram: np.ndarray,
    regularizer: RegularizerKind,
    lam: float,
    weights: Optional[np.ndarray],
    support: list,
) -> np.ndarray:
    """X^T X + lam B over the active columns X = [K 1 I_S].

    B is the regularizer on (alpha; c), its diagonal scaled by the
    squared Tikhonov weights, padded with zeros for the selected
    identity columns, which carry no regularization.
    """
    n = gram.shape[0]
    k = len(support)
    identity = np.zeros((n, k))
    identity[support, np.arange(k)] = 1.0
    x = np.hstack([gram, np.ones((n, 1)), identity])
    b = np.zeros((n + 1 + k, n + 1 + k))
    if regularizer is RegularizerKind.COEFFICIENT_NORM:
        b[: n + 1, : n + 1] = np.eye(n + 1)
    else:
        b[:n, :n] = gram
    if weights is not None:
        idx = np.arange(n + 1)
        b[idx, idx] *= weights**2
    return x.T @ x + lam * b


def _cholesky(m: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor; raises NumericalError with the failing pivot."""
    c, info = dpotrf(m, lower=1, overwrite_a=0)
    if info != 0:
        raise NumericalError(
            f"normal matrix is not positive definite at pivot {info - 1}",
            pivot=info - 1,
        )
    return np.tril(c)


def _chol_solve(lower: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    q = solve_triangular(lower, rhs, lower=True)
    return solve_triangular(lower.T, q, lower=False)


@dataclass
class KgardSolution:
    """Fit result: kernel coefficients, bias, and the sparse outliers."""

    alpha: np.ndarray
    bias: float
    outliers: dict  # index -> estimated outlier value, selection order
    iterations: int
    residual_history: list
    truncated: bool = False

    @property
    def support(self) -> list:
        return list(self.outliers.keys())


def _stop_norm(r: np.ndarray, kind: str) -> float:
    if kind == "l2":
        return float(np.linalg.norm(r))
    return float(np.max(np.abs(r))) if r.size else 0.0


class KgardSolver:
    """Reusable solver bound to one (gram, lambda, regularizer) triple.

    The initial normal matrix and its Cholesky factor are computed once
    in the constructor, so repeated fits against different observation
    vectors (e.g. image tiles sharing one Gram matrix) only pay for the
    incremental updates.
    """

    def __init__(
        self,
        gram: np.ndarray,
        lam: float,
        regularizer: RegularizerKind = RegularizerKind.COEFFICIENT_NORM,
        tikhonov_weights: Optional[np.ndarray] = None,
    ):
        if not lam > 0:
            raise ValueError(f"lambda must be positive, got {lam}")
        self.gram = np.asarray(gram, dtype=np.float64)
        if self.gram.ndim != 2 or self.gram.shape[0] != self.gram.shape[1]:
            raise ValueError(f"gram matrix must be square, got {self.gram.shape}")
        self.lam = float(lam)
        self.regularizer = regularizer
        n = self.gram.shape[0]
        if tikhonov_weights is not None:
            tikhonov_weights = np.asarray(tikhonov_weights, dtype=np.float64).ravel()
            if tikhonov_weights.shape[0] != n + 1:
                raise ValueError(
                    f"expected {n + 1} tikhonov_weights, got {tikhonov_weights.shape[0]}"
                )
        self.weights = tikhonov_weights
        self._lower0 = _cholesky(
            _normal_matrix(self.gram, regularizer, self.lam, self.weights, [])
        )
        self._n = n

    def fit(
        self,
        y: np.ndarray,
        epsilon: float,
        stop_norm: str = "l2",
        max_selections: Optional[int] = None,
        epsilon_fn: Optional[Callable[[np.ndarray], float]] = None,
    ) -> KgardSolution:
        n = self._n
        y = np.asarray(y, dtype=np.float64).ravel()
        if y.shape[0] != n:
            raise ValueError(f"expected {n} observations, got {y.shape[0]}")
        if max_selections is None:
            max_selections = n // 2
        if max_selections > n:
            raise ValueError(f"max_selections {max_selections} exceeds N={n}")

        cap = n + 1 + max_selections
        lower = np.zeros((cap, cap))
        m = n + 1
        lower[:m, :m] = self._lower0
        rhs = np.concatenate([self.gram @ y, [float(np.sum(y))]])
        support: list[int] = []
        active = np.zeros(n, dtype=bool)

        def solve() -> np.ndarray:
            return _chol_solve(lower[: m, : m], rhs)

        def residual(z: np.ndarray) -> np.ndarray:
            fitted = self.gram @ z[:n] + z[n]
            if support:
                fitted[support] += z[n + 1 :]
            return y - fitted

        z = solve()
        r = residual(z)
        residual_history = [_stop_norm(r, stop_norm)]
        truncated = False

        while True:
            eps_k = epsilon if epsilon_fn is None else epsilon_fn(np.abs(r))
            if residual_history[-1] <= eps_k:
                break
            if len(support) >= max_selections:
                truncated = True
                break
            masked = np.abs(r)
            masked[active] = -np.inf
            j = int(np.argmax(masked))
            # extend the factor with the new normal-matrix column
            col = np.concatenate([self.gram[j], [1.0], np.zeros(len(support))])
            d = solve_triangular(lower[:m, :m], col, lower=True)
            b_sq = 1.0 - float(d @ d)
            support.append(j)
            active[j] = True
            if b_sq <= _EXTEND_FLOOR:
                # near-singular geometry: rebuild rather than propagate a NaN
                lower[: m + 1, : m + 1] = _cholesky(
                    _normal_matrix(
                        self.gram, self.regularizer, self.lam, self.weights, support
                    )
                )
            else:
                lower[m, :m] = d
                lower[m, m] = np.sqrt(b_sq)
            rhs = np.append(rhs, y[j])
            m += 1
            z = solve()
            r = residual(z)
            residual_history.append(_stop_norm(r, stop_norm))

        outliers = {j: float(z[n + 1 + pos]) for pos, j in enumerate(support)}
        return KgardSolution(
            alpha=z[:n].copy(),
            bias=float(z[n]),
            outliers=outliers,
            iterations=len(support),
            residual_history=residual_history,
            truncated=truncated,
        )


def kgard_fit(
    data: Dataset,
    params: KernelParams,
    config: KgardConfig,
) -> KgardSolution:
    """Run the full greedy fit on a dataset."""
    if data.size == 0:
        raise ValueError("dataset is empty")
    solver = KgardSolver(
        gram_matrix(data.inputs, params),
        config.lam,
        regularizer=config.regularizer,
        tikhonov_weights=config.tikhonov_weights,
    )
    return solver.fit(
        data.targets,
        epsilon=config.epsilon,
        stop_norm=config.stop_norm,
        max_selections=config.max_selections,
    )


def predict(
    solution: KgardSolution,
    train_points,
    query_points,
    params: KernelParams,
) -> np.ndarray:
    """Evaluate the fitted expansion at query points."""
    k = cross_gram(query_points, train_points, params)
    if k.shape[1] != solution.alpha.shape[0]:
        raise ValueError(
            f"{k.shape[1]} train points but {solution.alpha.shape[0]} coefficients"
        )
    return k @ solution.alpha + solution.bias
