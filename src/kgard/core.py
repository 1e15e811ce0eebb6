"""Greedy robust kernel ridge regression solver.

The model is y = K alpha + c 1 + u + eta, with u a sparse outlier
vector.  The solver alternates a regularized least-squares fit over the
active columns of the augmented design X = [K 1 I_N] with a greedy
selection of the identity column whose residual coordinate is largest
in magnitude.  Selected identity columns carry no regularization, so
the residual at a selected coordinate is driven exactly to zero.

Because of that, the fit over [K 1 I_S] reduces to the residual map of
the ridge fit over [K 1] alone, and each selection is a rank-one update
of that map; the coefficients are solved once, after the last
selection.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np
from scipy.linalg import cho_solve, solve_triangular
from scipy.linalg.lapack import dpotrf

from .kernel import KernelParams, as_point_matrix, cross_gram, gram_matrix

# a selection whose pivot of R falls to this stops the fit
_PIVOT_FLOOR = 1e-12


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
) -> np.ndarray:
    """X0^T X0 + lam B for the ridge design X0 = [K 1].

    B is the regularizer on (alpha; c), its diagonal scaled by the
    squared Tikhonov weights.
    """
    n = gram.shape[0]
    x = np.hstack([gram, np.ones((n, 1))])
    if regularizer is RegularizerKind.COEFFICIENT_NORM:
        b = np.eye(n + 1)
    else:
        b = np.zeros((n + 1, n + 1))
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
    """Reusable solver bound to one (gram, lambda, regularizer, weights).

    The constructor factors A0 = X0^T X0 + lam B of X0 = [K 1] and forms
    the ridge residual map R = I - X0 A0^{-1} X0^T once.  A fit starts
    from r = R y and makes one rank-one Schur update per selection; the
    columns of Q hold them, so Q[S] is the lower Cholesky factor of
    R[S, S].  A pivot of R at or below ``_PIVOT_FLOOR`` stops the fit.
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
        gram = np.asarray(gram, dtype=np.float64)
        if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
            raise ValueError(f"gram matrix must be square, got {gram.shape}")
        n = gram.shape[0]
        if tikhonov_weights is not None:
            tikhonov_weights = np.asarray(tikhonov_weights, dtype=np.float64).ravel()
            if tikhonov_weights.shape[0] != n + 1:
                raise ValueError(
                    f"expected {n + 1} tikhonov_weights, got {tikhonov_weights.shape[0]}"
                )
        self._lower0 = _cholesky(
            _normal_matrix(gram, regularizer, float(lam), tikhonov_weights)
        )
        self._design = np.hstack([gram, np.ones((n, 1))])
        h = solve_triangular(self._lower0, self._design.T, lower=True)
        self._residual_map = np.eye(n) - h.T @ h
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
        if not np.all(np.isfinite(y)):
            raise ValueError("observations must be finite")
        if max_selections is None:
            max_selections = n // 2
        if not 0 <= max_selections <= n:
            raise ValueError(f"max_selections {max_selections} must be in [0, N={n}]")

        q = np.empty((n, max_selections), order="F")
        c = np.empty(max_selections)
        support: list[int] = []
        active = np.zeros(n, dtype=bool)
        r = self._residual_map @ y
        residual_history = [_stop_norm(r, stop_norm)]
        truncated = False

        while True:
            eps_k = epsilon if epsilon_fn is None else epsilon_fn(np.abs(r))
            if residual_history[-1] <= eps_k:
                break
            k = len(support)
            if k >= max_selections:
                truncated = True
                break
            masked = np.abs(r)
            masked[active] = -np.inf
            j = int(np.argmax(masked))
            col = self._residual_map[j] - q[:, :k] @ q[j, :k]
            if col[j] <= _PIVOT_FLOOR:
                # R - Q Q^T is PSD with eigenvalues in [0, 1], so the
                # argmax |r_j| <= sqrt(col[j]) ||y||: r is already ~0
                break
            q[:, k] = col / np.sqrt(col[j])
            c[k] = r[j] / q[j, k]
            r -= c[k] * q[:, k]
            support.append(j)
            active[j] = True
            residual_history.append(_stop_norm(r, stop_norm))

        k = len(support)
        u = solve_triangular(q[support, :k], c[:k], lower=True, trans="T")
        e = y.copy()
        e[support] -= u
        theta = cho_solve((self._lower0, True), self._design.T @ e)
        return KgardSolution(
            alpha=theta[:n],
            bias=float(theta[n]),
            outliers={j: float(v) for j, v in zip(support, u)},
            iterations=k,
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
