"""Greedy robust kernel ridge regression solver.

The model is y = K alpha + c 1 + u + eta, with u a sparse outlier
vector.  The solver alternates a regularized least-squares fit over the
active columns of the augmented design X = [K 1 I_N] with a greedy
selection of the identity column whose residual coordinate is largest
in magnitude.  The one penalty is lam ||diag(w) (alpha; c)||^2, with
Tikhonov weights w (all 1 by default), so the normal matrix of the ridge
design X0 = [K 1] is positive definite for every lam > 0 in exact
arithmetic.  Selected identity columns carry no regularization, so the
residual at a selected coordinate is driven exactly to zero.

Because of that, the fit over [K 1 I_S] reduces to the residual map of
the ridge fit over [K 1] alone, and each selection is a rank-one update
of that map; the coefficients are read once, after the last
selection, through the ridge fit's coefficient map.  Fits that share
one residual map run as a batch: a (B, N) stack of residuals advances
one selection per step, every row with its own argmax, update and stop
test.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg.blas import dsyrk
from scipy.linalg.lapack import dpotrf, dtrtrs

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


def _check_lambda(lam: float) -> None:
    if not 0 < lam < math.inf:
        raise ValueError(f"lambda must be positive and finite, got {lam}")


def _check_epsilon(epsilon: float) -> None:
    if not epsilon >= 0:
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")


def _check_count(name: str, value, minimum: int = 0) -> None:
    """A count is an int or numpy integer, never a bool, >= ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        bound = "nonnegative" if minimum == 0 else f">= {minimum}"
        raise ValueError(f"{name} must be {bound}, got {value}")


def _check_stop_norm(stop_norm: str) -> None:
    if stop_norm not in ("l2", "linf"):
        raise ValueError(f"stop_norm must be 'l2' or 'linf', got {stop_norm!r}")


def _check_weights(weights) -> np.ndarray:
    w = np.asarray(weights, dtype=np.float64).ravel()
    if not np.all((w > 0) & (w < math.inf)):
        raise ValueError("all tikhonov_weights must be positive and finite")
    return w


def _ridge_design(gram: np.ndarray) -> np.ndarray:
    """The ridge design X0 = [K 1] of a square, finite Gram matrix."""
    gram = np.asarray(gram, dtype=np.float64)
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
        raise ValueError(f"gram matrix must be square, got shape {gram.shape}")
    if not np.all(np.isfinite(gram)):
        raise ValueError("gram matrix must be finite")
    return np.hstack([gram, np.ones((gram.shape[0], 1))])


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
        if not np.all(np.isfinite(self.inputs)):
            raise ValueError("dataset inputs must be finite")
        if not np.all(np.isfinite(self.targets)):
            raise ValueError("dataset targets must be finite")

    @property
    def size(self) -> int:
        return self.inputs.shape[0]


@dataclass
class KgardConfig:
    """Solver parameters: the ridge parameter, the stop threshold and
    the norm it is compared with."""

    lam: float
    epsilon: float
    stop_norm: str = "l2"

    def __post_init__(self) -> None:
        _check_lambda(self.lam)
        _check_epsilon(self.epsilon)
        _check_stop_norm(self.stop_norm)


def _cholesky(m: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor; raises NumericalError with the failing pivot."""
    c, info = dpotrf(m, lower=1, overwrite_a=0)
    if info != 0:
        raise NumericalError(
            f"normal matrix is not positive definite at pivot {info - 1}",
            pivot=info - 1,
        )
    return np.tril(c)


def _solve_upper(upper: np.ndarray, b: np.ndarray, trans: int) -> np.ndarray:
    """upper^-1 b (trans=0) or upper^-T b (trans=1), written over ``b``
    when it is a contiguous vector or a Fortran-ordered matrix."""
    x, info = dtrtrs(upper, b, lower=0, trans=trans, overwrite_b=1)
    if info:
        raise np.linalg.LinAlgError(f"dtrtrs failed with info {info}")
    return x


@dataclass
class KgardSolution:
    """Fit result: kernel coefficients, bias, and the sparse outliers.

    ``residual_norm`` and ``epsilon`` are the two sides of the fit's
    last stop test: the stop norm of the final residual, and the fixed
    epsilon or what the epsilon callable returned for this fit's row.
    ``stop_reason`` says why the selections ended: ``"threshold"`` (the
    residual norm reached epsilon), ``"pivot"`` (the next pivot fell to
    the degenerate floor) or ``"cap"`` (``max_selections`` reached), in
    that precedence when several hold at once.
    """

    alpha: np.ndarray
    bias: float
    outliers: dict  # index -> estimated outlier value, selection order
    residual_norm: float
    epsilon: float
    stop_reason: str

    @property
    def support(self) -> list:
        return list(self.outliers.keys())

    @property
    def iterations(self) -> int:
        return len(self.outliers)


def _stop_norms(r: np.ndarray, abs_r: np.ndarray, kind: str) -> np.ndarray:
    if kind == "l2":
        return np.linalg.norm(r, axis=1)
    return np.max(abs_r, axis=1, initial=0.0)


class KgardSolver:
    """Reusable solver bound to one Gram matrix, one or more ridge
    parameters (tiers) and the Tikhonov weights.

    For each tier's lam the constructor factors
    A0 = X0^T X0 + lam diag(w^2) of X0 = [K 1], with w = 1 when no
    Tikhonov weights are given, and forms two maps once, from
    H = L0^{-1} X0^T: the ridge residual map
    R = I - X0 A0^{-1} X0^T = I - H^T H and the coefficient map
    P = A0^{-1} X0^T = L0^{-T} H, an (N+1) x N matrix; they are stacked
    as (T, N, N) and (T, N+1, N).  A fit starts from r = R y and makes
    one rank-one Schur update per selection; the columns of Q hold them,
    so Q[S] is the lower Cholesky factor of R[S, S].  A pivot of R at or
    below ``_PIVOT_FLOOR`` stops the fit.  A finished row's outliers u_S
    come from one k x k triangular solve with Q[S], and its coefficients
    (alpha; c) = P (y - I_S u_S) from one matrix-vector product.
    """

    def __init__(
        self,
        gram: np.ndarray,
        lam,
        tikhonov_weights: Optional[np.ndarray] = None,
    ):
        values = np.asarray(lam, dtype=np.float64)
        if values.ndim > 1 or values.size == 0:
            raise ValueError(
                "lambda must be a scalar or a nonempty 1-D sequence, "
                f"got shape {values.shape}"
            )
        lams = values.ravel().tolist()
        for value in lams:
            _check_lambda(value)
        design = _ridge_design(gram)
        n = design.shape[0]
        w2 = 1.0
        if tikhonov_weights is not None:
            w = _check_weights(tikhonov_weights)
            if w.shape[0] != n + 1:
                raise ValueError(f"expected {n + 1} tikhonov_weights, got {w.shape[0]}")
            w2 = w**2
        tiers = len(lams)
        self._residual_map = np.empty((tiers, n, n))
        # each tier's P is Fortran-ordered, as LAPACK writes it in place
        self._coef_map = np.empty((tiers, n, n + 1)).transpose(0, 2, 1)
        lower_tri = np.tri(n, dtype=bool)
        for t, penalty in enumerate(lams):
            # numpy and scipy each bundle an OpenBLAS, and every switch
            # between them waits for the other's spinning worker threads to
            # give up a core, so setup makes all its BLAS calls through
            # scipy.  dsyrk of X0^T (Fortran-ordered, so not copied) fills
            # the lower triangle of X0^T X0, the only one dpotrf reads.
            a0 = dsyrk(1.0, design.T, lower=1)
            with np.errstate(over="ignore"):
                a0[np.diag_indices(n + 1)] += penalty * w2
            if not np.isfinite(a0).all():
                raise ValueError(
                    "the ridge normal matrix X0^T X0 + lam diag(w^2) overflows "
                    f"at lambda {penalty}"
                )
            # L0 is C-ordered, so its transpose is the Fortran-ordered
            # upper factor LAPACK solves with: H = L0^-1 X0^T, then
            # P = L0^-T H, both in P's slot
            upper0 = _cholesky(a0).T
            h = self._coef_map[t]
            h[...] = design.T
            _solve_upper(upper0, h, trans=1)
            hth = dsyrk(1.0, h, trans=1, lower=1)
            # R = I - H^T H mirrored from the lower triangle, so R is
            # exactly symmetric: 0 - H^T H, then 1 on the diagonal
            r = self._residual_map[t]
            np.subtract(0.0, np.where(lower_tri, hth, hth.T), out=r)
            r[np.diag_indices(n)] += 1.0
            _solve_upper(upper0, h, trans=0)
        self._n = n

    def fit(
        self,
        y: np.ndarray,
        epsilon: float | Callable[[np.ndarray], object],
        stop_norm: str = "l2",
        max_selections: Optional[int] = None,
        tier=None,
    ):
        """Fit one observation vector ``y`` of shape (N,), or a batch of
        B independent ones stacked as (B, N).

        A 1-D ``y`` returns one :class:`KgardSolution`, a 2-D one a list
        of B, in row order.  The rows advance in lockstep, one selection
        per step, and a row leaves the batch when it stops; every row's
        result is bit-identical to fitting it alone.  A row stops when
        its residual norm is at most the threshold, on a degenerate
        pivot, or at ``max_selections`` (N // 2 by default, so a fit
        ends even at epsilon = 0); ``stop_reason`` names which.
        ``epsilon`` is a nonnegative number or a callable that gives the
        threshold at every step: it receives |r| of the L rows still
        running as an (L, N) stack, with L = 1 for a 1-D fit, and
        returns a scalar or one threshold per row, each nonnegative; any
        other result raises ``ValueError``.  ``tier`` gives each row's
        ridge parameter as an index into the solver's T of them, an
        integer array of shape ``y.shape[:-1]`` (a scalar for a 1-D
        ``y``); it may be left out only when T = 1.
        """
        n = self._n
        y = np.asarray(y, dtype=np.float64)
        if y.ndim not in (1, 2) or y.shape[-1] != n:
            raise ValueError(f"expected {n} observations per row, got shape {y.shape}")
        if not np.all(np.isfinite(y)):
            raise ValueError("observations must be finite")
        threshold = epsilon
        if not callable(epsilon):
            _check_epsilon(epsilon)
            threshold = lambda abs_r: epsilon
        _check_stop_norm(stop_norm)
        if max_selections is None:
            max_selections = n // 2
        _check_count("max_selections", max_selections)
        if max_selections > n:
            raise ValueError(f"max_selections {max_selections} must be in [0, N={n}]")
        tier = self._check_tier(tier, y.shape[:-1])
        single = y.ndim == 1
        ys = y.reshape(-1, n)
        batch = ys.shape[0]
        if batch == 0:
            return []

        # one R y per row keeps every row's arithmetic independent of B
        r = np.empty((batch, n))
        for i in range(batch):
            r[i] = self._residual_map[tier[i]] @ ys[i]
        abs_r = np.abs(r)
        norms = _stop_norms(r, abs_r, stop_norm)
        if not np.all(np.isfinite(norms)):
            raise ValueError(f"the initial residual's {stop_norm} norm overflows")

        solutions: list = [None] * batch
        live = np.arange(batch)  # original row of each running row
        active = np.zeros((batch, n), dtype=bool)
        # one (rows, N) slab of Q columns per selection, in an anonymous
        # mapping: slabs no selection reaches are never touched, and
        # freeing it unmaps it.  A malloc'd block this large raises
        # glibc's mmap threshold, after which freed temporaries of later
        # fits stay in the heap and peak RSS grows with every batch.
        size = max_selections * batch * n
        q = np.frombuffer(mmap.mmap(-1, 8 * size or 1), count=size)
        q = q.reshape(max_selections, batch, n)
        picks = np.empty((batch, max_selections), dtype=np.intp)
        coef = np.empty((batch, max_selections))
        k = 0
        while True:
            m = live.size
            eps = np.asarray(threshold(abs_r), dtype=np.float64)
            if eps.shape not in ((), (m,)):
                raise ValueError(
                    f"epsilon must return a scalar or {m} thresholds, "
                    f"one per running row, got shape {eps.shape}"
                )
            if not (eps >= 0).all():
                raise ValueError("epsilon returned a negative or NaN threshold")
            eps = np.broadcast_to(eps, (m,))
            done = norms <= eps
            capped = k == max_selections
            stop = done
            if not capped:
                rows = np.arange(m)
                j = np.argmax(np.where(active, -np.inf, abs_r), axis=1)
                col = self._residual_map[tier, j]
                if k:
                    # col -= Q[j, :k] Q^T row by row, one stacked matmul
                    qj = np.ascontiguousarray(q[:k, rows, j].T)[:, None, :]
                    col -= np.matmul(qj, q[:k, :m].transpose(1, 0, 2))[:, 0]
                pivot = col[rows, j]
                # R - Q Q^T is PSD with eigenvalues in [0, 1], so a row's
                # argmax |r_j| <= sqrt(pivot) ||y||: r is already ~0
                stop = pivot <= _PIVOT_FLOOR
                stop |= done
            if capped or stop.any():
                for pos in np.flatnonzero(stop | capped):
                    solutions[live[pos]] = self._solution(
                        ys[live[pos]],
                        q[:k, pos],
                        picks[pos, :k],
                        coef[pos, :k],
                        float(norms[pos]),
                        float(eps[pos]),
                        "threshold" if done[pos] else "cap" if capped else "pivot",
                        tier[pos],
                    )
                if capped or stop.all():
                    break
                # compact the running rows to the front of every array
                keep = ~stop
                q[:k, : keep.sum()] = q[:k, :m][:, keep]
                live, tier = live[keep], tier[keep]
                r, abs_r, active = r[keep], abs_r[keep], active[keep]
                picks, coef = picks[keep], coef[keep]
                j, col, pivot = j[keep], col[keep], pivot[keep]
                m = live.size
                rows = rows[:m]

            qk = col / np.sqrt(pivot)[:, None]
            q[k, :m] = qk
            ck = r[rows, j] / qk[rows, j]
            r -= ck[:, None] * qk
            picks[:, k] = j
            coef[:, k] = ck
            active[rows, j] = True
            k += 1
            abs_r = np.abs(r)
            norms = _stop_norms(r, abs_r, stop_norm)
        return solutions[0] if single else solutions

    def _check_tier(self, tier, shape: tuple) -> np.ndarray:
        """Each row's tier as a flat intp array, checked against the
        solver's ridge parameters."""
        tiers = self._residual_map.shape[0]
        if tier is None:
            if tiers > 1:
                raise ValueError(
                    f"tier is required: the solver has {tiers} ridge parameters"
                )
            return np.zeros(math.prod(shape), dtype=np.intp)
        tier = np.asarray(tier)
        if tier.dtype.kind not in "iu":
            raise ValueError(f"tier must be an integer array, got dtype {tier.dtype}")
        if tier.shape != shape:
            raise ValueError(
                f"tier must have shape {shape}, one per row, got {tier.shape}"
            )
        if tier.size and not (tier.min() >= 0 and tier.max() < tiers):
            raise ValueError(
                f"tier must be in [0, {tiers}), got {tier.min()}..{tier.max()}"
            )
        return tier.astype(np.intp).ravel()

    def _solution(
        self, y, q, support, c, residual_norm, epsilon, stop_reason, tier=0
    ) -> KgardSolution:
        """Coefficients of one finished row from its k Q slabs."""
        n, k = self._n, support.size
        # Q[S] is lower triangular, so u_S = Q[S]^-T c is one LAPACK solve
        # with the upper triangular q[:, S] = Q[S]^T.  LAPACK rejects the
        # 0 x 0 system of a row with no selections.
        u = c
        if k:
            u = _solve_upper(q[:, support], c, trans=0)
        e = y.copy()
        e[support] -= u
        theta = self._coef_map[tier] @ e
        return KgardSolution(
            alpha=theta[:n],
            bias=float(theta[n]),
            outliers=dict(zip(support.tolist(), u.tolist())),
            residual_norm=residual_norm,
            epsilon=epsilon,
            stop_reason=stop_reason,
        )


def kgard_fit(
    data: Dataset,
    params: KernelParams,
    config: KgardConfig,
) -> KgardSolution:
    """Run the full greedy fit on a dataset, with unit Tikhonov weights
    and the default cap of N // 2 selections."""
    if data.size == 0:
        raise ValueError("dataset is empty")
    gram = gram_matrix(data.inputs, params)
    return KgardSolver(gram, config.lam).fit(
        data.targets, epsilon=config.epsilon, stop_norm=config.stop_norm
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
