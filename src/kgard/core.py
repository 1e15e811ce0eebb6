"""Greedy robust kernel ridge regression solver.

The model is y = K alpha + c 1 + u + eta, with u a sparse outlier
vector.  The solver alternates a regularized least-squares fit over the
active columns of the augmented design X = [K 1 I_N] with a greedy
selection of the identity column whose residual coordinate is largest
in magnitude.  The one penalty is lam ||diag(w) (alpha; c)||^2, with
Tikhonov weights w (all 1 by default).  Selected identity columns carry
no regularization, so the residual at a selected coordinate is driven
exactly to zero.

Because of that, the fit over [K 1 I_S] reduces to the residual map of
the ridge fit over the design X0 = [K 1] alone, and each selection is a
rank-one update of that map.  The map comes from the N x N matrix
G = Z Z^T + lam I of Z = X0 diag(w)^-1, whose eigenvalues are at least
lam (the kernel ridge dual form), and the coefficients are read once,
after the last selection, off each fit's final residual.  Fits that share
one residual map run as a batch: a (B, N) stack of residuals advances
one selection per step, every row with its own argmax, update and stop
test, and the batch finishes as arrays, one :class:`KgardBatch`.
"""

from __future__ import annotations

import contextlib
import ctypes
import importlib.machinery
import importlib.util
import math
import mmap
import os
import sys
import threading
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

# nothing here calls gram_matrix or cross_gram: they stay imported because
# bench/spans.py wraps kgard.core.gram_matrix and kgard.core.cross_gram and
# test_every_bench_boundary_resolves requires those names to resolve
from .kernel import _as_float, _as_real_array, cross_gram, gram_matrix

# a selection whose pivot of R falls to this stops the fit
_PIVOT_FLOOR = 1e-12
# finishing rows whose Q[S] one gather copies: 128 k x k blocks are at
# most 2.4 MB at the denoising cap k = 48, where gathering all 1024 ROIs
# of a 256^2 image at once raised peak RSS by 18 MB
_GATHER_ROWS = 128
# Q, one (rows, N) slab of columns per selection, lives in a private
# anonymous mapping, so slabs no selection reaches are never touched.
# Each thread keeps one such mapping in _workspace, and every fit on
# that thread borrows it, so Q's pages are faulted in once per thread,
# not once per fit.  A fit hands its mapping back, also when it raises,
# only when the slabs it reached, k x B x N doubles, are at most
# _KEPT_Q_DOUBLES: one default denoising block's Q, 48 selections x 256
# ROIs x 144 pixels (14 MiB).  A larger mapping is unmapped, so no
# thread keeps more than that resident.
_KEPT_Q_DOUBLES = 48 * 256 * 144
_workspace = threading.local()


def _borrow_q(doubles: int) -> mmap.mmap:
    """This thread's kept Q mapping if it holds ``doubles`` doubles, else
    a new one.  The slot stays empty until the mapping is handed back,
    so a fit nested in an epsilon callable maps its own."""
    mapping = getattr(_workspace, "q", None)
    _workspace.q = None
    if mapping is None or len(mapping) < 8 * doubles:
        flags = mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS
        mapping = mmap.mmap(-1, 8 * doubles or 8, flags=flags)
    return mapping


def _scipy_linalg_module(name: str):
    """scipy's compiled module ``scipy.linalg.<name>``, loaded from its
    file without running the ``scipy.linalg`` package, whose import
    (scipy's array-API layer, and through it ``numpy.f2py`` and
    ``numpy.testing``) costs more than the rest of ``import kgard``.

    Loading an extension registers it in ``sys.modules``; the entry is
    dropped again unless it was there before, so a later ``import
    scipy.linalg`` makes its own and hands out the same function
    objects.  ImportError when scipy or the module file is missing."""
    qualified = f"scipy.linalg.{name}"
    scipy = importlib.util.find_spec("scipy")  # finds scipy, does not run it
    if scipy is None:
        raise ImportError("no module scipy", name="scipy")
    directory = os.path.join(os.path.dirname(scipy.origin), "linalg")
    spec = importlib.machinery.PathFinder.find_spec(qualified, [directory])
    if spec is None:
        raise ImportError(f"no module {qualified} in {directory}", name=qualified)
    registered = qualified in sys.modules
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if not registered:
        sys.modules.pop(qualified, None)
    return module


_fblas = _scipy_linalg_module("_fblas")
_flapack = _scipy_linalg_module("_flapack")
# the very objects scipy.linalg.blas and scipy.linalg.lapack re-export
dsyrk = _fblas.dsyrk
dpotrf, dpotri, dtrtrs = _flapack.dpotrf, _flapack.dpotri, _flapack.dtrtrs


def _scipy_openblas(module, suffix: str = ""):
    """The thread-count getter and setter of the scipy-openblas build
    that the extension module ``module`` links, or None when it links
    another BLAS or is no loaded extension (as under numpy 1.x)."""
    try:
        lib = ctypes.CDLL(module.__file__)
        get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
        set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
    except (OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


# every bundled OpenBLAS found: scipy's, through the module ``dsyrk``
# comes from, and numpy's, whose 64-bit build carries the ``64_`` suffix
_OPENBLAS = list(filter(None, [
    _scipy_openblas(_fblas),
    _scipy_openblas(sys.modules.get("numpy._core._multiarray_umath"), "64_"),
]))
_PIN_LOCK = threading.RLock()


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block on one thread of every bundled OpenBLAS, scipy's
    and numpy's, then restore each previous count, also when the block
    raises.

    OpenBLAS splits a product differently over its threads, so a block
    run under a fixed count gives the same bits at every thread setting,
    and no worker is woken to busy-wait through the fit that follows.
    The counts are process-global: BLAS calls on another thread
    meanwhile also see one thread.  Blocks on different threads run one
    at a time, so no block restores a count while another still runs.
    A library on another BLAS is left alone.
    """
    with _PIN_LOCK:
        previous = [get() for get, _ in _OPENBLAS]
        for _, set_ in _OPENBLAS:
            set_(1)
        try:
            yield
        finally:
            for (_, set_), count in zip(_OPENBLAS, previous):
                set_(count)


class NumericalError(Exception):
    """Cholesky factorization of a tier's N x N matrix G = Z Z^T + lam I
    failed.

    ``pivot`` is the zero-based index of the offending pivot, which is
    the index of an observation: G has one row per training point.
    """

    def __init__(self, message: str, pivot: int):
        super().__init__(message)
        self.pivot = pivot


def _check_lambda(lam) -> float:
    """``lam`` as a Python float, positive and finite."""
    lam = _as_float("lambda", lam)
    if not 0 < lam < math.inf:
        raise ValueError(f"lambda must be positive and finite, got {lam}")
    return lam


def _check_epsilon(epsilon) -> float:
    """``epsilon`` as a Python float, nonnegative."""
    epsilon = _as_float("epsilon", epsilon)
    if not epsilon >= 0:
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
    return epsilon


def _check_count(name: str, value, minimum: int = 0) -> None:
    """A count is an int or numpy integer, never a bool, >= ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        bound = "nonnegative" if minimum == 0 else f">= {minimum}"
        raise ValueError(f"{name} must be {bound}, got {value}")


def _check_weights(weights, count: int) -> np.ndarray:
    """``count`` Tikhonov weights as a 1-D array, each positive and
    finite."""
    w = _as_real_array("tikhonov_weights", weights)
    if w.shape != (count,):
        raise ValueError(
            f"expected {count} tikhonov_weights in a 1-D sequence, got shape {w.shape}"
        )
    if not np.all((w > 0) & (w < math.inf)):
        raise ValueError("all tikhonov_weights must be positive and finite")
    return w


def _ridge_design(gram: np.ndarray) -> np.ndarray:
    """The ridge design X0 = [K 1] of a square, nonempty, finite Gram
    matrix."""
    gram = _as_real_array("gram matrix", gram)
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1] or gram.size == 0:
        raise ValueError(f"gram matrix must be square and nonempty, got shape {gram.shape}")
    if not np.all(np.isfinite(gram)):
        raise ValueError("gram matrix must be finite")
    return np.hstack([gram, np.ones((gram.shape[0], 1))])


@dataclass
class KgardConfig:
    """Solver parameters of a Monte-Carlo run: the ridge parameter and
    the stop threshold."""

    lam: float
    epsilon: float

    def __post_init__(self) -> None:
        self.lam = _check_lambda(self.lam)
        self.epsilon = _check_epsilon(self.epsilon)


def _cholesky(m: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of the lower triangle of ``m``, written over
    ``m`` when it is Fortran-ordered, the strict upper triangle left as
    it was; raises NumericalError with the failing pivot."""
    c, info = dpotrf(m, lower=1, overwrite_a=1)
    if info != 0:
        raise NumericalError(
            f"normal matrix is not positive definite at pivot {info - 1}",
            pivot=info - 1,
        )
    return c


def _solve_upper(factor: np.ndarray, b: np.ndarray) -> np.ndarray:
    """factor^-1 b of an upper triangular factor, written over ``b`` when
    it is a contiguous vector."""
    x, info = dtrtrs(factor, b, lower=0, overwrite_b=1)
    if info:
        raise np.linalg.LinAlgError(f"dtrtrs failed with info {info}")
    return x


@dataclass
class KgardBatch:
    """Fit result of a (B, N) batch as arrays, one row per fit.

    ``alpha`` and ``residual`` are (B, N); ``bias``, ``selections``,
    ``residual_norm``, ``epsilon`` and ``stop_reason`` are (B,).
    ``support`` and ``outliers`` are (B, max_selections): row i's
    outlier indices in selection order and their values fill its first
    ``selections[i]`` columns, and the padding after them is 0 and
    belongs to no selection.

    ``residual`` is each row's final residual r = R (y - I_S u_S), the
    one its last stop test saw and its coefficients were read off:
    (alpha; c) = diag(w)^-2 X0^T r / lam.  ``residual_norm`` and
    ``epsilon`` are the two sides of that test: the stop norm of r, and
    the fixed epsilon or what the epsilon callable returned for that row.
    ``stop_reason`` says why the row's selections ended:
    ``"threshold"`` (the residual norm reached epsilon), ``"pivot"``
    (the next pivot fell to the degenerate floor) or ``"cap"``
    (``max_selections`` reached), in that precedence when several hold
    at once.
    """

    alpha: np.ndarray
    bias: np.ndarray
    residual: np.ndarray
    support: np.ndarray
    outliers: np.ndarray
    selections: np.ndarray
    residual_norm: np.ndarray
    epsilon: np.ndarray
    stop_reason: np.ndarray

    def selected(self) -> tuple:
        """(rows, indices, values) of every selection of the batch as
        flat arrays, row by row and each row in selection order."""
        taken = np.arange(self.support.shape[1]) < self.selections[:, None]
        return taken.nonzero()[0], self.support[taken], self.outliers[taken]

    def evaluate(self, kernel: np.ndarray) -> np.ndarray:
        """Every row's expansion K alpha + c at Q new points, (B, Q),
        from their (Q, N) kernel matrix ``cross_gram(query, train)``;
        the fitted values at the training points are y - I_S u_S -
        ``residual``.  Each row is the one matrix-vector product a
        single row makes, so its bits do not depend on the batch."""
        kernel = _as_real_array("kernel", kernel)
        if kernel.ndim != 2 or kernel.shape[1] != self.alpha.shape[1]:
            raise ValueError(
                f"expected a (Q, {self.alpha.shape[1]}) kernel matrix, one column "
                f"per coefficient, got shape {kernel.shape}"
            )
        return np.matmul(kernel, self.alpha[:, :, None])[..., 0] + self.bias[:, None]


def _per_tier(maps: np.ndarray, tier: np.ndarray, x: np.ndarray) -> np.ndarray:
    """maps[tier[i]] @ x[i] for every row i, one stacked product per
    tier.  Each row is the same BLAS call a single product makes, so
    its bits do not depend on the batch."""
    out = np.empty((x.shape[0], maps.shape[1]))
    # not np.unique: its first call imports numpy.ma
    for t in range(maps.shape[0]):
        at = np.flatnonzero(tier == t)
        if at.size:
            out[at] = np.matmul(maps[t], x[at, :, None])[..., 0]
    return out


def _stop_norms(r: np.ndarray, abs_r: np.ndarray, kind: str) -> np.ndarray:
    if kind == "l2":
        return np.linalg.norm(r, axis=1)
    return np.max(abs_r, axis=1, initial=0.0)


class KgardSolver:
    """Reusable solver bound to one Gram matrix, one or more ridge
    parameters (tiers) and the Tikhonov weights.

    With X0 = [K 1], w = 1 when no Tikhonov weights are given, and
    Z = X0 diag(w)^-1, the constructor forms Z Z^T once and, for each
    tier's lam, factors the N x N matrix G = Z Z^T + lam I and inverts it
    from its Cholesky factor.  The ridge residual map
    R = I - X0 (X0^T X0 + lam diag(w^2))^-1 X0^T is lam G^-1, by the
    push-through identity; the tiers' maps are stacked as (T, N, N).  A fit
    starts from r = R y and makes one rank-one Schur update per
    selection; the columns of Q hold them, so Q[S] is the lower Cholesky
    factor of R[S, S].  A pivot of R at or below ``_PIVOT_FLOOR`` stops
    the fit.  A finished row's outliers u_S come from one k x k
    triangular solve with Q[S], and its final residual is
    r = R (y - I_S u_S), so after the last selection the coefficients
    (alpha; c) = diag(w)^-2 X0^T r / lam come from one product per row.

    Setup runs on one thread of scipy's OpenBLAS and restores the
    previous count afterwards, so R carries the same bits at every BLAS
    thread setting.  The count is process-global: scipy called from
    another thread during setup sees one thread too.  With a scipy built
    on another BLAS the count is left alone, and R is bit-identical only
    at a fixed thread setting.
    """

    def __init__(
        self,
        gram: np.ndarray,
        lam,
        tikhonov_weights: Optional[np.ndarray] = None,
    ):
        values = np.asarray(lam)
        if values.ndim > 1 or values.size == 0:
            raise ValueError(
                "lambda must be a scalar or a nonempty 1-D sequence, "
                f"got shape {values.shape}"
            )
        lams = [_check_lambda(value) for value in values.ravel().tolist()]
        design = _ridge_design(gram)
        n = design.shape[0]
        # Z = X0 diag(w)^-1, C-ordered, so Z^T is Fortran-ordered and dsyrk
        # reads it uncopied
        z, w2 = design, 1.0
        if tikhonov_weights is not None:
            w = _check_weights(tikhonov_weights, n + 1)
            z, w2 = design / w, w**2
        # each tier's coefficient divisor lam w^2, (T, 1) or (T, N+1)
        with np.errstate(over="ignore"):
            self._divisor = np.array(lams)[:, None] * w2
        self._design = design
        self._residual_map = np.empty((len(lams), n, n))
        lower_tri = np.tri(n, dtype=bool)
        with _one_blas_thread():
            # numpy and scipy each bundle an OpenBLAS, and every switch
            # between them waits for the other's spinning worker threads to
            # give up a core, so setup makes all its BLAS calls through
            # scipy.  dsyrk fills the lower triangle of Z Z^T, the only one
            # dpotrf and dpotri read.  Each tier adds its lam to the
            # diagonal of a copy of it, the last tier to Z Z^T itself.
            zzt = dsyrk(1.0, z.T, trans=1, lower=1)
            for t, penalty in enumerate(lams):
                g = zzt.copy(order="F") if t + 1 < len(lams) else zzt
                with np.errstate(over="ignore"):
                    g[np.diag_indices(n)] += penalty
                if not (np.isfinite(g).all() and np.isfinite(self._divisor[t]).all()):
                    raise ValueError(
                        "the ridge normal matrix Z Z^T + lam I, or its penalty "
                        f"lam w^2, overflows at lambda {penalty}"
                    )
                # G^-1 overwrites G's Cholesky factor, which overwrote G;
                # dpotri fails only on a zero pivot, which dpotrf rules out
                ginv = dpotri(_cholesky(g), lower=1, overwrite_c=1)[0]
                # R = lam G^-1 mirrored from the lower triangle, so R is
                # exactly symmetric
                np.multiply(penalty, np.where(lower_tri, ginv, ginv.T), out=self._residual_map[t])

    def fit(
        self,
        y: np.ndarray,
        epsilon: float | Callable[[np.ndarray], object],
        stop_norm: str = "l2",
        max_selections: Optional[int] = None,
        tier=None,
    ):
        """Fit B independent observation vectors stacked as ``y`` of
        shape (B, N); one fit is a one-row stack.

        Returns one :class:`KgardBatch` of B rows, in row order.  The
        rows advance in lockstep, one selection per step, and a row
        leaves the batch when it stops; every row's result is
        bit-identical to fitting it alone.  A row stops when
        its residual norm is at most the threshold, on a degenerate
        pivot, or at ``max_selections`` (N // 2 by default, so a fit
        ends even at epsilon = 0); ``stop_reason`` names which.
        ``epsilon`` is a nonnegative number or a callable that gives the
        threshold at every step: it receives |r| of the L rows still
        running as an (L, N) stack, and returns a scalar or one
        threshold per row, each nonnegative; any other result raises
        ``ValueError``.  ``tier`` gives each row's ridge parameter as an
        index into the solver's T of them, an integer array of shape
        (B,); it may be left out only when T = 1.  A finite ``y`` whose
        fit overflows, leaving a coefficient or an outlier value that is
        not finite, raises ``ValueError`` after the last step.

        The Schur columns Q, ``max_selections`` slabs of (B, N) doubles,
        are borrowed from a private anonymous mapping that the calling
        thread keeps from one fit to the next, so a thread's later fits
        find Q's pages already faulted in.  The fit hands the mapping
        back, also when it raises, only when the slabs it reached hold
        at most 48 x 256 x 144 doubles (14 MiB, one default denoising
        block); otherwise it is unmapped.  No output aliases Q.
        """
        n = self._design.shape[0]
        y = _as_real_array("observations", y)
        if y.ndim != 2 or y.shape[1] != n:
            raise ValueError(f"expected a (B, N) stack with N = {n}, got shape {y.shape}")
        if not np.all(np.isfinite(y)):
            raise ValueError("observations must be finite")
        threshold = epsilon
        if not callable(epsilon):
            epsilon = _check_epsilon(epsilon)
            threshold = lambda abs_r: epsilon
        if stop_norm not in ("l2", "linf"):
            raise ValueError(f"stop_norm must be 'l2' or 'linf', got {stop_norm!r}")
        if max_selections is None:
            max_selections = n // 2
        _check_count("max_selections", max_selections)
        if max_selections > n:
            raise ValueError(f"max_selections {max_selections} must be in [0, N={n}]")
        batch = y.shape[0]
        tier = self._check_tier(tier, batch)
        # one R y per row keeps every row's arithmetic independent of B;
        # an overflow anywhere leaves a norm that is not finite
        with np.errstate(over="ignore", invalid="ignore"):
            r = _per_tier(self._residual_map, tier, y)
            abs_r = np.abs(r)
            norms = _stop_norms(r, abs_r, stop_norm)
        if not np.all(np.isfinite(norms)):
            raise ValueError(f"the initial residual's {stop_norm} norm overflows")

        # rows by original index; each row's Schur coefficients are
        # overwritten with its outliers u_S when it finishes
        out = KgardBatch(
            alpha=None,
            bias=None,
            residual=np.empty((batch, n)),  # each row's residual when it stops
            support=np.zeros((batch, max_selections), dtype=np.intp),
            outliers=np.zeros((batch, max_selections)),
            selections=np.zeros(batch, dtype=np.intp),
            residual_norm=np.empty(batch),
            epsilon=np.empty(batch),
            stop_reason=np.empty(batch, dtype="<U9"),
        )
        picks, coef, final_r, row_tier = out.support, out.outliers, out.residual, tier
        live = np.arange(batch)  # original row of each running row
        active = np.zeros((batch, n), dtype=bool)
        # Q is borrowed from this thread's workspace (see _KEPT_Q_DOUBLES),
        # never malloc'd: a block this large raises glibc's mmap threshold,
        # after which freed temporaries of later fits stay in the heap
        size = max_selections * batch * n
        mapping = _borrow_q(size)
        q = np.frombuffer(mapping, count=size).reshape(max_selections, batch, n)
        k = 0
        # a step can overflow on a finite y; the fit is checked once, at the end
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                while batch:  # an empty batch makes no step
                    m = live.size
                    result = threshold(abs_r)
                    try:
                        if np.iscomplexobj(result):  # a cast would drop the imaginary part
                            raise TypeError("the thresholds are complex")
                        eps = np.asarray(result, dtype=np.float64)
                    except (TypeError, ValueError) as err:
                        raise ValueError(f"epsilon must return real thresholds: {err}") from None
                    if eps.shape not in ((), (m,)):
                        raise ValueError(
                            f"epsilon must return a scalar or {m} thresholds, "
                            f"one per running row, got shape {eps.shape}"
                        )
                    if not (eps >= 0).all():
                        raise ValueError("epsilon returned a negative or NaN threshold")
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
                        fin = np.flatnonzero(stop | capped)
                        rows_fin = live[fin]
                        out.selections[rows_fin] = k
                        out.residual_norm[rows_fin] = norms[fin]
                        final_r[rows_fin] = r[fin]
                        out.epsilon[rows_fin] = eps[fin] if eps.ndim else eps
                        out.stop_reason[rows_fin] = np.where(
                            done[fin], "threshold", "cap" if capped else "pivot"
                        )
                        # Q[S] is lower triangular, so u_S = Q[S]^-T c is one LAPACK
                        # solve per row with the upper triangular q[:, S] = Q[S]^T,
                        # gathered for up to _GATHER_ROWS finishing rows at once.
                        # LAPACK rejects the 0 x 0 system of a row with no selections.
                        for lo in range(0, fin.size if k else 0, _GATHER_ROWS):
                            block = slice(lo, lo + _GATHER_ROWS)
                            upper = q[:k][:, fin[block, None], picks[rows_fin[block], :k]]
                            for f, row in enumerate(rows_fin[block]):
                                coef[row, :k] = _solve_upper(upper[:, f], coef[row, :k])
                        if capped or stop.all():
                            break
                        # compact the running rows to the front of every array
                        keep = ~stop
                        q[:k, : keep.sum()] = q[:k, :m][:, keep]
                        live, tier = live[keep], tier[keep]
                        # abs_r is recomputed from r before it is read again
                        r, active = r[keep], active[keep]
                        j, col, pivot = j[keep], col[keep], pivot[keep]
                        m = live.size
                        rows = rows[:m]

                    qk = np.divide(col, np.sqrt(pivot)[:, None], out=q[k, :m])
                    ck = r[rows, j] / qk[rows, j]
                    r -= ck[:, None] * qk
                    picks[live, k] = j
                    coef[live, k] = ck
                    active[rows, j] = True
                    k += 1
                    abs_r = np.abs(r)
                    norms = _stop_norms(r, abs_r, stop_norm)
            finally:
                if k * batch * n <= _KEPT_Q_DOUBLES:
                    _workspace.q = mapping

            # (alpha; c) = diag(w)^-2 X0^T r / lam of each row's final
            # residual r, X0^T read as the transpose of the C-ordered X0
            theta = np.matmul(self._design.T, final_r[:, :, None])[..., 0]
            theta /= self._divisor[row_tier]
        if not (np.isfinite(theta).all() and np.isfinite(out.outliers).all()):
            raise ValueError("the fit overflows: its coefficients or outliers are not finite")
        out.alpha, out.bias = theta[:, :n], theta[:, n]
        return out

    def _check_tier(self, tier, rows: int) -> np.ndarray:
        """Each of ``rows`` rows' tier as an intp array, checked against
        the solver's ridge parameters."""
        tiers = self._residual_map.shape[0]
        if tier is None:
            if tiers > 1:
                raise ValueError(
                    f"tier is required: the solver has {tiers} ridge parameters"
                )
            return np.zeros(rows, dtype=np.intp)
        tier = np.asarray(tier)
        if tier.dtype.kind not in "iu":
            raise ValueError(f"tier must be an integer array, got dtype {tier.dtype}")
        if tier.shape != (rows,):
            raise ValueError(
                f"tier must have shape {(rows,)}, one per row, got {tier.shape}"
            )
        if tier.size and not (tier.min() >= 0 and tier.max() < tiers):
            raise ValueError(
                f"tier must be in [0, {tiers}), got {tier.min()}..{tier.max()}"
            )
        return tier.astype(np.intp)

