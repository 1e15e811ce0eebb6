"""The einsum form of the kernel's squared distances and the Gram and
cross-Gram matrices built on it, a dense reference solve for the
greedy solver, dense references of
its ridge coefficient and residual maps, a closed-form residual after
k correct selections, a per-row ``np.histogram`` reference for the
denoising threshold, which in ``kgard.denoise`` takes (L, N) stacks
only, the denoising pipeline one ROI at a time, the identification
certificate's fields in numpy scalar arithmetic, and the support
fractions of one fit as set arithmetic.

The solve forms the active design X = [K 1 I_S] and the regularizer B
explicitly and solves the normal equations (X^T X + lam B) z = X^T y
with ``np.linalg.solve``, independently of the solver's ridge design
and its rank-one residual updates.  z stacks (alpha, c, u_S).
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import block_diag

from kgard.core import KgardSolver, NumericalError
from kgard.denoise import auto_epsilon, roi_lattice
from kgard.kernel import KernelParams, as_point_matrix, gram_matrix


def sq_dists_reference(a, b):
    """Squared Euclidean distances of (M, d) and (N, d) point matrices
    through one (M, N, d) difference array reduced by ``np.einsum``,
    the form ``kgard.kernel`` used before it summed one dimension at a
    time."""
    diff = a[:, None, :] - b[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def cross_gram_reference(query_points, train_points, params):
    """exp(-d^2 / sigma^2) on ``sq_dists_reference``."""
    q, x = as_point_matrix(query_points), as_point_matrix(train_points)
    with np.errstate(over="ignore"):
        return np.exp(-sq_dists_reference(q, x) / params.sigma**2)


def gram_reference(points, params):
    """``cross_gram_reference`` of the points against themselves, made
    symmetric as 0.5 (K + K^T) and given a unit diagonal."""
    k = cross_gram_reference(points, points, params)
    k = 0.5 * (k + k.T)
    np.fill_diagonal(k, 1.0)
    return k


def design_matrix(gram, support=()):
    """Dense N x (N+1+|S|) matrix of the active columns."""
    n = gram.shape[0]
    return np.hstack([gram, np.ones((n, 1)), np.eye(n)[:, list(support)]])


def regularizer_matrix(gram, support=(), weights=None):
    """B over the active columns: the identity on (alpha; c), its
    diagonal scaled by the squared weights, then zeros for the
    unregularized identity columns."""
    n = gram.shape[0]
    head = np.eye(n + 1)
    if weights is not None:
        head[np.arange(n + 1), np.arange(n + 1)] *= np.asarray(weights) ** 2
    return block_diag(head, np.zeros((len(support), len(support))))


def dense_solve(gram, y, lam, support=(), weights=None):
    x = design_matrix(gram, support)
    b = regularizer_matrix(gram, support, weights)
    return np.linalg.solve(x.T @ x + lam * b, x.T @ y)


def coefficient_map_reference(gram, lam, weights=None):
    """(X0^T X0 + lam diag(w^2))^-1 X0^T of the ridge design X0 = [K 1],
    the map from y to the ridge fit's coefficients (alpha; c)."""
    x0 = design_matrix(gram)
    a0 = x0.T @ x0 + lam * regularizer_matrix(gram, (), weights)
    return np.linalg.solve(a0, x0.T)


def residual_map_reference(gram, lam, weights=None):
    """I - X0 (X0^T X0 + lam diag(w^2))^-1 X0^T of the ridge design
    X0 = [K 1], the map from y to the ridge fit's residual."""
    return np.eye(gram.shape[0]) - design_matrix(gram) @ coefficient_map_reference(
        gram, lam, weights
    )


def solution_vector(batch, i=0):
    """(alpha, c, u_S) of row i of a KgardBatch, u_S in selection order."""
    k = batch.selections[i]
    return np.concatenate([batch.alpha[i], [batch.bias[i]], batch.outliers[i, :k]])


def residual(gram, y, batch, i=0):
    """y - X z for row i of a KgardBatch and its observations y."""
    support = batch.support[i, : batch.selections[i]]
    return y - design_matrix(gram, support) @ solution_vector(batch, i)


def epsilon_histogram_reference(residual_abs):
    """(edges, heights, h_min, e1, e2, dispersion) of one residual row,
    read off ``np.histogram`` directly; the (e1, e2, dispersion) that
    ``kgard.denoise._histograms`` returns for each row of a stack must
    match it bit for bit."""
    r = np.asarray(residual_abs, dtype=np.float64).ravel()
    if r.size == 0:
        raise ValueError("residual vector is empty")
    if np.any(r < 0):
        raise ValueError("residual magnitudes must be nonnegative")
    bins = r.size // 10 + 1
    heights, edges = np.histogram(r, bins=bins, range=(r.min(), r.max()))
    h_min = int(heights.min())
    e1 = float(edges[int(np.argmax(heights == h_min))])
    e2 = math.inf
    for ell in range(1, bins):
        if heights[ell] - heights[ell - 1] >= 1 and heights[ell - 1] <= h_min + 5:
            e2 = float(edges[ell])
            break
    dispersion = float(np.sqrt(np.var(heights)) / np.mean(heights))
    return edges, heights, h_min, e1, e2, dispersion


def auto_epsilon_reference(residual_abs, e0):
    """Threshold of one residual row from the reference histogram:
    e0 for a span below 1e-9, else min(e0, E1), and E2 as well when the
    bar heights' sqrt(var)/mean exceeds 0.9."""
    r = np.asarray(residual_abs, dtype=np.float64).ravel()
    if r.size == 0:
        raise ValueError("residual vector is empty")
    if float(r.max() - r.min()) < 1e-9:
        return float(e0)
    _, _, _, e1, e2, dispersion = epsilon_histogram_reference(r)
    if dispersion > 0.9:
        return float(min(e0, e1, e2))
    return float(min(e0, e1))


@dataclass
class OracleIntermediates:
    p_matrix: np.ndarray
    w_matrix: np.ndarray
    u_k: np.ndarray


def residual_oracle(gram, true_theta, true_outliers, lam, selected):
    """Closed-form residual after the given (correct) selections.

    Valid for the solver's penalty with unit weights in the pure-outlier
    regime, with ``selected`` a subset of the true outlier support (or
    empty).  With X0 = Q S V^T, G = diag(sigma^2/(sigma^2+lambda)) and
    F = S - G S, the residual after k selections is

        r_k = u_k + P_k Q F V^T theta - Q G Q^T u_k,

    where u_k keeps the not-yet-selected outliers plus a correction
    through W_k = I_k - I_S^T Q G Q^T I_S, and
    P_k = I_N + Q G Q^T I_S W_k^{-1} I_S^T - I_S W_k^{-1} I_S^T.
    For k = 0 this reduces to r_0 = u + Q F V^T theta - Q G Q^T u.
    """
    if not 0 < lam < math.inf:
        raise ValueError(f"lambda must be positive and finite, got {lam}")
    u = np.asarray(true_outliers, dtype=np.float64).ravel()
    support = np.flatnonzero(u)
    selected = [int(j) for j in selected]
    if len(set(selected)) != len(selected):
        raise ValueError("selected indices contain duplicates")
    if not set(selected) <= set(support.tolist()):
        raise ValueError("selected indices must lie inside the true outlier support")
    theta = np.asarray(true_theta, dtype=np.float64).ravel()

    x0 = design_matrix(gram)
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


def denoise_reference(image, cfg):
    """``kgard.denoise_image`` one ROI at a time on explicit slices.

    The image is grown to multiples of L and replicate-padded by
    (N - L) / 2; ROI k, in raster order, is the N x N slice at (i L, j L)
    of the padded image.  Its ridge tier comes from the mean gradient
    magnitude over that slice; it is fitted alone as a one-row stack,
    whose epsilon callable sees a (1, N^2) stack, and its central L x L
    core is written to (i L, j L).  Returns (denoised,
    outlier_map, diagnostics), each diagnostic an (index, origin, lam,
    epsilon, outliers, stop_reason) tuple.
    """
    img = np.asarray(image, dtype=np.float64)
    n, ell, pad = cfg.roi_size, cfg.core_size, cfg.pad
    h, w = img.shape
    eh, ew = math.ceil(h / ell) * ell, math.ceil(w / ell) * ell
    extended = np.pad(img, ((0, eh - h), (0, ew - w)), mode="edge")
    padded = np.pad(extended, pad, mode="edge")
    origins = [(r, c) for r in range(0, eh, ell) for c in range(0, ew, ell)]

    gy, gx = np.gradient(padded)
    grad = np.sqrt(gx**2 + gy**2)
    means = np.array([float(np.mean(grad[r : r + n, c : c + n])) for r, c in origins])
    m, s = float(np.mean(means)), float(np.std(means))
    lambdas = np.full(means.shape, 5.0 * cfg.lambda0)
    lambdas[means > m + s] = cfg.lambda0
    lambdas[means < m - s / 10.0] = 15.0 * cfg.lambda0

    gram = gram_matrix(roi_lattice(n), KernelParams(cfg.sigma))
    denoised = np.empty((eh, ew))
    outlier_map = np.zeros((eh, ew))
    inner = np.s_[pad : pad + ell, pad : pad + ell]
    diagnostics = []
    for idx, ((r, c), lam) in enumerate(zip(origins, lambdas.tolist())):
        fit = KgardSolver(gram, lam).fit(
            padded[r : r + n, c : c + n].ravel()[None],
            epsilon=lambda abs_r: auto_epsilon(abs_r, cfg.e0),
            stop_norm="linf",
            max_selections=n * n // 3,
        )
        k = int(fit.selections[0])
        surface = (gram @ fit.alpha[0] + fit.bias[0]).reshape(n, n)
        u = np.zeros(n * n)
        u[fit.support[0, :k]] = fit.outliers[0, :k]
        denoised[r : r + ell, c : c + ell] = surface[inner]
        outlier_map[r : r + ell, c : c + ell] = u.reshape(n, n)[inner]
        diagnostics.append(
            (idx, (r, c), lam, float(fit.epsilon[0]), k, str(fit.stop_reason[0]))
        )
    quantum = 2.0**-30
    outlier_map = np.round(outlier_map[:h, :w] / quantum) * quantum
    return denoised[:h, :w], outlier_map, diagnostics


def theorem_check_reference(sigma_max, true_theta, true_outliers, lam):
    """One row of ``kgard.theory.theorem_check`` for valid inputs, as a
    dict of its ``BoundReport`` fields, with the norms from
    ``np.linalg.norm`` and the square roots from ``np.sqrt``; ``gamma``
    is None where no gamma exists."""
    u = np.asarray(true_outliers, dtype=np.float64).ravel()
    theta = np.asarray(true_theta, dtype=np.float64).ravel()
    min_outlier = float(np.min(np.abs(u[np.flatnonzero(u)])))
    theta_norm = float(np.linalg.norm(theta))
    outlier_norm = float(np.linalg.norm(u))
    lambda_cap = np.inf if theta_norm == 0 else (min_outlier / theta_norm) ** 2 / 2.0
    numerator = min_outlier - np.sqrt(2.0 * lam) * theta_norm
    gamma = None
    holds = False
    if numerator > 0:
        gamma = float(
            np.sqrt(
                numerator
                / (2.0 * outlier_norm - min_outlier + np.sqrt(2.0 * lam) * theta_norm)
            )
        )
        holds = bool(sigma_max < gamma * np.sqrt(lam))
    return dict(
        sigma_max=float(sigma_max),
        gamma=gamma,
        lambda_cap=float(lambda_cap),
        holds=holds,
        min_outlier=min_outlier,
        theta_norm=theta_norm,
        outlier_norm=outlier_norm,
        lam=float(lam),
    )


def support_metrics(estimated, truth) -> tuple[float, float]:
    """(|S_hat & T| / |T|, |S_hat - T| / |T|) for index sets."""
    t = set(int(i) for i in truth)
    if not t:
        raise ValueError("true support set is empty")
    s = set(int(i) for i in estimated)
    return len(s & t) / len(t), len(s - t) / len(t)
