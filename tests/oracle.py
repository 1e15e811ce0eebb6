"""Dense reference solve for the greedy solver, dense references of
its ridge coefficient and residual maps, a closed-form residual after
k correct selections, a per-row ``np.histogram`` reference for the
denoising threshold, which in ``kgard.denoise`` takes (L, N) stacks
only, and the denoising pipeline one ROI at a time.

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
from kgard.kernel import KernelParams, gram_matrix


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


def solution_vector(sol):
    """(alpha, c, u_S) of a KgardSolution, in selection order."""
    return np.concatenate([sol.alpha, [sol.bias], list(sol.outliers.values())])


def residual(gram, y, sol):
    """y - X z for a KgardSolution."""
    return y - design_matrix(gram, sol.support) @ solution_vector(sol)


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
    magnitude over that slice; it is fitted alone with a 1-D
    ``KgardSolver.fit``, whose epsilon callable sees a (1, N^2) stack, and
    its central L x L core is written to (i L, j L).  Returns (denoised,
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
        sol = KgardSolver(gram, lam).fit(
            padded[r : r + n, c : c + n].ravel(),
            epsilon=lambda abs_r: auto_epsilon(abs_r, cfg.e0),
            stop_norm="linf",
            max_selections=n * n // 3,
        )
        surface = (gram @ sol.alpha + sol.bias).reshape(n, n)
        u = np.zeros(n * n)
        u[list(sol.outliers)] = list(sol.outliers.values())
        denoised[r : r + ell, c : c + ell] = surface[inner]
        outlier_map[r : r + ell, c : c + ell] = u.reshape(n, n)[inner]
        diagnostics.append(
            (idx, (r, c), lam, sol.epsilon, len(sol.outliers), sol.stop_reason)
        )
    quantum = 2.0**-30
    outlier_map = np.round(outlier_map[:h, :w] / quantum) * quantum
    return denoised[:h, :w], outlier_map, diagnostics
