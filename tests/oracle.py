"""Dense reference solve for the greedy solver, dense references of
its ridge coefficient and residual maps, and a per-row
``np.histogram`` reference for the denoising threshold.

The solve forms the active design X = [K 1 I_S] and the regularizer B
explicitly and solves the normal equations (X^T X + lam B) z = X^T y
with ``np.linalg.solve``, independently of the solver's ridge design
and its rank-one residual updates.  z stacks (alpha, c, u_S).
"""

import math

import numpy as np
from scipy.linalg import block_diag


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
    read off ``np.histogram`` directly; the row-wise
    ``kgard.denoise.epsilon_histogram`` must match it bit for bit."""
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
