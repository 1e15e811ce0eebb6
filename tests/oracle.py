"""Dense reference solve for the greedy solver.

Forms the active design X = [K 1 I_S] and the regularizer B
explicitly and solves the normal equations (X^T X + lam B) z = X^T y
with ``np.linalg.solve``, independently of the solver's incremental
Cholesky factor.  z stacks (alpha, c, u_S).
"""

import numpy as np
from scipy.linalg import block_diag

from kgard.core import RegularizerKind


def design_matrix(gram, support=()):
    """Dense N x (N+1+|S|) matrix of the active columns."""
    n = gram.shape[0]
    return np.hstack([gram, np.ones((n, 1)), np.eye(n)[:, list(support)]])


def regularizer_matrix(gram, regularizer, support=(), weights=None):
    """B over the active columns: the penalty on (alpha; c), its
    diagonal scaled by the squared weights, then zeros for the
    unregularized identity columns."""
    n = gram.shape[0]
    if regularizer is RegularizerKind.COEFFICIENT_NORM:
        head = np.eye(n + 1)
    else:
        head = block_diag(gram, 0.0)
    if weights is not None:
        head[np.arange(n + 1), np.arange(n + 1)] *= np.asarray(weights) ** 2
    return block_diag(head, np.zeros((len(support), len(support))))


def dense_solve(
    gram,
    y,
    lam,
    support=(),
    regularizer=RegularizerKind.COEFFICIENT_NORM,
    weights=None,
):
    x = design_matrix(gram, support)
    b = regularizer_matrix(gram, regularizer, support, weights)
    return np.linalg.solve(x.T @ x + lam * b, x.T @ y)


def solution_vector(sol):
    """(alpha, c, u_S) of a KgardSolution, in selection order."""
    return np.concatenate([sol.alpha, [sol.bias], list(sol.outliers.values())])


def residual(gram, y, sol):
    """y - X z for a KgardSolution."""
    return y - design_matrix(gram, sol.support) @ solution_vector(sol)
