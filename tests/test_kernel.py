import numpy as np
import pytest

from kgard.kernel import (
    KernelParams,
    as_point_matrix,
    cross_gram,
    gram_matrix,
    rbf_eval,
)


def test_params_require_positive_sigma():
    with pytest.raises(ValueError):
        KernelParams(0.0)
    with pytest.raises(ValueError):
        KernelParams(-1.0)
    # sigma^2 divides every squared distance: it must be a finite, normal
    # float, and the check itself must not overflow
    for sigma in (np.inf, np.nan, 1e200, np.float64(1e200), 1e-300, 1e-160):
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            KernelParams(sigma)
    for sigma in (1e-150, 1e150, np.float64(0.3), 2):
        assert np.all(np.isfinite(gram_matrix([0.0, 1.0], KernelParams(sigma))))


def test_smallest_admitted_sigma_gives_exact_zeros():
    # d^2 / sigma^2 overflows to inf, and exp(-inf) = 0 is the exact value
    params = KernelParams(1.5e-154)
    assert np.array_equal(gram_matrix([0.0, 10.0], params), np.eye(2))
    assert np.array_equal(cross_gram([0.0, 10.0], [0.0, 10.0], params), np.eye(2))
    assert rbf_eval(0.0, 10.0, params) == 0.0


def test_rbf_eval_known_value():
    params = KernelParams(2.0)
    # exp(-|1-3|^2 / 4) = exp(-1)
    assert rbf_eval(1.0, 3.0, params) == pytest.approx(np.exp(-1.0), abs=1e-15)
    assert rbf_eval([0, 0], [0, 0], params) == 1.0


def test_rbf_eval_dimension_mismatch():
    with pytest.raises(ValueError):
        rbf_eval([1.0, 2.0], [1.0], KernelParams(1.0))


def test_as_point_matrix_shapes():
    assert as_point_matrix([1.0, 2.0]).shape == (2, 1)
    assert as_point_matrix([[1.0, 2.0]]).shape == (1, 2)
    with pytest.raises(ValueError):
        as_point_matrix(np.zeros((2, 2, 2)))


def test_gram_matrix_symmetric_unit_diagonal():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(40, 3))
    k = gram_matrix(pts, KernelParams(1.5))
    assert np.array_equal(k, k.T)
    assert np.array_equal(np.diag(k), np.ones(40))
    assert np.all(k > 0) and np.all(k <= 1.0)


def test_gram_matrix_positive_semidefinite():
    rng = np.random.default_rng(1)
    k = gram_matrix(rng.normal(size=(30, 2)), KernelParams(0.7))
    assert np.linalg.eigvalsh(k).min() > -1e-10


def test_gram_matrix_matches_pairwise_eval():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(6, 2))
    params = KernelParams(0.9)
    k = gram_matrix(pts, params)
    for i in range(6):
        for j in range(6):
            assert k[i, j] == pytest.approx(rbf_eval(pts[i], pts[j], params), abs=1e-14)


def test_gram_matrix_rejects_empty():
    with pytest.raises(ValueError):
        gram_matrix(np.zeros((0, 2)), KernelParams(1.0))


def test_cross_gram_consistency_and_errors():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(10, 2))
    params = KernelParams(1.1)
    full = gram_matrix(pts, params)
    rect = cross_gram(pts[:4], pts, params)
    assert rect.shape == (4, 10)
    assert np.allclose(rect, full[:4], atol=1e-14)
    with pytest.raises(ValueError):
        cross_gram(np.zeros((3, 2)), np.zeros((5, 3)), params)
