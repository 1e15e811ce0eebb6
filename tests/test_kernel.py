import math
import sys

import numpy as np
import pytest

from kgard.denoise import RoiConfig, roi_lattice
from kgard.experiments import SWEEP_N
from kgard.kernel import (
    KernelParams,
    _sq_dists,
    as_point_matrix,
    cross_gram,
    gram_matrix,
)
from kgard.noise import (
    LATTICE_KERNEL_SIGMA,
    SINC_KERNEL_SIGMA,
    SUPPORT_KERNEL_SIGMA,
    lattice_nodes,
    make_sinc_dataset,
)
from oracle import cross_gram_reference, gram_reference, sq_dists_reference

# the smallest sigma whose square is a normal float
SMALLEST_SIGMA = math.sqrt(sys.float_info.min)


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


def test_params_store_the_float_they_checked():
    # a string sigma reached _rbf's sigma**2 and raised TypeError there
    params = KernelParams("0.3")
    assert type(params.sigma) is float and params.sigma == 0.3
    x = np.linspace(0.0, 1.0, 7)
    assert gram_matrix(x, params).tobytes() == gram_matrix(x, KernelParams(0.3)).tobytes()


def test_smallest_admitted_sigma_gives_exact_zeros():
    # d^2 / sigma^2 overflows to inf, and exp(-inf) = 0 is the exact value
    params = KernelParams(1.5e-154)
    assert np.array_equal(gram_matrix([0.0, 10.0], params), np.eye(2))
    assert np.array_equal(cross_gram([0.0, 10.0], [0.0, 10.0], params), np.eye(2))
    assert cross_gram([0.0], [10.0], params)[0, 0] == 0.0


def test_cross_gram_known_value():
    params = KernelParams(2.0)
    # exp(-|1-3|^2 / 4) = exp(-1)
    assert cross_gram([1.0], [3.0], params)[0, 0] == pytest.approx(np.exp(-1.0), abs=1e-15)
    assert cross_gram([[0, 0]], [[0, 0]], params)[0, 0] == 1.0


def test_as_point_matrix_shapes():
    assert as_point_matrix([1.0, 2.0]).shape == (2, 1)
    assert as_point_matrix([[1.0, 2.0]]).shape == (1, 2)
    with pytest.raises(ValueError):
        as_point_matrix(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError, match="at least one coordinate"):
        as_point_matrix(np.zeros((2, 0)))


def test_gram_matrix_symmetric_unit_diagonal():
    # the diagonal is computed, not written: exp(0.0 / -sigma^2) is 1.0
    # at every admitted sigma and for coordinates of any finite size
    pts = np.random.default_rng(0).normal(size=(40, 3))
    for scale, sigma in [(1.0, 1.5), (1.0, SMALLEST_SIGMA), (1e150, 1e150)]:
        k = gram_matrix(scale * pts, KernelParams(sigma))
        assert np.array_equal(k, k.T)
        assert np.diag(k).tobytes() == np.ones(40).tobytes()
        assert np.all(k >= 0) and np.all(k <= 1.0)
    assert np.all(gram_matrix(pts, KernelParams(1.5)) > 0)


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
            # the closed form exp(-||x_i - x_j||^2 / sigma^2), entry by entry
            ref = math.exp(-float(np.sum((pts[i] - pts[j]) ** 2)) / params.sigma**2)
            assert k[i, j] == pytest.approx(ref, abs=1e-14)


def test_gram_matrix_rejects_empty():
    with pytest.raises(ValueError):
        gram_matrix(np.zeros((0, 2)), KernelParams(1.0))


NON_FINITE_POINTS = pytest.mark.parametrize(
    "bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"]
)


@NON_FINITE_POINTS
def test_gram_matrix_rejects_non_finite_points(bad):
    # an inf point once gave a finite Gram: its NaN diagonal entry was
    # overwritten with 1 and the rest of its row was 0
    for points in ([bad, 0.0, 0.5], [[0.0, 1.0], [0.5, bad]]):
        with pytest.raises(ValueError, match="^points must be finite$"):
            gram_matrix(points, KernelParams(0.3))


@NON_FINITE_POINTS
def test_cross_gram_rejects_non_finite_points(bad):
    good = [0.0, 0.5, 1.0]
    for query, train in (([0.2, bad], good), ([0.2], [0.0, bad, 1.0])):
        with pytest.raises(ValueError, match="^points must be finite$"):
            cross_gram(query, train, KernelParams(0.3))


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


def _random_points(d, sigma, seed=0):
    """40 normal points in d dimensions, 8 of them repeats of others."""
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(40, d))
    pts[32:] = pts[rng.choice(32, size=8, replace=False)]
    return pts, KernelParams(sigma)


def _low_dim_cases():
    """(query, train, params) on the inputs of every protocol, the ROI
    lattice, the sweep, and random points with duplicates, in one and
    two dimensions."""
    centers, train, val = lattice_nodes()
    lattice = KernelParams(LATTICE_KERNEL_SIGMA)
    sinc_train, _, sinc_val, _ = make_sinc_dataset()
    sweep = np.linspace(0.0, 1.0, SWEEP_N)
    roi = roi_lattice(RoiConfig().roi_size)
    cases = {
        "lattice-train": (train, train, lattice),
        "lattice-validation": (val, train, lattice),
        "lattice-centers": (centers, val, lattice),
        "sinc": (sinc_val, sinc_train, KernelParams(SINC_KERNEL_SIGMA)),
        "sweep": (sweep, sweep[[3, 17, 50, 99]], KernelParams(SUPPORT_KERNEL_SIGMA)),
        "roi": (roi, roi, KernelParams(RoiConfig().sigma)),
    }
    for d in (1, 2):
        for sigma in (0.7, SMALLEST_SIGMA):
            pts, params = _random_points(d, sigma)
            cases[f"random-d{d}-sigma{sigma:.3g}"] = (pts, pts[::3], params)
    return cases


LOW_DIM = _low_dim_cases()


def test_smallest_sigma_is_admitted():
    KernelParams(SMALLEST_SIGMA)
    with pytest.raises(ValueError, match="sigma must be positive and finite"):
        KernelParams(math.nextafter(SMALLEST_SIGMA, 0.0))


@pytest.mark.parametrize("query, train, params", LOW_DIM.values(), ids=LOW_DIM.keys())
def test_kernel_matches_einsum_reference_bytes_in_low_dimensions(query, train, params):
    # summing one dimension at a time adds in einsum's order for d <= 2
    q, x = as_point_matrix(query), as_point_matrix(train)
    assert np.array_equal(_sq_dists(q, x), sq_dists_reference(q, x))
    for got, want in (
        (gram_matrix(q, params), gram_reference(q, params)),
        (gram_matrix(x, params), gram_reference(x, params)),
        (cross_gram(q, x, params), cross_gram_reference(q, x, params)),
    ):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("d", range(3, 9))
def test_kernel_matches_einsum_reference_in_higher_dimensions(d):
    # einsum adds d >= 3 terms in another order, so the last bits may move
    rng = np.random.default_rng(d)
    q, x = rng.uniform(size=(30, d)), rng.uniform(size=(50, d))
    params = KernelParams(math.sqrt(d))  # exponents in [-1, 0]
    assert np.allclose(_sq_dists(q, x), sq_dists_reference(q, x), rtol=1e-14, atol=0)
    assert np.allclose(gram_matrix(x, params), gram_reference(x, params), rtol=1e-14, atol=0)
    assert np.allclose(
        cross_gram(q, x, params), cross_gram_reference(q, x, params), rtol=1e-14, atol=0
    )


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_gram_columns_are_cross_gram_bytes(d):
    pts, params = _random_points(d, 0.9, seed=d)
    idx = np.array([0, 5, 32, 39, 7])
    assert gram_matrix(pts, params)[:, idx].tobytes() == cross_gram(pts, pts[idx], params).tobytes()
