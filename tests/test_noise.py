import math
import re

import numpy as np
import pytest

import kgard.noise
from kgard.kernel import KernelParams, cross_gram
from kgard.noise import (
    NoiseSpec,
    StableParams,
    corrupt,
    make_lattice_dataset,
    make_sinc_dataset,
    lattice_nodes,
    make_support_dataset,
    rng_for,
    round_half_away,
    sample_alpha_stable,
    sinc_target,
)


def test_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(impulse_fraction=1.0)
    with pytest.raises(ValueError):
        NoiseSpec(impulse_magnitude=-1.0)
    with pytest.raises(ValueError):
        NoiseSpec(inlier_snr_db=20.0, stable_params=StableParams(1.2, 0.1))
    with pytest.raises(ValueError):
        NoiseSpec(inlier_snr_db=20.0, inlier_sigma=3.0)
    with pytest.raises(ValueError):
        StableParams(alpha=2.5, gamma_scale=1.0)


@pytest.mark.parametrize(
    "kwargs, match",
    [
        (dict(impulse_magnitude=np.nan), "impulse_magnitude must be nonnegative and finite"),
        (dict(impulse_magnitude=np.inf), "impulse_magnitude must be nonnegative and finite"),
        (dict(inlier_sigma=np.inf), "inlier_sigma must be positive and finite"),
        (dict(inlier_snr_db=np.nan), "inlier_snr_db must be finite"),
        (dict(inlier_snr_db=np.inf), "inlier_snr_db must be finite"),
        (dict(inlier_snr_db=-np.inf), "inlier_snr_db must be finite"),
        # 10^(snr/10) overflows, or is zero or subnormal
        (dict(inlier_snr_db=4000.0), "inlier_snr_db must be finite"),
        (dict(inlier_snr_db=np.float64(4000.0)), "inlier_snr_db must be finite"),
        (dict(inlier_snr_db=-4000.0), "inlier_snr_db must be finite"),
        (dict(inlier_snr_db=-3080.0), "inlier_snr_db must be finite"),
        # no float holds these
        (dict(impulse_magnitude=10**400), "impulse_magnitude must convert to a float"),
        (dict(impulse_fraction=-(10**400)), "impulse_fraction must convert to a float"),
        (dict(inlier_sigma=10**400), "inlier_sigma must convert to a float"),
        (dict(inlier_snr_db=10**400), "inlier_snr_db must convert to a float"),
        (dict(inlier_snr_db="loud"), "inlier_snr_db must convert to a float"),
        (dict(impulse_magnitude=None), "impulse_magnitude must convert to a float"),
    ],
)
def test_spec_rejects_values_that_cannot_be_drawn(kwargs, match):
    with pytest.raises(ValueError, match=match):
        NoiseSpec(**kwargs)


@pytest.mark.parametrize("stable", ["x", (1.5, 1.0), 1.5], ids=["str", "tuple", "float"])
def test_spec_rejects_stable_params_of_another_type(stable):
    # a string was accepted, and the run then died reading its .alpha
    with pytest.raises(ValueError, match="stable_params must be None or a StableParams"):
        NoiseSpec(stable_params=stable)


def test_spec_holds_python_floats():
    spec = NoiseSpec(inlier_sigma=np.float32(2.5), impulse_fraction=0, impulse_magnitude=40)
    stable = StableParams(alpha=np.int64(1), gamma_scale=3)
    for value in (spec.inlier_sigma, spec.impulse_fraction, spec.impulse_magnitude,
                  stable.alpha, stable.gamma_scale):
        assert type(value) is float
    assert (spec.inlier_sigma, spec.impulse_magnitude, stable.gamma_scale) == (2.5, 40.0, 3.0)
    assert NoiseSpec(inlier_snr_db=20).inlier_snr_db == 20.0


def test_corrupt_with_an_unrepresentable_magnitude_raises_value_error():
    with pytest.raises(ValueError, match="impulse_magnitude must convert to a float"):
        corrupt(np.zeros(10), NoiseSpec(impulse_fraction=0.2, impulse_magnitude=10**400),
                rng=rng_for(0))


def test_stable_params_reject_non_finite_values():
    for alpha in (np.nan, np.inf):
        with pytest.raises(ValueError, match="alpha must be in"):
            StableParams(alpha=alpha, gamma_scale=1.0)
    for gamma in (np.nan, np.inf, 0.0):
        with pytest.raises(ValueError, match="gamma_scale must be positive and finite"):
            StableParams(alpha=1.5, gamma_scale=gamma)
    with pytest.raises(ValueError, match="alpha must convert to a float"):
        StableParams(alpha=10**400, gamma_scale=1.0)
    with pytest.raises(ValueError, match="gamma_scale must convert to a float"):
        StableParams(alpha=1.5, gamma_scale="wide")


def test_extreme_admitted_snr_draws_finite_noise():
    truth = np.ones(50)
    for snr_db in (3000.0, -3000.0):
        y, _, _ = corrupt(truth, NoiseSpec(inlier_snr_db=snr_db), rng_for(0))
        assert np.all(np.isfinite(y))


def test_round_half_away():
    assert round_half_away(0.5) == 1
    assert round_half_away(-0.5) == -1
    assert round_half_away(19.9) == 20
    assert round_half_away(2.4) == 2


@pytest.mark.parametrize("x", [0.5, -0.5, 2.5, -2.5, 0.0, -0.0, 12.8, np.float64(-2.5)])
def test_round_half_away_matches_numpy_formula(x):
    want = int(np.sign(x) * np.floor(np.abs(x) + 0.5))
    got = round_half_away(x)
    assert type(got) is int and got == want


def test_round_half_away_rejects_nan_and_inf():
    with pytest.raises(ValueError):
        round_half_away(math.nan)
    for x in (math.inf, -math.inf):
        with pytest.raises(OverflowError):
            round_half_away(x)


def test_sinc_dataset_geometry():
    x_train, train_truth, x_val, val_truth = make_sinc_dataset()
    assert x_train.shape == train_truth.shape == (199,)
    assert x_val.shape == val_truth.shape == (199,)
    assert x_train[0] == pytest.approx(-0.99)
    # consecutive grid points are 0.005 apart (0.01 within each split)
    assert np.allclose(np.diff(x_train), 0.01)
    assert sinc_target(np.array([0.0]))[0] == pytest.approx(20.0)
    # the peak lands on the training grid
    assert train_truth.max() == pytest.approx(20.0)
    assert np.array_equal(train_truth, sinc_target(x_train))
    assert np.array_equal(val_truth, sinc_target(x_val))


def test_sinc_dataset_splits_interleave():
    x_train, _, x_val, _ = make_sinc_dataset()
    merged = np.sort(np.concatenate([x_train, x_val]))
    assert merged.size == 398
    assert np.allclose(np.diff(merged), 0.005)


def test_lattice_dataset_geometry_and_determinism():
    train_truth, val_truth, alpha = make_lattice_dataset(rng_for(7))
    assert train_truth.shape == (256,)
    assert val_truth.shape == (225,)
    assert alpha.shape == (961,)
    nnz = np.count_nonzero(alpha)
    assert 11 <= nnz <= 44
    again = make_lattice_dataset(rng_for(7))
    assert np.array_equal(again[2], alpha)
    assert np.array_equal(again[0], train_truth)
    assert np.array_equal(again[1], val_truth)


def _close_to_dense(truth, dense):
    # a product over the support and one over every center agree to
    # within rounding of the largest entry
    return np.max(np.abs(truth - dense)) <= 1e-12 * np.max(np.abs(dense))


def test_lattice_truths_match_per_draw_cross_gram():
    centers, train_pts, val_pts = lattice_nodes()
    params = KernelParams(0.2)
    for seed in (0, 1, 2):
        train_truth, val_truth, alpha = make_lattice_dataset(rng_for(seed))
        idx = np.flatnonzero(alpha)
        # bit for bit: the same product over freshly computed kernel
        # rows of the support, center-major like the cached matrices
        assert np.array_equal(
            train_truth, alpha[idx] @ cross_gram(centers[idx], train_pts, params)
        )
        assert np.array_equal(
            val_truth, alpha[idx] @ cross_gram(centers[idx], val_pts, params)
        )
        assert _close_to_dense(train_truth, cross_gram(train_pts, centers, params) @ alpha)
        assert _close_to_dense(val_truth, cross_gram(val_pts, centers, params) @ alpha)


def test_lattice_cross_grams_built_once(monkeypatch):
    calls = []

    def counting(*args):
        calls.append((args[0].shape[0], args[1].shape[0]))
        return cross_gram(*args)

    monkeypatch.setattr(kgard.noise, "cross_gram", counting)
    kgard.noise._lattice_kernels.cache_clear()
    for seed in (0, 1, 2):
        make_lattice_dataset(rng_for(seed))
    assert calls == [(961, 256), (961, 225)]  # center-major
    for kernels in kgard.noise._lattice_kernels():
        with pytest.raises(ValueError):
            kernels[0, 0] = 1.0  # shared by every draw, so read-only


def test_lattice_nnz_spans_range():
    counts = {
        np.count_nonzero(make_lattice_dataset(rng_for(s))[2])
        for s in range(60)
    }
    assert min(counts) < 20 and max(counts) > 35


def test_support_dataset_shapes():
    x, truth, alpha = make_support_dataset(rng_for(0))
    assert x.shape == (100,) and truth.shape == (100,)
    assert 2 <= np.count_nonzero(alpha) <= 23


def test_support_inputs_are_shared_and_read_only():
    x, _, alpha = make_support_dataset(rng_for(0))
    again, _, _ = make_support_dataset(rng_for(1))
    assert again is x
    assert x.tobytes() == np.linspace(0.0, 1.0, 100).tobytes()
    with pytest.raises(ValueError):
        x[0] = 1.0  # shared by every draw, so read-only
    alpha[0] += 1.0  # each draw's own


def test_support_truth_reads_only_the_support():
    params = KernelParams(0.1)
    for seed in (0, 1, 2, 3):
        x, truth, alpha = make_support_dataset(rng_for(seed))
        idx = np.flatnonzero(alpha)
        gram = cross_gram(x, x, params)
        # bit for bit: the same row-major (100, nnz) product; the gathered
        # view alone is laid out differently and takes another BLAS path
        assert np.array_equal(truth, np.ascontiguousarray(gram[:, idx]) @ alpha[idx])
        assert _close_to_dense(truth, gram @ alpha)


def test_support_truth_is_one_cross_gram_of_the_support(monkeypatch):
    shapes = []

    def counting(query, train, params):
        shapes.append((len(query), len(train)))
        return cross_gram(query, train, params)

    monkeypatch.setattr(kgard.noise, "cross_gram", counting)
    _, _, alpha = make_support_dataset(rng_for(5))
    assert shapes == [(100, np.count_nonzero(alpha))]


def test_corrupt_counts_and_signs():
    truth = np.zeros(199)
    spec = NoiseSpec(impulse_fraction=0.10, impulse_magnitude=15.0)
    y, support, u = corrupt(truth, spec, rng_for(1))
    assert support.size == 20  # round(19.9)
    assert set(np.abs(u[support])) == {15.0}
    assert np.count_nonzero(u) == 20
    assert np.array_equal(y, u)  # no inlier noise requested


def test_corrupt_fraction_zero_is_identity():
    truth = np.arange(10.0)
    y, support, u = corrupt(truth, NoiseSpec(), rng_for(3))
    assert np.array_equal(y, truth)
    assert support.size == 0 and not np.any(u)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_corrupt_rejects_non_finite_truth(bad):
    with pytest.raises(ValueError, match="truth must be finite"):
        corrupt(np.array([bad, 1.0, 2.0]), NoiseSpec(), rng_for(0))


@pytest.mark.parametrize("truth", [np.full(10, 1e200), np.full(10, 1e150)])
def test_corrupt_rejects_an_inlier_variance_that_overflows(truth):
    # truth^2 overflows for 1e200; for 1e150 only the quotient does
    with pytest.raises(ValueError, match="inlier variance .* overflows"):
        corrupt(truth, NoiseSpec(inlier_snr_db=-3000.0), rng_for(0))


def test_corrupt_rejects_impulses_that_overflow():
    spec = NoiseSpec(impulse_fraction=0.5, impulse_magnitude=1e308)
    with pytest.raises(ValueError, match="impulse_magnitude"):
        corrupt(np.full(10, 1.7e308), spec, rng_for(0))
    # the same impulses on a zero truth come back as drawn
    y, _, u = corrupt(np.zeros(10), spec, rng_for(0))
    assert np.array_equal(y, u) and np.count_nonzero(u) == 5


@pytest.mark.parametrize(
    "truth, spec, match",
    [
        (1.7e308, NoiseSpec(inlier_sigma=1e307),
         "the impulses and the Gaussian inlier noise at inlier_sigma=1e\\+307 overflows"),
        (1.7e308, NoiseSpec(inlier_snr_db=-3.0),
         "Gaussian inlier variance .* inlier_snr_db=-3.0"),
        (1.7e308, NoiseSpec(stable_params=StableParams(1.5, 1e307)),
         "the impulses and the alpha-stable noise at gamma_scale=1e\\+307 overflows"),
        # the draws themselves overflow
        (0.0, NoiseSpec(stable_params=StableParams(0.5, 1e307)),
         "alpha-stable noise at gamma_scale=1e\\+307 overflows"),
        (1.7e308, NoiseSpec(impulse_fraction=0.5, impulse_magnitude=1e308, inlier_sigma=1.0),
         "truth plus an impulse overflows at impulse_magnitude=1e\\+308"),
    ],
    ids=["sigma", "snr", "alpha-stable", "alpha-stable-draws", "impulses-before-noise"],
)
def test_corrupt_rejects_noise_that_overflows(truth, spec, match):
    # an overflow is an error naming its term, never a warning or inf
    with pytest.raises(ValueError, match=match):
        corrupt(np.full(1000, truth), spec, rng_for(0))


@pytest.mark.parametrize(
    "spec",
    [NoiseSpec(inlier_sigma=1.0), NoiseSpec(inlier_snr_db=20.0),
     NoiseSpec(stable_params=StableParams(1.5, 1.0))],
    ids=["sigma", "snr", "alpha-stable"],
)
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_corrupt_names_a_non_finite_truth_under_every_family(spec, bad):
    with pytest.raises(ValueError, match="truth must be finite"):
        corrupt(np.array([bad, 1.0, 2.0]), spec, rng_for(0))


@pytest.mark.parametrize("shape", [(3, 4), (12, 1), (0,), (0, 3)], ids=str)
def test_corrupt_requires_a_nonempty_vector(shape):
    # a matrix was once flattened into N = 12 observations, and an empty
    # truth failed on its impulse count
    with pytest.raises(ValueError, match=re.escape(f"1-D vector, got shape {shape}")):
        corrupt(np.ones(shape), NoiseSpec(impulse_fraction=0.25), rng_for(0))


def test_corrupt_rejects_full_support():
    with pytest.raises(ValueError):
        corrupt(np.zeros(2), NoiseSpec(impulse_fraction=0.9), rng_for(0))


def test_corrupt_empirical_snr():
    _, truth, _, _ = make_sinc_dataset()
    big = np.tile(truth, 503)  # ~1e5 samples
    y, _, _ = corrupt(big, NoiseSpec(inlier_snr_db=20.0), rng_for(5))
    snr = 10 * np.log10(np.mean(big**2) / np.var(y - big))
    assert 19.5 <= snr <= 20.5


def test_corrupt_fixed_sigma_inliers():
    big = np.zeros(200000)
    y, _, _ = corrupt(big, NoiseSpec(inlier_sigma=3.0), rng_for(6))
    assert np.std(y) == pytest.approx(3.0, rel=0.02)


def test_corrupt_support_uniformity():
    counts = np.zeros(100)
    for s in range(10000):
        _, support, _ = corrupt(
            np.zeros(100),
            NoiseSpec(impulse_fraction=0.10, impulse_magnitude=1.0),
            rng_for(s),
        )
        counts[support] += 1
    freq = counts / 10000
    assert np.all(np.abs(freq - 0.10) <= 0.01)


def test_corrupt_determinism_and_rng_override():
    truth = np.arange(50.0)
    spec = NoiseSpec(impulse_fraction=0.1, impulse_magnitude=9.0)
    y1, s1, _ = corrupt(truth, spec, rng_for(11))
    y2, s2, _ = corrupt(truth, spec, rng_for(11))
    assert np.array_equal(y1, y2) and np.array_equal(s1, s2)
    y3, _, _ = corrupt(truth, spec, rng=rng_for(999))
    assert not np.array_equal(y1, y3)


def test_alpha_stable_gaussian_limit():
    # alpha = 2 is the Gaussian member: excess kurtosis ~ 0
    samples = sample_alpha_stable(rng_for(0), StableParams(2.0, 1.0), 1_000_000)
    z = (samples - samples.mean()) / samples.std()
    kurtosis = np.mean(z**4) - 3.0
    assert abs(kurtosis) < 0.1
    # variance of the alpha=2 member is 2 gamma^2
    assert np.var(samples) == pytest.approx(2.0, rel=0.02)


def test_alpha_stable_heavy_tails():
    light = sample_alpha_stable(rng_for(1), StableParams(2.0, 1.0), 100000)
    heavy = sample_alpha_stable(rng_for(1), StableParams(1.2, 1.0), 100000)
    assert np.max(np.abs(heavy)) > 10 * np.max(np.abs(light))


def test_alpha_stable_cauchy_branch():
    # alpha = 1 uses the tan branch; median stays at 0
    samples = sample_alpha_stable(rng_for(2), StableParams(1.0, 1.0), 200000)
    assert abs(np.median(samples)) < 0.02
    assert np.mean(np.abs(samples) < 1.0) == pytest.approx(0.5, abs=0.01)

