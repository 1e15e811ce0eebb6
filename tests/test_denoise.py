import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import kgard.denoise as denoise_mod
from kgard.core import NumericalError
from kgard.denoise import (
    RoiConfig,
    auto_epsilon,
    auto_lambda_map,
    denoise_image,
    epsilon_histogram,
    pad_image,
    psnr,
    rearrange,
    roi_lattice,
    tile_plan,
    unrearrange,
)
from kgard.noise import rng_for


def _bump(n=32, amp=10.0, base=60.0):
    # low base level keeps the ridge's DC shrinkage (the bias is
    # penalized too) well below the 40 dB example threshold
    xx, yy = np.meshgrid(np.linspace(-1, 1, n), np.linspace(-1, 1, n))
    return np.round(base + amp * np.exp(-(xx**2 + yy**2) / 0.5))


def test_roi_config_validation():
    with pytest.raises(ValueError):
        RoiConfig(roi_size=8, core_size=8)
    with pytest.raises(ValueError):
        RoiConfig(roi_size=11, core_size=8)  # odd margin
    with pytest.raises(ValueError):
        RoiConfig(sigma=0.0)
    with pytest.raises(ValueError):
        RoiConfig(core_size=0)
    assert RoiConfig().pad == 2


def test_tile_plan_32x32():
    plan = tile_plan(np.zeros((32, 32)), RoiConfig())
    assert len(plan.roi_origins) == 16
    assert plan.rois_per_row == 4
    assert plan.pad == 2
    assert plan.extended_shape == (32, 32)
    assert plan.padded_shape == (36, 36)
    assert plan.roi_origins[0] == (0, 0)
    assert plan.roi_origins[1] == (0, 8)


def test_tile_plan_extends_non_multiple_dimensions():
    plan = tile_plan(np.zeros((30, 33)), RoiConfig())
    assert plan.extended_shape == (32, 40)
    assert len(plan.roi_origins) == 4 * 5


@given(
    h=st.integers(1, 40),
    w=st.integers(1, 40),
    core=st.integers(1, 10),
    margin=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_cores_tile_image_exactly_once(h, w, core, margin, seed):
    img = rng_for(seed).uniform(0, 255, size=(h, w))
    cfg = RoiConfig(roi_size=core + 2 * margin, core_size=core)
    plan = tile_plan(img, cfg)
    padded = pad_image(img, cfg)
    n, ell, pad = cfg.roi_size, cfg.core_size, cfg.pad
    assembled = np.full(plan.extended_shape, np.nan)
    for r, c in plan.roi_origins:
        block = padded[r : r + n, c : c + n]
        core = block[pad : pad + ell, pad : pad + ell]
        target = assembled[r : r + ell, c : c + ell]
        assert np.all(np.isnan(target))  # no double coverage
        assembled[r : r + ell, c : c + ell] = core
    assert not np.any(np.isnan(assembled))
    assert np.array_equal(assembled[:h, :w], img)


def test_rearrange_row_major_position():
    n = 12
    block = np.arange(n * n, dtype=float).reshape(n, n)
    v = rearrange(block)
    # pixel (i, j) = (3, 4) in 1-based terms lands at position 28
    assert v[27] == block[2, 3]
    assert v[0] == block[0, 0]
    assert v[n] == block[1, 0]
    assert np.array_equal(unrearrange(v, n), block)


def test_rearrange_validation():
    with pytest.raises(ValueError):
        rearrange(np.zeros((3, 4)))
    with pytest.raises(ValueError):
        unrearrange(np.zeros(10), 12)


def test_roi_lattice_coordinates():
    pts = roi_lattice(12)
    assert pts.shape == (144, 2)
    assert pts[0].tolist() == [0.0, 0.0]
    assert pts[143].tolist() == [1.0, 1.0]
    # pixel (i, j) maps to ((i-1)/(N-1), (j-1)/(N-1)); check (3, 4)
    assert pts[27].tolist() == [2 / 11, 3 / 11]


def test_auto_lambda_constant_image_middle_tier():
    cfg = RoiConfig()
    img = np.full((16, 16), 77.0)
    plan = tile_plan(img, cfg)
    lam = auto_lambda_map(pad_image(img, cfg), plan, cfg)
    assert np.all(lam.lambdas == 5.0 * cfg.lambda0)
    assert lam.s == 0.0


def test_auto_lambda_tiers():
    cfg = RoiConfig()
    img = np.full((16, 16), 100.0)
    # one detailed quadrant: checkerboard with a strong gradient
    img[:8, :8] = np.indices((8, 8)).sum(axis=0) % 2 * 80
    plan = tile_plan(img, cfg)
    lam = auto_lambda_map(pad_image(img, cfg), plan, cfg)
    assert lam.lambdas[0] == cfg.lambda0  # detailed ROI
    assert np.all(lam.lambdas[1:] == 15.0 * cfg.lambda0)  # smooth ROIs


def test_epsilon_histogram_bimodal_hand_oracle():
    # 130 inliers spread over [0, 1], 14 outliers in [9.5, 10]:
    # 15 bins of width 2/3; bins 2..13 are empty, bin 14 holds the
    # outliers, so E1 = edges[2] = 4/3 and E2 = edges[14] = 28/3
    r = np.concatenate([np.linspace(0.0, 1.0, 130), np.linspace(9.5, 10.0, 14)])
    hist = epsilon_histogram(r)
    assert hist.heights.size == 15
    assert hist.heights.sum() == 144
    assert hist.h_min == 0
    assert hist.e1 == pytest.approx(2.0 / 1.5)
    assert hist.e2 == pytest.approx(2.0 * 14 / 3)
    assert hist.dispersion > 0.9
    eps = auto_epsilon(r, e0=40.0)
    assert eps == pytest.approx(hist.e1)
    assert 1.0 < eps < 9.5  # separates the two modes


def test_auto_epsilon_low_dispersion_ignores_e2():
    # near-flat histogram: dispersion stays under the gate, so only
    # E0 and E1 compete
    r = np.linspace(0.0, 3.0, 144)
    hist = epsilon_histogram(r)
    assert hist.dispersion <= 0.9
    assert auto_epsilon(r, e0=40.0) == pytest.approx(min(40.0, hist.e1))
    assert auto_epsilon(r, e0=0.1) == 0.1  # the cap still applies


def test_auto_epsilon_independent_scan_oracle():
    rng = rng_for(5)
    r = np.abs(np.concatenate([rng.normal(0, 1, 120), rng.normal(30, 1, 24)]))
    heights, edges = np.histogram(r, bins=r.size // 10 + 1, range=(r.min(), r.max()))
    h_min = heights.min()
    e1 = edges[[i for i, h in enumerate(heights) if h == h_min][0]]
    e2 = math.inf
    for ell in range(1, len(heights)):
        if heights[ell] - heights[ell - 1] >= 1 and heights[ell - 1] <= h_min + 5:
            e2 = edges[ell]
            break
    disp = np.sqrt(np.var(heights)) / np.mean(heights)
    expected = min(40.0, e1, e2) if disp > 0.9 else min(40.0, e1)
    assert auto_epsilon(r, 40.0) == pytest.approx(expected)


def test_auto_epsilon_degenerate_returns_cap():
    assert auto_epsilon(np.full(144, 3.0), e0=40.0) == 40.0
    with pytest.raises(ValueError):
        auto_epsilon(np.array([]), 40.0)
    with pytest.raises(ValueError):
        auto_epsilon(np.array([-1.0, 2.0]), 40.0)


def test_psnr_values():
    a = np.zeros((4, 4))
    assert psnr(a, a) == math.inf
    assert psnr(a, a + 255.0) == pytest.approx(0.0)
    assert psnr(a, a + 5.0) == pytest.approx(10 * math.log10(255**2 / 25), abs=1e-12)
    with pytest.raises(ValueError):
        psnr(np.zeros((2, 2)), np.zeros((3, 3)))


def test_denoise_clean_smooth_image():
    img = _bump(32)
    result = denoise_image(img)
    assert not np.any(result.outlier_map)
    assert psnr(result.denoised, img) >= 40.0
    assert np.array_equal(result.impulse_removed, img)


def test_denoise_flags_injected_impulses():
    img = _bump(32)
    rng = rng_for(3)
    idx = rng.choice(img.size, size=round(0.10 * img.size), replace=False)
    noisy = img.copy()
    noisy.ravel()[idx] += np.where(rng.random(idx.size) < 0.5, -1, 1) * 100.0
    result = denoise_image(noisy)
    flagged = set(np.flatnonzero(result.outlier_map).tolist())
    recall = len(flagged & set(idx.tolist())) / idx.size
    assert recall >= 0.95
    assert np.array_equal(result.impulse_removed + result.outlier_map, noisy)
    assert psnr(result.denoised, img) > psnr(noisy, img) + 10.0


def test_denoise_failed_roi_passes_through(monkeypatch):
    def boom(self, *args, **kwargs):
        raise NumericalError("forced", pivot=0)

    monkeypatch.setattr(denoise_mod.KgardSolver, "fit", boom)
    img = _bump(16)
    result = denoise_image(img)
    assert np.array_equal(result.denoised, img)
    assert not np.any(result.outlier_map)
    assert all(d.failed for d in result.diagnostics)


def test_denoise_diagnostics_contents():
    img = _bump(16)
    result = denoise_image(img)
    assert len(result.diagnostics) == 4
    for d in result.diagnostics:
        assert d.lam in (1.0, 5.0, 15.0)
        assert d.epsilon <= 40.0
        assert d.iterations >= d.outliers == 0 or d.outliers <= d.iterations


def test_denoise_pads_once(monkeypatch):
    calls = []
    real_pad = denoise_mod.pad_image

    def counting_pad(*args, **kwargs):
        calls.append(1)
        return real_pad(*args, **kwargs)

    monkeypatch.setattr(denoise_mod, "pad_image", counting_pad)
    denoise_image(_bump(16))
    assert calls == [1]


def test_auto_lambda_map_rejects_unpadded_image():
    cfg = RoiConfig()
    img = _bump(16)
    with pytest.raises(ValueError, match="tile plan"):
        auto_lambda_map(img, tile_plan(img, cfg), cfg)


def test_denoise_rejects_bad_image():
    with pytest.raises(ValueError):
        denoise_image(np.zeros(16))


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_denoise_rejects_non_finite_pixel_before_any_fit(monkeypatch, bad):
    calls = []
    real_fit = denoise_mod.KgardSolver.fit

    def counting_fit(self, *args, **kwargs):
        calls.append(1)
        return real_fit(self, *args, **kwargs)

    monkeypatch.setattr(denoise_mod.KgardSolver, "fit", counting_fit)
    img = _bump(16)
    img[5, 9] = bad
    with pytest.raises(ValueError, match="finite"):
        denoise_image(img)
    assert calls == []
