import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import kgard.denoise as denoise_mod
from kgard.core import KgardSolver
from kgard.denoise import (
    RoiConfig,
    _cores,
    _histograms,
    _magnitude_rows,
    _rois,
    _stop_thresholds,
    auto_epsilon,
    auto_lambda_map,
    denoise_image,
    pad_image,
    psnr,
    roi_lattice,
)
from kgard.kernel import KernelParams, gram_matrix
from kgard.noise import rng_for
from oracle import (
    auto_epsilon_reference,
    denoise_reference,
    epsilon_histogram_reference,
    fitted_reference,
    residual_map_reference,
)


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
    with pytest.raises(ValueError, match="core_size must be >= 1"):
        RoiConfig(core_size=0)
    with pytest.raises(ValueError, match="sigma"):
        RoiConfig(sigma=math.inf)
    # sizes are Python or numpy integers, never bools or floats
    with pytest.raises(ValueError, match="roi_size must be an integer"):
        RoiConfig(roi_size=12.0, core_size=8.0)
    with pytest.raises(ValueError, match="core_size must be an integer"):
        RoiConfig(core_size=True, roi_size=3)
    cfg = RoiConfig(roi_size=np.int64(12), core_size=np.int32(8))
    assert (type(cfg.roi_size), type(cfg.core_size), cfg.pad) == (int, int, 2)
    # 15 * lambda0, the smooth tier, must stay finite
    for bad in (math.inf, 1e308, math.nan, 0.0):
        with pytest.raises(ValueError, match="lambda0"):
            RoiConfig(lambda0=bad)
    assert RoiConfig(lambda0=1e307).lambda0 == 1e307
    # e0 is a degenerate ROI's threshold, which the diagnostics report
    for bad in (math.inf, -math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(ValueError, match="e0 must be positive and finite"):
            RoiConfig(e0=bad)
    assert RoiConfig(e0=1e308).e0 == 1e308
    assert RoiConfig().pad == 2


@pytest.mark.parametrize(
    "name, value", [("sigma", "0.3"), ("lambda0", "1"), ("e0", "40")], ids=repr
)
def test_roi_config_stores_the_floats_it_checked(name, value):
    # a string sigma or lambda0 passed the check and then raised TypeError
    # deep in the pipeline
    cfg = RoiConfig(**{name: value})
    assert type(getattr(cfg, name)) is float
    image = _bump(16)
    got = denoise_image(image, cfg)
    want = denoise_image(image, RoiConfig(**{name: float(value)}))
    assert got.denoised.tobytes() == want.denoised.tobytes()
    assert got.outlier_map.tobytes() == want.outlier_map.tobytes()


def test_tile_plan_32x32():
    cfg = RoiConfig()
    padded = pad_image(np.arange(32 * 32, dtype=float).reshape(32, 32), cfg)
    assert padded.shape == (36, 36)
    rois = _rois(padded, cfg)
    assert rois.shape == (4, 4, 12, 12)
    assert not rois.flags.writeable
    # ROI (i, j) has its top-left corner at (8 i, 8 j) of the padded image
    assert np.array_equal(rois[0, 0], padded[0:12, 0:12])
    assert np.array_equal(rois[0, 1], padded[0:12, 8:20])
    assert np.array_equal(rois[3, 2], padded[24:36, 16:28])


def test_tile_plan_extends_non_multiple_dimensions():
    cfg = RoiConfig()
    img = rng_for(0).uniform(0, 255, size=(30, 33))
    padded = pad_image(img, cfg)
    # grown to (32, 40) by replicating the last row and column, then
    # replicate-padded by 2 on every side
    assert padded.shape == (36, 44)
    assert np.array_equal(padded[2:32, 2:35], img)
    assert np.array_equal(padded[32:, 2:35], np.broadcast_to(img[-1], (4, 33)))
    assert np.array_equal(padded[2:32, 35:], np.broadcast_to(img[:, -1:], (30, 9)))
    assert _rois(padded, cfg).shape == (4, 5, 12, 12)


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
    rois = _rois(pad_image(img, cfg), cfg)
    rows, cols = rois.shape[:2]
    assert (rows, cols) == (math.ceil(h / core), math.ceil(w / core))
    assembled = _cores(rois, cfg)
    assert np.array_equal(assembled[:h, :w], img)
    # each core pixel comes from the one ROI whose core covers it
    labels = np.broadcast_to(
        np.arange(rows * cols, dtype=float).reshape(rows, cols, 1, 1), rois.shape
    )
    expected = np.kron(np.arange(rows * cols).reshape(rows, cols), np.ones((core, core)))
    assert np.array_equal(_cores(labels, cfg), expected)


def test_rearrange_row_major_position():
    # the pipeline's rows of y are the ROI view reshaped to (R, N^2)
    cfg = RoiConfig()
    n = cfg.roi_size
    padded = np.arange(36 * 36, dtype=float).reshape(36, 36)
    rois = _rois(padded, cfg)
    ys = rois.reshape(-1, n * n)
    block = rois[1, 1]  # ROI 5 in raster order
    v = ys[5]
    # pixel (i, j) = (3, 4) in 1-based terms lands at position 28
    assert v[27] == block[2, 3] == padded[10, 11]
    assert v[0] == block[0, 0]
    assert v[n] == block[1, 0]
    assert np.array_equal(ys.reshape(rois.shape), rois)


def test_rearrange_validation():
    cfg = RoiConfig()
    for shape in ((36, 35), (37, 36), (8, 8), (4, 12)):
        with pytest.raises(ValueError, match="does not fit ROIs"):
            _rois(np.zeros(shape), cfg)
    assert _rois(np.zeros((12, 20)), cfg).shape == (1, 2, 12, 12)


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
    lambdas = auto_lambda_map(pad_image(img, cfg), cfg)
    assert lambdas.shape == (4,)  # one per ROI of the 2 x 2 tiling
    assert np.all(lambdas == 5.0 * cfg.lambda0)


def test_auto_lambda_tiers():
    cfg = RoiConfig()
    img = np.full((16, 16), 100.0)
    # one detailed quadrant: checkerboard with a strong gradient
    img[:8, :8] = np.indices((8, 8)).sum(axis=0) % 2 * 80
    lambdas = auto_lambda_map(pad_image(img, cfg), cfg)
    assert lambdas[0] == cfg.lambda0  # detailed ROI
    assert np.all(lambdas[1:] == 15.0 * cfg.lambda0)  # smooth ROIs


def test_epsilon_histogram_bimodal_hand_oracle():
    # 130 inliers spread over [0, 1], 14 outliers in [9.5, 10]:
    # 15 bins of width 2/3; bins 2..13 are empty, bin 14 holds the
    # outliers, so E1 = edges[2] = 4/3 and E2 = edges[14] = 28/3
    r = np.concatenate([np.linspace(0.0, 1.0, 130), np.linspace(9.5, 10.0, 14)])
    heights, _ = np.histogram(r, bins=15)
    assert heights[:2].sum() == 130 and heights[2:14].sum() == 0 and heights[14] == 14
    e1, e2, dispersion = _histograms(*_magnitude_rows(r[None]))
    assert e1[0] == pytest.approx(2.0 / 1.5)
    assert e2[0] == pytest.approx(2.0 * 14 / 3)
    assert dispersion[0] > 0.9
    eps = auto_epsilon(r[None], e0=40.0)
    assert eps.shape == (1,)
    assert eps[0] == pytest.approx(e1[0])
    assert 1.0 < eps[0] < 9.5  # separates the two modes


def test_auto_epsilon_low_dispersion_ignores_e2():
    # near-flat histogram: dispersion stays under the gate, so only
    # E0 and E1 compete
    r = np.linspace(0.0, 3.0, 144)[None]
    e1, _, dispersion = _histograms(*_magnitude_rows(r))
    assert dispersion[0] <= 0.9
    assert auto_epsilon(r, e0=40.0)[0] == pytest.approx(min(40.0, e1[0]))
    assert auto_epsilon(r, e0=0.1)[0] == 0.1  # the cap still applies


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
    assert auto_epsilon(r[None], 40.0)[0] == pytest.approx(expected)


def test_auto_epsilon_degenerate_returns_cap():
    assert auto_epsilon(np.full(144, 3.0)[None], e0=40.0).tolist() == [40.0]
    with pytest.raises(ValueError):
        auto_epsilon(np.empty((1, 0)), 40.0)
    with pytest.raises(ValueError):
        auto_epsilon(np.array([[-1.0, 2.0]]), 40.0)


@pytest.mark.parametrize("e0", [math.nan, -1.0, 0.0, -math.inf, math.inf])
def test_auto_epsilon_rejects_e0_that_is_not_positive(e0):
    # RoiConfig's rule, 0 < e0 < inf: without it a NaN, negative or
    # infinite e0 came back as the threshold of every degenerate row
    with pytest.raises(ValueError, match="e0 must be positive"):
        auto_epsilon(np.ones((1, 5)), e0)


def test_psnr_values():
    a = np.zeros((4, 4))
    assert psnr(a, a) == math.inf
    assert psnr(a, a + 255.0) == pytest.approx(0.0)
    assert psnr(a, a + 5.0) == pytest.approx(10 * math.log10(255**2 / 25), abs=1e-12)
    with pytest.raises(ValueError):
        psnr(np.zeros((2, 2)), np.zeros((3, 3)))


def test_psnr_matches_the_mse_formula_on_8_bit_images():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a, b = rng.integers(0, 256, (2, 8, 8)).astype(np.float64)
        expected = 10 * math.log10(255**2 / np.mean((a - b) ** 2))
        assert psnr(a, b) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize(
    "magnitude, expected",
    [
        # the squares overflowed to inf: a warning, then log10 of 0
        pytest.param(1e200, 20 * (math.log10(255) - 200), id="huge"),
        # the squares underflowed to 0: the +inf of identical images
        pytest.param(1e-170, 20 * (math.log10(255) + 170), id="tiny"),
        pytest.param(5e-324, 20 * (math.log10(255) - math.log10(5e-324)), id="subnormal"),
    ],
)
def test_psnr_of_an_extreme_difference_is_finite(magnitude, expected):
    value = psnr(np.zeros((4, 4)), np.full((4, 4), magnitude))
    assert value == pytest.approx(expected, rel=1e-12)


def test_psnr_rejects_an_overflowing_difference():
    with pytest.raises(ValueError, match="image difference overflows"):
        psnr(np.full((2, 2), 1.7e308), np.full((2, 2), -1.7e308))


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


def test_denoise_diagnostics_contents():
    img = _bump(16)
    result = denoise_image(img)
    assert [(d.index, d.origin) for d in result.diagnostics] == [
        (0, (0, 0)), (1, (0, 8)), (2, (8, 0)), (3, (8, 8))
    ]
    for d in result.diagnostics:
        assert d.lam in (1.0, 5.0, 15.0)
        assert d.epsilon <= 40.0
        assert d.stop_reason in ("threshold", "pivot", "cap")
        assert d.outliers <= 144 // 3 and not d.failed
        if d.stop_reason == "cap":
            assert d.outliers == 144 // 3


def _impulse_image(h, w, seed):
    xx, yy = np.meshgrid(np.linspace(-1, 1, w), np.linspace(-1, 1, h))
    img = np.round(60.0 + 10.0 * np.exp(-(xx**2 + yy**2) / 0.5) + 8.0 * xx)
    rng = rng_for(seed)
    idx = rng.choice(img.size, size=round(0.10 * img.size), replace=False)
    img.ravel()[idx] += np.where(rng.random(idx.size) < 0.5, -1, 1) * 100.0
    return img


def _zero_block_image(h, w, rng):
    """A ramp whose left half is a zero block, plus +100 impulses whose
    density grows from 0 above row 10 to 35 % at the bottom.  A ROI with
    at most 48 nonzero pixels can select them all, after which its
    residual is zero to rounding and it stops on the threshold."""
    img = np.add.outer(np.arange(h), 2.0 * np.arange(w))
    img[:, : w // 2] = 0.0
    density = 0.35 * np.clip((np.arange(h) - 10) / (h - 10), 0.0, 1.0)
    img += 100.0 * (rng.random((h, w)) < density[:, None])
    return img


@pytest.mark.parametrize(
    "make_image,cfg,threshold_stops",
    [
        (lambda: _impulse_image(30, 33, seed=11), RoiConfig(), False),
        (lambda: _impulse_image(37, 29, seed=11), RoiConfig(roi_size=9, core_size=5), False),
        (lambda: _zero_block_image(40, 48, rng_for(0)), RoiConfig(), True),
    ],
    ids=["30x33", "37x29-roi9-core5", "40x48-zero-block"],
)
def test_pipeline_matches_per_roi_reference(make_image, cfg, threshold_stops):
    img = make_image()
    result = denoise_image(img, cfg)
    denoised, outlier_map, diagnostics = denoise_reference(img, cfg)
    assert result.denoised.tobytes() == denoised.tobytes()
    assert result.outlier_map.tobytes() == outlier_map.tobytes()
    assert result.impulse_removed.tobytes() == (img - outlier_map).tobytes()
    assert [
        (d.index, d.origin, d.lam, d.epsilon, d.outliers, d.stop_reason)
        for d in result.diagnostics
    ] == diagnostics
    assert {d.lam for d in result.diagnostics} == {1.0, 5.0, 15.0}
    assert np.any(outlier_map)
    if threshold_stops:
        # ROIs stop on the threshold at many steps, from none to near the cap
        stops = [d.outliers for d in result.diagnostics if d.stop_reason == "threshold"]
        assert len(stops) >= 10 and 0 in stops and max(stops) >= 40
        assert len(set(stops)) >= 8


@pytest.mark.parametrize("lambda0", [1.0, 1e-3, 1e-6])
def test_denoised_is_the_dense_fitted_surface(monkeypatch, lambda0):
    # every ROI's surface is y - u - r of its fit; on its core it stays
    # within 50 eps max|y| / lam of the dense fitted values on the fit's
    # support (2.5e-15, 1.2e-12 and 3.9e-10 of max|y| were measured, and
    # the Gram product K alpha + c gave 2.0e-14, 2.0e-11 and 2.0e-8)
    img = _impulse_image(30, 33, seed=11)
    cfg = RoiConfig(lambda0=lambda0)
    batches = []
    real_fit = KgardSolver.fit

    def recording_fit(self, y, *args, **kwargs):
        batches.append(real_fit(self, y, *args, **kwargs))
        return batches[-1]

    monkeypatch.setattr(KgardSolver, "fit", recording_fit)
    result = denoise_image(img, cfg)
    monkeypatch.undo()
    padded = pad_image(img, cfg)
    lambdas = auto_lambda_map(padded, cfg).tolist()
    rois = _rois(padded, cfg)
    n = cfg.roi_size
    gram = gram_matrix(roi_lattice(n), KernelParams(cfg.sigma))
    maps = {lam: residual_map_reference(gram, lam) for lam in set(lambdas)}
    supports = [b.support[i, :k] for b in batches for i, k in enumerate(b.selections)]
    surfaces = [
        fitted_reference(maps[lam], y, support)
        for lam, y, support in zip(lambdas, rois.reshape(-1, n * n), supports)
    ]
    h, w = img.shape
    want = _cores(np.reshape(surfaces, rois.shape), cfg)[:h, :w]
    assert min(lambdas) == lambda0 and len(supports) == len(lambdas)
    bound = 50.0 * np.finfo(float).eps * np.abs(img).max() / lambda0
    assert np.abs(result.denoised - want).max() <= bound


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
    with pytest.raises(ValueError, match="does not fit ROIs"):
        auto_lambda_map(img, cfg)


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


@pytest.mark.parametrize("scale", [1e200, 1e300])
def test_denoise_gradient_overflow_raises_value_error_without_a_warning(scale):
    # finite pixels whose squared gradients overflow; the test
    # configuration turns every warning into an error
    image = rng_for(4).uniform(0.0, 1.0, (16, 16))
    assert np.isfinite(denoise_image(image * 1e10).outlier_map).all()
    with pytest.raises(ValueError, match="ROI mean gradients overflow"):
        denoise_image(image * scale)


def test_denoise_output_overflow_raises_value_error_without_a_warning(monkeypatch):
    # a map quantum this small sends every nonzero outlier value past the
    # largest float
    image = _bump(16)
    image[5, 9] += 100.0
    assert np.any(denoise_image(image).outlier_map)
    monkeypatch.setattr(denoise_mod, "_MAP_QUANTUM", 5e-324)
    with pytest.raises(ValueError, match="denoising overflows"):
        denoise_image(image)


def _residual_rows(rng, rows, n):
    """Nonnegative residual rows of mixed kinds: spread rows with values
    placed exactly on interior bin edges and on the last edge, integer
    rows with ties, constant rows, and rows whose span is below 1e-9."""
    out = []
    for _ in range(rows):
        kind = rng.integers(4)
        level = float(rng.choice([1e-3, 1.0, 40.0, 255.0, 1e4]))
        if kind == 0:
            r = level * rng.random(n)
            if n > 1:
                r[0], r[1] = 0.0, level  # fix the range, then land on its edges
                bins = n // 10 + 1
                edges = np.append(np.arange(bins) * (level / bins) + 0.0, level)
                on_edge = rng.choice(n, size=min(n, 5), replace=False)
                r[on_edge] = rng.choice(edges, size=on_edge.size)
        elif kind == 1:
            r = rng.integers(0, 8, size=n).astype(float) * level / 8
        elif kind == 2:
            r = np.full(n, level)
        else:
            r = level + rng.random(n) * 10.0 ** -rng.integers(10, 14)
        out.append(r)
    return np.array(out)


@given(rows=st.integers(1, 6), n=st.integers(1, 60), seed=st.integers(0, 2**32 - 1))
def test_row_wise_threshold_matches_reference(rows, n, seed):
    r = _residual_rows(np.random.default_rng(seed), rows, n)
    expected = [auto_epsilon_reference(row, 40.0) for row in r]
    eps = auto_epsilon(r, 40.0)
    assert eps.shape == (rows,)
    assert eps.tolist() == expected
    assert [auto_epsilon(row[None], 40.0).item() for row in r] == expected
    # auto_epsilon histograms only the rows whose span reaches 1e-9
    live = r[r.max(axis=1) - r.min(axis=1) >= 1e-9]
    if not live.shape[0]:
        return
    e1, e2, dispersion = _histograms(*_magnitude_rows(live))
    for i, row in enumerate(live):
        _, _, ref_e1, ref_e2, ref_dispersion = epsilon_histogram_reference(row)
        assert (e1[i], e2[i], dispersion[i]) == (ref_e1, ref_e2, ref_dispersion)


@pytest.mark.parametrize("seed", range(20))
def test_bars_match_np_histogram_away_from_edges(seed):
    # the two bar definitions differ only for a value within about an ulp
    # of a computed interior edge; rows with every value more than 4 ulps
    # from every interior edge get np.histogram's heights
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 200))
    rows = 0
    for level in (1e-3, 1.0, 40.0, 255.0, 1e4):
        r = level * (1.0 + rng.random(n))
        edges, heights, *thresholds = epsilon_histogram_reference(r)
        interior = np.array(edges[1:-1])
        gap = np.abs(r[:, None] - interior).min(axis=1, initial=np.inf)
        if not (gap > 4 * np.spacing(r)).all():
            continue
        rows += 1
        expected, _ = np.histogram(r, bins=n // 10 + 1, range=(r.min(), r.max()))
        assert heights == expected.tolist()
        e1, e2, dispersion = _histograms(*_magnitude_rows(r[None]))
        assert [e1[0], e2[0], dispersion[0]] == thresholds
    assert rows >= 4


def test_value_on_a_computed_edge_falls_in_the_lower_bar():
    # 15 bars over [1.5, 2]: edge 2 is 2 * (0.5 / 15) + 1.5, and
    # (edge - 1.5) * (15 / 0.5) rounds to just below 2, so the one value
    # on it goes in bar 1, where np.histogram puts it in bar 2.  Bar 2 is
    # then the first empty bar, and E1 is edge 2, not edge 0.
    edge = 2 * (0.5 / 15) + 1.5
    # bar 0 holds only the minimum, bar 2 only the value on its edge
    mids = 1.5 + (np.arange(15) + 0.5) * (0.5 / 15)
    r = np.append(np.repeat(mids, [0, 10, 0] + [11] * 11 + [9]), [1.5, edge, 2.0])
    assert np.histogram(r, bins=15, range=(1.5, 2.0))[0][:3].tolist() == [1, 10, 1]
    _, heights, e1, _, _ = epsilon_histogram_reference(r)
    assert heights[:3] == [1, 11, 0] and e1 == edge
    assert auto_epsilon(r[None], 40.0).tolist() == [edge]


@pytest.mark.parametrize("level", [1e8, 1e12])
def test_auto_epsilon_spans_of_a_few_ulps_get_e0(level):
    # a span of 1-4 ulps, at least 1e-9, cut into 15 bars: the bar edges
    # round onto a handful of values, where np.histogram raises "Too many
    # bins", and E1 is at least the row minimum, so every row gets e0
    rng = np.random.default_rng(0)
    r = np.empty((6, 144))
    for row in r:
        ulps = rng.integers(0, 5, 144)
        ulps[:2] = 0, rng.integers(1, 5)
        row[:] = [level + k * np.spacing(level) for k in ulps]
    assert (r.max(axis=1) - r.min(axis=1) >= 1e-9).all()
    expected = [auto_epsilon_reference(row, 40.0) for row in r]
    assert auto_epsilon(r, 40.0).tolist() == expected == [40.0] * 6


def test_row_wise_threshold_rejects_bad_rows():
    good = np.linspace(0.0, 3.0, 20)
    for bad in (np.array([]), np.empty((2, 0)), np.vstack([good, -good])):
        with pytest.raises(ValueError):
            auto_epsilon(bad, 40.0)
    for row in (good, good[None, None]):  # a stack is (L, N), nothing else
        with pytest.raises(ValueError, match=r"\(L, N\) stack"):
            auto_epsilon(row, 40.0)


def _few_ulp_rows(rng, level, rows, n):
    """Rows of n values, each a minimum m of a few ulps above ``level``
    and m + 1 or 2 ulps, m + 1 ulp always present: a span of at least
    1e-9 whose bar edges round onto m and its max, so the top edge can
    round up to the max and, with two bars, E1 too."""
    out = np.empty((rows, n))
    for i, row in enumerate(out):
        first = level + i * np.spacing(level)
        ulps = (rng.random(n) < 0.3) * rng.integers(1, 3)
        ulps[:2] = 0, 1
        row[:] = first + ulps * np.spacing(first)
    return out


def _assert_same_stops(r, e0):
    """_stop_thresholds decides max |r| <= threshold as auto_epsilon
    does, every threshold is nonnegative, and a row that stops gets
    auto_epsilon's value.  Returns the rows that stop."""
    eps, reference = _stop_thresholds(r, e0), auto_epsilon(r, e0)
    assert eps.shape == reference.shape == (r.shape[0],)
    assert (eps >= 0).all()
    stop = r.max(axis=1) <= reference
    assert ((r.max(axis=1) <= eps) == stop).all()
    assert eps[stop].tolist() == reference[stop].tolist()
    return stop


@given(
    rows=st.integers(1, 6),
    n=st.integers(1, 60),
    e0=st.sampled_from([1e-3, 1.0, 40.0, 300.0, 1e5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_stop_thresholds_decide_as_auto_epsilon(rows, n, e0, seed):
    rng = np.random.default_rng(seed)
    r = _residual_rows(rng, rows, n)
    # all-zero rows, and rows whose minimum is at or above e0
    r[rng.random(rows) < 0.2] = 0.0
    lifted = rng.random(rows) < 0.2
    r[lifted] += e0 * rng.choice([1.0, 2.0], size=(lifted.sum(), 1))
    _assert_same_stops(r, e0)


@pytest.mark.parametrize("level", [1e8, 1e12])
@pytest.mark.parametrize("n", [10, 15, 19, 25, 144])
def test_stop_thresholds_decide_as_auto_epsilon_at_spans_of_a_few_ulps(level, n):
    r = _few_ulp_rows(np.random.default_rng(n), level, 64, n)
    first, last = r.min(axis=1), r.max(axis=1)
    bins = n // 10 + 1
    top = (bins - 1) * ((last - first) / bins) + first
    assert (last - first >= 1e-9).all() and (top == last).any()
    for e0 in (40.0, level, 3.0 * level):
        stop = _assert_same_stops(r, e0)
        # with two bars, E1 rounds up to the max on some rows and not on
        # others; with more, no bar edge but the top one reaches it
        assert stop.any() == (bins == 2 and e0 > level)
        assert not stop.all()


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_stop_thresholds_decide_as_auto_epsilon_with_one_bar(n):
    rng = np.random.default_rng(n)
    r = np.vstack([rng.random((4, n)) * 50.0, np.zeros((1, n)), np.full((1, n), 7.0)])
    for e0 in (1e-3, 7.0, 40.0, 1e3):
        stop = _assert_same_stops(r, e0)
        assert stop[-2] and stop[-1] == (e0 >= 7.0)


@pytest.mark.parametrize(
    "bad",
    [
        np.array([[1.0, np.nan, 2.0]]),
        np.array([[1.0, 2.0], [np.inf, 0.0]]),
        np.array([[1.0, -2.0, 3.0]]),
        np.empty((2, 0)),
        np.array([]),
        np.linspace(0.0, 3.0, 20),
        np.ones((1, 1, 3)),
    ],
    ids=["nan", "inf", "negative", "empty", "empty-1d", "1d", "3d"],
)
def test_stop_thresholds_raise_as_auto_epsilon(bad):
    with pytest.raises(ValueError) as expected:
        auto_epsilon(bad, 40.0)
    with pytest.raises(ValueError) as err:
        _stop_thresholds(bad, 40.0)
    assert str(err.value) == str(expected.value)


def test_pipeline_thresholds_match_reference(monkeypatch):
    # the stacks a 64^2 impulse image really feeds auto_epsilon: the
    # 144-pixel final residuals of the image's one block, and the running
    # rows that could stop at a step
    img = _bump(64)
    rng = rng_for(5)
    idx = rng.choice(img.size, size=round(0.10 * img.size), replace=False)
    img.ravel()[idx] += np.where(rng.random(idx.size) < 0.5, -1, 1) * 100.0
    calls = []
    real_auto_epsilon = denoise_mod.auto_epsilon

    def recording_auto_epsilon(residual_abs, e0):
        eps = real_auto_epsilon(residual_abs, e0)
        calls.append((residual_abs.copy(), e0, eps))
        return eps

    monkeypatch.setattr(denoise_mod, "auto_epsilon", recording_auto_epsilon)
    denoise_image(img)
    assert {r.shape[1] for r, _, _ in calls} == {144}
    assert max(r.shape[0] for r, _, _ in calls) >= 10
    for r, e0, eps in calls:
        assert eps.tolist() == [auto_epsilon_reference(row, e0) for row in r]


def test_blocks_match_one_block_bit_for_bit(monkeypatch):
    # sparse impulses on zero stop on the threshold, the impulse image on
    # the right runs to the cap: 25 ROIs, three full blocks of 7 and a
    # last block of 4
    img = np.zeros((40, 40))
    img[::7, ::5] = 100.0
    img[:, 20:] = _impulse_image(40, 20, 3)
    monkeypatch.setattr(denoise_mod, "_BLOCK_ROIS", 10**6)
    whole = denoise_image(img)
    monkeypatch.setattr(denoise_mod, "_BLOCK_ROIS", 7)
    blocks = denoise_image(img)
    assert len(blocks.diagnostics) == 25
    assert {d.stop_reason for d in blocks.diagnostics} == {"threshold", "cap"}
    for name in ("denoised", "outlier_map", "impulse_removed"):
        assert getattr(blocks, name).tobytes() == getattr(whole, name).tobytes()
    assert [dataclasses.astuple(d) for d in blocks.diagnostics] == [
        dataclasses.astuple(d) for d in whole.diagnostics
    ]
