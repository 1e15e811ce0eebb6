"""Acceptance gate: one test per published criterion.

Each test records a human-readable summary in DETAILS; the conftest
hook prints one pass/fail line per criterion after the run.
"""

import time

import numpy as np
import pytest

from kgard.cli import main as cli_main
from kgard.core import KgardConfig, KgardSolver
from kgard.denoise import denoise_image
from kgard.experiments import run_monte_carlo, sweep_outlier_magnitude
from kgard.kernel import KernelParams, gram_matrix
from kgard.noise import (
    NoiseSpec,
    corrupt,
    make_support_dataset,
    rng_for,
    round_half_away,
)
from kgard.pgm import write_pgm_file
from kgard.theory import design_sigma_max, spectral_diagnostics, theorem_check
from oracle import dense_solve, residual_oracle, solution_vector

DETAILS = {}

SINC_MSE_5PCT = 0.0285
SINC_MSE_10PCT = 0.0305
SINC_MSE_15DB = 0.0925
LATTICE_MSE = 1.5644
MSE_RTOL = 0.15

CERT_LAMBDA = 4000.0
CERT_MAGNITUDE = 800.0


def _certified_instances(count, base_seed=0):
    """Pure-outlier instances whose identification certificate holds."""
    instances = []
    seed = base_seed
    params = KernelParams(0.1)
    while len(instances) < count:
        rng = rng_for(seed)
        x, truth, alpha = make_support_dataset(rng)
        spec = NoiseSpec(impulse_fraction=0.1, impulse_magnitude=CERT_MAGNITUDE)
        y, support, u = corrupt(truth, spec, rng=rng)
        gram = gram_matrix(x, params)
        theta = np.append(alpha, 0.0)
        report = theorem_check(design_sigma_max(gram), theta[None], u[None], CERT_LAMBDA)
        if report.holds[0]:
            instances.append((gram, theta, u, support, y))
        seed += 1
    return instances


def test_criterion_1_sinc_20db_table():
    """Sinc benchmark, 20 dB inliers, 5% and 10% impulses."""
    config = KgardConfig(lam=0.2, epsilon=10.0)
    t0 = time.perf_counter()
    results = {}
    for frac in (0.05, 0.10):
        noise = NoiseSpec(inlier_snr_db=20.0, impulse_fraction=frac)
        stats, _ = run_monte_carlo("sinc1d", noise, config, trials=200, base_seed=0)
        results[frac] = stats
    elapsed = time.perf_counter() - t0
    s5, s10 = results[0.05], results[0.10]
    DETAILS[1] = (
        f"sinc 20 dB: MSE {s5.mean_mse:.4f}/{s10.mean_mse:.4f} "
        f"(targets {SINC_MSE_5PCT}/{SINC_MSE_10PCT} +/-15%), "
        f"correct {100 * min(s5.mean_correct, s10.mean_correct):.2f}%, "
        f"wrong {100 * max(s5.mean_wrong, s10.mean_wrong):.2f}%, {elapsed:.1f}s"
    )
    assert s5.mean_mse == pytest.approx(SINC_MSE_5PCT, rel=MSE_RTOL)
    assert s10.mean_mse == pytest.approx(SINC_MSE_10PCT, rel=MSE_RTOL)
    for stats in results.values():
        assert stats.mean_correct >= 0.995
        assert stats.mean_wrong <= 0.005
        assert stats.failures == 0
    assert elapsed <= 120.0


def test_criterion_2_sinc_15db_table():
    """Sinc benchmark, 15 dB inliers, 10% impulses."""
    noise = NoiseSpec(inlier_snr_db=15.0, impulse_fraction=0.10)
    config = KgardConfig(lam=0.3, epsilon=15.0)
    stats, _ = run_monte_carlo("sinc1d", noise, config, trials=200, base_seed=0)
    DETAILS[2] = (
        f"sinc 15 dB 10%: MSE {stats.mean_mse:.4f} "
        f"(target {SINC_MSE_15DB} +/-15%)"
    )
    assert stats.mean_mse == pytest.approx(SINC_MSE_15DB, rel=MSE_RTOL)
    assert stats.failures == 0


def test_criterion_3_lattice_table():
    """2-D lattice benchmark, 5% impulses of magnitude 40."""
    noise = NoiseSpec(inlier_sigma=3.0, impulse_fraction=0.05, impulse_magnitude=40.0)
    config = KgardConfig(lam=0.15, epsilon=46.0)
    t0 = time.perf_counter()
    stats, _ = run_monte_carlo("lattice2d", noise, config, trials=100, base_seed=0)
    elapsed = time.perf_counter() - t0
    DETAILS[3] = (
        f"lattice 5%: MSE {stats.mean_mse:.4f} (target {LATTICE_MSE} +/-15%), "
        f"100 trials in {elapsed:.1f}s"
    )
    assert stats.mean_mse == pytest.approx(LATTICE_MSE, rel=MSE_RTOL)
    assert stats.failures == 0
    assert elapsed <= 600.0


def test_criterion_4_magnitude_sweep():
    """Identification sweep: perfect recovery at all magnitudes, with
    the certificate holding only for large impulses."""
    points = sweep_outlier_magnitude([100, 300, 600, 900], trials=60, base_seed=0)
    by_mag = {p.magnitude: p for p in points}
    DETAILS[4] = "sweep hold rates: " + ", ".join(
        f"{p.magnitude:g}->{p.bound_hold_rate:.2f}" for p in points
    )
    for p in points:
        assert p.mean_correct == 1.0
        assert p.mean_wrong == 0.0
    assert by_mag[100].bound_hold_rate <= 0.1
    assert by_mag[600].bound_hold_rate >= 0.9
    assert by_mag[900].bound_hold_rate >= 0.9


def test_criterion_5_certified_recovery():
    """When the certificate holds, the first |T| selections are all
    true outlier locations."""
    instances = _certified_instances(100)
    violations = 0
    for gram, _, _, support, y in instances:
        fit = KgardSolver(gram, CERT_LAMBDA).fit(
            y[None], epsilon=0.0, max_selections=support.size
        )
        if not set(fit.support[0, : fit.selections[0]].tolist()) <= set(support.tolist()):
            violations += 1
    DETAILS[5] = f"certified recovery: {violations} violations over 100 instances"
    assert violations == 0


def test_criterion_6_spectral_identity():
    """Ridge leverage equals the dense-inverse hat diagonal to 1e-10."""
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(5, 31))
        pts = rng.uniform(0, 1, size=(n, int(rng.integers(1, 3))))
        gram = gram_matrix(pts, KernelParams(float(rng.uniform(0.1, 0.8))))
        lam = float(rng.uniform(0.01, 10.0))
        diag = spectral_diagnostics(gram, lam)
        x0 = np.hstack([gram, np.ones((n, 1))])
        dense = np.diag(
            x0 @ np.linalg.solve(x0.T @ x0 + lam * np.eye(n + 1), x0.T)
        )
        worst = max(worst, float(np.max(np.abs(diag.hat_diag_reg - dense))))
    DETAILS[6] = f"spectral identity: max |delta| {worst:.2e} over 50 instances"
    assert worst <= 1e-10


def test_criterion_7_incremental_equals_from_scratch():
    """The greedy fit, which updates the ridge residual by one rank-one
    term per selection, matches a dense normal-equation solve on its
    final support to 1e-8 relative."""
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(10, 51))
        pts = rng.uniform(0, 1, size=(n, 1))
        gram = gram_matrix(pts, KernelParams(0.2))
        y = rng.normal(size=n)
        lam = float(rng.uniform(0.1, 5.0))
        k = int(rng.integers(1, 6))
        fit = KgardSolver(gram, lam).fit(y[None], epsilon=0.0, max_selections=k)
        assert fit.selections.tolist() == [k]
        z = solution_vector(fit)
        dense = dense_solve(gram, y, lam, fit.support[0])
        worst = max(
            worst, float(np.linalg.norm(z - dense) / np.linalg.norm(dense))
        )
    DETAILS[7] = f"incremental vs dense: max rel err {worst:.2e} over 100 instances"
    assert worst <= 1e-8


def _solver_residual_after(gram, y, k):
    fit = KgardSolver(gram, CERT_LAMBDA).fit(y[None], epsilon=0.0, max_selections=k)
    support = fit.support[0, : fit.selections[0]]
    fitted = gram @ fit.alpha[0] + fit.bias[0]
    fitted[support] += fit.outliers[0, : fit.selections[0]]
    return y - fitted, support.tolist()


def test_criterion_8_residual_oracle_equivalence():
    """Closed-form residual matches the solver at k = 0, 1, 2."""
    instances = _certified_instances(50)
    worst = 0.0
    for gram, theta, u, _, y in instances:
        for k in (0, 1, 2):
            r_solver, selected = _solver_residual_after(gram, y, k)
            r_oracle, _ = residual_oracle(gram, theta, u, CERT_LAMBDA, selected)
            worst = max(worst, float(np.max(np.abs(r_solver - r_oracle))))
    DETAILS[8] = f"residual oracle: max |delta| {worst:.2e} over 50 instances, k<=2"
    assert worst <= 1e-8


def test_criterion_9_image_denoising_substitute():
    """No 512x512 reference image is available here, so the substitute
    property applies: >=95% impulse recall and exact reconstruction."""
    n = 64
    xx, yy = np.meshgrid(np.linspace(-1, 1, n), np.linspace(-1, 1, n))
    img = np.round(60 + 10 * np.exp(-(xx**2 + yy**2) / 0.5))
    rng = rng_for(3)
    idx = rng.choice(img.size, size=round_half_away(0.10 * img.size), replace=False)
    noisy = img.copy()
    noisy.ravel()[idx] += np.where(rng.random(idx.size) < 0.5, -1, 1) * 100.0
    result = denoise_image(noisy)
    flagged = set(np.flatnonzero(result.outlier_map).tolist())
    recall = len(flagged & set(idx.tolist())) / idx.size
    exact = np.array_equal(result.impulse_removed + result.outlier_map, noisy)
    DETAILS[9] = (
        f"denoise substitute: impulse recall {100 * recall:.1f}% "
        f"(>=95%), reconstruction identity {'exact' if exact else 'BROKEN'}"
    )
    assert recall >= 0.95
    assert exact


def test_criterion_10_thread_determinism(tmp_path):
    """Same seed, different thread counts: identical outputs (the
    experiment CSV is compared with its wall-time field stripped,
    since measured time is physically nondeterministic)."""

    def strip_seconds(path):
        rows = path.read_text().splitlines()
        return [",".join(r.split(",")[:4] + r.split(",")[5:]) for r in rows]

    exp_args = [
        "experiment", "--protocol", "sinc1d", "--snr-db", "20",
        "--outlier-frac", "0.05", "--lambda", "0.2", "--epsilon", "10",
        "--trials", "8", "--seed", "5",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(exp_args + ["--out", str(a), "--threads", "1"]) == 0
    assert cli_main(exp_args + ["--out", str(b), "--threads", "4"]) == 0
    assert strip_seconds(a) == strip_seconds(b)

    sweep_args = ["sweep", "--magnitudes", "300,600", "--trials", "5", "--seed", "2"]
    sa, sb = tmp_path / "sa.csv", tmp_path / "sb.csv"
    assert cli_main(sweep_args + ["--out", str(sa), "--threads", "1"]) == 0
    assert cli_main(sweep_args + ["--out", str(sb), "--threads", "4"]) == 0
    assert sa.read_bytes() == sb.read_bytes()

    n = 24
    xx, yy = np.meshgrid(np.linspace(-1, 1, n), np.linspace(-1, 1, n))
    img = np.round(60 + 10 * np.exp(-(xx**2 + yy**2) / 0.5))
    img.ravel()[rng_for(0).choice(img.size, 30, replace=False)] += 100.0
    src = tmp_path / "src.pgm"
    write_pgm_file(src, img)
    outputs = {}
    for threads in ("1", "4"):
        out = tmp_path / f"clean{threads}.pgm"
        omap = tmp_path / f"map{threads}.pgm"
        assert cli_main(
            ["denoise", "--in", str(src), "--out", str(out),
             "--outliers", str(omap), "--threads", threads]
        ) == 0
        outputs[threads] = (out.read_bytes(), omap.read_bytes())
    assert outputs["1"] == outputs["4"]
    DETAILS[10] = "determinism: experiment CSV (sans timing), sweep CSV, denoise PGMs identical across threads"
