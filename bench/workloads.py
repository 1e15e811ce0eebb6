"""Benchmark workloads: seeded inputs, the timed call, output checks and
quality metrics.

Every workload calls only kgard's public entry points with their default
``threads=1``.  Inputs come from the benchmark seed alone; the
Monte-Carlo protocols derive their trial seeds from ``base_seed``.
"""

from __future__ import annotations

import math

import numpy as np

import kgard

# trial seeds of the Monte-Carlo workloads are base_seed + t, so seed
# blocks this far apart never share a trial
SEED_STRIDE = 1_000_000

SWEEP_MAGNITUDES = (100.0, 300.0, 600.0, 900.0)


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


class Verdict:
    """Outcome of one call: work items done and failed, checks failed."""

    def __init__(self, items: int, failed_items: int = 0):
        self.items = items
        self.failed_items = failed_items
        self.checks = 0
        self.failed_checks: list[str] = []

    def check(self, name: str, ok: bool) -> None:
        self.checks += 1
        if not ok:
            self.failed_checks.append(name)


def synthetic_image(rng: np.random.Generator, side: int):
    """A side x side 8-bit test image and its impulse-corrupted copy.

    The clean image has smooth shading, a sharp-edged disk and a patch
    of stripe texture, so flat, detailed and intermediate ROIs all occur.
    Clean values lie in [100, 155]; 10% of the pixels get +-100 impulses,
    so every noisy value is an integer in [0, 255] and PGM stores it
    exactly.  Returns (clean, noisy, impulse indices into the raveled
    image).
    """
    yy, xx = np.mgrid[0:side, 0:side] / (side - 1)
    theta = rng.uniform(0.0, 2.0 * np.pi)
    shading = 7.5 * (np.cos(theta) * xx + np.sin(theta) * yy + 1.0)
    cx, cy = rng.uniform(0.3, 0.7, size=2)
    radius = rng.uniform(0.15, 0.3)
    disk = 20.0 * (((xx - cx) ** 2 + (yy - cy) ** 2) < radius**2)
    phi = rng.uniform(0.0, np.pi)
    freq = rng.uniform(6.0, 10.0)
    r0, c0 = rng.uniform(0.0, 0.5, size=2)
    patch = (yy >= r0) & (yy < r0 + 0.5) & (xx >= c0) & (xx < c0 + 0.5)
    texture = 8.0 * np.sin(2.0 * np.pi * freq * (np.cos(phi) * xx + np.sin(phi) * yy)) * patch
    clean = np.clip(np.round(110.0 + shading + disk + texture), 100.0, 155.0)

    count = round(0.1 * clean.size)
    impulses = rng.choice(clean.size, size=count, replace=False)
    noisy = clean.copy()
    noisy.ravel()[impulses] += np.where(rng.random(count) < 0.5, -100.0, 100.0)
    return clean, noisy, impulses


def pgm_bytes(image: np.ndarray) -> bytes:
    h, w = image.shape
    return f"P5\n{w} {h}\n255\n".encode("ascii") + image.astype(np.uint8).tobytes()


class Denoise:
    """read_pgm -> denoise_image -> write_pgm on one synthetic image."""

    def __init__(self, seed: int, side: int):
        self.clean, self.noisy, self.impulses = synthetic_image(_rng(seed), side)
        self.pgm = pgm_bytes(self.noisy)

    def call(self):
        image = kgard.read_pgm(self.pgm)
        result = kgard.denoise_image(image)
        return image, result, kgard.write_pgm(result.denoised)

    def check(self, out) -> Verdict:
        image, result, written = out
        v = Verdict(len(result.diagnostics), sum(d.failed for d in result.diagnostics))
        v.check("input_round_trip", np.array_equal(image, self.noisy))
        shape = self.noisy.shape
        v.check(
            "output_shapes",
            result.denoised.shape == shape
            and result.outlier_map.shape == shape
            and result.impulse_removed.shape == shape,
        )
        v.check(
            "reconstruction",
            np.array_equal(result.impulse_removed + result.outlier_map, self.noisy),
        )
        v.check("pgm_round_trip", kgard.write_pgm(kgard.read_pgm(written)) == written)
        return v

    def quality(self, out) -> dict:
        _, result, _ = out
        mse = float(np.mean((result.denoised - self.clean) ** 2))
        flagged = set(np.flatnonzero(result.outlier_map).tolist())
        hits = len(flagged & set(self.impulses.tolist()))
        return {
            "psnr_db": (10.0 * math.log10(255.0**2 / mse) if mse else math.inf, "dB"),
            "impulse_recall": (hits / len(self.impulses), "ratio"),
            "impulse_precision": (hits / len(flagged) if flagged else math.nan, "ratio"),
        }


class MonteCarlo:
    """One run_monte_carlo call of a regression protocol."""

    def __init__(self, protocol: str, noise, config, seed: int, trials: int):
        self.protocol = protocol
        self.noise = noise
        self.config = config
        self.base_seed = seed * SEED_STRIDE
        self.trials = trials

    def call(self):
        return kgard.run_monte_carlo(
            self.protocol, self.noise, self.config, trials=self.trials, base_seed=self.base_seed
        )

    def check(self, out) -> Verdict:
        stats, results = out
        v = Verdict(len(results), sum(r.failed for r in results))
        v.check(
            "trial_count",
            len(results) == self.trials and stats.trials + stats.failures == self.trials,
        )
        v.check(
            "finite_metrics",
            all(
                _finite(r.mse_validation, r.correct_fraction, r.wrong_fraction)
                for r in results
                if not r.failed
            ),
        )
        return v

    def quality(self, out) -> dict:
        stats, _ = out
        return {
            "mse": (stats.mean_mse, "sq-units"),
            "support_correct": (stats.mean_correct, "ratio"),
            "support_wrong": (stats.mean_wrong, "ratio"),
        }


class Sweep:
    """One sweep_outlier_magnitude call over four impulse magnitudes."""

    def __init__(self, seed: int, trials: int):
        self.base_seed = seed * SEED_STRIDE
        self.trials = trials

    def call(self):
        return kgard.sweep_outlier_magnitude(
            list(SWEEP_MAGNITUDES), trials=self.trials, base_seed=self.base_seed
        )

    def check(self, out) -> Verdict:
        v = Verdict(sum(p.trials for p in out))
        v.check(
            "sweep_points",
            [p.magnitude for p in out] == list(SWEEP_MAGNITUDES)
            and all(p.trials == self.trials for p in out),
        )
        v.check(
            "finite_metrics",
            all(_finite(p.mean_correct, p.mean_wrong, p.bound_hold_rate) for p in out),
        )
        return v

    def quality(self, out) -> dict:
        return {
            "support_correct": (float(np.mean([p.mean_correct for p in out])), "ratio"),
            "support_wrong": (float(np.mean([p.mean_wrong for p in out])), "ratio"),
            "cert_hold_rate": (float(np.mean([p.bound_hold_rate for p in out])), "ratio"),
        }


def _sinc(seed: int, trials: int) -> MonteCarlo:
    return MonteCarlo(
        "sinc1d",
        kgard.NoiseSpec(inlier_snr_db=20.0, impulse_fraction=0.1),
        kgard.KgardConfig(lam=0.2, epsilon=10.0),
        seed,
        trials,
    )


def _lattice(seed: int, trials: int) -> MonteCarlo:
    return MonteCarlo(
        "lattice2d",
        kgard.NoiseSpec(inlier_sigma=3.0, impulse_fraction=0.05, impulse_magnitude=40.0),
        kgard.KgardConfig(lam=0.15, epsilon=46.0),
        seed,
        trials,
    )


# name -> (full-size factory, reduced factory used for warm-up and the
# self-test); a factory takes the seed
WORKLOADS = {
    "denoise-64": (lambda s: Denoise(s, 64), lambda s: Denoise(s, 16)),
    "sinc1d": (lambda s: _sinc(s, 200), lambda s: _sinc(s, 3)),
    "lattice2d": (lambda s: _lattice(s, 100), lambda s: _lattice(s, 2)),
    "sweep": (lambda s: Sweep(s, 60), lambda s: Sweep(s, 2)),
}

