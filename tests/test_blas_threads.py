"""Solver setup and the certificate's norms run on one thread of every
bundled OpenBLAS, scipy's and numpy's.

Outputs must not depend on ``OPENBLAS_NUM_THREADS``, the pin must hand
each library's thread count back, also when setup raises, and without
a bundled OpenBLAS setup must run unpinned with the same arithmetic.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kgard.core as core
import kgard.theory as theory
from kgard.core import KgardSolver, NumericalError
from kgard.kernel import KernelParams, gram_matrix
from kgard.theory import design_sigma_max, theorem_check

SRC = Path(__file__).resolve().parents[1] / "src"

# prints one SHA-256 per float output: a 32^2 noisy image, three
# lattice2d and three sinc1d trials, a two-trial sweep, the sweep's
# sigma_max, the arrays of a tiered batch fit at N = 144, those of
# stacked certificate checks at the sweep's N = 100 and at N = 10 001,
# past the 10 000 entries above which OpenBLAS splits a dot over threads,
# and the spectral diagnostics of the 961-node lattice Gram
OUTPUTS = """
import hashlib
import numpy as np
from kgard import (KernelParams, KgardConfig, KgardSolver, NoiseSpec, denoise_image,
                   design_sigma_max, gram_matrix, rng_for, run_monte_carlo,
                   spectral_diagnostics, sweep_outlier_magnitude, theorem_check)
from kgard.noise import lattice_nodes

rng = rng_for(3)
xx, yy = np.meshgrid(np.linspace(-1, 1, 32), np.linspace(-1, 1, 32))
image = np.round(100 + 50 * np.exp(-(xx**2 + yy**2) / 0.4) + rng.normal(0, 2, (32, 32)))
image.ravel()[rng.choice(image.size, 60, replace=False)] += 100.0
result = denoise_image(image)
_, trials = run_monte_carlo(
    "lattice2d",
    NoiseSpec(inlier_sigma=3.0, impulse_fraction=0.05, impulse_magnitude=40.0),
    KgardConfig(lam=0.15, epsilon=46.0),
    trials=3,
)
_, sinc = run_monte_carlo(
    "sinc1d",
    NoiseSpec(inlier_snr_db=20.0, impulse_fraction=0.1),
    KgardConfig(lam=0.2, epsilon=10.0),
    trials=3,
)
points = sweep_outlier_magnitude([300.0, 600.0], trials=2)
axis = np.linspace(0, 1, 12)
lattice = np.column_stack([g.ravel() for g in np.meshgrid(axis, axis)])
ys = rng.normal(0, 2, (6, 144))
ys[::2, ::17] += 50.0  # the other rows stop sooner
batch = KgardSolver(gram_matrix(lattice, KernelParams(0.3)), [1.0, 5.0, 15.0]).fit(
    ys, epsilon=20.0, max_selections=12, tier=np.arange(6) % 3
)
sigma_max = design_sigma_max(gram_matrix(np.linspace(0, 1, 100), KernelParams(0.1)))
thetas = rng.normal(0, 0.5, (8, 101)) * 10.0 ** np.arange(-4, 4)[:, None]
us = np.zeros((8, 100))
us[:, ::9] = rng.choice([-300.0, 300.0], (8, 12))
bound = theorem_check(sigma_max, thetas, us, 4000.0)
large = theorem_check(
    1.0, rng.normal(0, 1, (40, 10002)), rng.normal(0, 1, (40, 10001)), 1.0
)
spectral = spectral_diagnostics(gram_matrix(lattice_nodes()[0], KernelParams(0.2)), 0.3)
outputs = {
    "denoised": result.denoised,
    "outlier_map": result.outlier_map,
    "impulse_removed": result.impulse_removed,
    "lattice_mse": [t.mse_validation for t in trials],
    "sinc_mse": [t.mse_validation for t in sinc],
    "fit_alpha": batch.alpha,
    "fit_bias": batch.bias,
    "fit_outliers": batch.outliers,
    "sweep": [(p.mean_correct, p.mean_wrong, p.bound_hold_rate) for p in points],
    "sigma_max": sigma_max,
    "bound": [bound.gamma, bound.lambda_cap, bound.holds, bound.min_outlier,
              bound.theta_norm, bound.outlier_norm],
    "large_bound_norms": [large.theta_norm, large.outlier_norm],
    "spectral": [spectral.hat_diag, spectral.hat_diag_reg, spectral.g_diag,
                 spectral.phi_diag],
}
for name, value in outputs.items():
    data = np.asarray(value, dtype=np.float64).tobytes()
    print(name, hashlib.sha256(data).hexdigest())
"""


def _hashes(blas_threads: str) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", OUTPUTS],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return dict(line.split() for line in proc.stdout.splitlines())


def test_outputs_do_not_depend_on_the_blas_thread_count():
    one, two = _hashes("1"), _hashes("2")
    assert len(one) == 13
    assert one == two


def _at_two(blas, library):
    """The getter and setter of ``library``'s bundled OpenBLAS, with the
    caller's count set to 2 for the test and the original count restored
    afterwards."""
    if blas is None:
        pytest.skip(f"{library} is not linked against its bundled OpenBLAS")
    get, set_ = blas
    original = get()
    set_(2)
    yield get, set_
    set_(original)


@pytest.fixture
def scipy_openblas():
    yield from _at_two(core._scipy_openblas(core._fblas), "scipy")


@pytest.fixture
def numpy_openblas():
    yield from _at_two(core._scipy_openblas(sys.modules["numpy._core._multiarray_umath"], "64_"), "numpy")


def _gram(n=60):
    return gram_matrix(np.linspace(0, 1, n), KernelParams(0.1))


def test_setup_calls_scipy_on_one_thread(scipy_openblas, monkeypatch):
    get, _ = scipy_openblas
    seen = []

    def counting(module, name):
        real = getattr(module, name)

        def call(*args, **kwargs):
            seen.append((name, get()))
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, call)

    for name in ("dsyrk", "dpotrf", "dtrtrs"):
        counting(core, name)
    counting(theory, "dgesdd")
    KgardSolver(_gram(), [0.1, 1.0])
    design_sigma_max(_gram())
    assert {name for name, _ in seen} == {"dsyrk", "dpotrf", "dtrtrs", "dgesdd"}
    assert {threads for _, threads in seen} == {1}


def test_setup_restores_the_callers_thread_count(scipy_openblas, numpy_openblas):
    # one pin covers both libraries
    counts = lambda: (scipy_openblas[0](), numpy_openblas[0]())
    KgardSolver(_gram(), [0.1, 1.0])
    assert counts() == (2, 2)
    design_sigma_max(_gram())
    assert counts() == (2, 2)


def test_certificate_norms_run_on_one_numpy_thread(monkeypatch, scipy_openblas, numpy_openblas):
    counts = lambda: (scipy_openblas[0](), numpy_openblas[0]())
    seen, matmul = [], np.matmul
    monkeypatch.setattr(theory.np, "matmul", lambda *a: seen.append(counts()) or matmul(*a))
    theorem_check(1.0, np.ones((2, 5)), np.ones((2, 4)), 1.0)
    assert counts() == (2, 2)
    with pytest.raises(ValueError, match="squared norm of the true theta overflows"):
        theorem_check(1.0, np.full((1, 5), 1e200), np.ones((1, 4)), 1.0)
    assert counts() == (2, 2)
    assert seen == [(1, 1)] * 3


@pytest.mark.parametrize(
    "gram, lam, error",
    [
        pytest.param(np.full((4, 4), 1e200), 1.0, ValueError, id="overflowing-gram"),
        pytest.param(np.ones((4, 4)), 1e-16, NumericalError, id="not-positive-definite"),
    ],
)
def test_failed_setup_restores_the_callers_thread_count(scipy_openblas, gram, lam, error):
    get, _ = scipy_openblas
    with pytest.raises(error):
        KgardSolver(gram, lam)
    assert get() == 2


def test_setup_without_scipy_openblas_gives_the_same_arrays(scipy_openblas, monkeypatch):
    get, set_ = scipy_openblas
    gram = _gram(145)
    pinned = KgardSolver(gram, [0.1, 1.0])
    pinned_sigma = design_sigma_max(gram)
    # unpinned, the arithmetic matches at the thread count setup pins
    set_(1)
    monkeypatch.setattr(core, "_OPENBLAS", [])
    plain = KgardSolver(gram, [0.1, 1.0])
    assert design_sigma_max(gram) == pinned_sigma
    assert get() == 1
    assert plain._residual_map.tobytes() == pinned._residual_map.tobytes()
    assert plain._coef_map.tobytes() == pinned._coef_map.tobytes()
