"""Solver setup and the certificate's norms run on one thread of every
bundled OpenBLAS, scipy's and numpy's.

Outputs must not depend on ``OPENBLAS_NUM_THREADS``, the pin must hand
each library's thread count back, also when setup raises or another
thread pins at the same time, and without
a bundled OpenBLAS setup must run unpinned with the same arithmetic.
"""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import kgard.core as core
import kgard.theory as theory
from kgard.core import KgardSolver, NumericalError
from kgard.kernel import KernelParams, gram_matrix
from kgard.theory import design_sigma_max, theorem_check

SRC = Path(__file__).resolve().parents[1] / "src"

TOOL = SRC.parent / "tools" / "identity.py"

# prints one SHA-256 per output of the small corpus of tools/identity.py:
# denoising a 16^2 image, sinc1d and lattice2d trials, a sweep, a tiered
# batch fit at N = 144, the Grams, sigma_max and spectral diagnostics of
# the sweep, ROI and 256- and 961-node lattice Grams, and stacked certificate
# checks at the sweep's N = 100 and at N = 10 001, past the 10 000
# entries above which OpenBLAS splits a dot over threads
OUTPUTS = """
import importlib.util
import sys

spec = importlib.util.spec_from_file_location("identity", sys.argv[1])
identity = importlib.util.module_from_spec(spec)
spec.loader.exec_module(identity)
for name, value in identity.corpus(identity.make_inputs(tiny=True), tiny=True).items():
    print(name, identity.digest(value))
"""


def _hashes(blas_threads: str) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", OUTPUTS, str(TOOL)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return dict(line.split() for line in proc.stdout.splitlines())


def test_outputs_do_not_depend_on_the_blas_thread_count():
    one, two = _hashes("1"), _hashes("2")
    assert "bound.large.theta_norm" in one and "spectral.lattice961.lam0.15.hat_diag" in one
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

    for name in ("dsyrk", "dpotrf", "dpotri"):
        counting(core, name)
    counting(theory, "dgesdd")
    KgardSolver(_gram(), [0.1, 1.0])
    design_sigma_max(_gram())
    assert {name for name, _ in seen} == {"dsyrk", "dpotrf", "dpotri", "dgesdd"}
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


def test_pinned_blocks_on_two_threads_run_one_at_a_time(scipy_openblas):
    # were the other thread's block to start inside this one, it would
    # run on after this block restored 2, then leave 1 behind
    get, _ = scipy_openblas
    outer_done, seen = threading.Event(), []

    def other():
        with core._one_blas_thread():
            outer_done.wait(timeout=5)
            seen.append(get())

    thread = threading.Thread(target=other)
    with core._one_blas_thread():
        thread.start()
        thread.join(timeout=0.2)
    outer_done.set()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert seen == [1] and get() == 2


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
    for kept in ("_residual_map", "_design", "_divisor"):
        assert getattr(plain, kept).tobytes() == getattr(pinned, kept).tobytes()
