"""``import kgard`` loads scipy's compiled BLAS and LAPACK modules
without the ``scipy.linalg`` package, and hands out the very function
objects that ``scipy.linalg`` re-exports, in either import order.

Each check runs in a fresh interpreter: the test process has imported
``scipy.linalg`` long before.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kgard.core as core

SRC = Path(__file__).resolve().parents[1] / "src"

SAME_OBJECTS = """
import kgard.core, kgard.theory
import scipy.linalg
assert scipy.linalg.blas.dsyrk is kgard.core.dsyrk
assert scipy.linalg.lapack.dpotrf is kgard.core.dpotrf
assert scipy.linalg.lapack.dpotri is kgard.core.dpotri
assert scipy.linalg.lapack.dtrtrs is kgard.core.dtrtrs
assert scipy.linalg.lapack.dgesdd is kgard.theory.dgesdd
assert scipy.linalg.lapack.dgesdd_lwork is kgard.theory.dgesdd_lwork
"""


def _run(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_leaves_out_scipy_linalg_and_numpy_test_tooling():
    out = _run(
        "import sys, kgard\n"
        "print(*sorted(m for m in sys.modules if m == 'scipy' or m.startswith(("
        "'scipy.', 'numpy.f2py', 'numpy.testing'))))"
    )
    assert out.split() == []


def test_a_later_scipy_linalg_import_hands_out_the_same_routines():
    _run(SAME_OBJECTS + "assert scipy.linalg._fblas.dsyrk is kgard.core.dsyrk\n")


def test_scipy_linalg_imported_first_hands_out_the_same_routines():
    _run("import scipy.linalg\n" + SAME_OBJECTS)


def test_both_bundled_openblas_found():
    # the modules by name, as importing them gives them
    named = [
        core._scipy_openblas(importlib.import_module("scipy.linalg._fblas")),
        core._scipy_openblas(importlib.import_module("numpy._core._multiarray_umath"), "64_"),
    ]
    if None in named:
        pytest.skip("scipy or numpy is not linked against its bundled OpenBLAS")
    assert len(core._OPENBLAS) == 2
    (get_scipy, set_scipy), (get_numpy, set_numpy) = core._OPENBLAS
    before = get_scipy(), get_numpy()
    try:
        set_scipy(1)
        set_numpy(2)
        assert (get_scipy(), get_numpy()) == (1, 2)
        assert (named[0][0](), named[1][0]()) == (1, 2)
    finally:
        set_scipy(before[0])
        set_numpy(before[1])


def test_loader_raises_import_error_naming_module_and_directory():
    with pytest.raises(ImportError, match=r"no module scipy\.linalg\._nosuch in .*linalg") as info:
        core._scipy_linalg_module("_nosuch")
    assert info.value.name == "scipy.linalg._nosuch"


def test_fits_leave_numpy_ma_unimported():
    # np.unique calls np.ma.is_masked, so its first call imports numpy.ma
    out = _run(
        "import sys\n"
        "import numpy as np\n"
        "import kgard\n"
        "from kgard.noise import NoiseSpec\n"
        "image = np.full((24, 24), 60.0)\n"
        "image[::5, ::3] = 200.0\n"
        "kgard.denoise_image(image)\n"
        "kgard.run_monte_carlo('sinc1d', NoiseSpec(impulse_fraction=0.1), "
        "kgard.KgardConfig(lam=0.2, epsilon=10.0), trials=2)\n"
        "kgard.sweep_outlier_magnitude([100.0], trials=2)\n"
        "print('numpy.ma' in sys.modules)"
    )
    assert out.split() == ["False"]
