"""tools/identity.py: the corpus is reproducible, also through the
child's saved inputs and outputs, and a moved bit is reported with the
output it moved and by how much, and with the tree whose thread counts
disagree."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "identity.py"


@pytest.fixture(scope="module")
def identity():
    spec = importlib.util.spec_from_file_location("identity", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tiny_runs(identity, tmp_path_factory):
    """The small corpus run in-process, and run again as a child runs it:
    inputs read from and outputs written to .npz files, kgard imported
    from this checkout's src/."""
    inputs = identity.make_inputs(tiny=True)
    direct = identity.corpus(inputs, tiny=True)
    tmp = tmp_path_factory.mktemp("identity")
    np.savez(tmp / "inputs.npz", **inputs)
    path = list(sys.path)
    try:
        identity._child(str(ROOT / "src"), str(tmp / "inputs.npz"), str(tmp / "out.npz"), tiny=True)
    finally:
        sys.path[:] = path
    with np.load(tmp / "out.npz") as data:
        return direct, dict(data)


def test_tiny_corpus_digests_repeat(identity, tiny_runs):
    first, second = tiny_runs
    assert first.keys() == second.keys()
    assert {name: identity.digest(v) for name, v in first.items()} == {
        name: identity.digest(v) for name, v in second.items()
    }
    lines, differing = identity.compare({"a": first, "b": second})
    assert differing == [] and len(lines) == len(first)
    # every part of the corpus is there, and no timing field
    for prefix in ("denoise.", "sinc1d.snr.", "sinc1d.stable.", "lattice2d.", "sweep.",
                   "bound.", "bound.large.", "fit.", "corrupt.stable0.5.",
                   "spectral.lattice961.", "sigma_max.", "regress.fitted"):
        assert any(name.startswith(prefix) for name in first), prefix
    assert not any(name.endswith(tuple(identity.TIMING)) for name in first)


def _moved(reference):
    """``reference`` with one bit of fit.alpha moved and every capped
    row's stop reason changed."""
    changed = dict(reference)
    alpha = reference["fit.alpha"].copy()
    alpha[2, 5] = np.nextafter(alpha[2, 5], np.inf)
    changed["fit.alpha"] = alpha
    changed["fit.stop_reason"] = np.where(
        reference["fit.stop_reason"] == "cap", "pivot", reference["fit.stop_reason"]
    )
    return changed


def test_compare_sizes_every_output_that_differs(identity, tiny_runs):
    reference, _ = tiny_runs
    lines, differing = identity.compare({"parent": reference, "change": _moved(reference)})
    assert differing == ["fit.alpha", "fit.stop_reason"]
    report = "\n".join(lines)
    assert "DIFFERS" in report and "fit.alpha  (change vs parent)" in report
    spacing = abs(np.spacing(reference["fit.alpha"][2, 5]))
    sizes = [line for line in lines if " in change vs parent: " in line]
    assert len(sizes) == 2
    assert sizes[0].startswith("  fit.alpha in change vs parent: ")
    assert f"1 of {reference['fit.alpha'].size} entries differ" in sizes[0]
    assert f"largest absolute difference {spacing:.3e}" in sizes[0]
    assert "largest relative difference" in sizes[0]
    capped = np.count_nonzero(reference["fit.stop_reason"] == "cap")
    assert capped and sizes[1] == (
        f"  fit.stop_reason in change vs parent: {capped} of 6 entries differ"
    )
    # labels without a thread count form no thread groups
    assert not any(" agree on " in line or " differ on " in line for line in lines)


def test_compare_says_whether_each_trees_thread_runs_agree(identity, tiny_runs):
    reference, _ = tiny_runs
    moved = _moved(reference)
    one_thread = dict(moved, **{"fit.alpha": reference["fit.alpha"]})
    lines, differing = identity.compare({
        "parent@1": reference, "parent@2": reference, "change@1": one_thread, "change@2": moved,
    })
    assert differing == ["fit.alpha", "fit.stop_reason"]
    total = len(reference)
    assert lines[-2:] == [
        f"parent@1 and parent@2 agree on all {total} outputs",
        f"change@1 and change@2 differ on 1 of {total} outputs: fit.alpha",
    ]
    # fit.alpha is sized against change@2, the first run that moved it
    assert any(line.startswith("  fit.alpha in change@2 vs parent@1: ") for line in lines)
