import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=1, database=None)
@given(st.integers())
def test_fails(x):
    assert x != x
"""


def test_failing_hypothesis_test_is_reported_as_a_failure(tmp_path):
    # hypothesis's failure report imports modules that warn on import;
    # under the suite's warnings-as-errors that must not abort the run
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "1 failed" in output
    assert "INTERNALERROR" not in output
