import contextlib
import io
import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start_blocks():
    text = README.read_text()
    section = text.split("\n## Quick start\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)


def test_readme_quick_start_runs_and_prints_what_it_says():
    # the blocks share one namespace, as a reader running them in turn
    # would; the denoising block reads a noisy image of its own
    rng = np.random.default_rng(0)
    noisy_image = np.round(rng.uniform(100.0, 155.0, size=(16, 16)))
    noisy_image.ravel()[rng.choice(256, size=20, replace=False)] += 100.0
    namespace = {"noisy_image": noisy_image}
    blocks = _quick_start_blocks()
    assert len(blocks) == 3
    for block in blocks:
        expected = re.findall(r"#\s*->\s*(.*?)\s*$", block, flags=re.MULTILINE)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), namespace)
        assert out.getvalue().splitlines() == expected
