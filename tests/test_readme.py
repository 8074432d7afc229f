"""The README's ``python`` examples run as written."""

import re
from pathlib import Path

import numpy as np
import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.M | re.S)


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(block, capsys):
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    # each example restores an image and prints its PSNR
    assert np.all(np.isfinite(namespace["estimate"]))
    assert float(capsys.readouterr().out) > 20.0
