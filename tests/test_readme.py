"""The README's ```python blocks run as written, against the current API."""

import re
from pathlib import Path

import numpy as np
import pytest

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.S | re.M)


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 3


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_block_runs(index):
    names = {}
    exec(compile(BLOCKS[index], f"README.md python block {index + 1}", "exec"), names)
    # the blocks' "recovers ..." comments: the exp of the first increment
    # lands on the geodesic's endpoint
    if "end" in names:
        target = names["xb"] if "xb" in names else names["b"].coord
        assert np.max(np.abs(names["end"] - target)) <= 1e-9
    # "recovers w": inverse transport undoes the forward ladder
    if "back" in names:
        assert np.max(np.abs(names["back"] - names["w"])) <= 1e-9
