"""The README's library example runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block():
    section = README.read_text().split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_block_prints_its_commented_outputs():
    code = library_block()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    members, cond = out.getvalue().splitlines()
    assert "# [0, 1, 2, 3]" in code and members == "[0, 1, 2, 3]"
    assert "1 of 13" in code and float(cond) == pytest.approx(1 / 13, rel=1e-15)
