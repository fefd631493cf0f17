"""The README's library example runs and prints what its comments say, and
every name its prose backticks is exported by the package."""

import contextlib
import io
import re
from pathlib import Path

import pytest

import blockcomm

README = Path(__file__).resolve().parent.parent / "README.md"


def library_section():
    return README.read_text().split("## Library use", 1)[1].split("\n## ", 1)[0]


def library_block():
    return re.search(r"```python\n(.*?)```", library_section(), re.S).group(1)


def test_library_use_block_prints_its_commented_outputs():
    code = library_block()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    members, cond = out.getvalue().splitlines()
    assert "# [0, 1, 2, 3]" in code and members == "[0, 1, 2, 3]"
    assert "1 of 13" in code and float(cond) == pytest.approx(1 / 13, rel=1e-15)


def test_library_use_prose_names_only_exports():
    prose = re.sub(r"```.*?```", "", library_section(), flags=re.S)
    names = re.findall(r"`([A-Za-z_]\w*)`", prose)
    assert len(names) >= 5
    assert [n for n in names if not hasattr(blockcomm, n)] == []
