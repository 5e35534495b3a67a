"""The README's Python examples run as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("block", range(len(BLOCKS)))
def test_python_example_runs(block, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # anything the example writes stays here
    exec(compile(BLOCKS[block], f"{README.name}, python block {block + 1}", "exec"), {})
