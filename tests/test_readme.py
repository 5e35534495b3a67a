"""The README's examples run as written: its Python blocks, and the
``bioee`` commands of its shell blocks, in order, on a small demo corpus."""

import re
import shlex
from pathlib import Path

import pytest

from bioee import cli
from bioee.synth import write_synthetic_corpus

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```$", TEXT, re.M | re.S)
COMMANDS = [
    shlex.split(line)[1:]
    for block in re.findall(r"^```sh\n(.*?)^```$", TEXT, re.M | re.S)
    for line in block.splitlines()
    if line.startswith("bioee ")
]
# Appended to every command, so the full-size defaults do not make the test slow.
SMALL = ["--epochs", "1", "--lstm-hidden", "4", "--arg-mlp-hidden", "4",
         "--event-mlp-hidden", "4", "--window", "2", "--dim", "16"]


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("block", range(len(BLOCKS)))
def test_python_example_runs(block, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # anything the example writes stays here
    exec(compile(BLOCKS[block], f"{README.name}, python block {block + 1}", "exec"), {})


def test_cli_example_shows_every_command():
    assert {argv[0] for argv in COMMANDS} == set(cli._COMMANDS)


def test_cli_example_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert "write_synthetic_corpus as w; w('demo', " in TEXT
    write_synthetic_corpus("demo", 20, seed=1)  # the README's demo corpus, at 20 sentences
    for argv in COMMANDS:
        assert cli.main(argv + SMALL) == 0, (argv, capsys.readouterr().err)
