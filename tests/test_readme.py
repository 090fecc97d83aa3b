"""Every ``python`` block of README.md runs against the current package, and
every ``branchpolar`` line of its ``sh`` blocks runs through ``cli.main``
with exit 0, so neither the documented library API nor the documented
command lines can drift from the code."""

import re
import shlex
from pathlib import Path

import pytest

from branchpolar import cli

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)
COMMANDS = [line for block in re.findall(r"^```sh\n(.*?)^```", TEXT, re.M | re.S)
            for line in block.splitlines() if line.startswith("branchpolar ")]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})


def test_readme_has_command_lines():
    assert COMMANDS


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_line_runs(line, tmp_path, monkeypatch, capsys):
    # comments go; a redirection and what follows it are the shell's business
    argv = shlex.split(line, comments=True)[1:]
    if ">" in argv:
        argv = argv[:argv.index(">")]
    monkeypatch.chdir(tmp_path)  # --output files land here
    assert cli.main(argv) == 0, capsys.readouterr().err
