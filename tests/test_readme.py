"""The README's examples stay runnable: CLI lines parse, every option it
names exists, Python blocks run."""

import argparse
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from faascost.cli import build_parser

_ROOT = Path(__file__).resolve().parents[1]
_README = (_ROOT / "README.md").read_text()
_BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", _README, flags=re.M | re.S)
_CLI_LINES = [
    line
    for lang, body in _BLOCKS
    if lang == "bash"
    for line in body.splitlines()
    if line.startswith("faascost ")
]
_PYTHON = [body for lang, body in _BLOCKS if lang == "python"]
# Every ``--option`` named in prose or in a block, but pip's.
_OPTIONS = sorted({
    option
    for line in _README.splitlines()
    if not line.lstrip().startswith("pip install")
    for option in re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", line)
})


def _options(parser):
    """The option strings of ``parser`` and of every subcommand under it."""
    for action in parser._actions:
        yield from action.option_strings
        if isinstance(action, argparse._SubParsersAction):
            for child in action.choices.values():
                yield from _options(child)


def test_readme_has_examples():
    assert len(_CLI_LINES) >= 8 and len(_PYTHON) >= 2


@pytest.mark.parametrize("line", _CLI_LINES)
def test_readme_cli_line_parses(line):
    try:
        build_parser().parse_args(shlex.split(line, comments=True)[1:])
    except SystemExit:
        pytest.fail(f"README command does not parse: {line}")


def test_readme_names_only_cli_options():
    assert "--out-dir" in _OPTIONS
    assert sorted(set(_OPTIONS) - set(_options(build_parser()))) == []


@pytest.mark.parametrize("source", _PYTHON, ids=range(len(_PYTHON)))
def test_readme_python_block_runs(source, tmp_path):
    # In a fresh interpreter on this checkout's src/, as a reader runs it, so
    # nothing the test session imported or bound can stand in for a name.
    env = {**os.environ, "PYTHONPATH": str(_ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", source], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout
