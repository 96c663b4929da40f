"""The code parses under the grammar of the declared Python floor.

Catches syntax newer than ``requires-python`` without an interpreter of that
version; it cannot catch a call to a library function the floor lacks.
"""

import ast
import re
from pathlib import Path

import faascost

ROOT = Path(__file__).resolve().parent.parent


def declared_floor():
    text = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


def test_sources_parse_under_the_floor_grammar():
    package = Path(faascost.__file__).resolve().parent
    paths = sorted(package.rglob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=declared_floor())
