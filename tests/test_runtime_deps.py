"""The installed package must run on the standard library alone."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "wikiv6"
SOURCES = sorted(PACKAGE.glob("*.py"))


def absolute_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_sources_found():
    assert len(SOURCES) >= 5


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_package(path):
    allowed = set(sys.stdlib_module_names) | {"wikiv6"}
    foreign = sorted({name for name in absolute_imports(path) if name.split(".")[0] not in allowed})
    assert foreign == []
