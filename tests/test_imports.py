"""Every name that a module of the package imports is used in that module."""

import ast
from pathlib import Path

import pytest

import coopnet

# __init__ imports the root exports, which test_readme checks against the README
MODULES = sorted(p for p in Path(coopnet.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Each imported name that no Name node of source reads, as "line N: name"."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_unused_imports_finds_each_unread_name():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import re as regex\n"
        "from typing import Iterable, Sequence as Seq\n"
        "def f(x: Seq) -> str:\n"
        "    return os.path.join(*x)\n"
    )
    assert unused_imports(source) == ["line 3: regex", "line 4: Iterable"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
