"""Static check of the package source: no module-level import goes unused."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "tide"


def unused_imports(source: str) -> list[str]:
    """Names a module-level import binds that the module never reads.

    An import statement with ``# noqa`` on any of its lines is skipped
    (a deliberate re-export), and so is ``from __future__``.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            bound[name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items()
            if name not in read]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_check_flags_and_honours_noqa():
    source = ("import os\nimport sys  # noqa: F401\n"
              "from json import (dumps,\n    loads)  # noqa\n"
              "from math import pi, tau\nprint(pi)\n")
    assert unused_imports(source) == ["line 1: os", "line 5: tau"]
