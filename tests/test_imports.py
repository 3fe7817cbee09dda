"""Static checks of the package source: no module-level import goes
unused, and no function, class or method is named only by tests."""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "tide"


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


def _names(tree: ast.AST) -> Counter:
    """How often a tree names each identifier: as a variable, an
    attribute, an import, or a whole string constant (tidebench looks
    its layers up by name)."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found[node.value] += 1
    return found


def unnamed_definitions(checked: dict[str, str], readers: list[str]) -> list[str]:
    """Functions, classes and methods defined in the ``checked`` sources
    (file name -> source) that no source, ``readers`` included, names
    outside the definition itself. Dunder methods are skipped: Python
    calls them."""
    trees = {name: ast.parse(source) for name, source in checked.items()}
    named = Counter()
    for tree in [*trees.values(), *map(ast.parse, readers)]:
        named.update(_names(tree))
    return [f"{name}:{node.lineno} {node.name}"
            for name, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))
            and named[node.name] == _names(node)[node.name]]


def test_no_definition_is_named_only_by_tests():
    """An API whose only caller is its own unit test is deleted."""
    checked = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    readers = [p.read_text() for folder in ("tidebench", "scripts")
               for p in sorted((ROOT / folder).glob("*.py"))
               if not p.name.startswith("test_")]
    assert unnamed_definitions(checked, readers) == []


def test_unnamed_definition_check_flags_dead_code():
    source = ("def used():\n    pass\n"
              "def recursive():\n    return recursive()\n"
              "def by_name():\n    pass\n"
              "class K:\n"
              "    def __repr__(self):\n        return ''\n"
              "    def gone(self):\n        pass\n"
              "used(), K()\n")
    assert unnamed_definitions({"m.py": source}, ["LAYERS = ('by_name',)"]) == [
        "m.py:3 recursive", "m.py:10 gone"]


def pass_through_functions(source: str) -> list[str]:
    """Module-level functions whose body, after any docstring, is one
    ``return f(p1, p2, ...)`` of their own parameters in order, with no
    keywords: their callers can call ``f`` directly. Methods are exempt,
    since they may implement an interface or cache."""
    found = []
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = node.body
        if ast.get_docstring(node) is not None:
            body = body[1:]
        if len(body) != 1 or not isinstance(body[0], ast.Return):
            continue
        call = body[0].value
        params = [a.arg for a in (*node.args.posonlyargs, *node.args.args)]
        if (isinstance(call, ast.Call) and not call.keywords
                and all(isinstance(a, ast.Name) for a in call.args)
                and [a.id for a in call.args] == params):
            found.append(f"line {node.lineno}: {node.name}")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_pure_pass_through_function(path):
    """A function that only forwards its parameters to another adds a
    name and nothing else."""
    assert pass_through_functions(path.read_text()) == []


def test_pass_through_check_flags_forwarding_functions():
    source = ('def plain(a, b):\n    return f(a, b)\n'
              'def documented(x):\n    """Doc."""\n    return ad.op(x)\n'
              'def keyword(a, b):\n    return f(a, b=b)\n'
              'def reordered(a, b):\n    return f(b, a)\n'
              'def transformed(a):\n    return f(a + 1)\n'
              'def constant(a):\n    return f(a, 2)\n'
              'def two_steps(a):\n    b = a\n    return f(b)\n'
              'class K:\n    def method(self, a):\n        return f(self, a)\n')
    assert pass_through_functions(source) == ["line 1: plain",
                                              "line 3: documented"]
