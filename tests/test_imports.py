"""Every module of the package reads every name it imports, and the
package reads every private name it defines.

A stdlib-only stand-in for a linter's unused-import rule: names bound by
`import` statements are matched against the names the module's syntax tree
reads.  `__init__.py` is left out, since its imports are the package's
public surface.  Private names (one leading underscore) bound at module or
class level, or as `self._x` in a method, must be read as a name or an
attribute somewhere in the package.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "globfun"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names that `source` imports and never reads, with their lines."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in read)


def private_definitions(source: str) -> dict[str, tuple[int, bool]]:
    """Private names bound at module or class level in `source`, or as
    `self._x` inside a class: the line of the first binding, and whether it
    is at module level, where a bare name can read it."""
    found = {}

    def scan(body, top):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [(node.name, node.lineno)]
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [(n.id, node.lineno) for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                names = []
            for name, line in names:
                if name.startswith("_") and not name.startswith("__"):
                    found.setdefault(name, (line, top))
            if isinstance(node, ast.ClassDef):
                scan(node.body, False)
                for n in ast.walk(node):
                    if (isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                            and isinstance(n.value, ast.Name) and n.value.id == "self"
                            and n.attr.startswith("_") and not n.attr.startswith("__")):
                        found.setdefault(n.attr, (n.lineno, False))

    scan(ast.parse(source).body, True)
    return found


def names_read(source: str) -> tuple[set[str], set[str]]:
    """The bare names and the attribute names that `source` reads."""
    names, attrs = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attrs.add(node.attr)
    return names, attrs


def unused_private(sources: dict[str, str]) -> list[str]:
    """The private names that some source defines and no source reads."""
    reads = [names_read(source) for source in sources.values()]
    names = set().union(*(r[0] for r in reads))
    attrs = set().union(*(r[1] for r in reads))
    return sorted(f"{name}: {priv} (line {line})" for name, source in sources.items()
                  for priv, (line, top) in private_definitions(source).items()
                  if priv not in attrs and not (top and priv in names))


def test_checker_finds_unused_imports():
    source = "import os.path\nimport re as regex\nfrom x import a, b as c\nprint(a, os.sep)\n"
    assert unused_imports(source) == ["c (line 3)", "regex (line 2)"]
    assert unused_imports("from __future__ import annotations\n") == []


def test_package_modules_found():
    assert {"perms.py", "cli.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_finds_unused_private_names():
    sources = {
        "a.py": "_A = 1\n_B = 2\n__all__ = []\ndef _f():\n    return _A\n",
        "b.py": ("from a import _f\nclass C:\n    _k = 0\n    def __init__(self):\n"
                 "        self._x = self._y = self._f = 1\n    def _m(self):\n"
                 "        return self._x\nprint(_f(), _k, C()._m)\n"),
    }
    # a bare name reads only a module-level name: self._f and C._k stay unread
    assert unused_private(sources) == ["a.py: _B (line 2)", "b.py: _f (line 5)",
                                       "b.py: _k (line 3)", "b.py: _y (line 5)"]


def test_no_unused_private_names():
    assert unused_private({p.name: p.read_text() for p in PACKAGE.glob("*.py")}) == []
