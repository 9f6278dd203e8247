"""Every module of the package reads every name it imports.

A stdlib-only stand-in for a linter's unused-import rule: names bound by
`import` statements are matched against the names the module's syntax tree
reads.  `__init__.py` is left out, since its imports are the package's
public surface.
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


def test_checker_finds_unused_imports():
    source = "import os.path\nimport re as regex\nfrom x import a, b as c\nprint(a, os.sep)\n"
    assert unused_imports(source) == ["c (line 3)", "regex (line 2)"]
    assert unused_imports("from __future__ import annotations\n") == []


def test_package_modules_found():
    assert {"perms.py", "cli.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
