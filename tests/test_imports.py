"""Every name a module of src/antfis imports is used in that module.

No linter ships with the project, so this is its unused-import check: a
name bound by an import statement, at any depth, must be read somewhere
in the same module. `from __future__` imports are exempt."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "antfis"


def unused_imports(source):
    """Names `source` imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = [alias.asname or alias.name.partition(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_found():
    source = ("from __future__ import annotations\n"
              "import io\nimport math\nimport os.path\n"
              "from numpy import array as arr, empty\n"
              "def f():\n    from re import sub\n"
              "    return io, os.path.join, arr, sub\n")
    assert unused_imports(source) == ["math", "empty"]
