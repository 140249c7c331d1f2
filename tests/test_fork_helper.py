"""All parallel work in the package forks through one module, shares.py,
which holds the fallbacks and the clean-up of every child. This test
fails if the calls that make, await or end a child, the pipes it talks
through, or the tempfile module its replies go through, appear anywhere
else in src/antfis."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "antfis"
HELPER = "shares.py"
OS_CALLS = {"fork", "_exit", "waitpid", "kill", "pipe"}


def is_reference(node):
    """True if `node` names one of OS_CALLS of os, or tempfile."""
    if isinstance(node, ast.Attribute):
        return (node.attr in OS_CALLS and isinstance(node.value, ast.Name)
                and node.value.id == "os")
    if isinstance(node, ast.Name):
        return node.id == "tempfile"
    if isinstance(node, ast.alias):  # import tempfile as ...
        return node.name == "tempfile" and node.asname is not None
    if isinstance(node, ast.ImportFrom):
        return node.module == "tempfile" or (
            node.module == "os"
            and any(alias.name in OS_CALLS for alias in node.names))
    return False


def references(path):
    """Line of each reference in `path`."""
    for node in ast.walk(ast.parse(path.read_text())):
        if is_reference(node):
            yield node.lineno


def test_processes_fork_only_in_the_share_helper():
    found = {(path.name, line) for path in PACKAGE.glob("*.py")
             for line in references(path)}
    assert any(name == HELPER for name, _ in found)
    assert sorted(ref for ref in found if ref[0] != HELPER) == []
