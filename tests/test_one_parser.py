"""Both CSV kinds go through one parser: np.loadtxt is named only in
dataset._parse, and _parse only in dataset._parse_in_shares, which
parses every span of every file read, at any size and CPU count. This
test fails if either name appears in any other function of src/antfis,
or at a module's top level."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "antfis"


def name_of(node):
    """`loadtxt` or `_parse` if `node` names it, else None."""
    if isinstance(node, ast.Attribute) and node.attr == "loadtxt":
        return "loadtxt"
    if isinstance(node, ast.Name) and node.id == "_parse":
        return "_parse"
    if isinstance(node, ast.alias) and node.name in ("loadtxt", "_parse"):
        return node.name  # from ... import loadtxt
    return None


def users(path):
    """(name, module, top-level function or None) of each reference."""
    for top in ast.parse(path.read_text()).body:
        where = top.name if isinstance(top, ast.FunctionDef) else None
        for node in ast.walk(top):
            if name_of(node) is not None:
                yield name_of(node), path.name, where


def test_one_parser_path():
    found = {use for path in PACKAGE.glob("*.py") for use in users(path)}
    assert sorted(found) == [("_parse", "dataset.py", "_parse_in_shares"),
                             ("loadtxt", "dataset.py", "_parse")]
