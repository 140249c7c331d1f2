"""Both CSV kinds go through one parser: np.loadtxt is named only in
dataset._parse, and _parse only in dataset._parse_in_shares, which
parses every span of every file read, at any size and CPU count. The
first test fails if either name appears in any other function of
src/antfis, or at a module's top level.

And a failed read is named by one fault path: in dataset.py, every
DataError whose message names a line is built in dataset._fault, and
read_csv_table has one except handler, which hands it the failure.

And every text input (a CSV's failed read, a model file, a --params file)
is split into numbered lines by one iterator, dataset._numbered_lines: no
other function decodes with an `errors=` handler, reads a file through
read_text or splits text with splitlines, each of which would number or
name a line its own way.

And no function of dataset.py, trainer.py or cli.py strips text with a
bare strip, lstrip or rstrip, which takes any Unicode whitespace as
padding: in every text input, spaces and tabs are the only padding."""

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


def names_a_line(node):
    """True if `node` builds a DataError whose message says `line `."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "DataError"
            and any(isinstance(part, ast.Constant)
                    and isinstance(part.value, str) and "line " in part.value
                    for arg in node.args for part in ast.walk(arg)))


def test_one_fault_path():
    body = ast.parse((PACKAGE / "dataset.py").read_text()).body
    builders = {getattr(top, "name", None) for top in body
                for node in ast.walk(top) if names_a_line(node)}
    assert builders == {"_fault"}
    read, = [top for top in body if isinstance(top, ast.FunctionDef)
             and top.name == "read_csv_table"]
    handlers = [node for node in ast.walk(read)
                if isinstance(node, ast.ExceptHandler)]
    assert len(handlers) == 1


def text_readers(path):
    """(module, top-level function or None, what) of each call that
    passes `errors=`, or calls read_text or splitlines."""
    for top in ast.parse(path.read_text()).body:
        where = top.name if isinstance(top, ast.FunctionDef) else None
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Attribute) \
                    and node.func.attr in ("read_text", "splitlines"):
                yield path.name, where, node.func.attr
            if any(kw.arg == "errors" for kw in node.keywords):
                yield path.name, where, "errors="


def test_one_line_reader():
    found = {use for path in PACKAGE.glob("*.py")
             for use in text_readers(path)}
    assert found == {("dataset.py", "_numbered_lines", "errors=")}


def bare_strips(path):
    """(module, top-level function or None, method) of each call of
    strip, lstrip or rstrip without arguments."""
    for top in ast.parse(path.read_text()).body:
        where = top.name if isinstance(top, ast.FunctionDef) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in ("strip", "lstrip", "rstrip") \
                    and not node.args and not node.keywords:
                yield path.name, where, node.func.attr


def test_no_bare_strip():
    found = {use for name in ("dataset.py", "trainer.py", "cli.py")
             for use in bare_strips(PACKAGE / name)}
    assert found == set()
