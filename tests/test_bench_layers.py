"""The benchmark's per-layer metrics time the functions that
perfbench/tracing.py lists in WRAPPED. A listed name the package no
longer defines is skipped there and its metrics read zero, so a rename
here would silently blank a layer; this test names it instead."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# Stale since earlier refactors; the benchmark is to drop or rename them.
STALE = {("dataset", "apply_normalizer"), ("fis", "design_matrix"),
         ("fis", "fit_consequents"), ("fis", "decode_premise"),
         ("aco", "sample_candidate")}


def wrapped_names():
    """WRAPPED, read from the source without running the benchmark."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "WRAPPED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no WRAPPED in {TRACING}")


def resolves(mod_name, attr):
    """True if the tracer finds `attr` in antfis.`mod_name` to wrap."""
    owner = importlib.import_module(f"antfis.{mod_name}")
    if "." in attr:
        cls_name, _, attr = attr.partition(".")
        owner = vars(getattr(owner, cls_name, object))
        return callable(owner.get(attr))
    return callable(getattr(owner, attr, None))


def test_every_wrapped_layer_resolves():
    missing = {pair for pair in wrapped_names() if not resolves(*pair)}
    assert missing <= STALE, sorted(missing - STALE)
