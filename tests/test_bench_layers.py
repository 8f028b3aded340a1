"""The benchmark's traced run wraps relmod functions by name, listed in
bench/tracing.py's LAYERS; a refactor that renames one fails here instead of
in the traced run."""

import ast
import importlib
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _layers():
    # read, not imported: the table is a literal
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        targets = [t.id for t in getattr(node, "targets", ()) if isinstance(t, ast.Name)]
        if targets == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py has no LAYERS table")


def test_every_traced_function_exists():
    layers = _layers()
    assert layers
    missing = [
        f"{home}.{fname}"
        for home, names in layers.values()
        for fname in names
        if not callable(getattr(importlib.import_module(home), fname, None))
    ]
    assert missing == []
