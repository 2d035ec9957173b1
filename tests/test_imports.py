"""Package layout: every spurmin module imports at its top, so the import
graph is the one its module headers show, and [X; 1] has one home."""

import ast
from pathlib import Path

import spurmin

SOURCES = sorted(Path(spurmin.__file__).parent.glob("*.py"))


def test_no_import_sits_inside_a_function():
    found = []
    for path in SOURCES:
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{node.lineno} in {fn.name}" for node in ast.walk(fn)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert len(SOURCES) > 1
    assert found == []


# [X; 1] is formed by `Dataset.X1` wherever a Dataset is at hand; augment is
# called only by the scorers of a bare X
AUGMENT_CALLERS = {"network.Dataset.X1", "network.forward", "network._hidden_pre",
                   "network._stacked_outputs", "cells.net_cell_inputs"}


def _functions(tree: ast.Module):
    """(qualified name, node) of every module-level function and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{fn.name}", fn) for fn in node.body
                        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)))


def test_augment_is_called_only_where_no_dataset_is_at_hand():
    callers = set()
    for path in SOURCES:
        for name, fn in _functions(ast.parse(path.read_text())):
            calls = [node.func for node in ast.walk(fn) if isinstance(node, ast.Call)]
            if any(getattr(f, "id", getattr(f, "attr", None)) == "augment" for f in calls):
                callers.add(f"{path.stem}.{name}")
    assert callers == AUGMENT_CALLERS
