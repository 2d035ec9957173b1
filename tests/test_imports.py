"""Package layout: every spurmin module imports at its top, so the import
graph is the one its module headers show, [X; 1] has one home, and every
public name has a caller."""

import ast
import re
from pathlib import Path

import spurmin

SOURCES = sorted(Path(spurmin.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]


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
                   "cells.net_cell_inputs"}


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


# public names with no caller outside the tests, each with why it stays
REFERENCE_CHECKS = {
    "separation.check_separation": "the direct check of (1.1) and (1.2) at one alpha, which "
                                   "the tests hold every split of `separate` to",
}


def _public_definitions(tree: ast.Module):
    """(qualified name, node) of every public module-level function and class,
    and of every public method and property of a public class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                yield from ((f"{node.name}.{fn.name}", fn) for fn in node.body
                            if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"))


def test_every_public_name_has_a_caller():
    """Each public definition is named in the package outside its own
    definition (as a name or an attribute, not in a docstring), named in
    bench/*.py or the CI workflow, or exported by spurmin/__init__."""
    trees = {path: ast.parse(path.read_text()) for path in SOURCES}
    uses = [(path, node.lineno, getattr(node, "id", getattr(node, "attr", None)))
            for path, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]
    exported = {alias.name for node in trees[Path(spurmin.__file__)].body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    outside = [*sorted((ROOT / "bench").glob("*.py")), ROOT / ".github" / "workflows" / "tier1.yml"]
    named_outside = {word for path in outside for word in re.findall(r"\w+", path.read_text())}
    uncalled = set()
    for path, tree in trees.items():
        for qualname, node in _public_definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            if not (name in exported or name in named_outside or any(
                    used == name and not (where == path and node.lineno <= line <= node.end_lineno)
                    for where, line, used in uses)):
                uncalled.add(f"{path.stem}.{qualname}")
    assert sorted(uncalled) == sorted(REFERENCE_CHECKS)
