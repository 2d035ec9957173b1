"""Package layout: every spurmin module imports at its top, so the import
graph is the one its module headers show."""

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
