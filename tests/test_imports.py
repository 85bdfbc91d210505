"""The package is pure stdlib: every module its sources import ships with Python."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "gatelim").glob("*.py"))


def absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_every_absolute_import_is_in_the_standard_library():
    assert len(SOURCES) >= 8
    for path in SOURCES:
        for name in absolute_imports(path):
            assert name.partition(".")[0] in sys.stdlib_module_names, f"{path.name} imports {name}"
