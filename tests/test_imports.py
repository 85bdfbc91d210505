"""The package is pure stdlib: every module its sources import ships with Python, and every annotation resolves."""

import ast
import functools
import importlib
import inspect
import io
import sys
import tokenize
import typing
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


def defined_objects(module):
    """The functions and classes the module defines, and the methods of those classes."""
    for value in vars(module).values():
        if (inspect.isfunction(value) or inspect.isclass(value)) and value.__module__ == module.__name__:
            yield value
            for attr in vars(value).values() if inspect.isclass(value) else ():
                if isinstance(attr, (staticmethod, classmethod)):
                    attr = attr.__func__
                elif isinstance(attr, property):
                    attr = attr.fget
                elif isinstance(attr, functools.cached_property):
                    attr = attr.func
                if inspect.isfunction(attr):
                    yield attr


def test_every_annotation_resolves():
    checked = 0
    for path in SOURCES:
        module = importlib.import_module("gatelim" if path.stem == "__init__" else f"gatelim.{path.stem}")
        for obj in defined_objects(module):
            typing.get_type_hints(obj)  # raises NameError on a name the module does not bind
            checked += 1
    assert checked > 200


def docstring_lines(tree):
    """The numbers of the lines that a module, class or function docstring spans."""
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, scopes) and ast.get_docstring(node, clean=False) is not None:
            lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def test_only_the_basis_table_names_a_basis():
    # Every fact about a basis is read from its row of ``terms.BASES``, so no other module spells a basis name.
    from gatelim.terms import BASES

    assert {"demorgan", "u2"} <= set(BASES)
    found = []
    for path in SOURCES:
        if path.name == "terms.py":
            continue
        text = path.read_text(encoding="utf-8")
        docs = docstring_lines(ast.parse(text))
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type == tokenize.STRING and tok.start[0] not in docs:
                try:
                    value = ast.literal_eval(tok.string)
                except ValueError:  # an f-string
                    continue
                if value in BASES:
                    found.append(f"{path.name}:{tok.start[0]}: {tok.string}")
    assert found == []
