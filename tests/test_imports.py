"""The package is pure stdlib: every module its sources import ships with Python, and every annotation resolves."""

import ast
import functools
import importlib
import inspect
import sys
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
