"""What a fresh process loads: each command imports the modules it runs, and ``import gatelim`` none."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gatelim
from gatelim import cli, rewrite, terms, textio
from gatelim.circuits import Circuit
from gatelim.refuter import xor_circuit
from gatelim.textio import serialize_circuit

SRC = Path(gatelim.__file__).resolve().parent.parent
SUBMODULES = {f"gatelim.{path.stem}" for path in (SRC / "gatelim").glob("*.py") if path.stem != "__init__"}

# Runs cli.main on argv[1:] and prints its exit code and the gatelim modules loaded, as JSON.
AFTER_MAIN = """\
import contextlib, io, json, sys
import gatelim.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = gatelim.cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("gatelim"))]))
"""


def fresh(code, *argv):
    """The stdout of ``code`` run in a fresh interpreter that imports gatelim from the sources."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0 and run.stderr == "", run
    return run.stdout


def loaded_by(*argv):
    code, modules = json.loads(fresh(AFTER_MAIN, *argv))
    assert code == 0
    assert {"gatelim", "gatelim.cli", "gatelim.terms"} <= set(modules)
    return set(modules)


@pytest.fixture
def xor4(tmp_path):
    path = tmp_path / "xor4.ckt"
    path.write_text(serialize_circuit(xor_circuit(4)))
    return str(path)


def test_trs_check_loads_the_term_layer_alone():
    assert loaded_by("trs", "check", "--samples", "1") == {"gatelim", "gatelim.cli", "gatelim.terms"}


def test_translate_loads_no_rewriter_or_refuter(xor4):
    loaded = loaded_by("translate", xor4, "--to", terms.U2_BASIS.name)
    assert {"gatelim.textio", "gatelim.u2"} <= loaded
    assert not loaded & {"gatelim.rewrite", "gatelim.refuter"}


def test_normalize_loads_no_refuter_or_u2(xor4):
    loaded = loaded_by("normalize", xor4)
    assert "gatelim.rewrite" in loaded
    assert not loaded & {"gatelim.refuter", "gatelim.u2"}


def test_refute_loads_what_it_runs(tmp_path):
    (tmp_path / "and2.ckt").write_text("ckt 1\nbasis demorgan\ninputs 2\nn1 = AND x1 x2\noutput n1\n")
    loaded = loaded_by("refute", str(tmp_path / "and2.ckt"))
    assert {"gatelim.rewrite", "gatelim.refuter"} <= loaded and "gatelim.u2" not in loaded


def test_import_gatelim_loads_no_submodule():
    out = fresh("import sys, gatelim\nprint(sorted(m for m in sys.modules if m.startswith('gatelim.')))")
    assert out == "[]\n"


def exported():
    """(module, name) of every name ``gatelim/__init__.py`` imports."""
    tree = ast.parse((SRC / "gatelim" / "__init__.py").read_text(encoding="utf-8"))
    return [
        (f"gatelim.{node.module}", alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def test_every_export_is_its_modules_object_read_either_way():
    pairs = exported()
    assert sorted(name for _, name in pairs) == sorted(gatelim.__all__)
    assert {module for module, _ in pairs} == SUBMODULES - {"gatelim.cli"}
    # In a fresh interpreter, so that the first read is the lazy one.
    code = """\
import importlib, json, sys
import gatelim
read = {name: getattr(gatelim, name) for name in json.loads(sys.argv[2])}
star = {}
exec("from gatelim import *", star)
pairs = json.loads(sys.argv[1])
print(json.dumps(sorted(
    name for module, name in pairs
    if not read[name] is star[name] is getattr(importlib.import_module(module), name)
)))
"""
    names = [name for _, name in pairs]
    assert json.loads(fresh(code, json.dumps(pairs), json.dumps(names[::-1]))) == []
    for module, name in pairs:
        assert getattr(gatelim, name) is getattr(sys.modules[module], name)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        gatelim.nonexistent
    assert set(gatelim.__all__) <= set(dir(gatelim))
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        cli.nonexistent


def test_cli_still_reads_the_names_it_bound_at_import():
    assert cli.textio is textio and cli.rewrite is rewrite and cli.Circuit is Circuit


def test_the_certified_system_is_the_one_normalize_runs():
    assert rewrite.DEMORGAN.trs is terms.demorgan_system()
    assert terms.demorgan_system() is terms.demorgan_system()
