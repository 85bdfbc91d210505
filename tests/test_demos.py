"""Every demo script runs to completion with the library on its path."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import gatelim

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(gatelim.__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_cleanly(demo):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout
