"""Every demo script runs to completion, warning-free, and prints its pinned output."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gatelim

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(gatelim.__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout.  A change meant to keep outputs byte-identical keeps them.
STDOUT_SHA256 = {
    "01_simplify_a_circuit.py": "2f9875352974345aebf8dbc1e903d92225c9f6366825ea41d18fda96fdfd0473",
    "02_convergence_certificate.py": "5215e1d32e8f7d378008d34433d67455ed445d16f44065e34b6ea12bf5dae6a6",
    "03_refute_an_undersized_circuit.py": "452c608ada240db12f7044beadbe5a0f1d4664f52ec09386d2995e032bdb59be",
    "04_basis_round_trip.py": "837720dd42d51cce41a190eae2b5013c99eedc9e4de70be8001f51b0b9e968a9",
    "05_why_u2_has_no_normal_forms.py": "6ed970fe8c98953534f078f2906a61661f479ba0c372ab891df6d394f2126209",
}


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_cleanly(demo):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    python = [sys.executable, *["-O"] * sys.flags.optimize]  # optimized when the tests are
    run = subprocess.run([*python, "-W", "error", str(demo)], capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    assert hashlib.sha256(run.stdout.encode()).hexdigest() == STDOUT_SHA256[demo.name]
