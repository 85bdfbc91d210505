"""Size sweeps of the refuter and of det normalize: best-of-3 times and the fitted exponent of each.

    python3 tools/sweep.py [--src DIR] [--json OUT.json]

Refutes near-tight parity (``tests/gen.neartight_parity(n, pos)``, two gates
below the parity bound) with ``refuter.refute_detailed`` for n in 40, 80,
160, 320 and 640 and pos n, n/2 and 2.  Then normalizes (``det``) seeded
constant-fed layered DAGs of 200 to 3,200 binary gates, where a step high
in a deep DAG has a large down-closure.  As in the normalize_constdag
benchmark, each DAG (``perfbench.families.layered_dag``: 20 inputs, layers
16 wide, 15% constants) is redrawn until 15-20% of its gates read a
constant once constants are propagated, so that its steps grow with it.
Each time is the best of ``BEST`` (3) runs in this one process, circuits
built beforehand.  Prints one table per sweep and, per column, the exponent: the
least-squares slope of log time over log size, over n 160-640 for the
refutes and over 800-3,200 gates for the DAGs.

``--src`` imports ``gatelim`` from another source tree (default: this
checkout's ``src``), so that two revisions can be swept alike.  ``--json``
writes the readings as one JSON object under the key ``sweep``, for
``tools/paired_bench.py --merge``.  Pure stdlib, apart from the test helpers.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFUTE_NS = (40, 80, 160, 320, 640)
REFUTE_FIT = (160, 640)
DAG_GATES = (200, 400, 800, 1600, 3200)
DAG_FIT = (800, 3200)
DAG_TOUCHED = (0.15, 0.2)
BEST = 3  # runs per point; the least time counts


def positions(n: int) -> dict[str, int]:
    return {"pos=n": n, "pos=n/2": n // 2, "pos=2": 2}


def constant_fed_dag(gates: int) -> str:
    """The seeded DAG of the given size, redrawn until its touched share lies in ``DAG_TOUCHED``."""
    from perfbench.families import layered_dag

    rng = random.Random(gates)
    while True:
        text, touched = layered_dag(rng, 20, gates, 16, const_share=0.15)
        if DAG_TOUCHED[0] <= touched / gates <= DAG_TOUCHED[1]:
            return text


def best_time(fn, arg) -> float:
    times = []
    for _ in range(BEST):
        start = time.perf_counter()
        fn(arg)
        times.append(time.perf_counter() - start)
    return min(times)


def exponent(times: dict[int, float], lo: int, hi: int) -> float:
    """The least-squares slope of log time over log size, for the sizes in [lo, hi]."""
    points = [(math.log(size), math.log(t)) for size, t in times.items() if lo <= size <= hi]
    mx = sum(x for x, _ in points) / len(points)
    my = sum(y for _, y in points) / len(points)
    return sum((x - mx) * (y - my) for x, y in points) / sum((x - mx) ** 2 for x, _ in points)


def table(title: str, size: str, columns: dict[str, dict[int, float]], fit: tuple[int, int]) -> dict:
    """Print one sweep's times and exponents; the same as a JSON-ready dict."""
    exponents = {name: round(exponent(times, *fit), 3) for name, times in columns.items()}
    print(title)
    print(f"{size:>6} " + " ".join(f"{name:>9}" for name in columns))
    for s in next(iter(columns.values())):
        print(f"{s:>6} " + " ".join(f"{times[s]:>8.3f}s" for times in columns.values()))
    print(f"exponent over {fit[0]}-{fit[1]}: " + ", ".join(f"{k} {v:.2f}" for k, v in exponents.items()))
    return {
        "seconds": {name: {str(s): round(t, 5) for s, t in times.items()} for name, times in columns.items()},
        "exponent": exponents,
        "fit": list(fit),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="the source tree gatelim is imported from")
    parser.add_argument("--json", type=Path, help="write the readings here, under the key 'sweep'")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(args.src), str(ROOT / "tests")]
    from gen import neartight_parity

    from gatelim.refuter import refute_detailed
    from gatelim.rewrite import normalize_circuit
    from gatelim.textio import parse_circuit

    refutes: dict[str, dict[int, float]] = {name: {} for name in positions(REFUTE_NS[0])}
    for n in REFUTE_NS:
        for name, pos in positions(n).items():
            refutes[name][n] = best_time(refute_detailed, neartight_parity(n, pos))
    dags = {"det": {}}
    for gates in DAG_GATES:
        dags["det"][gates] = best_time(normalize_circuit, parse_circuit(constant_fed_dag(gates)))
    report = {
        "method": f"tools/sweep.py: best of {BEST} in-process runs per point; "
        "refute_detailed of tests/gen.neartight_parity(n, pos), and normalize_circuit det of "
        "perfbench.families.layered_dag(random.Random(gates), 20, gates, 16, const_share=0.15), redrawn until "
        "15-20% of the gates are touched; exponent = least-squares slope "
        "of log seconds over log size within fit",
        "machine": f"{os.cpu_count()}-CPU {platform.system()}, CPython {platform.python_version()}",
        "refute_neartight": table("near-tight refute, seconds", "n", refutes, REFUTE_FIT),
        "constant_dag_det": table("det normalize of constant-fed DAGs, seconds", "gates", dags, DAG_FIT),
    }
    if args.json:
        args.json.write_text(json.dumps({"sweep": report}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
