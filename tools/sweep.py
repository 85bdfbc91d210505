"""Size sweeps of the refuter, of normalize and of the certificate: best-of-3 times and the fitted exponents.

    python3 tools/sweep.py [--src DIR] [--json OUT.json]

Refutes near-tight parity (``tests/gen.neartight_parity(n, pos)``, two gates
below the parity bound) with ``refuter.refute_detailed`` for n in 40, 80,
160, 320 and 640 and pos n, n/2 and 2.  Then normalizes seeded
constant-fed layered DAGs of 200 to 3,200 binary gates, with ``det`` and
with ``rand`` (seeded with the gate count), where a step high in a deep DAG
has a large down-closure and the order of a graph with inversions comes
from walking it.  As in the normalize_constdag benchmark, each DAG
(``perfbench.families.layered_dag``: 20 inputs, layers 16 wide, 15%
constants) is redrawn until 15-20% of its gates read a constant once
constants are propagated, so that its steps grow with it.
Each time is the best of ``BEST`` (3) runs in this one process, circuits
built beforehand.  Prints one table per sweep and, per column, the
exponent: the least-squares slope of log time over log size, over n
160-640 for the refutes and over 800-3,200 gates for the DAGs.  The DAG
table also gives each DAG's step count under each strategy, from the
returned trace, since the time follows the steps more than the size.
Last, it times ``terms.certify_convergence(demorgan_system(), samples, 1)``
at 0, 1,000, 10,000 and 100,000 weight samples, with the exponent over
1,000-100,000: about 0 where the weight check is decided without draws,
about 1 where every sample is drawn.

``--src`` imports ``gatelim`` from another source tree (default: this
checkout's ``src``), so that two revisions can be swept alike.  ``--json``
writes the readings as one JSON object under the key ``sweep``, for
``tools/paired_bench.py --merge``.  Pure stdlib, apart from the test helpers.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import random
import sys
import time
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
REFUTE_NS = (40, 80, 160, 320, 640)
REFUTE_FIT = (160, 640)
DAG_GATES = (200, 400, 800, 1600, 3200)
DAG_FIT = (800, 3200)
DAG_TOUCHED = (0.15, 0.2)
CERTIFY_SAMPLES = (0, 1_000, 10_000, 100_000)
CERTIFY_FIT = (1_000, 100_000)
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


def table(
    title: str, size: str, columns: dict[str, dict[int, float]], fit: tuple[int, int], steps: Optional[dict] = None
) -> dict:
    """Print one sweep's times, step counts if given, and exponents; the same as a JSON-ready dict."""
    exponents = {name: round(exponent(times, *fit), 3) for name, times in columns.items()}
    steps = steps or {}
    print(title)
    heads = [f"{name:>9}" for name in columns] + [f"{name + ' steps':>11}" for name in steps]
    print(f"{size:>6} " + " ".join(heads))
    for s in next(iter(columns.values())):
        cells = [f"{times[s]:>8.4f}s" for times in columns.values()] + [f"{count[s]:>11}" for count in steps.values()]
        print(f"{s:>6} " + " ".join(cells))
    print(f"exponent over {fit[0]}-{fit[1]}: " + ", ".join(f"{k} {v:.2f}" for k, v in exponents.items()))
    out = {
        "seconds": {name: {str(s): round(t, 5) for s, t in times.items()} for name, times in columns.items()},
        "exponent": exponents,
        "fit": list(fit),
    }
    if steps:
        out["steps"] = {name: {str(s): n for s, n in count.items()} for name, count in steps.items()}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="the source tree gatelim is imported from")
    parser.add_argument("--json", type=Path, help="write the readings here, under the key 'sweep'")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(args.src), str(ROOT / "tests")]
    from gen import neartight_parity

    from gatelim.refuter import refute_detailed
    from gatelim.rewrite import normalize_circuit
    from gatelim.terms import certify_convergence, demorgan_system
    from gatelim.textio import parse_circuit

    refutes: dict[str, dict[int, float]] = {name: {} for name in positions(REFUTE_NS[0])}
    for n in REFUTE_NS:
        for name, pos in positions(n).items():
            refutes[name][n] = best_time(refute_detailed, neartight_parity(n, pos))
    dags: dict[str, dict[int, float]] = {"det": {}, "rand": {}}
    steps: dict[str, dict[int, int]] = {"det": {}, "rand": {}}
    for gates in DAG_GATES:
        dag = parse_circuit(constant_fed_dag(gates))
        for strategy, seed in (("det", None), ("rand", gates)):
            run = functools.partial(normalize_circuit, strategy=strategy, seed=seed)
            dags[strategy][gates] = best_time(run, dag)
            steps[strategy][gates] = len(run(dag)[1].steps)
    certify = functools.partial(certify_convergence, demorgan_system(), seed=1)
    certified = {"certify": {samples: best_time(certify, samples) for samples in CERTIFY_SAMPLES}}
    report = {
        "method": f"tools/sweep.py: best of {BEST} in-process runs per point; "
        "refute_detailed of tests/gen.neartight_parity(n, pos), and normalize_circuit det and rand (seed = gates) of "
        "perfbench.families.layered_dag(random.Random(gates), 20, gates, 16, const_share=0.15), redrawn until "
        "15-20% of the gates are touched; and certify_convergence(demorgan_system(), samples, 1); "
        "exponent = least-squares slope "
        "of log seconds over log size within fit",
        "machine": f"{os.cpu_count()}-CPU {platform.system()}, CPython {platform.python_version()}",
        "refute_neartight": table("near-tight refute, seconds", "n", refutes, REFUTE_FIT),
        "constant_dag": table("normalize of constant-fed DAGs, seconds", "gates", dags, DAG_FIT, steps),
        "certify": table("trs check certificate, seconds", "samples", certified, CERTIFY_FIT),
    }
    if args.json:
        args.json.write_text(json.dumps({"sweep": report}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
