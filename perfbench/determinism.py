"""Checks that the traced counts repeat exactly from run to run.

    python3 perfbench/determinism.py --seed 1

Runs ``run.py --trace 1`` twice per workload on the same seed, each in a
fresh interpreter, and compares every count of the traced pass (steps, scans,
``match_at`` calls, rounds, outcomes, ...) and the sha256 of all its stdout.
Counts are evidence for a later change only when they repeat exactly.
Exits 1 if anything differs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"
DIGEST = "traced pass stdout sha256 "


def traced_counts(workload: str, seed: int) -> dict:
    # --seconds 1: the untraced loop stops at its minimum of ops; only the traced pass matters here
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    done = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=600)
    lines = done.stdout.splitlines()
    metrics = json.loads(lines[-1])["metrics"]
    counts = {name: m["value"] for name, m in metrics.items() if m["unit"] == "count"}
    counts["rewrite.match_at.hit_ratio"] = metrics["rewrite.match_at.hit_ratio"]["value"]
    counts["stdout_sha256"] = next(line[len(DIGEST) :] for line in lines if line.startswith(DIGEST))
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    ok = True
    for workload in WORKLOADS:
        first = traced_counts(workload, args.seed)
        second = traced_counts(workload, args.seed)
        differ = sorted(k for k in first if first[k] != second.get(k))
        ok = ok and not differ
        steps = first["rewrite.apply_rewrite.calls"]
        print(
            f"{workload:<20} {len(first)} counts, {'all equal' if not differ else 'DIFFER: ' + ', '.join(differ)}; "
            f"steps {steps}, scans {first['rewrite.find_redexes.calls']}, "
            f"match_at {first['rewrite.match_at.calls']}, rounds {first['refuter.rounds']}, "
            f"stdout {first['stdout_sha256'][:16]}"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
