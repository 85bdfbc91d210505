"""Paired, alternating benchmark runs of two revisions; writes BENCH_<pr>.json.

    python3 tools/paired_bench.py --parent HEAD~1 --change HEAD --pr N \\
        --claim normalize_constdag:latency_s.p90 --text "what changed"

Extracts both revisions with ``git archive`` into a temporary directory and
runs ``perfbench/run.py --workload W --seed 1 --seconds 20 --trace 0`` from
each copy, for every workload of the change's ``BENCHMARK.json``, with
``PYTHONDONTWRITEBYTECODE=1`` so that every run compiles the sources.
There are 10 pairs per workload, the fewest that a claimed gain is judged
on.  Each pair runs the parent and the change back to back, and pairs
alternate which side goes first; the pairs go round the workloads in turn,
so slow drift of the machine spreads over all of them.  The end-to-end
metrics, their units and which way is better are read from the change's
``BENCHMARK.json``; a ``--claim`` that names no workload or end-to-end
metric of it exits 2, naming the valid ones, before any run.

For each workload and metric the file holds the medians and quartiles over
the runs (``statistics.quantiles``, inclusive), the change/parent ratio of
the medians, how many pairs the change wins (ties count for neither),
whether the change's median is better than the parent's by more than the
parent's interquartile range, whether it is worse than the metric's bound,
whether the metric is unresolved, and every run, pair by pair.  A metric
is unresolved when the parent's own runs spread wider than the bound (its
interquartile range exceeds the bound times its median), unless every run
of the change is better than every run of the parent: a median inside the
bound then does not show that nothing moved.  It also lists the (workload,
metric) pairs worse than their bound and those unresolved, and whether the
claim is met (``claim_met``): the change wins at least 9 of the 10 pairs
and its median gap exceeds the parent's interquartile range.  ``--merge
FILE`` adds the top-level keys of a JSON file (measurements made some other
way) to the output, which is written at the root of the repository.  Pure
stdlib.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
CLAIM_WINS = 9  # of the PAIRS pairs, the fewest wins that meet a claim
SECONDS = 20
SEED = 1


def extract(rev: str, into: Path) -> str:
    """Write the tree of ``rev`` under ``into``; its full commit id."""
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT, capture_output=True, check=True).stdout
    into.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return sha


def run_once(tree: Path, workload: str) -> dict:
    """One benchmark run from a checkout: the JSON object its last stdout line holds."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED)]
    argv += ["--seconds", str(SECONDS), "--trace", "0"]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{tree.name} {workload}: exit {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def summarize(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    sign = 1 if better == "lower" else -1  # positive gain: the change is better
    p_q1, p_med, p_q3 = statistics.quantiles(parent, n=4, method="inclusive")
    c_q1, c_med, c_q3 = statistics.quantiles(change, n=4, method="inclusive")
    every_run_better = all(sign * (p - c) > 0 for p in parent for c in change)
    return {
        "parent_median": p_med,
        "change_median": c_med,
        "ratio": c_med / p_med,
        "parent_q1": p_q1,
        "parent_q3": p_q3,
        "parent_iqr": p_q3 - p_q1,
        "change_q1": c_q1,
        "change_q3": c_q3,
        "change_wins": sum(sign * (p - c) > 0 for p, c in zip(parent, change)),
        "median_gap_exceeds_parent_iqr": sign * (p_med - c_med) > p_q3 - p_q1,
        "worse_than_bound": sign * (c_med - p_med) > bound * p_med,
        "unresolved": p_q3 - p_q1 > bound * p_med and not every_run_better,
        "parent_runs": parent,
        "change_runs": change,
    }


def check_claim(claim: str, spec: dict) -> tuple[str, str]:
    """The workload and metric that ``WORKLOAD:METRIC`` names in a ``BENCHMARK.json`` spec.

    Raises ``ValueError`` naming the valid workloads and metrics if it names
    no workload of the spec or no end-to-end metric.
    """
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = [m["name"] for m in spec["end_to_end"]]
    workload, _, metric = claim.partition(":")
    if workload not in workloads or metric not in metrics:
        raise ValueError(
            f"--claim {claim!r} is not WORKLOAD:METRIC of BENCHMARK.json; "
            f"workloads: {', '.join(workloads)}; metrics: {', '.join(metrics)}"
        )
    return workload, metric


def summarize_workloads(runs: dict[str, dict[str, list[dict]]], metrics: dict[str, dict]) -> dict:
    """Each workload's counts and each end-to-end metric's ``summarize``, from its runs pair by pair."""
    out = {}
    for w, sides in runs.items():
        out[w] = {
            "seed": SEED,
            "pairs": len(sides["parent"]),
            "seconds": SECONDS,
            "attempted": {side: sum(r["attempted"] for r in rs) for side, rs in sides.items()},
            "failed": {side: sum(r["failed"] for r in rs) for side, rs in sides.items()},
            "correct": {side: all(r["correct"] for r in rs) for side, rs in sides.items()},
            "metrics": {
                name: {
                    "unit": m["unit"],
                    "better": m["better"],
                    **summarize(
                        [r["metrics"][name]["value"] for r in sides["parent"]],
                        [r["metrics"][name]["value"] for r in sides["change"]],
                        m["better"],
                        m["bound"],
                    ),
                }
                for name, m in metrics.items()
            },
        }
    return out


def claim_verdict(summary: dict, claim: Optional[tuple[str, str]]) -> dict:
    """The claim with ``claim_met``, and the (workload, metric) pairs worse than their bound, and unresolved.

    A claim is met when the change wins at least ``CLAIM_WINS`` of the
    pairs and its median is better than the parent's by more than the
    parent's interquartile range.
    """
    claimed = None
    if claim is not None:
        workload, metric = claim
        s = summary[workload]["metrics"][metric]
        met = s["change_wins"] >= CLAIM_WINS and s["median_gap_exceeds_parent_iqr"]
        claimed = {"workload": workload, "metric": metric, "claim_met": met}
    pairs = [(w, name, s) for w, out in summary.items() for name, s in out["metrics"].items()]
    return {
        "claimed": claimed,
        "worse_than_bound": [[w, name] for w, name, s in pairs if s["worse_than_bound"]],
        "unresolved": [[w, name] for w, name, s in pairs if s["unresolved"]],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--parent", required=True, help="the revision compared against")
    parser.add_argument("--change", required=True, help="the revision measured")
    parser.add_argument("--pr", required=True, help="names the output, BENCH_<pr>.json")
    parser.add_argument("--claim", help="WORKLOAD:METRIC of the claimed gain")
    parser.add_argument("--text", default="", help="one line on what the change does")
    parser.add_argument("--merge", type=Path, help="a JSON object whose top-level keys are added to the output")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="paired-bench-") as tmp:
        trees = {side: Path(tmp) / side for side in ("parent", "change")}
        shas = {side: extract(getattr(args, side), tree) for side, tree in trees.items()}
        spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        try:
            claim = None if args.claim is None else check_claim(args.claim, spec)
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 2
        metrics = {m["name"]: m for m in spec["end_to_end"]}
        workloads = [w["name"] for w in spec["workloads"]]
        runs: dict[str, dict[str, list[dict]]] = {w: {"parent": [], "change": []} for w in workloads}
        for k in range(PAIRS):
            for w in workloads:
                for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
                    runs[w][side].append(run_once(trees[side], w))
                    print(f"pair {k + 1}/{PAIRS} {w} {side} done", file=sys.stderr, flush=True)

    summary = summarize_workloads(runs, metrics)
    verdict = claim_verdict(summary, claim)
    report = {
        "change": args.text,
        "parent": shas["parent"][:7],
        "change_rev": shas["change"][:7],
        "machine": f"{os.cpu_count()}-CPU {platform.system()}, CPython {platform.python_version()}, "
        "PYTHONDONTWRITEBYTECODE=1 (every run compiles the sources)",
        "end_to_end": {
            "method": f"python3 perfbench/run.py --workload W --seed {SEED} --seconds {SECONDS} --trace 0, "
            "run from git-archive copies of the parent and the change by tools/paired_bench.py; "
            f"{PAIRS} pairs per workload, pairs alternate which side runs first and go round the workloads "
            "in turn; medians and quartiles over the runs (statistics.quantiles, inclusive); change_wins counts "
            "pairs where the change is better (ties count for neither); worse_than_bound compares the change's "
            "median with the parent's and the BENCHMARK.json bound; unresolved: the parent's IQR exceeds the "
            "bound times its median and not every change run is better than every parent run; "
            "parent_runs/change_runs list every run, pair by pair",
            "claimed": verdict["claimed"],
            "worse_than_bound": verdict["worse_than_bound"],
            "unresolved": verdict["unresolved"],
            "workloads": {f"{w}@seed{SEED}": out for w, out in summary.items()},
        },
    }
    if args.merge:
        report.update(json.loads(args.merge.read_text()))
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
