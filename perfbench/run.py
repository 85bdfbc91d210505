"""Benchmark for gatelim: one workload, one seed, one run.

    python3 perfbench/run.py --workload refute_neartight --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` next to this directory.  The run writes its seeded corpus to a
scratch directory under ``perfbench/.work``, then:

1. runs the workload as a closed loop with one client and one thread.  Each
   op calls ``gatelim.cli.main(argv)`` in-process with stdout captured.  Ops
   run in whole passes over the corpus until ``--seconds`` have passed and
   at least MIN_OPS ops are done.  Every op is checked by ``oracle.py``, and
   its output must repeat exactly on every pass;
2. measures set-up between ops: the median over fresh interpreters of the
   wall time to import ``gatelim.cli`` and finish one tiny op of the workload;
3. with ``--trace 1``, runs one more pass with every layer's public functions
   wrapped in spans (``tracer.py``), prints the per-layer attribution table
   and writes the spans to ``perfbench/out``.

The last line of stdout is one JSON object with keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import math
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import tracer as tracing
from workloads import WORKLOADS, Corpus

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

MIN_OPS = 100  # so that ten samples lie beyond p90
SETUP_REPS = 11  # fewest set-up samples in a run
SETUP_EVERY_S = 2.0
HARD_STOP_S = 120.0  # stop mid-pass rather than overrun the time limit of a run

END_TO_END = {
    "setup_s": "s",
    "latency_s.p50": "s",
    "latency_s.p90": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.self_s": "s",
    "textio.parse_circuit.calls": "count",
    "textio.parse_circuit.time_s": "s",
    "textio.parse.lines_per_s": "1/s",
    "textio.serialize_circuit.calls": "count",
    "textio.serialize_circuit.time_s": "s",
    "circuits.Circuit.constructed": "count",
    "circuits.topo_order.calls": "count",
    "circuits.topo_order.time_s": "s",
    "circuits.reachable_edges.calls": "count",
    "circuits.reachable_edges.time_s": "s",
    "circuits.validate.time_s": "s",
    "circuits.evaluate.calls": "count",
    "circuits.evaluate.time_s": "s",
    "rewrite.normalize_circuit.calls": "count",
    "rewrite.normalize_circuit.time_s": "s",
    "rewrite.find_redexes.calls": "count",
    "rewrite.find_redexes.time_s": "s",
    "rewrite.match_at.calls": "count",
    "rewrite.match_at.hit_ratio": "ratio",
    "rewrite.apply_rewrite.calls": "count",
    "rewrite.apply_rewrite.time_s": "s",
    "rewrite.merge_parallel_edges.calls": "count",
    "rewrite.merge_parallel_edges.time_s": "s",
    "rewrite.merge_parallel_edges.merged_edges": "count",
    "rewrite.scan_s_per_step": "s",
    "rewrite.steps_per_normalize": "count",
    "refuter.search_bad_restriction.time_s": "s",
    "refuter.self_s": "s",
    "refuter.rounds": "count",
    "refuter.outcome.degen": "count",
    "refuter.outcome.const": "count",
    "refuter.outcome.fails": "count",
    "refuter.extract_counterexample.time_s": "s",
    "refuter.latency_exponent": "1",
    "u2.demorgan_to_u2.time_s": "s",
    "u2.u2_to_demorgan.time_s": "s",
    "u2.push_up.calls": "count",
    "u2.push_down.calls": "count",
    "terms.certify_convergence.time_s": "s",
    "terms.critical_pairs.time_s": "s",
    "terms.joinable.calls": "count",
    "terms.joinable.time_s": "s",
    "terms.normalize_term.calls": "count",
    "terms.normalize_term.time_s": "s",
    **{f"{layer}.self_share": "ratio" for layer in tracing.LAYERS},
    "gates_per_s": "1/s",
    "trace.ops": "count",
    "trace.op_time_s": "s",
    "trace.overhead_s": "s",
}

# Child process for the set-up measurement: argv[1] is the source directory,
# the rest is the warm-up op.
SETUP_CHILD = """\
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
import gatelim.cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = gatelim.cli.main(sys.argv[2:])
print("ready" if rc == 0 else f"exit {rc}", flush=True)
"""


class BenchError(Exception):
    pass


class SetupSampler:
    """Set-up time samples, each from a fresh interpreter running one tiny op.

    Samples are taken between ops, about one per SETUP_EVERY_S of the run, so
    their median spans the same stretch of machine time as the op latencies.
    """

    def __init__(self, warmup: list[str]):
        self.warmup = warmup
        self.times: list[float] = []
        self._due = 0.0

    def sample(self) -> None:
        """Wall time from spawning an interpreter to the end of its first op."""
        start = perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), *self.warmup],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        ) as child:
            line = child.stdout.readline().strip()
            elapsed = perf_counter() - start
            child.stdout.read()
        if line != "ready" or child.returncode != 0:
            raise BenchError(f"set-up child failed: {line!r}, exit {child.returncode}")
        self.times.append(elapsed)
        self._due = perf_counter() + SETUP_EVERY_S

    def sample_if_due(self) -> None:
        if perf_counter() >= self._due:
            self.sample()

    def median(self) -> float:
        while len(self.times) < SETUP_REPS:
            self.sample()
        return statistics.median(self.times)


class Runner:
    """Runs and checks the ops of one corpus, remembering each op's first output."""

    def __init__(self, corpus: Corpus):
        self.ops = corpus.ops
        self.first_output: dict[int, str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def run_op(self, i: int, main) -> tuple[float, str]:
        op = self.ops[i]
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            start = perf_counter()
            try:
                status = main(op.argv)
            except Exception as exc:  # a crash is a failed op, not a failed run
                status = f"{type(exc).__name__}: {exc}"
            elapsed = perf_counter() - start
        stdout = out.getvalue()
        self.attempted += 1
        problem = self._problem(i, status, stdout, err.getvalue())
        if problem is not None:
            self.failures.append(f"{' '.join(op.argv)}: {problem}")
        if op.writes is not None:
            op.writes.write_text(stdout)
        return elapsed, stdout

    def _problem(self, i: int, status, stdout: str, stderr: str):
        if status != 0:
            return f"exit {status} {stderr.strip()[:200]}"
        first = self.first_output.setdefault(i, stdout)
        if stdout != first:
            return "output differs from the first pass"
        try:
            self.ops[i].check(stdout)
        except Exception as exc:  # any oracle failure, including unparsable output
            return f"{type(exc).__name__}: {exc}"
        return None

    def loop(self, seconds: float, main, between_ops) -> list[tuple[int, float]]:
        """(op index, latency) of every op, in whole passes until both limits are met.

        ``between_ops()`` runs before each op, outside its timing.
        """
        done: list[tuple[int, float]] = []
        start = perf_counter()
        while True:
            for i in range(len(self.ops)):
                between_ops()
                done.append((i, self.run_op(i, main)[0]))
                if perf_counter() - start > HARD_STOP_S:
                    return done
            if perf_counter() - start >= seconds and len(done) >= MIN_OPS:
                return done

    def one_pass(self, main) -> tuple[list[tuple[int, float]], str]:
        """One pass over the corpus; also the sha256 of all its stdout."""
        digest = hashlib.sha256()
        done = []
        for i in range(len(self.ops)):
            elapsed, stdout = self.run_op(i, main)
            done.append((i, elapsed))
            digest.update(stdout.encode())
        return done, digest.hexdigest()


def latency_exponent(ops, done: list[tuple[int, float]]) -> float:
    """Least-squares slope of log latency against log n over the refute ops."""
    by_op: dict[int, list[float]] = {}
    for i, elapsed in done:
        if ops[i].argv[0] == "refute":
            by_op.setdefault(i, []).append(elapsed)
    log_n = [math.log(ops[i].n) for i in by_op]
    if len(set(log_n)) < 2:
        return 0.0
    log_latency = [math.log(statistics.median(ts)) for ts in by_op.values()]
    return statistics.linear_regression(log_n, log_latency).slope


def gates_per_s(ops, done: list[tuple[int, float]]) -> float:
    """Input binary gates processed per second of op time."""
    return sum(ops[i].gates for i, _ in done) / sum(elapsed for _, elapsed in done)


def end_to_end(setup_s: float, done: list[tuple[int, float]]) -> dict[str, float]:
    lat = [elapsed for _, elapsed in done]
    return {
        "setup_s": setup_s,
        "latency_s.p50": statistics.median(lat),
        "latency_s.p90": statistics.quantiles(lat, n=10)[8],
        "ops_per_s": len(lat) / sum(lat),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(t: tracing.Tracer, ops, untraced, traced) -> dict[str, float]:
    summary, counts = t.summary(), t.counts

    def calls(name: str) -> int:
        return summary.get(name, {}).get("calls", 0)

    def time_s(name: str) -> float:
        return summary.get(name, {}).get("time_s", 0.0)

    def self_s(name: str) -> float:
        return summary.get(name, {}).get("self_s", 0.0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m: dict[str, float] = {}
    for key in PER_LAYER:
        name, _, kind = key.rpartition(".")
        if kind == "calls":
            m[key] = calls(name)
        elif kind == "time_s":
            m[key] = time_s(name)
    op_time = time_s(tracing.OP)
    steps = calls("rewrite.apply_rewrite")
    m.update(
        {
            "cli.self_s": self_s("cli.main"),
            "textio.parse.lines_per_s": ratio(counts["textio.parse.lines"], time_s("textio.parse_circuit")),
            "circuits.Circuit.constructed": calls("circuits.Circuit"),
            "rewrite.match_at.calls": counts["rewrite.match_at.calls"],
            # apply_rewrite re-matches its redex once per step; count only the scans' attempts
            "rewrite.match_at.hit_ratio": ratio(
                counts["rewrite.match_at.hits"] - steps, counts["rewrite.match_at.calls"] - steps
            ),
            "rewrite.merge_parallel_edges.merged_edges": counts["rewrite.merge_parallel_edges.merged_edges"],
            "rewrite.scan_s_per_step": ratio(time_s("rewrite.find_redexes"), steps),
            "rewrite.steps_per_normalize": ratio(steps, calls("rewrite.normalize_circuit")),
            "refuter.self_s": self_s("refuter.search_bad_restriction"),
            "refuter.rounds": counts["refuter.rounds"],
            "refuter.latency_exponent": latency_exponent(ops, untraced),
            "gates_per_s": gates_per_s(ops, untraced),
            "trace.ops": calls(tracing.OP),
            "trace.op_time_s": op_time,
            "trace.overhead_s": statistics.median(e for _, e in traced) - statistics.median(e for _, e in untraced),
        }
    )
    for tag in ("degen", "const", "fails"):
        m[f"refuter.outcome.{tag}"] = counts[f"refuter.outcome.{tag}"]
    for layer, share in layer_shares(summary, op_time).items():
        m[f"{layer}.self_share"] = share
    return {key: m[key] for key in PER_LAYER}


def layer_shares(summary: dict, op_time: float) -> dict[str, float]:
    """Each layer's self time as a share of traced op time."""
    shares = dict.fromkeys(tracing.LAYERS, 0.0)
    for name, row in summary.items():
        layer = name.split(".", 1)[0]
        if layer in shares:
            shares[layer] += row["self_s"] / op_time
    return shares


def attribution_table(workload: str, seed: int, summary: dict) -> list[str]:
    op = summary[tracing.OP]
    base = op["time_s"]
    lines = [
        f"layer attribution, {workload} seed {seed}: base {op['calls']} ops, {base:.4f} s traced op time",
        f"  {'layer':<10} {'self_s':>10} {'share':>7}",
    ]
    for layer, share in layer_shares(summary, base).items():
        lines.append(f"  {layer:<10} {share * base:>10.4f} {share:>7.1%}")
    lines.append(f"  {'(bench)':<10} {op['self_s']:>10.4f} {op['self_s'] / base:>7.1%}")
    lines.append(f"  {'span':<36} {'calls':>8} {'incl_s':>10} {'self_s':>10} {'self share':>10}")
    for name, row in sorted(summary.items(), key=lambda kv: -kv[1]["self_s"]):
        if name != tracing.OP:
            lines.append(
                f"  {name:<36} {row['calls']:>8} {row['time_s']:>10.4f} {row['self_s']:>10.4f}"
                f" {row['self_s'] / base:>10.1%}"
            )
    return lines


def run(args: argparse.Namespace, work: Path) -> dict:
    import gatelim.cli

    def main(argv):
        return gatelim.cli.main(argv)

    corpus = WORKLOADS[args.workload](random.Random(f"{args.workload}:{args.seed}"), work)
    gc.collect()
    gc.freeze()  # the corpus and benchmark objects are not the program's garbage
    runner = Runner(corpus)
    setup = SetupSampler(corpus.warmup)
    untraced = runner.loop(args.seconds, main, setup.sample_if_due)
    e2e = end_to_end(setup.median(), untraced)
    fail_ratio = len(runner.failures) / runner.attempted
    print(
        f"{args.workload} seed {args.seed}: {len(untraced)} ops over a corpus of {len(corpus.ops)}; "
        + ", ".join(f"{k}={v:.6g} {END_TO_END[k]}" for k, v in e2e.items())
        + f", gates_per_s={gates_per_s(corpus.ops, untraced):.6g} 1/s, fail_ratio={fail_ratio:.6g} ratio"
    )
    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
    if args.trace:
        t = tracing.Tracer()
        t.install()
        try:
            traced, digest = runner.one_pass(t.wrap(tracing.OP, main))
        finally:
            t.uninstall()
        out = BENCH / "out"
        out.mkdir(exist_ok=True)
        t.write(out / f"spans-{args.workload}-seed{args.seed}.jsonl")
        print("\n".join(attribution_table(args.workload, args.seed, t.summary())))
        print(f"traced pass stdout sha256 {digest}")
        layers = per_layer(t, corpus.ops, untraced, traced)
        metrics = {k: {"value": v, "unit": PER_LAYER[k]} for k, v in layers.items()}
    for failure in runner.failures[:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    failed = len(runner.failures)
    return {"correct": failed == 0, "attempted": runner.attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gatelim" / "cli.py").is_file():
        print(f"error: no gatelim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gatelim

    if Path(gatelim.__file__).resolve().parent != SRC / "gatelim":
        print(f"error: gatelim imported from {gatelim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    (BENCH / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH / ".work"))
    try:
        result = run(args, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
