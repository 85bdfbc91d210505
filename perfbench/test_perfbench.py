"""Tests of the benchmark itself: families, oracle, tracer and the metric lists.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import random
import sys

import pytest

import run

sys.path.insert(0, str(run.SRC))

import families  # noqa: E402
import oracle  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from gatelim import cli  # noqa: E402
from gatelim.circuits import circuit_size, evaluate  # noqa: E402
from gatelim.refuter import refute_detailed  # noqa: E402
from gatelim.rewrite import normalize_circuit  # noqa: E402
from gatelim.textio import parse_circuit, serialize_circuit  # noqa: E402


def corpus(name: str, work, seed: int = 7) -> workloads.Corpus:
    work.mkdir(parents=True, exist_ok=True)
    return workloads.WORKLOADS[name](random.Random(f"{name}:{seed}"), work)


def rewrite_steps(path: str) -> int:
    _, trace = normalize_circuit(parse_circuit(open(path).read()))
    return sum(1 for step in trace.steps if step.rule != "sharing")


@pytest.mark.parametrize("n,pos", [(12, 8), (20, 20), (32, 18), (32, 32)])
def test_neartight_keeps_its_size_and_runs_at_least_n_over_2_rounds(n, pos):
    c = parse_circuit(families.neartight(random.Random(n * pos), n, pos))
    assert circuit_size(c) == 3 * (n - 1) - 2
    cex, outcome = refute_detailed(c)
    assert len(outcome.iterations) == pos - 2 >= n / 2
    assert outcome.tag == ("fails" if pos == n else "degen")


@pytest.mark.parametrize("gates,width,share", [(90, 16, 0.15), (200, 16, 0.15), (200, 32, 0.0), (550, 32, 0.0)])
def test_layered_dag_does_not_collapse_when_pruned(gates, width, share):
    text, _ = families.layered_dag(random.Random(gates), 20, gates, width, const_share=share)
    c = parse_circuit(text)
    assert circuit_size(c) == gates
    # serialization walks only what the output reaches
    assert circuit_size(parse_circuit(serialize_circuit(c))) == gates


def test_constdag_ops_fire_rewrite_steps(tmp_path):
    for op in corpus("normalize_constdag", tmp_path).ops:
        assert rewrite_steps(op.argv[1]) >= 1


def test_normaldag_ops_fire_no_rewrite_steps(tmp_path):
    c = corpus("translate_normaldag", tmp_path)
    normalize_ops = [op for op in c.ops if op.argv[0] == "normalize"]
    assert len(normalize_ops) == len(workloads.NORMALDAG_GATES)
    for op in normalize_ops:
        _, trace = normalize_circuit(parse_circuit(open(op.argv[1]).read()))
        assert trace.steps == ()


def test_oracle_evaluator_matches_the_documented_u2_ops():
    for k in range(1, 15):
        text = f"ckt 1\nbasis u2\ninputs 2\nn1 = U2_{k} x1 x2\noutput n1\n"
        rows = oracle.evaluate(oracle.parse(text), [0b1100, 0b1010], 4)
        c = parse_circuit(text)
        assert [(rows >> r) & 1 for r in (3, 2, 1, 0)] == [evaluate(c, bits) for bits in ((1, 1), (1, 0), (0, 1), (0, 0))]


def test_oracle_flags_every_kind_of_redex():
    head = "ckt 1\nbasis demorgan\ninputs 2\n"
    bad = {
        "n1 = NOT x1\nn2 = NOT n1\nn3 = AND n2 x2\noutput n3\n": "NOT over NOT",
        "n1 = AND x1 x1\noutput n1\n": "equal arguments",
        "n1 = NOT x1\nn2 = OR x1 n1\noutput n2\n": "complementary",
        "n1 = AND x1 x2\nn2 = AND x1 x2\nn3 = OR n1 n2\noutput n3\n": "parallel duplicate",
        "n1 = CONST1\nn2 = AND x1 n1\noutput n2\n": "constant",
        "n1 = CONST0\noutput n1\n": "constant",
    }
    for body, what in bad.items():
        assert any(what in v for v in oracle.normal_form_violations(oracle.parse(head + body))), body
    for body in ("n1 = CONST1\nn2 = NOT n1\noutput n2\n", "n1 = NOT x1\nn2 = AND n1 x2\noutput n2\n"):
        assert oracle.normal_form_violations(oracle.parse(head + body)) == []


def test_oracle_rejects_wrong_outputs(tmp_path):
    refute_op = corpus("refute_neartight", tmp_path / "refute").ops[0]
    with pytest.raises(oracle.OracleError):
        refute_op.check("0" * refute_op.n)  # a near-tight circuit computes parity on all-zeros
    normalize_op = corpus("translate_normaldag", tmp_path / "translate").ops[0]
    source = open(normalize_op.argv[1]).read()
    normalize_op.check(source)  # the DAG is normal already, so its own text passes
    # Flip one AND to OR at a time.  Deep in the DAG a flip is often masked
    # before it reaches the output, so only most flips must be caught.
    lines = source.splitlines()
    caught = flips = 0
    for k, line in enumerate(lines):
        if " AND " in line:
            flips += 1
            try:
                normalize_op.check("\n".join(lines[:k] + [line.replace(" AND ", " OR ")] + lines[k + 1 :]) + "\n")
            except oracle.OracleError:
                caught += 1
    assert caught >= 0.8 * flips
    with pytest.raises(oracle.OracleError):
        oracle.check_certificate("rules: 16\ncritical pairs: 60\n", 50)


def traced_pass(name: str, tmp_path, ops: int):
    c = corpus(name, tmp_path)
    c.ops = sorted(c.ops, key=lambda op: op.gates)[:ops] if name != "translate_normaldag" else c.ops[:ops]
    runner = run.Runner(c)
    t = tracer.Tracer()
    t.install()
    try:
        _, digest = runner.one_pass(t.wrap(tracer.OP, lambda argv: cli.main(argv)))
    finally:
        t.uninstall()
    calls = {name: row["calls"] for name, row in t.summary().items()}
    return calls, dict(t.counts), digest, runner.failures


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(name, tmp_path):
    first = traced_pass(name, tmp_path / "a", 3)
    second = traced_pass(name, tmp_path / "b", 3)
    assert first == second
    calls, counts, _, failures = first
    assert failures == []
    assert calls[tracer.OP] == 3 and calls["cli.main"] == 3


def test_tracer_uninstall_restores_the_program():
    before = (cli.main, cli.textio.parse_circuit, cli.Circuit.__init__)
    t = tracer.Tracer()
    t.install()
    assert cli.main is not before[0]
    t.uninstall()
    assert (cli.main, cli.textio.parse_circuit, cli.Circuit.__init__) == before


def test_benchmark_json_names_the_metrics_run_py_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
