"""The paired benchmark tool's summary, claim check and verdict, on synthetic runs (no benchmark is run)."""

import importlib.util
import json
import statistics
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "paired_bench.py"
_spec = importlib.util.spec_from_file_location("paired_bench", _PATH)
paired_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(paired_bench)

SPEC = {
    "workloads": [{"name": "fast"}, {"name": "slow"}],
    "end_to_end": [
        {"name": "latency_s.p90", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    ],
}
METRICS = {m["name"]: m for m in SPEC["end_to_end"]}
PARENT = [float(x) for x in range(10, 20)]  # quartiles 12.25, 14.5, 16.75: IQR 4.5


def test_summarize_a_lower_is_better_gain():
    change = [p - 5 for p in PARENT]
    s = paired_bench.summarize(PARENT, change, "lower", 0.25)
    assert (s["parent_q1"], s["parent_median"], s["parent_q3"]) == (12.25, 14.5, 16.75)
    assert s["parent_iqr"] == 4.5 and s["change_median"] == 9.5
    assert s["ratio"] == 9.5 / 14.5
    assert s["change_wins"] == 10
    assert s["median_gap_exceeds_parent_iqr"] and not s["worse_than_bound"]
    assert (s["parent_runs"], s["change_runs"]) == (PARENT, change)


def test_summarize_counts_ties_for_neither_side_and_flags_a_loss_beyond_the_bound():
    change = PARENT[:3] + [p / 2 for p in PARENT[3:]]  # three ties, then half the throughput
    s = paired_bench.summarize(PARENT, change, "higher", 0.25)
    assert s["change_wins"] == 0
    assert s["change_median"] == statistics.median(change)
    assert not s["median_gap_exceeds_parent_iqr"]
    assert s["worse_than_bound"]
    assert not paired_bench.summarize(PARENT, change, "lower", 0.25)["worse_than_bound"]


def test_a_claim_must_name_a_workload_and_an_end_to_end_metric():
    assert paired_bench.check_claim("slow:latency_s.p90", SPEC) == ("slow", "latency_s.p90")
    for claim in ("slwo:latency_s.p90", "slow:latency_s.p99", "slow", "latency_s.p90", "slow:"):
        with pytest.raises(ValueError) as info:
            paired_bench.check_claim(claim, SPEC)
        assert "workloads: fast, slow; metrics: latency_s.p90, ops_per_s" in str(info.value)


def test_a_bad_claim_exits_2_before_any_run(monkeypatch, capsys):
    def extract(rev, into):
        into.mkdir(parents=True)
        (into / "BENCHMARK.json").write_text(json.dumps(SPEC))
        return rev * 40

    def run_once(tree, workload):
        raise AssertionError("a run started")

    monkeypatch.setattr(paired_bench, "extract", extract)
    monkeypatch.setattr(paired_bench, "run_once", run_once)
    argv = ["--parent", "a", "--change", "b", "--pr", "0", "--claim", "slow:latency_s.p09"]
    assert paired_bench.main(argv) == 2
    assert "metrics: latency_s.p90, ops_per_s" in capsys.readouterr().err


def runs_of(latencies, rates):
    return [
        {"attempted": 100, "failed": 0, "correct": True, "metrics": {
            "latency_s.p90": {"value": lat}, "ops_per_s": {"value": rate}}}
        for lat, rate in zip(latencies, rates)
    ]  # fmt: skip


def summary_of(change_latency):
    runs = {
        "fast": {"parent": runs_of(PARENT, PARENT), "change": runs_of(change_latency, PARENT)},
        "slow": {"parent": runs_of(PARENT, PARENT), "change": runs_of(PARENT, [p * 0.7 for p in PARENT])},
    }
    return paired_bench.summarize_workloads(runs, METRICS)


def test_summarize_workloads_totals_each_side():
    out = summary_of([p - 5 for p in PARENT])["fast"]
    assert out["pairs"] == 10
    assert out["attempted"] == {"parent": 1000, "change": 1000}
    assert out["failed"] == {"parent": 0, "change": 0}
    assert out["correct"] == {"parent": True, "change": True}
    assert out["metrics"]["latency_s.p90"]["unit"] == "s" and out["metrics"]["latency_s.p90"]["change_wins"] == 10


@pytest.mark.parametrize(
    "change_latency, met",
    [
        ([p - 5 for p in PARENT], True),  # 10 wins, gap 5 > IQR 4.5
        ([p - 5 for p in PARENT[:9]] + [PARENT[9]], True),  # 9 wins
        ([p - 5 for p in PARENT[:8]] + PARENT[8:], False),  # 8 wins
        ([p - 1 for p in PARENT], False),  # 10 wins, gap 1 inside the IQR
    ],
)
def test_claim_met_needs_9_wins_and_a_gap_beyond_the_parent_iqr(change_latency, met):
    verdict = paired_bench.claim_verdict(summary_of(change_latency), ("fast", "latency_s.p90"))
    assert verdict["claimed"] == {"workload": "fast", "metric": "latency_s.p90", "claim_met": met}
    assert verdict["worse_than_bound"] == [["slow", "ops_per_s"]]


def test_no_claim_still_lists_what_is_worse_than_its_bound():
    verdict = paired_bench.claim_verdict(summary_of([p * 1.5 for p in PARENT]), None)
    assert verdict == {"claimed": None, "worse_than_bound": [["fast", "latency_s.p90"], ["slow", "ops_per_s"]]}
