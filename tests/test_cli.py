"""Command-line interface: commands, exit codes, trace files."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gatelim import cli, rewrite
from gatelim.circuits import isomorphic
from gatelim.cli import main
from gatelim.refuter import xor_circuit
from gatelim.textio import parse_circuit, serialize_circuit
from gatelim.u2 import demorgan_to_u2

from test_refuter import FAILS_INSTANCE

AND2 = "ckt 1\nbasis demorgan\ninputs 2\nn1 = AND x1 x2\noutput n1\n"


@pytest.fixture
def and2(tmp_path):
    path = tmp_path / "and2.ckt"
    path.write_text(AND2)
    return str(path)


def test_validate(and2, capsys):
    assert main(["validate", and2]) == 0
    assert "1 binary gates" in capsys.readouterr().out


def test_validate_reports_an_invalid_circuit_as_a_parse_error(tmp_path, capsys):
    # Parsing builds the circuit and building validates it, so an invalid
    # circuit never reaches the command: exit 1, nothing on stdout.
    path = tmp_path / "c.ckt"
    path.write_text("ckt 1\nbasis demorgan\ninputs 1\nn1 = NOT x1\nn2 = NOT x1\noutput n1\n")
    assert main(["validate", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "parse error: line 6: invalid circuit: edge 2 is unreachable from the root\n"


@pytest.mark.parametrize("count", ["\u00b2", "\u0663"], ids=["superscript-two", "arabic-indic-three"])
def test_inputs_count_must_be_ascii_digits(tmp_path, capsys, count):
    path = tmp_path / "c.ckt"
    path.write_text(f"ckt 1\nbasis demorgan\ninputs {count}\noutput x1\n", encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "parse error: line 3: expected 'inputs N'\n"


def test_eval(and2, capsys):
    assert main(["eval", and2, "--input", "11"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert main(["eval", and2, "--input", "10"]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_eval_bad_input_is_precondition_error(and2, capsys):
    assert main(["eval", and2, "--input", "101"]) == 2


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.ckt"
    path.write_text("ckt 1\nbasis demorgan\ninputs 1\noutput nope\n")
    assert main(["eval", str(path), "--input", "1"]) == 1
    assert "parse error" in capsys.readouterr().err


def test_usage_error_exit_code(capsys):
    assert main(["normalize", "x.ckt", "--strategy", "bogus"]) == 1
    assert main(["no-such-command"]) == 1


def test_missing_file(capsys):
    assert main(["eval", "/nonexistent.ckt", "--input", "1"]) == 1


@pytest.mark.parametrize("command", (["validate"], ["eval", "--input", "1"], ["translate", "--to", "u2"]))
def test_file_that_is_not_utf8_is_a_usage_error(tmp_path, capsys, command):
    path = tmp_path / "latin.ckt"
    path.write_bytes(b"ckt 1\nbasis demorgan\ninputs 1\n\xff\xfe = NOT x1\noutput n1\n")
    assert main([command[0], str(path), *command[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage error: cannot read {path}: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ("normalize", "refute"))
def test_trace_that_cannot_be_written_is_a_usage_error(and2, tmp_path, capsys, command):
    trace = tmp_path / "missing" / "t.jsonl"
    assert main([command, and2, "--trace", str(trace)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage error: cannot write {trace}: ") and captured.err.count("\n") == 1


def test_normalize_with_trace(tmp_path, capsys):
    src = tmp_path / "c.ckt"
    src.write_text(
        "ckt 1\nbasis demorgan\ninputs 1\nn1 = CONST1\nn2 = AND x1 n1\nn3 = CONST0\nn4 = OR n2 n3\noutput n4\n"
    )
    trace = tmp_path / "trace.jsonl"
    assert main(["normalize", str(src), "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    assert out == "ckt 1\nbasis demorgan\ninputs 1\noutput x1\n"
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    assert [r["rule"] for r in records] == ["pass_and_right", "zero_elim", "pass_or_right"]
    assert all(
        set(r) == {"step", "rule", "site", "removed_edges", "added_edges", "size_after"}
        for r in records
    )


# Two equal negations (merged on entry), then a passing, a de-duplication, a
# zero elimination and a tautology step, with constants spliced in between.
CONST_FED = """\
ckt 1
basis demorgan
inputs 2
n1 = NOT x1
n2 = NOT x1
n3 = CONST1
n4 = AND n1 n3
n5 = OR n4 n2
n6 = CONST0
n7 = OR x2 n6
n8 = NOT x2
n9 = AND n7 n8
n10 = OR n5 n9
output n10
"""


def _trace_records(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def test_normalize_trace_is_pinned(tmp_path, capsys):
    # Pins rule order and the numbering of spliced vertices and edges.
    src = tmp_path / "c.ckt"
    src.write_text(CONST_FED)
    trace = tmp_path / "trace.jsonl"
    assert main(["normalize", str(src), "--trace", str(trace)]) == 0
    assert capsys.readouterr().out == "ckt 1\nbasis demorgan\ninputs 2\nn1 = NOT x1\noutput n1\n"
    assert _trace_records(trace) == [
        {"step": 0, "rule": "sharing", "site": None, "removed_edges": [2], "added_edges": [], "size_after": 5},
        {"step": 1, "rule": "pass_and_right", "site": 4, "removed_edges": [4, 3], "added_edges": [], "size_after": 4},
        {"step": 2, "rule": "or_dedup", "site": 5, "removed_edges": [5], "added_edges": [], "size_after": 3},
        {"step": 3, "rule": "zero_elim", "site": 6, "removed_edges": [6], "added_edges": [12, 13], "size_after": 3},
        {"step": 4, "rule": "pass_or_right", "site": 8, "removed_edges": [8, 12, 13], "added_edges": [], "size_after": 2},
        {"step": 5, "rule": "taut_and_right", "site": 10, "removed_edges": [10, 7, 9], "added_edges": [12, 13], "size_after": 1},
        {"step": 6, "rule": "pass_or_right", "site": 11, "removed_edges": [11, 12, 13], "added_edges": [], "size_after": 0},
    ]


def test_refute_trace_is_pinned(tmp_path, capsys):
    src = tmp_path / "c.ckt"
    src.write_text(FAILS_INSTANCE)
    trace = tmp_path / "t.jsonl"
    assert main(["refute", str(src), "--trace", str(trace)]) == 0
    assert capsys.readouterr().out == "0010\n"
    assert _trace_records(trace) == [
        {"iteration": 0, "h": 3, "f": 8, "f_prime": 9, "var": 1, "bit": 0, "size_before": 6, "size_after": 3},
        {"iteration": 1, "h": 6, "f": 10, "f_prime": 11, "var": 3, "bit": 1, "size_before": 3, "size_after": 0},
        {"outcome": "fails", "restriction": {"1": 0, "3": 1}, "var": None, "sibling": None},
    ]


def test_normalize_seeded_random_is_reproducible(tmp_path, capsys):
    src = tmp_path / "x.ckt"
    src.write_text(serialize_circuit(xor_circuit(4)))
    assert main(["normalize", str(src), "--strategy", "rand", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["normalize", str(src), "--strategy", "rand", "--seed", "7"]) == 0
    assert capsys.readouterr().out == first


def test_refute(tmp_path, capsys):
    src = tmp_path / "c.ckt"
    src.write_text(AND2)
    assert main(["refute", str(src)]) == 0
    bits = capsys.readouterr().out.strip()
    assert bits in ("01", "10")


def test_refute_with_trace(tmp_path, capsys):
    src = tmp_path / "c.ckt"
    chain = "ckt 1\nbasis demorgan\ninputs 4\nn1 = AND x1 x2\nn2 = AND n1 x3\noutput n2\n"
    src.write_text(chain)
    trace = tmp_path / "t.jsonl"
    assert main(["refute", str(src), "--trace", str(trace)]) == 0
    assert capsys.readouterr().out.strip() == "0001"
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    assert records[-1]["outcome"] == "degen"


def test_refute_not_undersized_is_precondition_error(tmp_path, capsys):
    src = tmp_path / "x4.ckt"
    src.write_text(serialize_circuit(xor_circuit(4)))
    assert main(["refute", str(src)]) == 2
    assert "3(n-1)" in capsys.readouterr().err


def test_translate_round_trip(tmp_path, capsys):
    src = tmp_path / "x3.ckt"
    src.write_text(serialize_circuit(xor_circuit(3)))
    assert main(["translate", str(src), "--to", "u2"]) == 0
    u2_text = capsys.readouterr().out
    assert "U2_" in u2_text and "NOT" not in u2_text
    mid = tmp_path / "x3u.ckt"
    mid.write_text(u2_text)
    assert main(["translate", str(mid), "--to", "demorgan"]) == 0
    back = capsys.readouterr().out
    assert "basis demorgan" in back


def test_translate_rejects_literal_circuit(tmp_path, capsys):
    src = tmp_path / "lit.ckt"
    src.write_text("ckt 1\nbasis demorgan\ninputs 1\nn1 = NOT x1\noutput n1\n")
    assert main(["translate", str(src), "--to", "u2"]) == 2


def test_trs_check(capsys):
    assert main(["trs", "check"]) == 0
    out = capsys.readouterr().out
    assert "critical pairs: 61" in out
    assert "convergent" in out


def test_trs_check_rejects_negative_samples(capsys):
    assert main(["trs", "check", "--samples", "-5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error:") and captured.err.count("\n") == 1
    assert main(["trs", "check", "--samples", "0"]) == 0


def test_schnorr_check(capsys):
    assert main(["schnorr-check"]) == 0
    out = capsys.readouterr().out
    assert "True" in out and "False" not in out


def test_demo_nonconfluence(capsys):
    assert main(["demo-nonconfluence"]) == 0
    out = capsys.readouterr().out
    assert "truth tables equal: True" in out
    assert "isomorphic: False" in out
    # deterministic output
    assert main(["demo-nonconfluence"]) == 0
    assert capsys.readouterr().out == out


def alternating_chain(depth):
    """An already-normal and/or chain, one gate per level, over x1 and x2."""
    lines = ["ckt 1", "basis demorgan", "inputs 2"]
    acc = "x1"
    for k in range(1, depth + 1):
        lines.append(f"n{k} = {'AND' if k % 2 else 'OR'} {acc} x{1 + k % 2}")
        acc = f"n{k}"
    return "\n".join(lines + [f"output {acc}"]) + "\n"


def test_deep_chain_normalizes_and_translates(tmp_path, capsys):
    text = alternating_chain(5000)
    src = tmp_path / "deep.ckt"
    src.write_text(text)
    assert main(["normalize", str(src)]) == 0
    assert isomorphic(parse_circuit(capsys.readouterr().out), parse_circuit(text))
    assert main(["translate", str(src), "--to", "u2"]) == 0
    assert isomorphic(parse_circuit(capsys.readouterr().out), demorgan_to_u2(parse_circuit(text)))


def test_exhausted_interpreter_is_an_internal_error(and2, capsys, monkeypatch):
    for exc in (RecursionError("maximum recursion depth exceeded"), MemoryError()):

        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(rewrite, "normalize_circuit", fail)
        assert main(["normalize", and2]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"internal error: {type(exc).__name__}") and err.count("\n") == 1


def test_consecutive_calls_share_no_state(tmp_path, capsys, monkeypatch):
    # The parser is built once per process; each call must still parse afresh.
    src = tmp_path / "x.ckt"
    src.write_text(serialize_circuit(xor_circuit(4)))
    calls = []
    real_normalize = rewrite.normalize_circuit

    def recording_normalize(c, strategy, seed):
        calls.append((strategy, seed))
        return real_normalize(c, strategy=strategy, seed=seed)

    monkeypatch.setattr(rewrite, "normalize_circuit", recording_normalize)
    assert main(["normalize", str(src), "--strategy", "rand", "--seed", "3"]) == 0
    assert main(["normalize", str(src)]) == 0
    assert calls == [("rand", 3), ("det", 0)]
    capsys.readouterr()

    assert main(["normalize", str(src), "--strategy", "bogus"]) == 1
    assert "usage error" in capsys.readouterr().err
    assert main(["normalize", str(src)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == serialize_circuit(real_normalize(xor_circuit(4))[0])
    assert calls[-1] == ("det", 0)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize("command", [["normalize"], ["translate", "--to", "u2"]])
def test_stdout_that_cannot_be_written_is_a_usage_error(tmp_path, command):
    # One line on stderr and exit 1, as for a trace file; no traceback, and nothing more at interpreter exit.
    src = tmp_path / "x.ckt"
    src.write_text(serialize_circuit(xor_circuit(4)))
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent))
    with open("/dev/full", "w") as full:
        run = subprocess.run(
            [sys.executable, "-m", "gatelim.cli", command[0], str(src), *command[1:]],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=60,
        )
    assert run.returncode == 1
    assert run.stderr.startswith("usage error: cannot write stdout:") and run.stderr.count("\n") == 1, run.stderr
