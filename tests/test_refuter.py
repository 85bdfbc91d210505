"""The parity refuter: fixers, the restriction search, and extraction."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from gen import assignments, neartight_parity, random_circuit, truth_table, undersized_circuit, xor_table

from gatelim.circuits import Circuit, CircuitBuilder, circuit_size, evaluate
import gatelim
from gatelim import refuter
from gatelim.refuter import (
    Counterexample,
    InternalError,
    RefuterError,
    Restriction,
    extract_counterexample,
    fanout_costly,
    fixer,
    flip,
    parity,
    refute,
    refute_detailed,
    schnorr_exhaustive_check,
    search_bad_restriction,
    xor_circuit,
)
from gatelim.rewrite import RewriteTrace, normalize_circuit, substitute_input
from gatelim.textio import parse_circuit, serialize_circuit

# A pinned instance whose restriction search runs two full elimination rounds
# and exits with two live variables (found by seed scan over the generator).
FAILS_INSTANCE = """
ckt 1
basis demorgan
inputs 4
n1 = NOT x3
n2 = OR x1 n1
n3 = NOT x2
n4 = AND n2 n3
n5 = AND x4 x1
n6 = OR x3 n5
n7 = OR n4 n6
n8 = AND n7 x4
output n8
"""


def test_parity_is_maximally_sensitive():
    for n in range(1, 6):
        for bits in assignments(n):
            for i in range(1, n + 1):
                assert parity(bits) != parity(flip(bits, i))


def test_fanout_examples():
    x2 = xor_circuit(2)
    assert fanout_costly(x2, 1) == 2
    b = CircuitBuilder(2)
    c = b.build(b.and_(b.input(1), b.input(2)))
    assert fanout_costly(c, 1) == 1
    b = CircuitBuilder(1)
    c = b.build(b.not_(b.input(1)))
    assert fanout_costly(c, 1) == 0


def test_fixer_examples():
    b = CircuitBuilder(2)
    c = b.build(b.and_(b.input(1), b.input(2)))
    gate = c.producer[c.root]
    assert fixer(c, gate, 2) == 0

    b = CircuitBuilder(2)
    c = b.build(b.or_(b.not_(b.input(1)), b.input(2)))
    gate = c.producer[c.root]
    assert fixer(c, gate, 1) == 0

    b = CircuitBuilder(2)
    c = b.build(b.and_(b.not_(b.input(1)), b.input(2)))
    gate = c.producer[c.root]
    assert fixer(c, gate, 1) == 1


def test_fixer_bit_really_removes_the_gate():
    rng = random.Random(31)
    checked = 0
    while checked < 80:
        n = rng.randint(2, 5)
        c, _ = normalize_circuit(random_circuit(rng, n, rng.randint(1, 8)))
        gates = [
            eid
            for eid, e in sorted(c.edges.items())
            if type(e.label).__name__ in ("AndLabel", "OrLabel")
        ]
        for gate in gates:
            for i in sorted(c.read_inputs()):
                try:
                    bit = fixer(c, gate, i)
                except Exception:
                    continue
                nf, _ = normalize_circuit(substitute_input(c, i, bit))
                assert gate not in nf.edges
                checked += 1


def test_restriction_bookkeeping():
    r = Restriction(4)
    assert r.active == frozenset({1, 2, 3, 4})
    r = r.assign(2, 1)
    assert r.active == frozenset({1, 3, 4})
    assert r.completion(0) == (0, 1, 0, 0)
    with pytest.raises(ValueError):
        r.assign(2, 0)


def test_search_degen_on_unread_input():
    b = CircuitBuilder(4)
    c = b.build(b.and_(b.and_(b.input(1), b.input(2)), b.input(3)))
    outcome = search_bad_restriction(c)
    assert outcome.tag == "degen" and outcome.var == 4
    assert outcome.restriction.assigned == ()
    cex = extract_counterexample(c, outcome)
    assert cex.input == (0, 0, 0, 1)
    assert (cex.claimed, cex.truth) == (0, 1)


def test_search_degen_on_fanout_one():
    b = CircuitBuilder(5)
    acc = b.input(1)
    for i in range(2, 6):
        acc = b.and_(acc, b.input(i))
    c = b.build(acc)
    assert circuit_size(c) == 4 < 12
    outcome = search_bad_restriction(c)
    assert outcome.tag == "degen"
    assert len(outcome.restriction.assigned) == 1
    cex = extract_counterexample(c, outcome)
    assert evaluate(c, cex.input) != parity(cex.input)


def test_search_const_when_second_reader_is_the_output():
    b = CircuitBuilder(4)
    h = b.and_(b.input(1), b.input(2))
    mid = b.and_(h, b.and_(b.input(3), b.input(4)))
    c = b.build(b.or_(mid, b.input(1)))
    outcome = search_bad_restriction(c)
    assert outcome.tag == "const"
    assert outcome.sibling in outcome.restriction.active
    cex = extract_counterexample(c, outcome)
    assert evaluate(c, cex.input) != parity(cex.input)


def test_search_fails_after_two_eliminations():
    c = parse_circuit(FAILS_INSTANCE)
    assert c.num_inputs == 4 and circuit_size(c) < 9
    outcome = search_bad_restriction(c)
    assert outcome.tag == "fails"
    assert len(outcome.iterations) == 2
    assert len(outcome.restriction.active) == 2
    for it in outcome.iterations:
        assert it.size_after <= it.size_before - 3
    cex = extract_counterexample(c, outcome)
    assert evaluate(c, cex.input) != parity(cex.input)


def test_search_preconditions():
    with pytest.raises(RefuterError):
        search_bad_restriction(xor_circuit(3))  # n <= 3
    with pytest.raises(RefuterError):
        search_bad_restriction(xor_circuit(5))  # exactly 3(n-1) gates


def test_refute_small_n_brute_force():
    b = CircuitBuilder(2)
    c = b.build(b.and_(b.input(1), b.input(2)))
    cex = refute(c)
    assert cex.input in ((0, 1), (1, 0))
    assert cex.claimed == 0 and cex.truth == 1

    b = CircuitBuilder(3)
    c = b.build(b.and_(b.and_(b.input(1), b.input(2)), b.input(3)))
    cex = refute(c)
    assert evaluate(c, cex.input) != parity(cex.input)


def test_refute_parity_on_fewer_variables():
    # a correct 4-variable parity circuit padded to 5 declared inputs is
    # undersized for 5-variable parity; the refuter must flip the unread input
    x4 = xor_circuit(4)
    c = Circuit(x4.edges, x4.root, 5, "demorgan")
    assert circuit_size(c) == 9 < 12
    cex, outcome = refute_detailed(c)
    assert outcome.tag == "degen" and outcome.var == 5
    assert evaluate(c, cex.input) != parity(cex.input)


def test_refute_rejects_adequately_sized_circuits():
    with pytest.raises(RefuterError):
        refute(xor_circuit(4))


def test_refuter_totality_randomized():
    rng = random.Random(32)
    tags = set()
    for _ in range(400):
        n = rng.randint(3, 8)
        c = undersized_circuit(rng, n)
        cex, outcome = refute_detailed(c)
        assert evaluate(c, cex.input) != parity(cex.input)
        tags.add(outcome.tag if outcome else "brute")
        if outcome:
            assert len(outcome.iterations) <= n - 2
            for it in outcome.iterations:
                assert it.size_after <= it.size_before - 3
    assert "degen" in tags and "brute" in tags


def almost_parity(n, tail_op):
    """Parity over x1..x_{n-1} combined with x_n through one cheap gate."""
    b = CircuitBuilder(n)
    acc = b.input(1)
    for k in range(2, n):
        xk = b.input(k)
        acc = b.or_(b.and_(acc, b.not_(xk)), b.and_(b.not_(acc), xk))
    tail = b.and_ if tail_op == "and" else b.or_
    return b.build(tail(acc, b.input(n)))


def test_near_parity_circuits_drive_full_depth_elimination():
    # these run the elimination loop to its maximum n-2 rounds and exit with
    # two live variables, covering the brute-force-four-completions path
    for n in range(5, 9):
        for op in ("and", "or"):
            c = almost_parity(n, op)
            assert circuit_size(c) == 3 * (n - 2) + 1 < 3 * (n - 1)
            cex, outcome = refute_detailed(c)
            assert outcome.tag == "fails"
            assert len(outcome.iterations) == n - 2
            for it in outcome.iterations:
                assert it.size_after <= it.size_before - 3
            assert evaluate(c, cex.input) != parity(cex.input)


def test_barely_undersized_parity_variants_are_refuted():
    # parity chains with one block degraded to a single gate: two gates below
    # the bound, the tightest refutable family
    for n in (5, 7):
        for weak_at in range(2, n + 1):
            c = neartight_parity(n, weak_at)
            assert circuit_size(c) == 3 * (n - 1) - 2
            cex, _ = refute_detailed(c)
            assert evaluate(c, cex.input) != parity(cex.input)


def test_xor_circuit_is_correct_and_tight():
    for n in range(1, 7):
        c = xor_circuit(n)
        assert circuit_size(c) == 3 * (n - 1)
        assert truth_table(c) == xor_table(n)


def test_parity_self_reducibility():
    for n in range(3, 6):
        c = xor_circuit(n)
        for i in range(1, n + 1):
            for bit in (0, 1):
                nf, _ = normalize_circuit(substitute_input(c, i, bit))
                rest = [
                    evaluate(nf, bits)
                    for bits in assignments(n)
                    if bits[i - 1] == 0
                ]
                sub_table = xor_table(n - 1)
                assert tuple(rest) in (sub_table, tuple(1 - b for b in sub_table))


def test_schnorr_exhaustive_check():
    assert schnorr_exhaustive_check()
    # sanity: the same enumeration idea does reach plain conjunction with one gate
    x1, x2, mask = 0b1100, 0b1010, 0b1111
    lits = {x1, mask ^ x1, x2, mask ^ x2}
    one_gate = {a & b for a in lits for b in lits} | {a | b for a in lits for b in lits}
    assert (x1 & x2) in one_gate
    # and the three-gate upper bound is a real parity circuit
    assert truth_table(xor_circuit(2)) == (0, 1, 1, 0)


# The soundness checks below must raise even under python -O, so each is
# forced to fail by patching the refuter's view of parity or of its search.


def and_of_first_two(n):
    b = CircuitBuilder(n)
    return b.build(b.and_(b.input(1), b.input(2)))


def test_unverified_counterexample_is_an_internal_error(monkeypatch):
    c = and_of_first_two(4)  # x3 unread: a degen outcome
    monkeypatch.setattr(refuter, "parity", lambda bits: evaluate(c, bits))
    with pytest.raises(InternalError, match="does not refute"):
        refute(c)


def test_brute_force_agreeing_with_parity_is_an_internal_error(monkeypatch):
    c = and_of_first_two(2)
    monkeypatch.setattr(refuter, "parity", lambda bits: evaluate(c, bits))
    with pytest.raises(InternalError, match="agreed with parity everywhere"):
        refute(c)


def test_round_removing_fewer_than_three_gates_is_an_internal_error(monkeypatch):
    real_normalize = refuter.normalize_circuit
    calls = []

    def normalize_only_first(c, *args, **kwargs):
        # later rounds get the substituted circuit back unsimplified
        calls.append(c)
        return real_normalize(c, *args, **kwargs) if len(calls) == 1 else (c, RewriteTrace(()))

    monkeypatch.setattr(refuter, "normalize_circuit", normalize_only_first)
    with pytest.raises(InternalError, match="must remove >= 3 gates"):
        search_bad_restriction(neartight_parity(6, 6))


def test_search_ending_with_a_large_circuit_is_an_internal_error(monkeypatch):
    monkeypatch.setattr(Restriction, "active", property(lambda self: frozenset({1, 2})))
    with pytest.raises(InternalError, match="too small for 2-variable parity"):
        search_bad_restriction(neartight_parity(6, 6))


def test_soundness_check_fails_the_cli_under_optimize(tmp_path):
    # sitecustomize runs at interpreter start-up: it makes the refuter's
    # parity agree with the circuit, so the found input refutes nothing.
    (tmp_path / "sitecustomize.py").write_text(
        "import gatelim.refuter\ngatelim.refuter.parity = lambda bits: bits[0] & bits[1]\n"
    )
    path = tmp_path / "and2.ckt"
    path.write_text(serialize_circuit(and_of_first_two(4)))
    src = Path(gatelim.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path), str(src)]))
    run = subprocess.run(
        [sys.executable, "-O", "-m", "gatelim.cli", "refute", str(path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert run.returncode == 3, run
    assert run.stderr.startswith("internal error:")
    assert run.stdout == ""
