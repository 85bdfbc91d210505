"""Acceptance suite.

Each test exercises one acceptance criterion at its stated corpus size and
tolerance and prints a single PASS line (run with ``pytest -s`` to see them;
any failure fails the test).  Corpora are seeded and shared across criteria
where the criteria reference the same circuits.
"""

import itertools
import random
import time

import pytest

from gen import assignments, random_circuit, truth_table, undersized_circuit, xor_table

from gatelim.circuits import (
    AND,
    CONST0,
    CONST1,
    NOT,
    OR,
    Circuit,
    bisimilar,
    circuit_size,
    evaluate,
    unroll_term,
)
from gatelim.cli import main
from gatelim.refuter import parity, refute_detailed, xor_circuit
from gatelim.rewrite import normalize_circuit, substitute_input
from gatelim.terms import ONE, Not, demorgan_system, normalize_term
from gatelim.u2 import (
    COMPLEMENT,
    PUSH_UP_FIRST,
    PUSH_UP_SECOND,
    TO_DEMORGAN,
    demorgan_to_u2,
    u2_semantics,
    u2_to_demorgan,
)

TRS_B = demorgan_system()


def report(number: int, description: str) -> None:
    print(f"ACCEPTANCE {number:>2} PASS  {description}")


@pytest.fixture(scope="module")
def convergence_corpus():
    """1000 circuits with n <= 6 and at most 12 binary gates, plus their normal forms."""
    rng = random.Random(2024)
    corpus = []
    for _ in range(1000):
        c = random_circuit(rng, rng.randint(1, 6), rng.randint(1, 12))
        corpus.append((c, normalize_circuit(c, "det")[0]))
    return corpus


@pytest.fixture(scope="module")
def refuter_runs():
    """10,000 refutations of seeded random undersized circuits, with timings."""
    rng = random.Random(2025)
    runs = []
    for _ in range(10_000):
        n = rng.randint(3, 8)
        c = undersized_circuit(rng, n)
        start = time.perf_counter()
        cex, outcome = refute_detailed(c)
        elapsed = time.perf_counter() - start
        runs.append((c, cex, outcome, elapsed))
    return runs


def test_criterion_01_formula_system_convergence_certificate(capsys):
    start = time.perf_counter()
    assert main(["trs", "check", "--samples", "1000"]) == 0
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert "unjoinable pairs: 0" in out
    assert "violations: 0" in out
    assert elapsed < 5.0
    with capsys.disabled():
        report(1, f"all critical pairs joinable, weight decreasing ({elapsed:.2f}s)")


def test_criterion_02_graph_convergence_across_strategies(convergence_corpus):
    start = time.perf_counter()
    for c, det in convergence_corpus:
        forms = [det] + [normalize_circuit(c, "rand", seed=s)[0] for s in range(5)]
        for a, b in itertools.combinations(forms, 2):
            assert bisimilar(a, b)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(2, f"1000 circuits x 6 strategies, all normal forms pairwise bisimilar ({elapsed:.1f}s)")


def test_criterion_03_rewriting_evaluates_circuits():
    rng = random.Random(2026)
    checked = 0
    for _ in range(200):
        n = rng.randint(1, 5)
        c = random_circuit(rng, n, rng.randint(1, 10))
        for bits in assignments(n):
            work = c
            for i, bit in enumerate(bits, start=1):
                if work.input_edge(i) is not None:
                    work = substitute_input(work, i, bit)
            nf, _ = normalize_circuit(work)
            expected = ONE if evaluate(c, bits) else Not(ONE)
            assert unroll_term(nf) == expected
            checked += 1
    report(3, f"substituting all inputs then rewriting evaluates correctly ({checked} cases)")


def test_criterion_04_normal_form_structure(convergence_corpus):
    for _, nf in convergence_corpus:
        whole_is_constant = circuit_size(nf) == 0 and not nf.inputs
        for e in nf.edges.values():
            if e.label.kind is NOT.kind:
                inner = nf.producer_edge(e.args[0])
                assert inner.label.kind is not NOT.kind, "double negation survived"
            if e.label.kind in (AND.kind, OR.kind):
                assert e.args[0] != e.args[1], "equal-sibling gate survived"
            if e.label.kind in (CONST0.kind, CONST1.kind):
                assert whole_is_constant, "constant edge in a non-constant normal form"
    report(4, "no double negation, no equal-sibling gate, no stray constant (1000 normal forms)")


def test_criterion_05_graph_and_formula_normal_forms_agree():
    rng = random.Random(2027)
    for _ in range(200):
        c = random_circuit(rng, rng.randint(1, 5), rng.randint(1, 10))
        nf, _ = normalize_circuit(c)
        assert unroll_term(nf) == normalize_term(TRS_B, unroll_term(c))
    report(5, "unroll(normalize(circuit)) equals formula normal form (200 circuits)")


def test_criterion_06_refuter_total_and_sound(refuter_runs):
    slowest = 0.0
    for c, cex, outcome, elapsed in refuter_runs:
        assert evaluate(c, cex.input) != parity(cex.input)
        assert cex.claimed == evaluate(c, cex.input) and cex.truth == parity(cex.input)
        slowest = max(slowest, elapsed)
    assert slowest < 1.0
    report(6, f"10,000 verified counterexamples, slowest {slowest * 1000:.1f}ms")


def test_criterion_07_per_iteration_descent(refuter_runs):
    eliminating_runs = 0
    iterations = 0
    for _, _, outcome, _ in refuter_runs:
        if outcome is None:
            continue
        if outcome.iterations:
            eliminating_runs += 1
        for it in outcome.iterations:
            assert it.size_after <= it.size_before - 3
            iterations += 1
    assert eliminating_runs > 0, "corpus never entered the elimination branch"
    report(7, f"size dropped >= 3 in every elimination round ({iterations} rounds, {eliminating_runs} runs)")


def test_criterion_08_two_input_parity_bound(capsys):
    start = time.perf_counter()
    assert main(["schnorr-check"]) == 0
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert out.count("True") == 2
    assert elapsed < 10.0
    with capsys.disabled():
        report(8, f"no 2-gate circuit computes 2-input parity; 3-gate circuit verified ({elapsed:.2f}s)")


def test_criterion_09_parity_self_reducibility():
    cases = 0
    for n in range(3, 7):
        c = xor_circuit(n)
        sub_table = xor_table(n - 1)
        negated = tuple(1 - b for b in sub_table)
        for i in range(1, n + 1):
            for bit in (0, 1):
                nf, _ = normalize_circuit(substitute_input(c, i, bit))
                rest = tuple(
                    evaluate(nf, bits) for bits in assignments(n) if bits[i - 1] == 0
                )
                assert rest in (sub_table, negated)
                cases += 1
    report(9, f"every one-variable restriction of parity is (negated) smaller parity ({cases} cases)")


def test_criterion_10_divergence_witness(capsys):
    assert main(["demo-nonconfluence"]) == 0
    first = capsys.readouterr().out
    assert "truth tables equal: True" in first
    assert "isomorphic: False" in first
    assert main(["demo-nonconfluence"]) == 0
    assert capsys.readouterr().out == first
    with capsys.disabled():
        report(10, "push-up and push-down agree on every input yet are not isomorphic")


def test_criterion_11_translation_round_trip():
    rng = random.Random(2028)
    done = 0
    while done < 500:
        n = rng.randint(2, 6)
        nf, _ = normalize_circuit(random_circuit(rng, n, rng.randint(1, 10)))
        if circuit_size(nf) == 0:
            continue
        u = demorgan_to_u2(nf)
        back = u2_to_demorgan(u)
        assert circuit_size(u) == circuit_size(back) == circuit_size(nf)
        assert truth_table(u) == truth_table(back) == truth_table(nf)
        done += 1
    for op in range(7, 15):
        assert COMPLEMENT[COMPLEMENT[op]] == op
        gate, n1, n2 = TO_DEMORGAN[op]
        for p, q in itertools.product((0, 1), repeat=2):
            a = 1 - p if n1 else p
            b = 1 - q if n2 else q
            assert u2_semantics(op, p, q) == (a & b if gate == "and" else a | b)
            assert u2_semantics(PUSH_UP_FIRST[op], p, q) == u2_semantics(op, 1 - p, q)
            assert u2_semantics(PUSH_UP_SECOND[op], p, q) == u2_semantics(op, p, 1 - q)
            assert u2_semantics(COMPLEMENT[op], p, q) == 1 - u2_semantics(op, p, q)
    report(11, "500 round trips preserve size and function; relabeling tables faithful")
