"""Hypergraph circuit model: validation, evaluation, unrolling, comparisons."""

import random

import pytest

from gen import assignments, random_circuit, term_truth_table, truth_table

from gatelim.circuits import (
    AND,
    CONST1,
    Circuit,
    CircuitBuilder,
    CircuitError,
    Edge,
    InputLabel,
    U2_TRUTH,
    bisimilar,
    circuit_size,
    evaluate,
    isomorphic,
    topo_order,
    unroll_term,
    validate,
)
from gatelim.refuter import xor_circuit
from gatelim.terms import And, Not, Or, Var


def single_input():
    b = CircuitBuilder(1)
    return b.build(b.input(1))


def test_minimal_circuit_is_valid():
    assert validate(single_input()) == []


def test_validate_reports_arity_violation():
    c = Circuit({0: Edge(InputLabel(1), (0,)), 1: Edge(AND, (1, 0))}, 1, 1)
    assert any("arity" in v for v in validate(c))


def test_validate_reports_duplicate_result():
    c = Circuit(
        {0: Edge(InputLabel(1), (0,)), 1: Edge(InputLabel(2), (0,))},
        0,
        2,
    )
    assert any("non-unique result" in v for v in validate(c))


def test_validate_reports_unreachable_and_cycle():
    b = CircuitBuilder(2)
    v1, v2 = b.input(1), b.input(2)
    b.and_(v1, v2)
    with pytest.raises(CircuitError, match="unreachable"):
        b.build(v1)
    cyc = Circuit({0: Edge(InputLabel(1), (0,)), 1: Edge(AND, (1, 1, 0))}, 1, 1)
    assert any("cycle" in v for v in validate(cyc))


def test_circuit_size():
    b = CircuitBuilder(1)
    c = b.build(b.not_(b.input(1)))
    assert circuit_size(c) == 0
    assert circuit_size(xor_circuit(2)) == 3
    b = CircuitBuilder(3)
    c = b.build(b.and_(b.and_(b.input(1), b.input(2)), b.input(3)))
    assert circuit_size(c) == 2


def test_topo_order_is_a_linear_extension():
    rng = random.Random(0)
    for _ in range(100):
        c = random_circuit(rng, rng.randint(1, 5), rng.randint(1, 10))
        order = topo_order(c)
        assert sorted(order) == sorted(c.edges)
        placed = {}
        for pos, eid in enumerate(order):
            placed[eid] = pos
        for eid, e in c.edges.items():
            for v in e.args:
                assert placed[c.producer[v]] < placed[eid]


def test_topo_order_simple_chain():
    b = CircuitBuilder(1)
    c = b.build(b.not_(b.input(1)))
    order = topo_order(c)
    assert [type(c.edges[e].label).__name__ for e in order] == ["InputLabel", "NotLabel"]


def test_evaluate_examples():
    x = xor_circuit(2)
    assert [evaluate(x, bits) for bits in assignments(2)] == [0, 1, 1, 0]
    b = CircuitBuilder(2, basis="u2")
    c = b.build(b.u2(8, b.input(1), b.input(2)))
    assert evaluate(c, (0, 1)) == 1
    assert [evaluate(c, bits) for bits in assignments(2)] == [0, 1, 0, 0]
    b = CircuitBuilder(1)
    c = b.build(b.const(1))
    assert evaluate(c, (0,)) == 1 and evaluate(c, (1,)) == 1


def test_evaluate_rejects_wrong_length():
    with pytest.raises(CircuitError, match="assignment"):
        evaluate(single_input(), (0, 1))


def test_u2_truth_table_pinned():
    # columns over rows (p,q) = TT, TF, FT, FF
    assert U2_TRUTH[4] == (0, 0, 1, 1)  # negation of p
    assert U2_TRUTH[6] == (0, 1, 0, 1)  # negation of q
    assert U2_TRUTH[8] == (0, 0, 1, 0)  # (not p) and q
    assert U2_TRUTH[11] == (1, 0, 0, 0)  # and
    assert U2_TRUTH[13] == (1, 1, 1, 0)  # or
    assert len(U2_TRUTH) == 14
    tables = {U2_TRUTH[k] for k in U2_TRUTH}
    assert len(tables) == 14
    xor = (0, 1, 1, 0)
    assert xor not in tables and tuple(1 - b for b in xor) not in tables


def test_unroll_duplicates_shared_subcircuits():
    b = CircuitBuilder(2)
    shared = b.and_(b.input(1), b.input(2))
    c = b.build(b.or_(shared, shared))
    t = unroll_term(c)
    assert t == Or(And(Var("x1"), Var("x2")), And(Var("x1"), Var("x2")))

    b = CircuitBuilder(3)
    assert unroll_term(b.build(b.input(3))) == Var("x3")

    b = CircuitBuilder(1)
    assert unroll_term(b.build(b.not_(b.not_(b.input(1))))) == Not(Not(Var("x1")))


def test_bisimilar():
    b = CircuitBuilder(2)
    shared = b.and_(b.input(1), b.input(2))
    c_shared = b.build(b.or_(shared, shared))
    b = CircuitBuilder(2)
    left = b.and_(b.input(1), b.input(2))
    right = b.and_(b.input(1), b.input(2))
    c_tree = b.build(b.or_(left, right))
    assert bisimilar(c_shared, c_shared)
    assert bisimilar(c_shared, c_tree)
    assert bisimilar(xor_circuit(1000), xor_circuit(1000))  # deep: no recursion

    b = CircuitBuilder(2)
    c1 = b.build(b.and_(b.input(1), b.input(2)))
    b = CircuitBuilder(2)
    c2 = b.build(b.and_(b.input(2), b.input(1)))
    assert not bisimilar(c1, c2)  # arguments are ordered; no commutativity


def test_bisimilar_matches_unrolling_on_small_circuits():
    rng = random.Random(1)
    pool = [random_circuit(rng, 3, rng.randint(1, 6)) for _ in range(40)]
    for a in pool[:12]:
        for b in pool[:12]:
            assert bisimilar(a, b) == (unroll_term(a) == unroll_term(b))


def test_isomorphic():
    x = xor_circuit(3)
    assert isomorphic(x, x)
    b = CircuitBuilder(2)
    and_only = b.build(b.and_(b.input(1), b.input(2)))
    b = CircuitBuilder(2)
    or_only = b.build(b.or_(b.input(1), b.input(2)))
    assert not isomorphic(and_only, or_only)


def test_bisimilar_does_not_imply_isomorphic():
    b = CircuitBuilder(2)
    shared = b.and_(b.input(1), b.input(2))
    c_shared = b.build(b.or_(shared, shared))
    b = CircuitBuilder(2)
    c_tree = b.build(b.or_(b.and_(b.input(1), b.input(2)), b.and_(b.input(1), b.input(2))))
    assert bisimilar(c_shared, c_tree)
    assert not isomorphic(c_shared, c_tree)
    assert circuit_size(c_shared) == 2 and circuit_size(c_tree) == 3


def test_isomorphic_implies_bisimilar_and_same_size():
    rng = random.Random(2)
    for _ in range(60):
        c = random_circuit(rng, rng.randint(1, 4), rng.randint(1, 8))
        # re-number ids by rebuilding through serialization-free copy
        shifted = Circuit(
            {eid + 100: Edge(e.label, tuple(v + 500 for v in e.att)) for eid, e in c.edges.items()},
            c.root + 500,
            c.num_inputs,
            c.basis,
        )
        assert isomorphic(c, shifted)
        assert bisimilar(c, shifted)
        assert circuit_size(c) == circuit_size(shifted)


def test_evaluate_agrees_with_term_semantics():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(1, 5)
        c = random_circuit(rng, n, rng.randint(1, 8))
        t = unroll_term(c)
        names = [f"x{i}" for i in range(1, n + 1)]
        assert truth_table(c) == term_truth_table(t, names)


def test_unroll_budget():
    from gatelim.terms import BudgetError

    b = CircuitBuilder(1)
    v = b.input(1)
    for _ in range(30):
        v = b.and_(v, v)
    c = b.build(v)
    with pytest.raises(BudgetError):
        unroll_term(c)
