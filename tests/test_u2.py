"""Basis translation tables, push moves, and the divergence witness."""

import itertools
import random

import pytest

from gen import random_circuit, truth_table

from gatelim.circuits import (
    CircuitBuilder,
    CircuitError,
    U2Label,
    circuit_size,
    evaluate,
    isomorphic,
    topo_order,
)
from gatelim.rewrite import normalize_circuit
from gatelim.textio import parse_circuit, serialize_circuit
from gatelim.u2 import (
    COMPLEMENT,
    NEGATIONS,
    PUSH_UP_FIRST,
    PUSH_UP_SECOND,
    TO_DEMORGAN,
    demorgan_to_u2,
    load_witness,
    nonconfluence_witness,
    push_down,
    push_up,
    u2_semantics,
    u2_to_demorgan,
)

BITS = tuple(itertools.product((0, 1), repeat=2))


def test_semantics_examples():
    assert u2_semantics(11, 1, 1) == 1 and u2_semantics(11, 1, 0) == 0
    assert u2_semantics(8, 0, 1) == 1
    assert all(u2_semantics(4, 1, q) == 0 and u2_semantics(4, 0, q) == 1 for q in (0, 1))
    with pytest.raises(CircuitError):
        u2_semantics(15, 0, 0)


def test_ops_4_and_6_negate_one_input():
    for p, q in BITS:
        assert u2_semantics(4, p, q) == 1 - p
        assert u2_semantics(6, p, q) == 1 - q
        assert u2_semantics(3, p, q) == p
        assert u2_semantics(5, p, q) == q
        assert u2_semantics(1, p, q) == 1
        assert u2_semantics(2, p, q) == 0


def test_demorgan_table_is_semantically_faithful():
    for op, (gate, n1, n2) in TO_DEMORGAN.items():
        for p, q in BITS:
            a = 1 - p if n1 else p
            b = 1 - q if n2 else q
            expected = a & b if gate == "and" else a | b
            assert u2_semantics(op, p, q) == expected, op


def test_push_up_tables_are_semantically_faithful():
    for op in range(7, 15):
        for p, q in BITS:
            assert u2_semantics(PUSH_UP_FIRST[op], p, q) == u2_semantics(op, 1 - p, q)
            assert u2_semantics(PUSH_UP_SECOND[op], p, q) == u2_semantics(op, p, 1 - q)


def test_complement_table_is_an_involution_and_faithful():
    for op in range(7, 15):
        assert COMPLEMENT[COMPLEMENT[op]] == op
        for p, q in BITS:
            assert u2_semantics(COMPLEMENT[op], p, q) == 1 - u2_semantics(op, p, q)


def _single_op(c):
    gates = [e.label.op for e in c.edges.values() if isinstance(e.label, U2Label)]
    assert len(gates) == 1
    return gates[0]


def test_demorgan_to_u2_examples():
    b = CircuitBuilder(2)
    c = demorgan_to_u2(b.build(b.and_(b.input(1), b.input(2))))
    assert _single_op(c) == 11 and circuit_size(c) == 1

    b = CircuitBuilder(2)
    c = demorgan_to_u2(b.build(b.and_(b.not_(b.input(1)), b.input(2))))
    assert _single_op(c) == 8

    b = CircuitBuilder(2)
    c = demorgan_to_u2(b.build(b.not_(b.or_(b.input(1), b.input(2)))))
    assert _single_op(c) == 14


def test_demorgan_to_u2_rejects_degenerate_inputs():
    b = CircuitBuilder(1)
    with pytest.raises(CircuitError):
        demorgan_to_u2(b.build(b.not_(b.input(1))))
    b = CircuitBuilder(1)
    with pytest.raises(CircuitError):
        demorgan_to_u2(b.build(b.and_(b.input(1), b.const(1))))


def test_u2_to_demorgan_examples():
    # truth_table rows are assignments 00, 01, 10, 11
    b = CircuitBuilder(2, basis="u2")
    c = u2_to_demorgan(b.build(b.u2(8, b.input(1), b.input(2))))
    assert truth_table(c) == (0, 1, 0, 0) and circuit_size(c) == 1  # (not x1) and x2

    b = CircuitBuilder(2, basis="u2")
    c = u2_to_demorgan(b.build(b.u2(13, b.input(1), b.input(2))))
    assert truth_table(c) == (0, 1, 1, 1) and circuit_size(c) == 1  # x1 or x2

    b = CircuitBuilder(2, basis="u2")
    c = u2_to_demorgan(b.build(b.u2(12, b.input(1), b.input(2))))
    assert truth_table(c) == (1, 1, 1, 0) and circuit_size(c) == 1  # (not x1) or (not x2)


def test_u2_to_demorgan_rejects_projections_and_constants():
    for op in (1, 2, 3, 5):
        b = CircuitBuilder(2, basis="u2")
        c = b.build(b.u2(op, b.input(1), b.input(2)))
        with pytest.raises(CircuitError):
            u2_to_demorgan(c)


def test_push_up_examples():
    # op-4 feeding the first position: successor 10 -> 14
    b = CircuitBuilder(3, basis="u2")
    neg = b.u2(4, b.u2(8, b.input(1), b.input(2)), b.input(1))
    c = b.build(b.u2(10, neg, b.input(3)))
    out = push_up(c, [e for e, x in c.edges.items() if isinstance(x.label, U2Label) and x.label.op == 4][0])
    assert sorted(e.label.op for e in out.edges.values() if isinstance(e.label, U2Label)) == [8, 14]
    assert truth_table(out) == truth_table(c)

    # op-4 feeding the second position: successor 7 -> 13
    b = CircuitBuilder(3, basis="u2")
    neg = b.u2(4, b.input(1), b.input(2))
    c = b.build(b.u2(7, b.input(3), neg))
    out = push_up(c, [e for e, x in c.edges.items() if isinstance(x.label, U2Label) and x.label.op == 4][0])
    assert [e.label.op for e in out.edges.values() if isinstance(e.label, U2Label)] == [13]
    assert truth_table(out) == truth_table(c)

    # op-6 feeding the first position: successor 11 -> 8
    b = CircuitBuilder(3, basis="u2")
    neg = b.u2(6, b.input(2), b.input(1))
    c = b.build(b.u2(11, neg, b.input(3)))
    out = push_up(c, [e for e, x in c.edges.items() if isinstance(x.label, U2Label) and x.label.op == 6][0])
    assert [e.label.op for e in out.edges.values() if isinstance(e.label, U2Label)] == [8]
    assert truth_table(out) == truth_table(c)


def test_push_up_rejects_output_gate():
    b = CircuitBuilder(2, basis="u2")
    c = b.build(b.u2(4, b.u2(11, b.input(1), b.input(2)), b.input(1)))
    neg_edge = [e for e, x in c.edges.items() if x.label == U2Label(4)][0]
    with pytest.raises(CircuitError, match="output"):
        push_up(c, neg_edge)


def test_push_down_examples():
    b = CircuitBuilder(2, basis="u2")
    inner = b.u2(8, b.input(1), b.input(2))
    c = b.build(b.u2(4, inner, b.input(1)))
    neg_edge = [e for e, x in c.edges.items() if x.label == U2Label(4)][0]
    out = push_down(c, neg_edge)
    assert [e.label.op for e in out.edges.values() if isinstance(e.label, U2Label)] == [7]
    assert truth_table(out) == truth_table(c)

    b = CircuitBuilder(2, basis="u2")
    inner = b.u2(11, b.input(1), b.input(2))
    c = b.build(b.u2(4, inner, b.input(1)))
    neg_edge = [e for e, x in c.edges.items() if x.label == U2Label(4)][0]
    out = push_down(c, neg_edge)
    assert [e.label.op for e in out.edges.values() if isinstance(e.label, U2Label)] == [12]
    assert truth_table(out) == truth_table(c)

    b = CircuitBuilder(2, basis="u2")
    c = b.build(b.u2(4, b.input(1), b.input(2)))
    neg_edge = [e for e, x in c.edges.items() if x.label == U2Label(4)][0]
    with pytest.raises(CircuitError, match="push down"):
        push_down(c, neg_edge)

    # op 6 negates its second input; pushing down complements that producer
    b = CircuitBuilder(2, basis="u2")
    inner = b.u2(13, b.input(1), b.input(2))
    c = b.build(b.u2(6, b.input(1), inner))
    neg_edge = [e for e, x in c.edges.items() if x.label == U2Label(6)][0]
    out = push_down(c, neg_edge)
    assert [e.label.op for e in out.edges.values() if isinstance(e.label, U2Label)] == [14]
    assert truth_table(out) == truth_table(c)


def test_translation_eliminates_internal_negation_ops():
    # an op-6 buried inside the circuit must be pushed away before translation
    b = CircuitBuilder(3, basis="u2")
    neg = b.u2(6, b.input(1), b.u2(11, b.input(1), b.input(2)))
    c = b.build(b.u2(13, neg, b.input(3)))
    out = u2_to_demorgan(c)
    assert circuit_size(out) == 2
    assert truth_table(out) == truth_table(c)

    # the same with the negation op at the output, handled by a push down
    b = CircuitBuilder(2, basis="u2")
    c = b.build(b.u2(4, b.u2(11, b.input(1), b.input(2)), b.input(1)))
    out = u2_to_demorgan(c)
    assert circuit_size(out) == 1
    assert truth_table(out) == truth_table(c)


def test_witness_diverges():
    w, up, down = nonconfluence_witness()
    assert truth_table(w) == truth_table(up) == truth_table(down)
    assert not isomorphic(up, down)
    assert circuit_size(w) == 3
    assert circuit_size(up) == circuit_size(down) == 2
    # byte-reproducible: the pinned file always loads to the same circuit
    assert isomorphic(load_witness(), w)


def test_round_trip_preserves_function_and_size():
    rng = random.Random(40)
    done = 0
    while done < 120:
        n = rng.randint(2, 5)
        c = random_circuit(rng, n, rng.randint(1, 10))
        nf, _ = normalize_circuit(c)
        if circuit_size(nf) == 0:
            continue
        u = demorgan_to_u2(nf)
        back = u2_to_demorgan(u)
        assert circuit_size(u) == circuit_size(nf)
        assert circuit_size(back) == circuit_size(nf)
        assert truth_table(u) == truth_table(nf) == truth_table(back)
        done += 1


def test_negation_ops_negate_the_argument_they_name():
    assert NEGATIONS == {4: 0, 6: 1}
    for op, pos in NEGATIONS.items():
        for bits in BITS:
            assert u2_semantics(op, *bits) == 1 - bits[pos]


CHAIN = """\
ckt 1
basis u2
inputs 2
n1 = U2_11 x1 x2
n2 = U2_4 n1 x1
n3 = U2_4 n2 x2
n4 = U2_13 n3 x1
output n4
"""


def test_translation_pushes_a_chain_of_negations_from_the_top():
    # Pushing n2 first would meet the negation n3 among its readers.
    c = parse_circuit(CHAIN)
    out = u2_to_demorgan(c)
    assert circuit_size(out) == circuit_size(c) - 2
    assert truth_table(out) == truth_table(c)
    with pytest.raises(CircuitError, match="op outside 7..14"):
        first_negation_first(c)


def first_negation_first(c):
    """The translation as it pushed the first negation in topological order first."""
    while True:
        negs = [eid for eid in topo_order(c) if c.edges[eid].label in (U2Label(4), U2Label(6))]
        if not negs:
            return u2_to_demorgan(c)
        eid = negs[0]
        c = push_up(c, eid) if c.edges[eid].result != c.root else push_down(c, eid)


def random_u2_circuit(rng, n, gates):
    b = CircuitBuilder(n, basis="u2")
    nodes = [b.input(i) for i in range(1, n + 1)]
    for _ in range(gates):
        op = rng.choice((4, 6, 7, 8, 9, 10, 11, 12, 13, 14))
        nodes.append(b.u2(op, rng.choice(nodes), rng.choice(nodes)))
    return b.build(nodes[-1], prune=True)


def test_translation_agrees_with_first_negation_first_wherever_that_succeeds():
    rng = random.Random(5)
    gained = 0
    for _ in range(1500):
        c = random_u2_circuit(rng, rng.randint(2, 4), rng.randint(1, 6))
        try:
            old = serialize_circuit(first_negation_first(c))
        except CircuitError:
            old = None
        try:
            new = u2_to_demorgan(c)
        except CircuitError:
            assert old is None
            continue
        assert truth_table(new) == truth_table(c)
        if old is None:
            gained += 1
        else:
            assert serialize_circuit(new) == old
    assert gained > 0
