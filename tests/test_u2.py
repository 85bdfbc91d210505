"""Basis translation tables, push moves, and the divergence witness."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from gen import random_circuit, truth_table

from gatelim.circuits import (
    CircuitBuilder,
    CircuitError,
    circuit_size,
    evaluate,
    isomorphic,
    topo_order,
    u2_label,
)
from gatelim.rewrite import normalize_circuit
from gatelim.textio import parse_circuit, serialize_circuit
from gatelim.u2 import (
    COMPLEMENT,
    NEGATIONS,
    PUSH_UP_FIRST,
    PUSH_UP_SECOND,
    OPS,
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
    gates = [OPS[e.label.kind] for e in c.edges.values() if e.label.kind in OPS]
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
    out = push_up(c, [e for e, x in c.edges.items() if OPS.get(x.label.kind) == 4][0])
    assert sorted(OPS[e.label.kind] for e in out.edges.values() if e.label.kind in OPS) == [8, 14]
    assert truth_table(out) == truth_table(c)

    # op-4 feeding the second position: successor 7 -> 13
    b = CircuitBuilder(3, basis="u2")
    neg = b.u2(4, b.input(1), b.input(2))
    c = b.build(b.u2(7, b.input(3), neg))
    out = push_up(c, [e for e, x in c.edges.items() if OPS.get(x.label.kind) == 4][0])
    assert [OPS[e.label.kind] for e in out.edges.values() if e.label.kind in OPS] == [13]
    assert truth_table(out) == truth_table(c)

    # op-6 feeding the first position: successor 11 -> 8
    b = CircuitBuilder(3, basis="u2")
    neg = b.u2(6, b.input(2), b.input(1))
    c = b.build(b.u2(11, neg, b.input(3)))
    out = push_up(c, [e for e, x in c.edges.items() if OPS.get(x.label.kind) == 6][0])
    assert [OPS[e.label.kind] for e in out.edges.values() if e.label.kind in OPS] == [8]
    assert truth_table(out) == truth_table(c)


def test_push_up_rejects_output_gate():
    b = CircuitBuilder(2, basis="u2")
    c = b.build(b.u2(4, b.u2(11, b.input(1), b.input(2)), b.input(1)))
    neg_edge = [e for e, x in c.edges.items() if x.label == u2_label(4)][0]
    with pytest.raises(CircuitError, match="output"):
        push_up(c, neg_edge)


def test_push_down_examples():
    b = CircuitBuilder(2, basis="u2")
    inner = b.u2(8, b.input(1), b.input(2))
    c = b.build(b.u2(4, inner, b.input(1)))
    neg_edge = [e for e, x in c.edges.items() if x.label == u2_label(4)][0]
    out = push_down(c, neg_edge)
    assert [OPS[e.label.kind] for e in out.edges.values() if e.label.kind in OPS] == [7]
    assert truth_table(out) == truth_table(c)

    b = CircuitBuilder(2, basis="u2")
    inner = b.u2(11, b.input(1), b.input(2))
    c = b.build(b.u2(4, inner, b.input(1)))
    neg_edge = [e for e, x in c.edges.items() if x.label == u2_label(4)][0]
    out = push_down(c, neg_edge)
    assert [OPS[e.label.kind] for e in out.edges.values() if e.label.kind in OPS] == [12]
    assert truth_table(out) == truth_table(c)

    b = CircuitBuilder(2, basis="u2")
    c = b.build(b.u2(4, b.input(1), b.input(2)))
    neg_edge = [e for e, x in c.edges.items() if x.label == u2_label(4)][0]
    with pytest.raises(CircuitError, match="^cannot push down: producer of the negated wire is x1$"):
        push_down(c, neg_edge)

    # op 6 negates its second input; pushing down complements that producer
    b = CircuitBuilder(2, basis="u2")
    inner = b.u2(13, b.input(1), b.input(2))
    c = b.build(b.u2(6, b.input(1), inner))
    neg_edge = [e for e, x in c.edges.items() if x.label == u2_label(6)][0]
    out = push_down(c, neg_edge)
    assert [OPS[e.label.kind] for e in out.edges.values() if e.label.kind in OPS] == [14]
    assert truth_table(out) == truth_table(c)


def test_translation_eliminates_internal_negation_ops():
    # an op-6 buried inside the circuit folds into its reader
    b = CircuitBuilder(3, basis="u2")
    neg = b.u2(6, b.input(1), b.u2(11, b.input(1), b.input(2)))
    c = b.build(b.u2(13, neg, b.input(3)))
    out = u2_to_demorgan(c)
    assert circuit_size(out) == 2
    assert truth_table(out) == truth_table(c)

    # the same with the negation op at the output, which complements the gate below it
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


def u2_circuit(body, inputs=3):
    return parse_circuit(f"ckt 1\nbasis u2\ninputs {inputs}\n{body}")


def demorgan_text(body, inputs=3):
    return f"ckt 1\nbasis demorgan\ninputs {inputs}\n{body}"


def push_loop(c, pick):
    """The translation as a push loop: remove the op-4/6 gate ``pick`` names
    until none is left, pushing down only at the output, then write each op
    7..14 as one and/or gate with one NOT per negated wire."""
    negations = [u2_label(op) for op in NEGATIONS]
    while True:
        negs = [eid for eid in topo_order(c) if c.edges[eid].label in negations]
        if not negs:
            break
        eid = pick(c, negs)
        c = push_up(c, eid) if c.edges[eid].result != c.root else push_down(c, eid)
    b = CircuitBuilder(c.num_inputs)
    wires, negated = {}, {}
    for eid in topo_order(c):
        e = c.edges[eid]
        if e.label.kind not in OPS:
            wires[e.result] = b.input(e.label.index)
            continue
        gate, *negate = TO_DEMORGAN[OPS[e.label.kind]]
        args = [wires[v] for v in e.args]
        for i, n in enumerate(negate):
            if n:
                if args[i] not in negated:
                    negated[args[i]] = b.not_(args[i])
                args[i] = negated[args[i]]
        wires[e.result] = b.and_(*args) if gate == "and" else b.or_(*args)
    return b.build(wires[c.root], prune=True)


def first_negation_first(c):
    return push_loop(c, lambda c, negs: negs[0])


def last_inner_negation_first(c):
    """The last inner negation's readers come later in topological order, so
    none of them is another inner negation that push_up would refuse."""

    def pick(c, negs):
        inner = [eid for eid in negs if c.edges[eid].result != c.root]
        return inner[-1] if inner else negs[0]

    return push_loop(c, pick)


def test_translation_folds_a_chain_of_negations():
    # Pushing n2 first would meet the negation n3 among its readers.
    c = parse_circuit(CHAIN)
    out = u2_to_demorgan(c)
    assert circuit_size(out) == circuit_size(c) - 2
    assert truth_table(out) == truth_table(c)
    assert serialize_circuit(out) == serialize_circuit(last_inner_negation_first(c))
    with pytest.raises(CircuitError, match="op outside 7..14"):
        first_negation_first(c)


def test_translation_of_a_negation_read_only_where_it_is_ignored():
    # The output op 4 reads the inner negation n2 only in its ignored second argument.
    c = u2_circuit("n1 = U2_6 x1 x3\nn2 = U2_6 n1 x3\nn3 = U2_9 n2 n1\nn4 = U2_4 n3 n2\noutput n4\n")
    with pytest.raises(CircuitError, match="op outside 7..14"):
        last_inner_negation_first(c)
    out = u2_to_demorgan(c)
    assert serialize_circuit(out) == demorgan_text("n1 = NOT x3\nn2 = AND n1 x3\noutput n2\n")
    assert truth_table(out) == truth_table(c)


def test_translation_of_an_output_literal():
    c = u2_circuit("n1 = U2_4 x1 x2\noutput n1\n", inputs=2)
    with pytest.raises(CircuitError, match="push down"):
        last_inner_negation_first(c)
    assert serialize_circuit(u2_to_demorgan(c)) == demorgan_text("n1 = NOT x1\noutput n1\n", inputs=2)
    c = u2_circuit("n1 = U2_4 x2 x1\nn2 = U2_6 x1 n1\noutput n2\n", inputs=2)
    assert serialize_circuit(u2_to_demorgan(c)) == demorgan_text("output x2\n", inputs=2)


def test_translation_of_a_double_negation_at_the_output():
    c = u2_circuit("n1 = U2_11 x1 x2\nn2 = U2_4 n1 x1\nn3 = U2_6 x2 n2\noutput n3\n")
    with pytest.raises(CircuitError, match="op outside 7..14"):
        last_inner_negation_first(c)
    assert serialize_circuit(u2_to_demorgan(c)) == demorgan_text("n1 = AND x1 x2\noutput n1\n")


def random_u2_circuit(rng, n, gates):
    b = CircuitBuilder(n, basis="u2")
    nodes = [b.input(i) for i in range(1, n + 1)]
    for _ in range(gates):
        op = rng.choice((4, 6, 7, 8, 9, 10, 11, 12, 13, 14))
        nodes.append(b.u2(op, rng.choice(nodes), rng.choice(nodes)))
    return b.build(nodes[-1], prune=True)


def test_translation_agrees_with_the_push_loops_wherever_they_succeed():
    rng = random.Random(5)
    gained = 0
    for _ in range(2000):
        c = random_u2_circuit(rng, rng.randint(2, 4), rng.randint(1, 6))
        new = u2_to_demorgan(c)
        assert truth_table(new) == truth_table(c)
        assert circuit_size(new) <= circuit_size(c)
        for old_loop in (last_inner_negation_first, first_negation_first):
            try:
                old = old_loop(c)
            except CircuitError:
                gained += old_loop is last_inner_negation_first
                continue
            assert serialize_circuit(new) == serialize_circuit(old)
    assert gained == 260


@st.composite
def u2_circuits(draw):
    n = draw(st.integers(1, 4))
    b = CircuitBuilder(n, basis="u2")
    nodes = [b.input(i) for i in range(1, n + 1)]
    for _ in range(draw(st.integers(1, 8))):
        op = draw(st.sampled_from((4, 6, *TO_DEMORGAN)))
        nodes.append(b.u2(op, draw(st.sampled_from(nodes)), draw(st.sampled_from(nodes))))
    return b.build(nodes[-1], prune=True)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(u2_circuits())
def test_u2_round_trip_keeps_the_truth_table(c):
    out = u2_to_demorgan(c)
    assert truth_table(out) == truth_table(c)
    nf, _ = normalize_circuit(out)
    if circuit_size(nf) > 0:
        assert truth_table(demorgan_to_u2(nf)) == truth_table(c)
