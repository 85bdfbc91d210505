"""The label table: every reader agrees with the one row of each label kind."""

import itertools

import pytest

from gatelim.circuits import (
    AND,
    CONST0,
    CONST1,
    INPUT,
    KINDS,
    LABELS,
    NOT,
    OR,
    CircuitBuilder,
    CircuitError,
    ConstLabel,
    InputLabel,
    U2Label,
    U2_TRUTH,
    evaluate,
    is_binary,
    label_name,
)
from gatelim.rewrite import WorkingGraph, graph_measure
from gatelim.terms import Op, Var, evaluate_term
from gatelim.textio import parse_circuit, serialize_circuit
from gatelim.u2 import u2_semantics

ALL_LABELS = list(LABELS.values())


def arity(label):
    return label.kind.arity


def one_gate(label):
    """A circuit whose output is one gate with this label over x1..x_arity."""
    b = CircuitBuilder(arity(label), basis=label.kind.basis)
    return b.build(b.gate(label, *(b.input(i) for i in range(1, arity(label) + 1))))


def test_every_gate_kind_has_one_label():
    assert [label.kind for label in ALL_LABELS] == list(KINDS.values())
    assert sorted(label_name(label) for label in ALL_LABELS) == sorted(KINDS)
    assert len(ALL_LABELS) == 5 + len(U2_TRUTH)
    # every demorgan kind, and only those, is a formula node with a name in formula text
    assert {name: kind.term for name, kind in KINDS.items() if kind.term} == {
        "CONST0": "zero",
        "CONST1": "one",
        "NOT": "not",
        "AND": "and",
        "OR": "or",
    }
    assert all((kind.term is None) == (kind.basis != "demorgan") for kind in KINDS.values())
    assert INPUT.term is None


@pytest.mark.parametrize("label", ALL_LABELS, ids=label_name)
def test_name_round_trips_through_parse_and_serialize(label):
    c = one_gate(label)
    text = serialize_circuit(c)
    operands = "".join(f" x{i}" for i in range(1, arity(label) + 1))
    assert f"n1 = {label_name(label)}{operands}\n" in text
    back = parse_circuit(text)
    assert back.producer_edge(back.root).label == label
    assert serialize_circuit(back) == text


@pytest.mark.parametrize("label", ALL_LABELS, ids=label_name)
def test_arity_matches_the_attachment(label):
    c = one_gate(label)
    e = c.producer_edge(c.root)
    assert len(e.att) == 1 + arity(label) == 1 + label.kind.arity
    assert is_binary(label) == (arity(label) == 2)


@pytest.mark.parametrize("label", ALL_LABELS, ids=label_name)
def test_evaluate_agrees_with_the_term_node_or_u2_semantics(label):
    c = one_gate(label)
    for bits in itertools.product((0, 1), repeat=arity(label)):
        if isinstance(label, U2Label):
            expected = u2_semantics(label.op, *bits)
        else:
            node = Op(label.kind, *(Var(f"x{i}") for i in range(1, len(bits) + 1)))
            expected = evaluate_term(node, {f"x{i}": b for i, b in enumerate(bits, start=1)})
        assert evaluate(c, bits) == label.kind.output(*bits) == expected


def test_measure_weights():
    inputs_only = {label: graph_measure(one_gate(label)) - arity(label) for label in (CONST0, AND, OR, CONST1, NOT)}
    assert inputs_only == {CONST0: 5, AND: 4, OR: 4, CONST1: 2, NOT: 1}
    b = CircuitBuilder(1)
    assert graph_measure(b.build(b.input(1))) == 1
    for op in U2_TRUTH:
        assert WorkingGraph(one_gate(U2Label(op))).measure == 2  # the two inputs; the gate weighs 0


def test_inputs_have_one_kind_and_an_indexed_name():
    assert InputLabel(3).kind is INPUT and InputLabel(12).kind is INPUT
    assert label_name(InputLabel(12)) == "x12"
    assert (arity(InputLabel(1)), INPUT.basis) == (0, None)


def test_labels_outside_the_table_are_refused():
    with pytest.raises(CircuitError, match="u2 op 15 out of range 1..14"):
        U2Label(15)
    with pytest.raises(CircuitError, match="constant 2 is not 0 or 1"):
        ConstLabel(2)


def test_labels_compare_and_hash_by_value():
    assert U2Label(7) == LABELS["U2_7"] and hash(U2Label(7)) == hash(LABELS["U2_7"])
    assert ConstLabel(1) == CONST1 and ConstLabel(0) != CONST1
    assert repr(U2Label(7)) == "U2Label(op=7)" and repr(CONST0) == "ConstLabel(value=0)"
