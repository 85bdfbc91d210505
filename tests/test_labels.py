"""The label table: every reader agrees with the one row of each label kind."""

import copy
import itertools
import pickle

import pytest
from hypothesis import given, settings

from gen import demorgan_circuits

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
    Label,
    U2_TRUTH,
    evaluate,
    is_binary,
    label_name,
)
from gatelim.rewrite import WorkingGraph, graph_measure, normalize_circuit
from gatelim.terms import BASES, DEMORGAN_BASIS, Op, Var, evaluate_term
from gatelim.textio import parse_circuit, serialize_circuit
from gatelim.u2 import OPS, u2_semantics

ALL_LABELS = list(LABELS.values())


def arity(label):
    return label.kind.arity


def one_gate(label):
    """A circuit whose output is one gate with this label over x1..x_arity."""
    b = CircuitBuilder(arity(label), basis=next(name for name, basis in BASES.items() if label.kind in basis.kinds))
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
    assert all((kind.term is None) == (kind not in DEMORGAN_BASIS.kinds) for kind in KINDS.values())
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
        if label.kind in OPS:
            expected = u2_semantics(OPS[label.kind], *bits)
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
        assert WorkingGraph(one_gate(LABELS[f"U2_{op}"])).measure == 2  # the two inputs; the gate weighs 0


def test_inputs_have_one_kind_and_an_indexed_name():
    assert Label(INPUT, 3).kind is INPUT and Label(INPUT, 12).kind is INPUT
    assert label_name(Label(INPUT, 12)) == "x12"
    assert arity(Label(INPUT, 1)) == 0 and not any(INPUT in basis.kinds for basis in BASES.values())


def test_labels_outside_the_table_are_refused():
    b = CircuitBuilder(2, basis="u2")
    with pytest.raises(CircuitError, match="u2 op 15 out of range 1..14"):
        b.u2(15, b.input(1), b.input(2))
    with pytest.raises(CircuitError, match="constant 2 is not 0 or 1"):
        CircuitBuilder(1).const(2)


def test_labels_compare_and_hash_by_value():
    assert Label(KINDS["U2_7"]) == LABELS["U2_7"] and hash(Label(KINDS["U2_7"])) == hash(LABELS["U2_7"])
    assert Label(KINDS["CONST1"]) == CONST1 and CONST0 != CONST1
    assert repr(LABELS["U2_7"]) == "Label(kind=U2_7, index=0)" and repr(CONST0) == "Label(kind=CONST0, index=0)"


def test_pickled_and_copied_circuits_normalize_as_the_original():
    c = parse_circuit("ckt 1\nbasis demorgan\ninputs 1\nn1 = CONST0\nn2 = OR x1 n1\noutput n2\n")
    for twin in (pickle.loads(pickle.dumps(c)), copy.deepcopy(c)):
        assert all(e.label.kind is c.edges[eid].label.kind for eid, e in twin.edges.items())
        _, trace = normalize_circuit(twin)
        assert [step.rule for step in trace.steps] == ["zero_elim", "pass_or_right"]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(demorgan_circuits())
def test_text_and_pickle_round_trips_keep_the_circuit(c):
    text = serialize_circuit(c)
    assert serialize_circuit(parse_circuit(text)) == text
    nf, trace = normalize_circuit(c)
    twin_nf, twin_trace = normalize_circuit(pickle.loads(pickle.dumps(c)))
    assert serialize_circuit(twin_nf) == serialize_circuit(nf)
    assert [s.as_dict() for s in twin_trace.steps] == [s.as_dict() for s in trace.steps]
