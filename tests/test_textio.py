"""Circuit file parsing and canonical serialization."""

import copy
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from gen import random_circuit, truth_table

from gatelim.circuits import Circuit, Edge, circuit_size, evaluate, isomorphic, u2_label
from gatelim.refuter import xor_circuit
from gatelim.textio import ParseError, parse_circuit, serialize_circuit

EXAMPLE = """\
ckt 1
basis demorgan
inputs 3
n1 = AND x1 x2
n2 = NOT n1
n3 = OR n2 x3   # trailing comments are fine
output n3
"""


def test_parse_example():
    c = parse_circuit(EXAMPLE)
    assert c.num_inputs == 3
    assert circuit_size(c) == 2
    assert evaluate(c, (1, 1, 0)) == 0
    assert evaluate(c, (1, 0, 0)) == 1


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 4: undefined operand"):
        parse_circuit("ckt 1\nbasis demorgan\ninputs 1\noutput n9\n")
    with pytest.raises(ParseError, match="duplicate gate name"):
        parse_circuit("ckt 1\nbasis demorgan\ninputs 1\nn1 = NOT x1\nn1 = NOT x1\noutput n1\n")
    with pytest.raises(ParseError, match="out of declared range"):
        parse_circuit("ckt 1\nbasis demorgan\ninputs 1\noutput x2\n")
    with pytest.raises(ParseError, match="reserved"):
        parse_circuit("ckt 1\nbasis demorgan\ninputs 2\nx9 = NOT x1\noutput x9\n")
    with pytest.raises(ParseError, match="missing output"):
        parse_circuit("ckt 1\nbasis demorgan\ninputs 1\nn1 = NOT x1\n")
    with pytest.raises(ParseError, match="U2_3 gate in a demorgan"):
        parse_circuit("ckt 1\nbasis demorgan\ninputs 2\nn1 = U2_3 x1 x2\noutput n1\n")
    with pytest.raises(ParseError, match="AND gate in a u2"):
        parse_circuit("ckt 1\nbasis u2\ninputs 2\nn1 = AND x1 x2\noutput n1\n")
    with pytest.raises(ParseError, match="version"):
        parse_circuit("ckt 2\nbasis demorgan\ninputs 1\noutput x1\n")
    with pytest.raises(ParseError, match="multiple output"):
        parse_circuit("ckt 1\nbasis demorgan\ninputs 1\noutput x1\noutput x1\n")
    with pytest.raises(ParseError, match="unreachable"):
        parse_circuit("ckt 1\nbasis demorgan\ninputs 1\nn1 = NOT x1\noutput x1\n")



def _gate_line(basis, line, inputs=2):
    return f"ckt 1\nbasis {basis}\ninputs {inputs}\n{line}\noutput n1\n"


@pytest.mark.parametrize(
    "basis, line, message",
    [
        ("demorgan", "n1 = XOR x1 x2", "line 4: unknown op 'XOR'"),
        ("demorgan", "n1 = and x1 x2", "line 4: unknown op 'and'"),
        ("u2", "n1 = U2_7 x1", "line 4: U2_7 takes 2 operands"),
        ("u2", "n1 = U2_07 x1 x2 x1", "line 4: U2_07 takes 2 operands"),
        ("demorgan", "n1 = AND x1", "line 4: AND takes 2 operand(s)"),
        ("demorgan", "n1 = NOT x1 x2", "line 4: NOT takes 1 operand(s)"),
        ("demorgan", "n1 = CONST0 x1", "line 4: CONST0 takes 0 operand(s)"),
        ("u2", "n1 = U2_15 x1 x2", "line 4: u2 op 15 out of range 1..14"),
        ("u2", "n1 = U2_0 x1 x2", "line 4: u2 op 0 out of range 1..14"),
        ("demorgan", "n1 = U2_15 x1 x2", "line 4: U2_15 gate in a demorgan circuit"),
        ("u2", "n1 = CONST1", "line 4: CONST1 gate in a u2 circuit"),
        ("demorgan", "n1 = AND x1 X2", "line 4: bad operand 'X2'"),
        ("u2", "n1 = U2_7 x1 2", "line 4: bad operand '2'"),
        # an op's second line is checked on its own
        ("demorgan", "n1 = AND x1 x2\nn2 = AND n1", "line 5: AND takes 2 operand(s)"),
        ("u2", "n1 = U2_7 x1 x2\nn2 = U2_7 n1 x1 x2", "line 5: U2_7 takes 2 operands"),
        ("demorgan", "n1 = AND x1 x2\nn2 = AND n1 n7", "line 5: undefined operand 'n7'"),
        ("u2", "n1 = U2_7 x1 x2\nn2 = U2_7 x2 n7", "line 5: undefined operand 'n7'"),
    ],
)
def test_parse_error_texts_are_pinned(basis, line, message):
    with pytest.raises(ParseError) as info:
        parse_circuit(_gate_line(basis, line))
    assert str(info.value) == message


def test_parse_accepts_leading_zeros_in_op_and_input_numbers():
    u2 = parse_circuit(_gate_line("u2", "n1 = U2_07 x01 x2"))
    assert serialize_circuit(u2) == _gate_line("u2", "n1 = U2_7 x1 x2")
    both = parse_circuit("ckt 1\nbasis u2\ninputs 2\nn1 = U2_07 x1 x2\nn2 = U2_7 n1 x2\noutput n2\n")
    assert [e.label for e in both.edges.values() if e.args] == [u2_label(7)] * 2
    dm = parse_circuit(_gate_line("demorgan", "n1 = AND x02 x1"))
    assert serialize_circuit(dm) == _gate_line("demorgan", "n1 = AND x2 x1")


def test_an_input_read_under_two_spellings_is_one_edge():
    c = parse_circuit("ckt 1\nbasis demorgan\ninputs 3\nn1 = AND x3 x1\nn2 = OR x03 n1\noutput n2\n")
    assert [e.label.index for e in c.edges.values() if not e.args] == [3, 1]
    assert c.edges[c.producer[c.root]].args[0] == c.inputs[3]
    assert serialize_circuit(c) == "ckt 1\nbasis demorgan\ninputs 3\nn1 = AND x3 x1\nn2 = OR x3 n1\noutput n2\n"


@pytest.mark.parametrize(
    "body, message",
    [
        # an input token read before stays reserved, and fails on its own line
        ("n1 = NOT x3\nx3 = NOT n1\noutput x3", "line 5: gate name 'x3' is reserved for inputs"),
        ("n1 = NOT x3\nn2 = AND n1 x3\nx03 = NOT n2\noutput n2", "line 6: gate name 'x03' is reserved for inputs"),
        ("n1 = NOT x3\nn2 = AND n1 x3\nn3 = OR n2 x4\noutput n3", "line 6: input x4 out of declared range 1..3"),
        ("n1 = NOT x1\nn2 = AND n1 x0\noutput n2", "line 5: input x0 out of declared range 1..3"),
        ("n1 = NOT x1  # not x9\noutput x9", "line 5: input x9 out of declared range 1..3"),
    ],
)
def test_input_errors_name_their_own_line(body, message):
    with pytest.raises(ParseError) as info:
        parse_circuit(f"ckt 1\nbasis demorgan\ninputs 3\n{body}\n")
    assert str(info.value) == message


def test_builder_edges_are_edges():
    c = parse_circuit(EXAMPLE)
    for eid, e in c.edges.items():
        made = Edge(e.label, e.att)
        assert type(e) is Edge and e == made and hash(e) == hash(made) and repr(e) == repr(made)
        assert (e.result, e.args) == (made.result, made.args) == (e.att[0], e.att[1:])
        assert pickle.loads(pickle.dumps(e)) == made and copy.copy(e) == made
    assert pickle.loads(pickle.dumps(c)).edges == {eid: Edge(e.label, e.att) for eid, e in c.edges.items()}


def test_serialize_bare_input():
    text = serialize_circuit(parse_circuit("ckt 1\nbasis demorgan\ninputs 1\noutput x1\n"))
    assert text == "ckt 1\nbasis demorgan\ninputs 1\noutput x1\n"


def test_serialize_is_a_fixpoint():
    rng = random.Random(50)
    for _ in range(60):
        c = random_circuit(rng, rng.randint(1, 5), rng.randint(1, 10))
        once = serialize_circuit(c)
        assert serialize_circuit(parse_circuit(once)) == once


def test_roundtrip_is_isomorphic():
    rng = random.Random(51)
    for _ in range(60):
        c = random_circuit(rng, rng.randint(1, 5), rng.randint(1, 10))
        back = parse_circuit(serialize_circuit(c))
        assert isomorphic(c, back)
        assert truth_table(c) == truth_table(back)


def test_serialization_is_canonical_across_ids():
    from gatelim.circuits import Circuit, Edge

    c = xor_circuit(3)
    shifted = Circuit(
        {eid + 7: Edge(e.label, tuple(v + 13 for v in e.att)) for eid, e in c.edges.items()},
        c.root + 13,
        c.num_inputs,
        c.basis,
    )
    assert serialize_circuit(c) == serialize_circuit(shifted)


def test_xor2_serialization_line_count():
    # header (3) + two NOT lines + two AND lines + one OR line + output = 9
    text = serialize_circuit(xor_circuit(2))
    assert len(text.strip().splitlines()) == 9


def test_u2_roundtrip():
    text = "ckt 1\nbasis u2\ninputs 2\nn1 = U2_8 x1 x2\noutput n1\n"
    c = parse_circuit(text)
    assert serialize_circuit(c) == text


# The format's own words, malformed numbers and names, and characters the
# format rejects (non-ASCII digits among them), to reach every branch.
TOKENS = (
    "ckt", "1", "2", "basis", "demorgan", "u2", "xor", "inputs", "0", "3", "-1", "01", "\u0663",
    "output", "=", "AND", "OR", "NOT", "CONST0", "CONST1", "U2_4", "U2_0", "U2_15", "and",
    "x0", "x1", "x2", "x3", "x4", "n1", "n2", "N1", "1n", "#", "\t",
)
ARITY = {"AND": 2, "OR": 2, "NOT": 1, "CONST0": 0, "CONST1": 0, "U2_4": 2, "U2_11": 2, "U2_15": 2}


@st.composite
def circuit_texts(draw) -> str:
    """A header, gates n1, n2, ... and an output line; any line may be format tokens or any text."""
    operand = st.sampled_from(("x1", "x2", "x3", "x4", "n1", "n2", "n3"))
    lines = ["ckt 1", draw(st.sampled_from(("basis demorgan", "basis u2"))), f"inputs {draw(st.integers(0, 4))}"]
    for i in range(1, draw(st.integers(0, 4)) + 1):
        op = draw(st.sampled_from(sorted(ARITY)))
        lines.append(" ".join([f"n{i} =", op, *(draw(operand) for _ in range(ARITY[op]))]))
    lines.append(f"output {draw(operand)}")
    other = st.one_of(st.lists(st.sampled_from(TOKENS), max_size=6).map(" ".join), st.text(max_size=12))
    return "\n".join(draw(other) if draw(st.integers(0, 7)) == 3 else line for line in lines)  # one line in eight


@settings(derandomize=True, max_examples=250, deadline=None)
@given(st.one_of(circuit_texts(), st.text()))
def test_any_text_parses_to_a_circuit_or_a_parse_error(text):
    try:
        c = parse_circuit(text)
    except ParseError:
        return
    assert isinstance(c, Circuit)
