"""The basis table: every message that names a basis, pinned, and a basis added through the table alone."""

import functools

import pytest

from gatelim.circuits import (
    AND,
    NOT,
    OR,
    Circuit,
    CircuitBuilder,
    CircuitError,
    bisimilar,
    evaluate,
    isomorphic,
    u2_label,
    unroll_term,
    validate,
)
from gatelim.cli import main
from gatelim.rewrite import graph_measure, normalize_circuit, substitute_input
from gatelim.terms import BASES, DEMORGAN_BASIS, KINDS, U2_BASIS, Basis
from gatelim.textio import ParseError, parse_circuit, serialize_circuit
from gatelim.u2 import demorgan_to_u2, push_down, push_up, u2_to_demorgan

U2_TEXT = "ckt 1\nbasis u2\ninputs 2\nn1 = U2_8 x1 x2\noutput n1\n"
DM_TEXT = "ckt 1\nbasis demorgan\ninputs 2\nn1 = AND x1 x2\nn2 = NOT n1\noutput n2\n"


def u2_circuit():
    return parse_circuit(U2_TEXT)


def dm_circuit():
    return parse_circuit(DM_TEXT)


def gate_line(basis, line):
    return f"ckt 1\nbasis {basis}\ninputs 2\n{line}\noutput n1\n"


def wrong_basis_build():
    b = CircuitBuilder(2)
    return b.build(b.u2(7, b.input(1), b.input(2)))


PARSE_MESSAGES = [
    ("bad-basis", "ckt 1\nbasis xor\ninputs 1\noutput x1\n", "line 2: basis must be 'demorgan' or 'u2'"),
    ("two-bases", "ckt 1\nbasis demorgan u2\ninputs 1\noutput x1\n", "line 2: basis must be 'demorgan' or 'u2'"),
    ("bare-basis", "ckt 1\nbasis\ninputs 1\noutput x1\n", "line 2: basis must be 'demorgan' or 'u2'"),
    (
        "missing-basis",
        "ckt 1\ninputs 1\noutput x1\n",
        "line 2: expected 'basis demorgan' or 'basis u2', got 'inputs 1'",
    ),
    ("no-basis-line", "ckt 1\n", "line 1: unexpected end of file, expected 'basis demorgan' or 'basis u2'"),
    ("u2-op-in-demorgan", gate_line("demorgan", "n1 = U2_3 x1 x2"), "line 4: U2_3 gate in a demorgan circuit"),
    ("and-in-u2", gate_line("u2", "n1 = AND x1 x2"), "line 4: AND gate in a u2 circuit"),
    ("not-in-u2", gate_line("u2", "n1 = NOT x1"), "line 4: NOT gate in a u2 circuit"),
    ("u2-0", gate_line("u2", "n1 = U2_0 x1 x2"), "line 4: u2 op 0 out of range 1..14"),
    ("u2-15", gate_line("u2", "n1 = U2_15 x1 x2"), "line 4: u2 op 15 out of range 1..14"),
    ("u2-015", gate_line("u2", "n1 = U2_015 x1 x2"), "line 4: u2 op 15 out of range 1..14"),
    ("u2-15-in-demorgan", gate_line("demorgan", "n1 = U2_15 x1 x2"), "line 4: U2_15 gate in a demorgan circuit"),
    ("u2-007-in-demorgan", gate_line("demorgan", "n1 = U2_007 x1 x2"), "line 4: U2_007 gate in a demorgan circuit"),
    ("unknown-op-in-u2", gate_line("u2", "n1 = XOR x1 x2"), "line 4: unknown op 'XOR'"),
    ("u2-operands", gate_line("u2", "n1 = U2_007 x1"), "line 4: U2_007 takes 2 operands"),
    ("demorgan-operands", gate_line("demorgan", "n1 = OR x1"), "line 4: OR takes 2 operand(s)"),
    ("not-operands", gate_line("demorgan", "n1 = NOT"), "line 4: NOT takes 1 operand(s)"),
]


def test_leading_zeros_name_the_u2_op():
    c = parse_circuit(gate_line("u2", "n1 = U2_007 x1 x2"))
    assert c.producer_edge(c.root).label.kind.name == "U2_7"


ACROSS = "cannot compare circuits over different bases"
LIBRARY_MESSAGES = [
    ("unknown-basis", lambda: Circuit({}, 0, 0, basis="xor"), "unknown basis 'xor'"),
    ("builder-unknown-basis", lambda: CircuitBuilder(1, basis="xor").build(0), "unknown basis 'xor'"),
    ("wrong-basis-build", wrong_basis_build, "invalid circuit: edge 2: U2_7 gate in a demorgan circuit"),
    ("normalize-u2", lambda: normalize_circuit(u2_circuit()), "the rule system is defined for demorgan circuits"),
    ("measure-u2", lambda: graph_measure(u2_circuit()), "the measure is defined for demorgan circuits"),
    ("substitute-u2", lambda: substitute_input(u2_circuit(), 1, 0), "constants exist only in the demorgan basis"),
    ("unroll-u2", lambda: unroll_term(u2_circuit()), "only demorgan circuits unroll to terms"),
    ("bisimilar-across", lambda: bisimilar(u2_circuit(), dm_circuit()), ACROSS),
    ("isomorphic-across", lambda: isomorphic(dm_circuit(), u2_circuit()), ACROSS),
    ("to-u2-of-u2", lambda: demorgan_to_u2(u2_circuit()), "expected a demorgan circuit"),
    ("to-demorgan-of-demorgan", lambda: u2_to_demorgan(dm_circuit()), "expected a u2 circuit"),
    ("push-up-demorgan", lambda: push_up(dm_circuit(), 3), "edge 3 is not an op-4/6 negation gate"),
    ("push-down-demorgan", lambda: push_down(dm_circuit(), 3), "edge 3 is not an op-4/6 negation gate"),
]


MESSAGES = [(name, functools.partial(parse_circuit, text), message) for name, text, message in PARSE_MESSAGES]
MESSAGES += LIBRARY_MESSAGES


@pytest.mark.parametrize("call, message", [case[1:] for case in MESSAGES], ids=[case[0] for case in MESSAGES])
def test_messages_that_name_a_basis_are_pinned(call, message):
    # every text is built from the rows' names, and reads as it did when it named the bases itself
    with pytest.raises((ParseError, CircuitError)) as info:
        call()
    assert str(info.value) == message


CLI_RUNS = [
    (
        "translate-to-xor",
        ["translate", "{dm}", "--to", "xor"],
        1,
        "",
        "usage error: argument --to: invalid choice: 'xor' (choose from 'u2', 'demorgan')\n",
    ),
    ("translate-u2-to-u2", ["translate", "{u2}", "--to", "u2"], 2, "", "error: expected a demorgan circuit\n"),
    ("normalize-u2", ["normalize", "{u2}"], 2, "", "error: the rule system is defined for demorgan circuits\n"),
    ("validate-u2", ["validate", "{u2}"], 0, "valid: 3 edges, 1 binary gates, basis u2\n", ""),
    ("validate-demorgan", ["validate", "{dm}"], 0, "valid: 4 edges, 1 binary gates, basis demorgan\n", ""),
]


@pytest.mark.parametrize("argv, code, out, err", [case[1:] for case in CLI_RUNS], ids=[c[0] for c in CLI_RUNS])
def test_cli_messages_that_name_a_basis_are_pinned(tmp_path, capsys, argv, code, out, err):
    files = {"u2": tmp_path / "u2.ckt", "dm": tmp_path / "dm.ckt"}
    files["u2"].write_text(U2_TEXT)
    files["dm"].write_text(DM_TEXT)
    assert main([arg.format(**files) for arg in argv]) == code
    assert capsys.readouterr() == (out, err)


def test_refute_of_a_u2_circuit_brute_forces_small_ones_and_refuses_larger(tmp_path, capsys):
    small = tmp_path / "small.ckt"
    small.write_text(U2_TEXT)
    assert main(["refute", str(small)]) == 0
    assert capsys.readouterr() == ("10\n", "")
    large = tmp_path / "large.ckt"
    large.write_text("ckt 1\nbasis u2\ninputs 4\nn1 = U2_8 x1 x2\nn2 = U2_14 x3 x4\nn3 = U2_8 n1 n2\noutput n3\n")
    assert main(["refute", str(large)]) == 2
    assert capsys.readouterr() == ("", "error: the rule system is defined for demorgan circuits\n")


@pytest.mark.parametrize("op", [0, 15, -1, -14, 100])
def test_u2_label_refuses_ops_outside_the_row(op):
    # a bare tuple index would wrap -1 round to op 14
    with pytest.raises(CircuitError) as info:
        u2_label(op)
    assert str(info.value) == f"u2 op {op} out of range 1..14"


def test_u2_label_indexes_the_u2_row():
    assert [u2_label(op).kind for op in range(1, 15)] == list(U2_BASIS.kinds)


def test_the_table_is_the_union_of_its_rows():
    assert list(BASES) == ["demorgan", "u2"]
    assert list(KINDS.values()) == [kind for basis in BASES.values() for kind in basis.kinds]
    assert [kind.name for kind in DEMORGAN_BASIS.kinds] == ["CONST0", "CONST1", "NOT", "AND", "OR"]
    assert [kind.name for kind in U2_BASIS.kinds] == [f"U2_{op}" for op in range(1, 15)]
    assert (DEMORGAN_BASIS.rules, U2_BASIS.rules) == ("demorgan_rules.txt", None)


MONO = "ckt 1\nbasis mono\ninputs 3\nn1 = AND x1 x2\nn2 = OR n1 x3\nn3 = AND n2 x1\noutput n3\n"


def test_a_basis_added_to_the_table_alone_works_end_to_end(monkeypatch):
    monkeypatch.setitem(BASES, "mono", Basis("mono", (AND.kind, OR.kind)))
    c = parse_circuit(MONO)
    assert c.basis == "mono" and validate(c) == []
    assert serialize_circuit(c) == MONO
    assert [evaluate(c, bits) for bits in ((1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 0, 0))] == [1, 1, 0, 0]
    b = CircuitBuilder(2, basis="mono")
    built = b.build(b.or_(b.input(1), b.and_(b.input(1), b.input(2))))
    assert isomorphic(built, parse_circuit(serialize_circuit(built)))

    with pytest.raises(ParseError) as info:
        parse_circuit(gate_line("mono", "n1 = NOT x1"))
    assert str(info.value) == "line 4: NOT gate in a mono circuit"
    b = CircuitBuilder(1, basis="mono")
    with pytest.raises(CircuitError) as info:
        b.build(b.not_(b.input(1)))
    assert str(info.value) == "invalid circuit: edge 1: NOT gate in a mono circuit"
    with pytest.raises(ParseError) as info:
        parse_circuit(gate_line("mono", "n1 = U2_7 x1 x2"))
    assert str(info.value) == "line 4: U2_7 gate in a mono circuit"
    with pytest.raises(ParseError) as info:
        parse_circuit("ckt 1\nbasis xor\ninputs 1\noutput x1\n")
    assert str(info.value) == "line 2: basis must be 'demorgan' or 'u2' or 'mono'"

    with pytest.raises(CircuitError) as info:
        normalize_circuit(c)
    assert str(info.value) == "the rule system is defined for demorgan circuits"
    with pytest.raises(CircuitError) as info:
        graph_measure(c)
    assert str(info.value) == "the measure is defined for demorgan circuits"


def test_a_row_that_shares_the_u2_kinds_parses_their_ops(monkeypatch):
    # a basis that lists the u2 ops names and bounds them as the u2 row does, whatever else it has
    monkeypatch.setitem(BASES, "wide", Basis("wide", (NOT.kind, *U2_BASIS.kinds)))
    c = parse_circuit(gate_line("wide", "n1 = U2_007 x1 x2\nn2 = NOT n1").replace("output n1", "output n2"))
    assert serialize_circuit(c).splitlines()[3:5] == ["n1 = U2_7 x1 x2", "n2 = NOT n1"]
    with pytest.raises(ParseError) as info:
        parse_circuit(gate_line("wide", "n1 = U2_15 x1 x2"))
    assert str(info.value) == "line 4: u2 op 15 out of range 1..14"
    with pytest.raises(ParseError) as info:
        parse_circuit(gate_line("wide", "n1 = AND x1 x2"))
    assert str(info.value) == "line 4: AND gate in a wide circuit"
