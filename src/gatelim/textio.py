"""Circuit text format.

One directive per line, ``#`` starts a comment, ASCII only::

    ckt 1
    basis demorgan          # or: basis u2
    inputs 3                # declares x1..x3
    n1 = AND x1 x2
    n2 = NOT n1
    n3 = OR n2 x3
    output n3

The basis line names a row of the basis table ``terms.BASES``, and a gate's
op is the name of a kind that row lists: AND, OR, NOT, CONST0, CONST1
(demorgan) and U2_1 .. U2_14 (u2, where leading zeros are allowed).  The
header's error texts name every row, and an operand-count error is worded
by the row.  Names match [a-z][a-z0-9_]* and must be defined before use;
``x<k>`` refers to input k and cannot be redefined; there is exactly one
``output`` line.

Serialization is canonical: gates are written under their
``circuits.canonical_names``, n1..nk in depth-first post-order from the
output (a topological order that depends only on circuit structure), so
isomorphic circuits with the same input indexing serialize to identical
text.
"""

from __future__ import annotations

import re

from .circuits import INPUT, LABELS, Circuit, CircuitBuilder, CircuitError, Label, canonical_names, u2_label
from .terms import BASES, U2_BASIS, Basis, ParseError


_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*$")
_INPUT_RE = re.compile(r"^x([0-9]+)$")
_U2_RE = re.compile(r"^U2_([0-9]+)$")
_GATE_NAME_RE = re.compile(r"^(?!x[0-9]+$)[a-z][a-z0-9_]*$")  # a name, not of the form x<k>


def _op_label(no: int, op: str, basis: Basis) -> Label:
    """The label an op text names in a circuit of this basis; raises ParseError otherwise.

    ``U2_<k>`` names u2 op k, leading zeros and all: in a basis with u2 ops
    an op out of range is refused as ``u2_label`` refuses it, and in any
    other the op is a gate of another basis.
    """
    u2_match = _U2_RE.match(op)
    if u2_match and not set(basis.kinds).isdisjoint(U2_BASIS.kinds):
        try:
            label = u2_label(int(u2_match.group(1)))
        except CircuitError as exc:
            raise ParseError(no, str(exc)) from None
    else:
        label = LABELS.get(op)
        if label is None and not u2_match:
            raise ParseError(no, f"unknown op {op!r}")
    if label is None or label.kind not in basis.kinds:
        raise ParseError(no, f"{op} gate in a {basis.name} circuit")
    return label


def parse_circuit(text: str) -> Circuit:
    """Parse the text format; raises ParseError with a line number."""
    lines = []
    for no, raw in enumerate(text.splitlines(), start=1):
        if "#" in raw:
            raw = raw[: raw.index("#")]
        stripped = raw.strip()
        if stripped:
            lines.append((no, stripped))
    if not lines:
        raise ParseError(1, "empty circuit file")

    def expect_header(i: int, pattern: str, what: str) -> tuple[int, list[str]]:
        if i >= len(lines):
            raise ParseError(lines[-1][0], f"unexpected end of file, expected {what}")
        no, line = lines[i]
        parts = line.split()
        if parts[0] != pattern:
            raise ParseError(no, f"expected {what}, got {line!r}")
        return no, parts

    no, parts = expect_header(0, "ckt", "'ckt 1'")
    if parts[1:] != ["1"]:
        raise ParseError(no, f"unsupported format version {' '.join(parts[1:])!r}")
    no, parts = expect_header(1, "basis", " or ".join(f"'basis {name}'" for name in BASES))
    if len(parts) != 2 or parts[1] not in BASES:
        raise ParseError(no, "basis must be " + " or ".join(map(repr, BASES)))
    basis = BASES[parts[1]]
    no, parts = expect_header(2, "inputs", "'inputs N'")
    if len(parts) != 2 or not (parts[1].isascii() and parts[1].isdigit()):
        raise ParseError(no, "expected 'inputs N'")
    num_inputs = int(parts[1])

    builder = CircuitBuilder(num_inputs, basis.name)
    names: dict[str, int] = {}  # gate names, and the x<k> tokens read so far
    root: int | None = None

    def operand(no: int, token: str) -> int:
        vertex = names.get(token)
        if vertex is not None:
            return vertex
        m = _INPUT_RE.match(token)
        if m:
            index = int(m.group(1))
            if not 1 <= index <= num_inputs:
                raise ParseError(no, f"input {token} out of declared range 1..{num_inputs}")
            names[token] = vertex = builder.input(index)  # later reads of the token take the fast path
            return vertex
        if _NAME_RE.match(token):
            raise ParseError(no, f"undefined operand {token!r}")
        raise ParseError(no, f"bad operand {token!r}")

    ops: dict[str, Label] = {}  # op text -> its label, once its first line has checked it
    wire = names.__getitem__
    for no, line in lines[3:]:
        parts = line.split()
        if parts[0] == "output":
            if root is not None:
                raise ParseError(no, "multiple output lines")
            if len(parts) != 2:
                raise ParseError(no, "expected 'output <name>'")
            root = operand(no, parts[1])
            continue
        if len(parts) < 3 or parts[1] != "=":
            raise ParseError(no, f"expected '<name> = <OP> <operands...>', got {line!r}")
        name, op, operands = parts[0], parts[2], parts[3:]
        if name in names or not _GATE_NAME_RE.match(name):
            if not _NAME_RE.match(name):
                raise ParseError(no, f"bad gate name {name!r}")
            if _INPUT_RE.match(name):
                raise ParseError(no, f"gate name {name!r} is reserved for inputs")
            raise ParseError(no, f"duplicate gate name {name!r}")
        label = ops.get(op)
        if label is None:
            label = ops[op] = _op_label(no, op, basis)
        arity = label.kind.arity
        if len(operands) != arity:
            raise ParseError(no, f"{op} takes {basis.operands.format(arity=arity)}")
        try:
            args = tuple(map(wire, operands))
        except KeyError:  # an input token read for the first time, or an operand to report
            args = tuple(operand(no, t) for t in operands)
        names[name] = builder.gate(label, *args)

    if root is None:
        raise ParseError(lines[-1][0], "missing output line")
    try:
        return builder.build(root)
    except CircuitError as exc:
        raise ParseError(lines[-1][0], str(exc)) from exc


def serialize_circuit(c: Circuit) -> str:
    """Canonical text for the circuit; the parse of the result is isomorphic to c.

    The gates are written in the order of ``canonical_names``, under those names.
    """
    names = canonical_names(c)
    producer, edges = c.producer, c.edges
    body = [
        " ".join((name, "=", e.label.kind.name, *map(names.__getitem__, e.args)))
        for v, name in names.items()
        if (e := edges[producer[v]]).label.kind is not INPUT
    ]
    return "\n".join(("ckt 1", f"basis {c.basis}", f"inputs {c.num_inputs}", *body, f"output {names[c.root]}")) + "\n"
