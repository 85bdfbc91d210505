"""Circuit text format.

One directive per line, ``#`` starts a comment, ASCII only::

    ckt 1
    basis demorgan          # or: basis u2
    inputs 3                # declares x1..x3
    n1 = AND x1 x2
    n2 = NOT n1
    n3 = OR n2 x3
    output n3

Gate ops are AND, OR, NOT, CONST0, CONST1 (demorgan) and U2_1 .. U2_14 (u2).
Names match [a-z][a-z0-9_]* and must be defined before use; ``x<k>`` refers
to input k and cannot be redefined; there is exactly one ``output`` line.

Serialization is canonical: gates are written in a depth-first post-order
walk from the output (a topological order that depends only on circuit
structure), renamed n1..nk in that order, so isomorphic circuits with the
same input indexing serialize to identical text.
"""

from __future__ import annotations

import re

from .circuits import (
    Circuit,
    CircuitBuilder,
    CircuitError,
    InputLabel,
    label_name,
)


class ParseError(Exception):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*$")
_INPUT_RE = re.compile(r"^x([0-9]+)$")

_OPS = {
    "AND": ("demorgan", 2),
    "OR": ("demorgan", 2),
    "NOT": ("demorgan", 1),
    "CONST0": ("demorgan", 0),
    "CONST1": ("demorgan", 0),
}


def parse_circuit(text: str) -> Circuit:
    """Parse the text format; raises ParseError with a line number."""
    lines = []
    for no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
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
    no, parts = expect_header(1, "basis", "'basis demorgan' or 'basis u2'")
    if parts[1:] not in (["demorgan"], ["u2"]):
        raise ParseError(no, "basis must be 'demorgan' or 'u2'")
    basis = parts[1]
    no, parts = expect_header(2, "inputs", "'inputs N'")
    if len(parts) != 2 or not parts[1].isdigit():
        raise ParseError(no, "expected 'inputs N'")
    num_inputs = int(parts[1])

    builder = CircuitBuilder(num_inputs, basis)
    names: dict[str, int] = {}
    root: int | None = None

    def operand(no: int, token: str) -> int:
        m = _INPUT_RE.match(token)
        if m:
            index = int(m.group(1))
            if not 1 <= index <= num_inputs:
                raise ParseError(no, f"input {token} out of declared range 1..{num_inputs}")
            return builder.input(index)
        if token in names:
            return names[token]
        if _NAME_RE.match(token):
            raise ParseError(no, f"undefined operand {token!r}")
        raise ParseError(no, f"bad operand {token!r}")

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
        if not _NAME_RE.match(name):
            raise ParseError(no, f"bad gate name {name!r}")
        if _INPUT_RE.match(name):
            raise ParseError(no, f"gate name {name!r} is reserved for inputs")
        if name in names:
            raise ParseError(no, f"duplicate gate name {name!r}")
        u2_match = re.match(r"^U2_([0-9]+)$", op)
        if u2_match:
            if basis != "u2":
                raise ParseError(no, f"{op} gate in a {basis} circuit")
            k = int(u2_match.group(1))
            if not 1 <= k <= 14:
                raise ParseError(no, f"u2 op {k} out of range 1..14")
            if len(operands) != 2:
                raise ParseError(no, f"{op} takes 2 operands")
            names[name] = builder.u2(k, *(operand(no, t) for t in operands))
            continue
        if op not in _OPS:
            raise ParseError(no, f"unknown op {op!r}")
        op_basis, op_arity = _OPS[op]
        if basis != op_basis:
            raise ParseError(no, f"{op} gate in a {basis} circuit")
        if len(operands) != op_arity:
            raise ParseError(no, f"{op} takes {op_arity} operand(s)")
        args = tuple(operand(no, t) for t in operands)
        if op == "AND":
            names[name] = builder.and_(*args)
        elif op == "OR":
            names[name] = builder.or_(*args)
        elif op == "NOT":
            names[name] = builder.not_(*args)
        else:
            names[name] = builder.const(int(op[-1]))

    if root is None:
        raise ParseError(lines[-1][0], "missing output line")
    try:
        return builder.build(root)
    except CircuitError as exc:
        raise ParseError(lines[-1][0], str(exc)) from exc


def serialize_circuit(c: Circuit) -> str:
    """Canonical text for the circuit; the parse of the result is isomorphic to c."""
    names: dict[int, str] = {}  # wire -> its name; "" while its gate is on the stack
    body: list[str] = []
    # Depth-first post-order from the output, with an explicit stack so that
    # depth costs no recursion.  The bottom frame's one argument is the output.
    stack: list = [(None, None, iter((c.root,)))]
    while stack:
        v, e, args = stack[-1]
        for a in args:
            if a not in names:
                ea = c.producer_edge(a)
                if isinstance(ea.label, InputLabel):
                    names[a] = f"x{ea.label.index}"
                else:
                    names[a] = ""
                    stack.append((a, ea, iter(ea.args)))
                    break
        else:
            stack.pop()
            if e is not None:
                names[v] = name = f"n{len(body) + 1}"
                operands = "".join(" " + names[a] for a in e.args)
                body.append(f"{name} = {label_name(e.label)}{operands}")
    lines = ["ckt 1", f"basis {c.basis}", f"inputs {c.num_inputs}", *body, f"output {names[c.root]}"]
    return "\n".join(lines) + "\n"
