"""Independent checks of the program's outputs.

Nothing here imports the program.  The circuit text format, the u2 op table
and the normal-form conditions are restated from the documentation, so a bug
in the program's parser, evaluator or rule table cannot hide itself.

Functions are compared by a bit-parallel evaluator: one pass over the gates in
file order (operands are defined before use) on Python-int masks, one bit per
row, over a few hundred seeded rows (see ``Reference``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Truth table of u2 op k on rows (p, q) = 11, 10, 01, 00.
U2_TRUTH = {
    1: (1, 1, 1, 1), 2: (0, 0, 0, 0), 3: (1, 1, 0, 0), 4: (0, 0, 1, 1),
    5: (1, 0, 1, 0), 6: (0, 1, 0, 1), 7: (1, 1, 0, 1), 8: (0, 0, 1, 0),
    9: (1, 0, 1, 1), 10: (0, 1, 0, 0), 11: (1, 0, 0, 0), 12: (0, 1, 1, 1),
    13: (1, 1, 1, 0), 14: (0, 0, 0, 1),
}  # fmt: skip

ARITY = {"AND": 2, "OR": 2, "NOT": 1, "CONST0": 0, "CONST1": 0}
U2_ARITY = {f"U2_{k}": 2 for k in U2_TRUTH}


class OracleError(Exception):
    """Output that is malformed or wrong."""


@dataclass(frozen=True)
class Parsed:
    num_inputs: int
    basis: str
    gates: tuple[tuple[str, str, tuple[str, ...]], ...]  # (name, op, operands)
    output: str

    @property
    def binary(self) -> int:
        return sum(1 for _, op, _ in self.gates if op in ("AND", "OR") or op.startswith("U2_"))


def parse(text: str) -> Parsed:
    lines = [raw.split("#", 1)[0].split() for raw in text.splitlines()]
    lines = [parts for parts in lines if parts]
    if len(lines) < 4 or lines[0] != ["ckt", "1"] or lines[1][0] != "basis" or lines[2][0] != "inputs":
        raise OracleError("missing ckt/basis/inputs header")
    basis, n = lines[1][1], int(lines[2][1])
    if basis not in ("demorgan", "u2"):
        raise OracleError(f"unknown basis {basis!r}")
    if lines[-1][0] != "output" or len(lines[-1]) != 2:
        raise OracleError("last line is not 'output <name>'")
    defined = {f"x{k}" for k in range(1, n + 1)}
    gates = []
    for parts in lines[3:-1]:
        if len(parts) < 3 or parts[1] != "=":
            raise OracleError(f"bad gate line {' '.join(parts)!r}")
        name, op, args = parts[0], parts[2], tuple(parts[3:])
        arity = (U2_ARITY if basis == "u2" else ARITY).get(op)
        if arity is None or len(args) != arity:
            raise OracleError(f"op {op} with {len(args)} operands in a {basis} circuit")
        if name in defined or any(a not in defined for a in args):
            raise OracleError(f"gate {name}: redefined or operand used before definition")
        defined.add(name)
        gates.append((name, op, args))
    if lines[-1][1] not in defined:
        raise OracleError(f"undefined output {lines[-1][1]}")
    return Parsed(n, basis, tuple(gates), lines[-1][1])


def random_rows(num_inputs: int, rows: int, rng: random.Random) -> list[int]:
    """One ``rows``-bit mask per input; bit r of mask k is x_{k+1} in row r."""
    return [rng.getrandbits(rows) for _ in range(num_inputs)]


def evaluate(c: Parsed, masks: list[int], rows: int) -> int:
    """Output mask over the rows given by the input masks."""
    return wire_values(c, masks, rows)[c.output]


def wire_values(c: Parsed, masks: list[int], rows: int) -> dict[str, int]:
    """The mask of every wire, inputs included, over the rows given by the input masks."""
    full = (1 << rows) - 1
    value = {f"x{k + 1}": m for k, m in enumerate(masks)}
    for name, op, args in c.gates:
        if op == "AND":
            v = value[args[0]] & value[args[1]]
        elif op == "OR":
            v = value[args[0]] | value[args[1]]
        elif op == "NOT":
            v = full ^ value[args[0]]
        elif op == "CONST0":
            v = 0
        elif op == "CONST1":
            v = full
        else:
            p, q = value[args[0]], value[args[1]]
            np, nq = full ^ p, full ^ q
            v = 0
            for bit, term in zip(U2_TRUTH[int(op[3:])], (p & q, p & nq, np & q, np & nq)):
                if bit:
                    v |= term
        value[name] = v
    return value


def check_counterexample(c: Parsed, stdout: str) -> None:
    """The printed input must make the circuit disagree with parity."""
    bits = stdout.strip()
    if len(bits) != c.num_inputs or set(bits) - {"0", "1"}:
        raise OracleError(f"expected {c.num_inputs} bits, got {bits!r}")
    out = evaluate(c, [int(b) for b in bits], 1)
    if out == bits.count("1") % 2:
        raise OracleError(f"circuit agrees with parity on {bits}")


def normal_form_violations(c: Parsed) -> list[str]:
    """Redexes of the 16 rules, and parallel duplicates, in a demorgan circuit.

    A normal form has no CONST0 (zero_elim), no CONST1 unless the whole
    circuit is the constant 1 or its negation (the fixing and passing rules),
    no NOT over NOT (double_neg_elim), no AND/OR over equal (dedup) or
    complementary (tautology) arguments, and - being maximally shared - no
    two gates with the same op and operands.
    """
    out = []
    producer = {name: (op, args) for name, op, args in c.gates}
    ops = [op for _, op, _ in c.gates]
    if "CONST0" in ops or "CONST1" in ops:
        if ops not in (["CONST1"], ["CONST1", "NOT"]) or c.output != c.gates[-1][0]:
            out.append("constant inside a circuit that is not itself constant")
    seen = set()
    for name, op, args in c.gates:
        key = (op, args)
        if key in seen:
            out.append(f"{name}: parallel duplicate of {op} {' '.join(args)}")
        seen.add(key)
        if op == "NOT" and producer.get(args[0], ("",))[0] == "NOT":
            out.append(f"{name}: NOT over NOT")
        if op in ("AND", "OR"):
            a, b = args
            if a == b:
                out.append(f"{name}: {op} over equal arguments")
            elif producer.get(a) == ("NOT", (b,)) or producer.get(b) == ("NOT", (a,)):
                out.append(f"{name}: {op} over complementary arguments")
    return out


class Reference:
    """The wire functions of a source circuit, to check what the program derives from it.

    Random AND/OR DAGs compute nearly constant functions at depth, so the
    output alone says little.  Normalization only deletes gates, identifies
    wires and adds constants, and translation only moves negations into or out
    of gates.  So every wire of a correct output computes the function, or the
    complement, of some wire of the source, and its output computes the
    source's output function.  Near the inputs those functions are far from
    constant, which makes the check sharp.
    """

    def __init__(self, source: Parsed, rng: random.Random, rows: int = 4096):
        self.rows = rows
        self.masks = random_rows(source.num_inputs, rows, rng)
        values = wire_values(source, self.masks, rows)
        full = (1 << rows) - 1
        self.output = values[source.output]
        self.allowed = {0, full} | set(values.values()) | {full ^ v for v in values.values()}

    def check(self, out: Parsed) -> None:
        values = wire_values(out, self.masks, self.rows)
        if values[out.output] != self.output:
            raise OracleError("output computes another function than the source")
        stray = [name for name, v in values.items() if v not in self.allowed]
        if stray:
            raise OracleError(f"wire {stray[0]} computes a function no source wire computes")


CERTIFICATE_LINES = ("rules: 16", "critical pairs: 61", "unjoinable pairs: 0")


def check_certificate(stdout: str, samples: int) -> None:
    lines = stdout.splitlines()
    expected = list(CERTIFICATE_LINES) + [f"weight samples: {samples}, violations: 0"]
    if lines[:4] != expected or len(lines) != 5 or not lines[4].startswith("convergent"):
        raise OracleError(f"unexpected certificate output {stdout!r}")
