"""Constructive refutation of undersized parity circuits.

Any circuit on n inputs with fewer than 3(n-1) binary gates cannot compute
the n-bit parity function, and the gap is witnessed constructively: this
module finds an input on which such a circuit disagrees with parity, in time
polynomial in n.

The search maintains a partial input restriction.  Each round it normalizes
the restricted circuit and either (a) finds an input variable the circuit no
longer reads - parity depends on every variable, so flipping that bit in any
completion exposes an error; (b) finds that fixing one well-chosen gate makes
the whole circuit constant - same exposure; or (c) finds a one-bit
substitution whose simplification removes at least three binary gates,
shrinking the instance.  Rounds (c) preserve the invariant that the circuit
is too small for parity on the remaining variables, so after at most n-2
rounds only two variables remain with fewer than three gates, and the four
completions can be brute-forced.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Optional, Sequence

from .circuits import (
    AndLabel,
    Circuit,
    CircuitBuilder,
    CircuitError,
    InputLabel,
    NotLabel,
    OrLabel,
    circuit_size,
    evaluate,
    is_binary,
    topo_order,
)
from .rewrite import normalize_circuit, substitute_input


class RefuterError(CircuitError):
    """A precondition of the refuter was violated (circuit not undersized)."""


class InternalError(Exception):
    """A guarantee of the refuter failed to hold: a bug, not a bad input."""


def _check(ok: bool, message: str) -> None:
    """Raise InternalError unless ok; unlike ``assert``, runs under ``python -O``."""
    if not ok:
        raise InternalError(message)


def parity(bits: Sequence[int]) -> int:
    return sum(bits) % 2


def flip(bits: Sequence[int], index: int) -> tuple[int, ...]:
    """bits with the value of x_index flipped."""
    out = list(bits)
    out[index - 1] ^= 1
    return tuple(out)


@dataclass(frozen=True)
class Restriction:
    """A partial assignment; assigned variables and active ones partition 1..n."""

    n: int
    assigned: tuple[tuple[int, int], ...] = ()

    @property
    def active(self) -> frozenset[int]:
        fixed = {v for v, _ in self.assigned}
        return frozenset(i for i in range(1, self.n + 1) if i not in fixed)

    def assign(self, var: int, bit: int) -> "Restriction":
        if any(v == var for v, _ in self.assigned):
            raise ValueError(f"x{var} already assigned")
        return Restriction(self.n, self.assigned + ((var, int(bit)),))

    def completion(self, default: int = 0) -> tuple[int, ...]:
        """A total assignment extending the restriction; active bits take default."""
        fixed = dict(self.assigned)
        return tuple(fixed.get(i, default) for i in range(1, self.n + 1))


@dataclass(frozen=True)
class IterationRecord:
    index: int
    h: int
    f: int
    f_prime: int
    var: int
    bit: int
    size_before: int
    size_after: int

    def as_dict(self) -> dict:
        return {
            "iteration": self.index,
            "h": self.h,
            "f": self.f,
            "f_prime": self.f_prime,
            "var": self.var,
            "bit": self.bit,
            "size_before": self.size_before,
            "size_after": self.size_after,
        }


@dataclass(frozen=True)
class RefuterOutcome:
    tag: str  # "degen" | "const" | "fails"
    restriction: Restriction
    var: Optional[int] = None  # the unread variable (degen)
    sibling: Optional[int] = None  # a still-active variable the constant circuit ignores (const)
    iterations: tuple[IterationRecord, ...] = ()


@dataclass(frozen=True)
class Counterexample:
    input: tuple[int, ...]
    claimed: int
    truth: int


def literal_of(c: Circuit, vertex: int) -> Optional[tuple[int, bool]]:
    """(variable index, negated) if the wire carries an input literal, else None."""
    e = c.producer_edge(vertex)
    if isinstance(e.label, InputLabel):
        return e.label.index, False
    if isinstance(e.label, NotLabel):
        inner = c.producer_edge(e.args[0])
        if isinstance(inner.label, InputLabel):
            return inner.label.index, True
    return None


def costly_readers(c: Circuit, wire: int, order: Iterable[int]) -> list[int]:
    """And/or gates reading the wire directly or through a negation, in the given order."""
    wires = {wire}
    wires.update(
        e.result
        for e in c.edges.values()
        if isinstance(e.label, NotLabel) and e.args[0] in wires
    )
    return [
        g
        for g in order
        if is_binary(c.edges[g].label) and any(v in wires for v in c.edges[g].args)
    ]


def fanout_costly(c: Circuit, index: int) -> int:
    """Number of distinct and/or gates reading x_index directly or through a negation."""
    eid = c.input_edge(index)
    return 0 if eid is None else len(costly_readers(c, c.edges[eid].result, c.edges))


def fixer(c: Circuit, gate: int, index: int) -> int:
    """The bit for x_index that turns the gate constant.

    An and-gate is killed by making the literal it reads false, an or-gate by
    making it true.  When both arguments read x_index the first in attachment
    order decides.
    """
    e = c.edges[gate]
    if not isinstance(e.label, (AndLabel, OrLabel)):
        raise CircuitError(f"edge {gate} is not an and/or gate")
    for v in e.args:
        lit = literal_of(c, v)
        if lit is not None and lit[0] == index:
            negated = lit[1]
            if isinstance(e.label, AndLabel):
                return 1 if negated else 0
            return 0 if negated else 1
    raise CircuitError(f"gate {gate} does not read x{index}")


def _output_gate(c: Circuit) -> Optional[int]:
    """The edge whose (possibly negated) value is the circuit output."""
    e = c.producer_edge(c.root)
    if isinstance(e.label, NotLabel):
        return c.producer[e.args[0]]
    return c.producer[c.root]


def search_bad_restriction(c: Circuit) -> RefuterOutcome:
    """Find a restriction under which the circuit visibly fails to be parity.

    Requires n > 3 and circuit_size < 3(n-1).  The in-loop checks are
    invariants of the search, not legal outcomes; they hold because the
    working circuit is always a (maximally shared) normal form, and a failed
    one raises InternalError.
    """
    n = c.num_inputs
    if n <= 3:
        raise RefuterError("the restriction search requires n > 3")
    if circuit_size(c) >= 3 * (n - 1):
        raise RefuterError(f"circuit size {circuit_size(c)} is not below 3(n-1) = {3 * (n - 1)}")
    work, _ = normalize_circuit(c)
    restriction = Restriction(n)
    iterations: list[IterationRecord] = []
    while len(restriction.active) > 2:
        read = work.read_inputs()
        unread = sorted(v for v in restriction.active if v not in read)
        if unread:
            return RefuterOutcome("degen", restriction, var=unread[0], iterations=tuple(iterations))
        order = topo_order(work)
        costly = [eid for eid in order if is_binary(work.edges[eid].label)]
        _check(bool(costly), "a normal form reading 3+ variables must contain binary gates")
        h = costly[0]
        lits = [literal_of(work, v) for v in work.edges[h].args]
        _check(all(lit is not None for lit in lits), "first costly gate must read literals")
        p, q = lits[0][0], lits[1][0]
        _check(p != q, "normal form: first costly gate reads two distinct variables")
        _check(p in restriction.active and q in restriction.active, "first costly gate reads a fixed variable")
        readers = costly_readers(work, work.edges[work.input_edge(p)].result, order)
        if len(readers) == 1:
            restriction = restriction.assign(q, fixer(work, h, q))
            return RefuterOutcome("degen", restriction, var=p, iterations=tuple(iterations))
        f = next(g for g in readers if g != h)
        if _output_gate(work) == f:
            restriction = restriction.assign(p, fixer(work, f, p))
            return RefuterOutcome("const", restriction, var=p, sibling=q, iterations=tuple(iterations))
        successors = costly_readers(work, work.edges[f].result, order)
        _check(bool(successors), "a non-output gate must feed a costly gate")
        f_prime = successors[0]
        bit = fixer(work, f, p)
        restriction = restriction.assign(p, bit)
        size_before = circuit_size(work)
        work, _ = normalize_circuit(substitute_input(work, p, bit))
        size_after = circuit_size(work)
        _check(
            size_after <= size_before - 3,
            f"substitution must remove >= 3 gates, went {size_before} -> {size_after}",
        )
        iterations.append(
            IterationRecord(len(iterations), h, f, f_prime, p, bit, size_before, size_after)
        )
    _check(circuit_size(work) < 3, "final circuit must be too small for 2-variable parity")
    return RefuterOutcome("fails", restriction, iterations=tuple(iterations))


def extract_counterexample(c: Circuit, outcome: RefuterOutcome) -> Counterexample:
    """Turn a search outcome into a concrete disagreeing input.

    degen: the restricted circuit ignores x_j, parity never does, so of the
    all-zeros completion and its x_j-flip exactly one disagrees.  const: same
    with any still-active variable.  fails: two variables remain and the
    leftover circuit has under three gates, so one of the four completions
    disagrees.
    """
    if outcome.tag in ("degen", "const"):
        var = outcome.var if outcome.tag == "degen" else outcome.sibling
        _check(var is not None and var in outcome.restriction.active, f"x{var} is not an active variable")
        base = outcome.restriction.completion(0)
        flipped = flip(base, var)
        left, right = evaluate(c, base), evaluate(c, flipped)
        _check(left == right, f"restricted circuit still depends on x{var}")
        candidate = base if left != parity(base) else flipped
    else:
        active = sorted(outcome.restriction.active)
        _check(len(active) == 2, f"{len(active)} active variables, expected 2")
        fixed = dict(outcome.restriction.assigned)
        candidate = None
        for b0, b1 in product((0, 1), repeat=2):
            fixed[active[0]], fixed[active[1]] = b0, b1
            bits = tuple(fixed[i] for i in range(1, c.num_inputs + 1))
            if evaluate(c, bits) != parity(bits):
                candidate = bits
                break
        _check(candidate is not None, "undersized circuit agreed with parity on all completions")
    claimed = evaluate(c, candidate)
    truth = parity(candidate)
    _check(claimed != truth, f"input {candidate} does not refute: circuit gives {claimed}, parity {truth}")
    return Counterexample(candidate, claimed, truth)


def refute_detailed(c: Circuit) -> tuple[Counterexample, Optional[RefuterOutcome]]:
    """Counterexample plus the search outcome (None when brute-forced)."""
    n = c.num_inputs
    if n < 2:
        raise RefuterError("refutation needs at least 2 inputs")
    if circuit_size(c) >= 3 * (n - 1):
        raise RefuterError(
            f"circuit has {circuit_size(c)} binary gates; refutation applies below 3(n-1) = {3 * (n - 1)}"
        )
    if n <= 3:
        for bits in product((0, 1), repeat=n):
            if evaluate(c, bits) != parity(bits):
                return Counterexample(bits, evaluate(c, bits), parity(bits)), None
        raise InternalError("undersized circuit agreed with parity everywhere")
    outcome = search_bad_restriction(c)
    cex = extract_counterexample(c, outcome)
    return cex, outcome


def refute(c: Circuit) -> Counterexample:
    """An input on which the undersized circuit disagrees with parity.

    The returned counterexample is verified by evaluation before returning.
    """
    return refute_detailed(c)[0]


def xor_circuit(n: int) -> Circuit:
    """Parity on n inputs as a chain of three-gate blocks; size 3(n-1)."""
    if n < 1:
        raise CircuitError("need at least one input")
    b = CircuitBuilder(n)
    acc = b.input(1)
    for k in range(2, n + 1):
        xk = b.input(k)
        left = b.and_(acc, b.not_(xk))
        right = b.and_(b.not_(acc), xk)
        acc = b.or_(left, right)
    return b.build(acc)


def schnorr_exhaustive_check() -> bool:
    """No two-input circuit with at most two binary gates computes parity.

    Enumerates every and/or gate over (optionally negated) earlier values and
    every (optionally negated) output choice, comparing 4-row truth tables.
    Negated outputs are included, so the check covers the complement of
    parity as well.
    """
    x1, x2 = 0b1100, 0b1010  # truth tables over (x1,x2) = 00,01,10,11 bit order
    mask = 0b1111
    xor2 = (x1 ^ x2) & mask
    nxor2 = mask ^ xor2

    def closure(values: tuple[int, ...]) -> set[int]:
        out = set()
        for t in values:
            out.add(t)
            out.add(mask ^ t)
        return out

    def gate_outputs(values: tuple[int, ...]) -> set[int]:
        args = closure(values)
        out = set()
        for a in args:
            for b in args:
                out.add(a & b)
                out.add(a | b)
        return out

    reachable: set[int] = set()
    reachable |= closure((x1, x2))  # zero gates
    level1 = gate_outputs((x1, x2))
    for g1 in level1:
        reachable |= closure((g1,))
        for g2 in gate_outputs((x1, x2, g1)):
            reachable |= closure((g2,))
    return xor2 not in reachable and nxor2 not in reachable
