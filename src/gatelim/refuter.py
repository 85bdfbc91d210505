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

A round normalizes with ``det``, the first redex of the one order
(``rewrite``), and its outcome depends on that order only through the ids
of the gates that survive:

1. Every right-hand side of the 16 rules is a variable, ``one`` or
   ``(not one)``.  So no step builds a binary gate, and each binary gate of
   a normal form is a gate of the input, under its input id.
2. Take an input numbered topologically, as every parsed or built circuit
   is.  Only spliced constants, whose ids are new, and the readers of
   constant wires are ever inverted: a variable right-hand side or a merge
   moves readers onto a wire with a lower id.  A normal form that keeps a
   binary gate has no constant edge, so it has no inversion, and the walk
   that a round reads is ascending edge id.
3. So ``h``, ``f`` and ``f_prime`` depend only on which binary gates
   survive.  Convergence does not fix that: it fixes the normal form up to
   isomorphism, and of two gates that would become copies of each other,
   the order decides which one lives to keep its id.  With
   ``z = not one``, take ``a = and(x3, z)``, ``b = or(x2, a)``,
   ``c = and(x1, b)``, ``d = and(c, z)``, ``e = and(x1, x2)`` and the
   output ``or(e, d)``, numbered in that order.  Firing at ``b`` first
   turns ``c`` into ``and(x1, x2)``, and sharing keeps ``c``, the lower
   id; firing at ``d`` first leaves ``c`` unread, it is collected, and
   ``e`` survives.

So no round fires just any live redex.  The tests check the rule shape, the
absence of inversions after every round that keeps a binary gate, and whole
outcomes against a refuter that normalizes every round from scratch with
``det``, on renumbered inputs too, where step 2 does not hold, and on
circuits built around the case of step 3.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import product
from typing import Iterator, Optional, Sequence

from .circuits import (
    AND,
    INPUT,
    NOT,
    OR,
    Circuit,
    CircuitBuilder,
    CircuitError,
    circuit_size,
    evaluate,
    is_binary,
)
from .rewrite import WorkingGraph
from .terms import InternalError


class RefuterError(CircuitError):
    """A precondition of the refuter was violated (circuit not undersized)."""


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

    @cached_property
    def active(self) -> frozenset[int]:
        fixed = {v for v, _ in self.assigned}
        return frozenset(i for i in range(1, self.n + 1) if i not in fixed)

    def assign(self, var: int, bit: int) -> "Restriction":
        """The restriction with x_var fixed to the bit; its ``active`` is this one's without var.

        Raises ValueError unless x_var is active and the bit is 0 or 1.
        """
        active = self.active
        if not 1 <= var <= self.n:
            raise ValueError(f"x{var} is not a variable of x1..x{self.n}")
        if var not in active:
            raise ValueError(f"x{var} already assigned")
        if bit not in (0, 1):
            raise ValueError(f"x{var} cannot be fixed to {bit!r}, which is not a bit")
        child = Restriction(self.n, self.assigned + ((var, int(bit)),))
        child.__dict__["active"] = active - {var}  # what ``active`` would compute, cached
        return child

    def completion(self) -> tuple[int, ...]:
        """The total assignment extending the restriction with every active bit 0."""
        fixed = dict(self.assigned)
        return tuple(fixed.get(i, 0) for i in range(1, self.n + 1))


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    h: int
    f: int
    f_prime: int
    var: int
    bit: int
    size_before: int
    size_after: int

    def as_dict(self) -> dict:
        return asdict(self)


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
    if e.label.kind is INPUT:
        return e.label.index, False
    if e.label.kind is NOT.kind:
        inner = c.producer_edge(e.args[0])
        if inner.label.kind is INPUT:
            return inner.label.index, True
    return None


def costly_readers(g: Circuit, wire: int, walk: Iterator[int], seen: dict[int, int]) -> list[int]:
    """And/or gates reading the wire directly or through a negation, in the walk's order.

    ``walk`` yields edge ids in topological order, and may be partly
    consumed: a round passes ``WorkingGraph.walk()``, ascending ids when the
    graph has no inversion and a fresh Kahn walk otherwise.  ``seen`` maps
    the gates already taken from it to increasing positions.  The walk
    advances, recording what it yields into ``seen``, only until each gate
    has come out.
    """
    wires = [wire]
    wires += (g.edges[r].result for r in g.readers.get(wire, ()) if g.edges[r].label.kind is NOT.kind)
    gates = {r for v in wires for r in g.readers.get(v, ()) if is_binary(g.edges[r].label)}
    missing = len(gates - seen.keys())
    while missing:
        eid = next(walk)
        seen[eid] = len(seen)
        missing -= eid in gates
    return sorted(gates, key=seen.__getitem__)


def fixer(c: Circuit, gate: int, index: int) -> int:
    """The bit for x_index that turns the gate constant.

    An and-gate is killed by making the literal it reads false, an or-gate by
    making it true.  When both arguments read x_index the first in attachment
    order decides.
    """
    e = c.edges[gate]
    if e.label.kind not in (AND.kind, OR.kind):
        raise CircuitError(f"edge {gate} is not an and/or gate")
    for v in e.args:
        lit = literal_of(c, v)
        if lit is not None and lit[0] == index:
            negated = lit[1]
            if e.label.kind is AND.kind:
                return 1 if negated else 0
            return 0 if negated else 1
    raise CircuitError(f"gate {gate} does not read x{index}")


def _output_gate(c: Circuit) -> Optional[int]:
    """The edge whose (possibly negated) value is the circuit output."""
    e = c.producer_edge(c.root)
    if e.label.kind is NOT.kind:
        return c.producer[e.args[0]]
    return c.producer[c.root]


def search_bad_restriction(c: Circuit) -> RefuterOutcome:
    """Find a restriction under which the circuit visibly fails to be parity.

    Requires n > 3 and circuit_size < 3(n-1).  One working graph carries
    the circuit through every round: a round relabels the chosen input as a
    constant and normalizes again in place.  The in-loop checks are
    invariants of the search, not legal outcomes; they hold because the
    working graph is always a (maximally shared) normal form, and a failed
    one raises InternalError.
    """
    n = c.num_inputs
    if n <= 3:
        raise RefuterError("the restriction search requires n > 3")
    if circuit_size(c) >= 3 * (n - 1):
        raise RefuterError(f"circuit size {circuit_size(c)} is not below 3(n-1) = {3 * (n - 1)}")
    work = WorkingGraph(c)
    work._normalize()
    restriction = Restriction(n)
    iterations: list[IterationRecord] = []
    while len(restriction.active) > 2:
        # Substituted and collected inputs leave ``work.inputs``, so its keys are all active.
        if len(work.inputs) < len(restriction.active):
            unread = min(restriction.active - work.inputs.keys())
            return RefuterOutcome("degen", restriction, var=unread, iterations=tuple(iterations))
        walk = work.walk()
        h = next((eid for eid in walk if is_binary(work.edges[eid].label)), None)
        _check(h is not None, "a normal form reading 3+ variables must contain binary gates")
        seen = {h: 0}  # h precedes every other gate
        lits = [literal_of(work, v) for v in work.edges[h].args]
        _check(all(lit is not None for lit in lits), "first costly gate must read literals")
        p, q = lits[0][0], lits[1][0]
        _check(p != q, "normal form: first costly gate reads two distinct variables")
        _check(p in restriction.active and q in restriction.active, "first costly gate reads a fixed variable")
        readers = costly_readers(work, work.edges[work.input_edge(p)].result, walk, seen)
        if len(readers) == 1:
            restriction = restriction.assign(q, fixer(work, h, q))
            return RefuterOutcome("degen", restriction, var=p, iterations=tuple(iterations))
        f = next(g for g in readers if g != h)
        if _output_gate(work) == f:
            restriction = restriction.assign(p, fixer(work, f, p))
            return RefuterOutcome("const", restriction, var=p, sibling=q, iterations=tuple(iterations))
        successors = costly_readers(work, work.edges[f].result, walk, seen)
        _check(bool(successors), "a non-output gate must feed a costly gate")
        f_prime = successors[0]
        bit = fixer(work, f, p)
        restriction = restriction.assign(p, bit)
        size_before = work.size
        work.substitute(p, bit)
        work._normalize()
        size_after = work.size
        _check(
            size_after <= size_before - 3,
            f"substitution must remove >= 3 gates, went {size_before} -> {size_after}",
        )
        iterations.append(
            IterationRecord(len(iterations), h, f, f_prime, p, bit, size_before, size_after)
        )
    _check(work.size < 3, "final circuit must be too small for 2-variable parity")
    return RefuterOutcome("fails", restriction, iterations=tuple(iterations))


def _disagreement(c: Circuit, restriction: Restriction) -> Optional[tuple[int, ...]]:
    """The first completion, in ``product`` order over the active variables, that is not parity."""
    active = sorted(restriction.active)
    fixed = dict(restriction.assigned)
    for bits in product((0, 1), repeat=len(active)):
        fixed.update(zip(active, bits))
        full = tuple(fixed[i] for i in range(1, restriction.n + 1))
        if evaluate(c, full) != parity(full):
            return full
    return None


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
        base = outcome.restriction.completion()
        flipped = flip(base, var)
        left, right = evaluate(c, base), evaluate(c, flipped)
        _check(left == right, f"restricted circuit still depends on x{var}")
        candidate = base if left != parity(base) else flipped
    else:
        active = len(outcome.restriction.active)
        _check(active == 2, f"{active} active variables, expected 2")
        candidate = _disagreement(c, outcome.restriction)
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
        bits = _disagreement(c, Restriction(n))
        _check(bits is not None, "undersized circuit agreed with parity everywhere")
        return Counterexample(bits, evaluate(c, bits), parity(bits)), None
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
