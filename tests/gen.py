"""Shared test helpers: seeded random circuit generators, a hypothesis circuit strategy and truth-table oracles."""

from __future__ import annotations

import itertools
import random
import sys
from pathlib import Path

from hypothesis import strategies as st

from gatelim.circuits import INPUT, Circuit, CircuitBuilder, Edge, circuit_size, topo_order
from gatelim.rewrite import substitute_input
from gatelim.terms import Term, evaluate_term
from gatelim.textio import parse_circuit

sys.path.append(str(Path(__file__).resolve().parent.parent))  # the repository root, for perfbench
from perfbench.families import layered_dag  # noqa: E402


def random_circuit(rng: random.Random, n: int, gates: int) -> Circuit:
    """A random circuit on n declared inputs with up to the given gate count.

    Each gate is an and/or over two nodes drawn uniformly from the inputs and
    earlier gates, each independently negated with probability 1/4.  The last
    gate is the output; anything it does not reach is pruned, so the final
    size may be smaller than requested.  Inputs may be unread.
    """
    b = CircuitBuilder(n)
    nodes = [b.input(i) for i in range(1, n + 1)]
    last = nodes[0]
    for _ in range(gates):
        args = []
        for _ in range(2):
            v = rng.choice(nodes)
            if rng.random() < 0.25:
                v = b.not_(v)
            args.append(v)
        last = b.and_(*args) if rng.random() < 0.5 else b.or_(*args)
        nodes.append(last)
    return b.build(last, prune=True)


@st.composite
def demorgan_circuits(draw) -> Circuit:
    """A hypothesis strategy: small pruned demorgan circuits over and, or, not and constants."""
    n = draw(st.integers(1, 4))
    b = CircuitBuilder(n)
    nodes = [b.input(i) for i in range(1, n + 1)]
    for _ in range(draw(st.integers(1, 10))):
        gate = draw(st.sampled_from(("and", "or", "not", "const")))
        if gate == "const":
            nodes.append(b.const(draw(st.integers(0, 1))))
        elif gate == "not":
            nodes.append(b.not_(draw(st.sampled_from(nodes))))
        else:
            args = draw(st.sampled_from(nodes)), draw(st.sampled_from(nodes))
            nodes.append(b.and_(*args) if gate == "and" else b.or_(*args))
    return b.build(nodes[-1], prune=True)


def neartight_parity(n: int, weak_at: int) -> Circuit:
    """Parity as a chain of three-gate blocks, with the block of x_weak_at one OR.

    Size 3(n-1)-2, two gates below the parity bound.
    """
    b = CircuitBuilder(n)
    acc = b.input(1)
    for k in range(2, n + 1):
        xk = b.input(k)
        if k == weak_at:
            acc = b.or_(acc, xk)
        else:
            acc = b.or_(b.and_(acc, b.not_(xk)), b.and_(b.not_(acc), xk))
    return b.build(acc)


def merge_or_collect(rng: random.Random, n: int) -> Circuit:
    """Near-tight parity whose block of a random x_k builds its left gate twice, once through constants.

    The left gate ``and(acc, not xk)`` is built as ``e`` and, at a lower
    id, as ``c = and(acc, or(not xk, and(x_r, zero)))``; the block's left
    wire is ``or(e, and(c, zero))``.  Normalizing turns ``c`` into a copy
    of ``e`` that merges, keeping ``c``'s id, or collects ``c`` first when
    ``and(c, zero)`` fires first, keeping ``e``'s: the order decides.
    Three other blocks are single ORs, so the size is 3(n-1)-1.  n >= 5.
    """
    k = rng.randint(2, n)
    weak = rng.sample([i for i in range(2, n + 1) if i != k], 3)
    b = CircuitBuilder(n)
    x = [None] + [b.input(i) for i in range(1, n + 1)]
    zero = b.not_(b.const(1))
    acc = x[1]
    for i in range(2, n + 1):
        if i in weak:
            acc = b.or_(acc, x[i])
            continue
        if i == k:
            nx = b.not_(x[i])
            c = b.and_(acc, b.or_(nx, b.and_(x[rng.randint(1, n)], zero)))
            d = b.and_(c, zero)
            e = b.and_(acc, nx)
            left = b.or_(e, d) if rng.random() < 0.5 else b.or_(d, e)
        else:
            left = b.and_(acc, b.not_(x[i]))
        acc = b.or_(left, b.and_(b.not_(acc), x[i]))
    return b.build(acc)


def parity_tree(rng: random.Random, n: int, weak: int) -> Circuit:
    """Parity of x1..xn as a random tree of 3-gate XOR gadgets over a shuffled input order, ``weak`` of them ORs.

    Leaves are the inputs in a shuffled order; two random nodes are joined
    until one is left.  Each join is one of four gadgets for ``a xor b``:
    ``or(and(a, not b), and(not a, b))``; ``and(or(a, b), not(and(a, b)))``;
    ``and(or(a, b), or(not a, not b))``; ``not(or(and(a, b), and(not a, not b)))``.
    ``weak`` of the n-1 joins, drawn at random, are a single ``or(a, b)``
    instead, so the size is 3(n-1) - 2 * weak.
    """
    b = CircuitBuilder(n)
    nodes = [b.input(i) for i in rng.sample(range(1, n + 1), n)]
    ors = set(rng.sample(range(n - 1), weak))
    for k in range(n - 1):
        x, y = (nodes.pop(rng.randrange(len(nodes))) for _ in range(2))
        gadget = 4 if k in ors else rng.randrange(4)
        if gadget == 0:
            z = b.or_(b.and_(x, b.not_(y)), b.and_(b.not_(x), y))
        elif gadget == 1:
            z = b.and_(b.or_(x, y), b.not_(b.and_(x, y)))
        elif gadget == 2:
            z = b.and_(b.or_(x, y), b.or_(b.not_(x), b.not_(y)))
        elif gadget == 3:
            z = b.not_(b.or_(b.and_(x, y), b.and_(b.not_(x), b.not_(y))))
        else:
            z = b.or_(x, y)
        nodes.append(z)
    return b.build(nodes[0])


def constant_dag(rng: random.Random, n: int, gates: int, width: int, const_share: float) -> Circuit:
    """The benchmark's layered and/or DAG on x1..xn fed by constants (``perfbench.families.layered_dag``), parsed.

    Constant propagation cascades through the layers, so normalizing takes
    many steps on one circuit.
    """
    return parse_circuit(layered_dag(rng, n, gates, width, const_share)[0])


def undersized_circuit(rng: random.Random, n: int) -> Circuit:
    """A random circuit with fewer than 3(n-1) binary gates."""
    bound = 3 * (n - 1)
    while True:
        gates = rng.randint(1, bound - 1)
        c = random_circuit(rng, n, gates)
        if circuit_size(c) < bound:
            return c


def renumbered(c: Circuit, rng: random.Random) -> Circuit:
    """c with its edge ids shuffled, so producers may outnumber their readers; vertices stay."""
    ids = list(c.edges)
    shuffled = rng.sample(ids, len(ids))
    return Circuit({new: c.edges[old] for old, new in zip(ids, shuffled)}, c.root, c.num_inputs)


def revertexed(c: Circuit, rng: random.Random) -> Circuit:
    """c with its vertex ids shuffled, so sites need not follow their producers' order; edge ids stay."""
    vs = sorted(c.vertices)
    new = dict(zip(vs, rng.sample(vs, len(vs))))
    edges = {eid: Edge(e.label, tuple(map(new.__getitem__, e.att))) for eid, e in c.edges.items()}
    return Circuit(edges, new[c.root], c.num_inputs)


def constant_fed(c: Circuit, rng: random.Random) -> Circuit:
    """c with a random nonempty set of its inputs substituted by random constants."""
    for i in rng.sample(range(1, c.num_inputs + 1), rng.randint(1, c.num_inputs)):
        if c.input_edge(i) is not None:
            c = substitute_input(c, i, rng.randint(0, 1))
    return c


def assignments(n: int):
    return itertools.product((0, 1), repeat=n)


def truth_table(c: Circuit) -> tuple[int, ...]:
    """The root's bit on every assignment, in ``assignments`` order, from one topological pass.

    Each wire's value is a Python-int mask, bit r its value in row r; a
    gate's mask is the union, over the rows of its kind's truth table that
    output 1, of the conjunction of its arguments' masks or complements.
    """
    n = c.num_inputs
    rows = 1 << n
    full = (1 << rows) - 1
    value: dict[int, int] = {}
    for eid in topo_order(c):
        e = c.edges[eid]
        kind = e.label.kind
        if kind is INPUT:  # x_k is bit n-k of the row number: runs of 2^(n-k) zeros, then ones
            run = 1 << (n - e.label.index)
            mask = full // ((1 << 2 * run) - 1) * (((1 << run) - 1) << run)
        else:  # row j of kind.truth: argument i is 0 where bit (arity-1-i) of j is set
            mask = 0
            for j, out in enumerate(kind.truth):
                if out:
                    term = full
                    for i, a in enumerate(reversed(e.args)):
                        term &= full ^ value[a] if j >> i & 1 else value[a]
                    mask |= term
        value[e.result] = mask
    root = value[c.root]
    return tuple(root >> r & 1 for r in range(rows))



def term_truth_table(t: Term, names: list[str]) -> tuple[int, ...]:
    tables = []
    for bits in itertools.product((0, 1), repeat=len(names)):
        env = dict(zip(names, bits))
        tables.append(evaluate_term(t, env))
    return tuple(tables)


def xor_table(n: int) -> tuple[int, ...]:
    return tuple(sum(bits) % 2 for bits in assignments(n))
