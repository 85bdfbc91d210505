"""Shared test helpers: the seeded random circuit generator and truth-table oracles."""

from __future__ import annotations

import itertools
import random

from gatelim.circuits import Circuit, CircuitBuilder, circuit_size, evaluate
from gatelim.terms import Term, evaluate_term


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


def undersized_circuit(rng: random.Random, n: int) -> Circuit:
    """A random circuit with fewer than 3(n-1) binary gates."""
    bound = 3 * (n - 1)
    while True:
        gates = rng.randint(1, bound - 1)
        c = random_circuit(rng, n, gates)
        if circuit_size(c) < bound:
            return c


def assignments(n: int):
    return itertools.product((0, 1), repeat=n)


def truth_table(c: Circuit) -> tuple[int, ...]:
    return tuple(evaluate(c, bits) for bits in assignments(c.num_inputs))


def term_truth_table(t: Term, names: list[str]) -> tuple[int, ...]:
    tables = []
    for bits in itertools.product((0, 1), repeat=len(names)):
        env = dict(zip(names, bits))
        tables.append(evaluate_term(t, env))
    return tuple(tables)


def xor_table(n: int) -> tuple[int, ...]:
    return tuple(sum(bits) % 2 for bits in assignments(n))
