"""Seeded circuit families, written directly as circuit text.

The program under test sees only the files these functions produce.  Every
gate is reachable from the output by construction, so parsing prunes nothing
and the requested size is the size the program works on.

- ``neartight``: parity with one 3-gate block replaced by a single OR.  At
  3(n-1)-2 gates it is just below the parity bound, and it keeps the refuter
  busy for pos-2 elimination rounds.
- ``layered_dag``: wide layered DAGs whose gates each read two distinct wires
  of the previous layer, optionally fed by constants.  Without constants the
  result is already in normal form (no constants, one shared NOT per negated
  wire, distinct non-complementary arguments, no parallel duplicates).
"""

from __future__ import annotations

import random


class TextCircuit:
    """Accumulates ``name = OP args`` lines with names n1, n2, ... in order."""

    def __init__(self, num_inputs: int):
        self.num_inputs = num_inputs
        self.lines: list[str] = []
        self.touched = 0  # binary gates that read a wire constant propagation makes constant
        self._nots: dict[str, str] = {}
        self._consts: dict[str, int] = {}

    def gate(self, op: str, *args: str) -> str:
        name = f"n{len(self.lines) + 1}"
        self.lines.append(" ".join((name, "=", op) + args))
        known = [self._consts.get(a) for a in args]
        if op in ("CONST0", "CONST1"):
            self._consts[name] = int(op[-1])
        elif op == "NOT" and known[0] is not None:
            self._consts[name] = 1 - known[0]
        elif op in ("AND", "OR"):
            if known != [None, None]:
                self.touched += 1
            absorbing = 0 if op == "AND" else 1
            if absorbing in known:
                self._consts[name] = absorbing
            elif None not in known:
                self._consts[name] = known[0]
        return name

    def negation(self, wire: str) -> str:
        """The one shared NOT over the wire."""
        if wire not in self._nots:
            self._nots[wire] = self.gate("NOT", wire)
        return self._nots[wire]

    def text(self, output: str) -> str:
        head = ["ckt 1", "basis demorgan", f"inputs {self.num_inputs}"]
        return "\n".join(head + self.lines + [f"output {output}"]) + "\n"


def neartight(rng: random.Random, n: int, pos: int) -> str:
    """``xor_circuit(n)`` with the block combining x_pos replaced by OR(acc, x_pos).

    Size 3(n-1)-2.  The seed relabels the inputs and orders the OR's
    arguments; the refuter runs pos-2 elimination rounds on it.
    """
    if not 2 <= pos <= n:
        raise ValueError(f"pos {pos} outside 2..{n}")
    labels = [f"x{k}" for k in range(1, n + 1)]
    rng.shuffle(labels)
    c = TextCircuit(n)
    acc = labels[0]
    for k in range(2, n + 1):
        xk = labels[k - 1]
        if k == pos:
            pair = [acc, xk]
            rng.shuffle(pair)
            acc = c.gate("OR", *pair)
        else:
            left = c.gate("AND", acc, c.gate("NOT", xk))
            right = c.gate("AND", c.gate("NOT", acc), xk)
            acc = c.gate("OR", left, right)
    return c.text(acc)


def layer_widths(gates: int, width: int) -> list[int]:
    """Body layers of the given width, then a funnel halving down to one gate.

    There are at least two body layers.  The first takes the remainder, so it
    is between width and 2*width-1 gates wide and the total is exactly
    ``gates``; every layer then has enough gates to read all of the one
    before it.
    """
    funnel = []
    w = width // 2
    while w >= 1:
        funnel.append(w)
        w //= 2
    body = gates - sum(funnel)
    if body < 2 * width:
        raise ValueError(f"{gates} gates is too few for width {width}")
    layers = body // width
    first = body - (layers - 1) * width
    return [first] + [width] * (layers - 1) + funnel


def _draw_layer(rng, prev: list[str], width: int, neg_share: float, seen: set):
    """Gate keys (op, a, negate a, b, negate b) reading every wire of ``prev``, or None.

    None when a draw repeats a gate of ``seen`` or of this layer, which would
    be a parallel duplicate.
    """
    uncovered = list(prev)
    rng.shuffle(uncovered)
    plan = []
    for _ in range(width):
        a = uncovered.pop() if uncovered else rng.choice(prev)
        others = [w for w in uncovered if w != a]
        b = others[-1] if others else rng.choice([w for w in prev if w != a])
        if b in uncovered:
            uncovered.remove(b)
        key = (rng.choice(("AND", "OR")), a, rng.random() < neg_share, b, rng.random() < neg_share)
        if key in seen or key in plan:
            return None
        plan.append(key)
    return plan if not uncovered else None


def _layer(rng, c: TextCircuit, prev: list[str], width: int, neg_share: float, seen: set) -> list[str]:
    """One layer of gates over ``prev`` that reads every wire of ``prev`` at least once."""
    if 2 * width < len(prev) or len(prev) < 2:
        raise ValueError(f"{width} gates cannot read all {len(prev)} wires")
    for _ in range(100):
        plan = _draw_layer(rng, prev, width, neg_share, seen)
        if plan is not None:
            break
    else:
        raise RuntimeError("could not draw a duplicate-free covering layer")
    seen.update(plan)
    out = []
    for op, a, na, b, nb in plan:
        a = c.negation(a) if na else a
        b = c.negation(b) if nb else b
        out.append(c.gate(op, a, b))
    return out


def layered_dag(
    rng: random.Random, n: int, gates: int, width: int, const_share: float = 0.0, neg_share: float = 0.25
) -> tuple[str, int]:
    """A layered DAG with exactly ``gates`` binary gates on n inputs, and its touched count.

    The first layer reads x1..xn plus enough constants that they make up
    ``const_share`` of its wires.  Each later gate reads two distinct wires of
    the layer before it, each negated with probability ``neg_share`` through
    the wire's one shared NOT.  The second value counts the binary gates that
    read a constant once constants are propagated: each fires at least one
    rewrite step, so it predicts the work of normalizing the DAG.
    """
    c = TextCircuit(n)
    prev = [f"x{k}" for k in range(1, n + 1)]
    consts = round(const_share * n / (1 - const_share))
    prev += [c.gate(rng.choice(("CONST0", "CONST1"))) for _ in range(consts)]
    seen: set = set()
    for width in layer_widths(gates, width):
        prev = _layer(rng, c, prev, width, neg_share, seen)
    return c.text(prev[0]), c.touched
