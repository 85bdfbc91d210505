"""Translation between the demorgan and u2 bases, and why u2 has no normal forms.

With negations free, each and/or gate together with the negation state of its
arguments is one of the eight non-degenerate binary operations 7..14, and a
negated output folds into the top gate's complement.  Both directions are one
topological pass in which every wire carries a parity: a negation - NOT, or
op 4 or 6, which negate their first and second input - flips the parity of
the wire it negates, and every other gate folds its arguments' parities into
its op.  So a demorgan circuit keeps its size in u2, and a u2 circuit loses
its ops 4/6 in demorgan.

The u2 side has no convergent simplification story, and this module makes the
obstruction executable.  An internal op 4/6 is superfluous and can be removed
two ways - relabeling every successor (push up) or relabeling the producing
gate (push down) - and the two results are functionally equal but not
isomorphic.  A pinned witness circuit exhibits the divergence.
"""

from __future__ import annotations

from importlib import resources

from .circuits import (
    AND,
    CONST0,
    CONST1,
    INPUT,
    KINDS,
    LABELS,
    NOT,
    OR,
    Circuit,
    CircuitBuilder,
    CircuitError,
    Edge,
    LabelKind,
    U2_TRUTH,
    circuit_size,
    label_name,
    reachable_edges,
    topo_order,
    u2_label,
)
from .terms import DEMORGAN_BASIS, U2_BASIS
from .textio import parse_circuit

# The tables below are computed from the truth rows of the label table.  A
# row index is 2(1-p) + (1-q), so negating p flips its bit 2 and q its bit 1.
_OP_OF_TRUTH = {truth: op for op, truth in U2_TRUTH.items()}

# The op of each u2 kind.
OPS: dict[LabelKind, int] = {kind: op for op, kind in enumerate(U2_BASIS.kinds, 1)}

# COMPOSE[kind][4o + 2p + q] is the u2 op computing kind with its first
# argument negated if p, its second if q and its output if o.  It covers the
# binary kinds with an odd number of true rows: and, or and the ops 7..14.
COMPOSE: dict[LabelKind, tuple[int, ...]] = {
    kind: tuple(_OP_OF_TRUTH[tuple(kind.truth[r ^ (f & 3)] ^ (f >> 2) for r in range(4))] for f in range(8))
    for kind in KINDS.values()
    if kind.arity == 2 and sum(kind.truth) % 2
}

# Op 7..14 as one demorgan gate: (gate, negate first arg, negate second arg).
TO_DEMORGAN: dict[int, tuple[str, bool, bool]] = dict(
    sorted((COMPOSE[g.kind][f], (g.kind.name.lower(), f > 1, f % 2 == 1)) for g in (AND, OR) for f in range(4))
)

# Successor relabeling when a superfluous negation is removed below it:
# PUSH_UP_FIRST[k](p, q) == k(not p, q) and PUSH_UP_SECOND[k](p, q) == k(p, not q).
PUSH_UP_FIRST = {k: COMPOSE[u2_label(k).kind][2] for k in TO_DEMORGAN}
PUSH_UP_SECOND = {k: COMPOSE[u2_label(k).kind][1] for k in TO_DEMORGAN}

# COMPLEMENT[k](p, q) == not k(p, q); an involution on 7..14.
COMPLEMENT = {k: COMPOSE[u2_label(k).kind][4] for k in TO_DEMORGAN}

# The superfluous negation ops, each with the position of the argument it
# negates: op 4 is not p, op 6 is not q.
NEGATIONS = {_OP_OF_TRUTH[tuple(NOT.kind.truth[(r >> (1 - pos)) & 1] for r in range(4))]: pos for pos in (0, 1)}

# Every negation kind of either basis, with the position of the argument it negates.
NEGATES = {NOT.kind: 0, **{u2_label(op).kind: pos for op, pos in NEGATIONS.items()}}


def u2_semantics(op: int, p: int, q: int) -> int:
    return u2_label(op).kind.output(p, q)


def _translate(c: Circuit) -> Circuit:
    """The circuit in the other basis, in one topological pass.

    Each wire maps to (translated wire, parity): the wire's value is the
    translated wire's xor the parity.  The gate under the output's chain of
    negations is complemented if that chain is odd, so the output needs a NOT
    only where the chain ends at an input.  One NOT per wire is shared.
    """
    top, flip = c.root, 0
    while (e := c.producer_edge(top)).label.kind in NEGATES:
        top, flip = e.args[NEGATES[e.label.kind]], flip ^ 1
    top_edge = c.producer[top]
    target = U2_BASIS if c.basis == DEMORGAN_BASIS.name else DEMORGAN_BASIS
    builder = CircuitBuilder(c.num_inputs, target.name)
    wires: dict[int, tuple[int, int]] = {}
    negated: dict[int, int] = {}

    def neg(w: int) -> int:
        if w not in negated:
            negated[w] = builder.not_(w)
        return negated[w]

    for eid in topo_order(c):
        e = c.edges[eid]
        kind = e.label.kind
        if kind is INPUT:
            wires[e.result] = (builder.input(e.label.index), 0)
        elif kind in NEGATES:
            w, p = wires[e.args[NEGATES[kind]]]
            wires[e.result] = (w, p ^ 1)
        else:
            (w1, p1), (w2, p2) = wires[e.args[0]], wires[e.args[1]]
            o = flip if eid == top_edge else 0
            op = COMPOSE[kind][4 * o + 2 * p1 + p2]
            if target is U2_BASIS:
                w = builder.u2(op, w1, w2)
            else:
                gate, n1, n2 = TO_DEMORGAN[op]
                w = builder.gate(LABELS[gate.upper()], neg(w1) if n1 else w1, neg(w2) if n2 else w2)
            wires[e.result] = (w, o)
    w, p = wires[c.root]
    return builder.build(neg(w) if p else w, prune=True)


def demorgan_to_u2(c: Circuit) -> Circuit:
    """Equivalent u2 circuit of exactly the same size.

    Negations fold into the ops of the gates that read them (a shared
    negation splits implicitly), and a negated output complements the top
    gate.  Constants are out of scope: normalize first.
    """
    if c.basis != DEMORGAN_BASIS.name:
        raise CircuitError(f"expected a {DEMORGAN_BASIS.name} circuit")
    if any(e.label.kind in (CONST0.kind, CONST1.kind) for e in c.edges.values()):
        raise CircuitError("translation applies to constant-free (normalized) circuits")
    if circuit_size(c) == 0:  # without constants, the output is a chain of NOTs over an input
        raise CircuitError("circuit computes a bare literal; no u2 counterpart of equal size")
    return _translate(c)


def u2_to_demorgan(c: Circuit) -> Circuit:
    """Equivalent demorgan circuit with no more binary gates.

    Requires a circuit free of the degenerate ops 1, 2, 3, 5.  Ops 4/6 are
    free negations here: their parity folds into the ops of their readers,
    and each gate of op 7..14 that the output still reads becomes one and/or
    gate.  An output that resolves to an input literal becomes that literal.
    """
    if c.basis != U2_BASIS.name:
        raise CircuitError(f"expected a {U2_BASIS.name} circuit")
    for eid, e in sorted(c.edges.items()):
        if e.label.kind in OPS and e.label.kind not in COMPOSE and e.label.kind not in NEGATES:
            raise CircuitError(f"edge {eid}: degenerate op {OPS[e.label.kind]}; not translatable")
    return _translate(c)


def _negation(c: Circuit, eid: int) -> tuple[Edge, int]:
    """The op-4/6 gate ``eid`` of a u2 circuit, and the wire it negates; refuses any other edge."""
    e = c.edges[eid]
    if c.basis != U2_BASIS.name or e.label.kind not in NEGATES:
        raise CircuitError(f"edge {eid} is not an op-4/6 negation gate")
    return e, e.args[NEGATES[e.label.kind]]


def push_up(c: Circuit, eid: int) -> Circuit:
    """Remove a superfluous negation gate by relabeling every successor.

    The gate's surviving argument is wired through and each reader's op is
    replaced so it computes the same value from the un-negated wire.
    """
    e, kept = _negation(c, eid)
    out = e.result
    if out == c.root:
        raise CircuitError("the negation gate is the output; nothing to relabel above it")
    edges = dict(c.edges)
    del edges[eid]
    for cid in sorted(c.readers.get(out, ())):
        ce = edges[cid]
        op = OPS.get(ce.label.kind)
        if op not in TO_DEMORGAN:
            raise CircuitError(f"successor edge {cid} has op outside 7..14; cannot relabel")
        new_args = []
        for pos, v in enumerate(ce.args):
            if v == out:
                op = (PUSH_UP_FIRST if pos == 0 else PUSH_UP_SECOND)[op]
                new_args.append(kept)
            else:
                new_args.append(v)
        edges[cid] = Edge(u2_label(op), (ce.result, *new_args))
    keep = reachable_edges(edges, c.root)
    return Circuit({k: edges[k] for k in keep}, c.root, c.num_inputs, c.basis)


def push_down(c: Circuit, eid: int) -> Circuit:
    """Remove a superfluous negation gate by complementing its producer.

    Requires the negated argument to come from a binary gate read by nothing
    else; an input cannot be complemented in place, which is exactly the
    asymmetry that makes both push directions necessary.
    """
    e, negarg = _negation(c, eid)
    pid = c.producer[negarg]
    pe = c.edges[pid]
    if OPS.get(pe.label.kind) not in COMPLEMENT:
        raise CircuitError(f"cannot push down: producer of the negated wire is {label_name(pe.label)}")
    if c.readers[negarg] != {eid}:
        raise CircuitError("cannot push down: the producing gate has other readers")
    edges = dict(c.edges)
    del edges[eid]
    edges[pid] = Edge(u2_label(COMPLEMENT[OPS[pe.label.kind]]), pe.att)
    out = e.result
    edges = {
        k: Edge(x.label, tuple(negarg if v == out else v for v in x.att)) for k, x in edges.items()
    }
    root = negarg if c.root == out else c.root
    keep = reachable_edges(edges, root)
    return Circuit({k: edges[k] for k in keep}, root, c.num_inputs, c.basis)


def load_witness() -> Circuit:
    """The pinned divergence witness: op 8 feeding op 4 feeding op 10."""
    text = resources.files("gatelim").joinpath("data", "nonconfluence_witness.ckt").read_text()
    return parse_circuit(text)


def nonconfluence_witness() -> tuple[Circuit, Circuit, Circuit]:
    """(witness, pushed up, pushed down): equal truth tables, not isomorphic."""
    w = load_witness()
    neg_edges = [eid for eid, e in sorted(w.edges.items()) if e.label.kind in NEGATES]
    if len(neg_edges) != 1:
        raise CircuitError("witness must contain exactly one op-4/6 gate")
    return w, push_up(w, neg_edges[0]), push_down(w, neg_edges[0])
