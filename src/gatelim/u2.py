"""Size-preserving translation between the demorgan and u2 bases.

With negations free, the two bases compute every non-degenerate function
(other than a bare negated input) at identical circuit size: each and/or gate
together with the negation state of its arguments corresponds to one of the
eight non-degenerate binary operations 7..14, and a negated output folds into
the top gate's complement.

The u2 side has no convergent simplification story, and this module makes the
obstruction executable.  Ops 4 and 6 negate their first and second input; an
internal occurrence is superfluous and can be removed two ways - relabeling
every successor (push up) or relabeling the producing gate (push down) - and
the two results are functionally equal but not isomorphic.  A pinned witness
circuit exhibits the divergence.
"""

from __future__ import annotations

from importlib import resources

from .circuits import (
    AND,
    NOT,
    OR,
    AndLabel,
    Circuit,
    CircuitBuilder,
    CircuitError,
    ConstLabel,
    Edge,
    InputLabel,
    NotLabel,
    OrLabel,
    U2Label,
    U2_LABELS,
    U2_TRUTH,
    circuit_size,
    is_binary,
    reachable_edges,
    topo_order,
)
from .textio import parse_circuit

# The tables below are computed from U2_TRUTH and the and/or truth rows.  A
# row index is 2(1-p) + (1-q), so negating p flips its bit 2 and q its bit 1.
_OP_OF_TRUTH = {truth: op for op, truth in U2_TRUTH.items()}


def _op(row_bit) -> int:
    """The op whose output on row r is row_bit(r)."""
    return _OP_OF_TRUTH[tuple(row_bit(r) for r in range(4))]


# Op 7..14 as one demorgan gate: (gate, negate first arg, negate second arg).
TO_DEMORGAN: dict[int, tuple[str, bool, bool]] = dict(
    sorted(
        (_op(lambda r: gate.kind.truth[r ^ (2 * n1 + n2)]), (gate.kind.name.lower(), n1, n2))
        for gate in (AND, OR)
        for n1 in (False, True)
        for n2 in (False, True)
    )
)

FROM_DEMORGAN = {(gate, n1, n2): op for op, (gate, n1, n2) in TO_DEMORGAN.items()}

# Successor relabeling when a superfluous negation is removed below it:
# PUSH_UP_FIRST[k](p, q) == k(not p, q) and PUSH_UP_SECOND[k](p, q) == k(p, not q).
PUSH_UP_FIRST = {k: _op(lambda r: U2_TRUTH[k][r ^ 2]) for k in TO_DEMORGAN}
PUSH_UP_SECOND = {k: _op(lambda r: U2_TRUTH[k][r ^ 1]) for k in TO_DEMORGAN}

# COMPLEMENT[k](p, q) == not k(p, q); an involution on 7..14.
COMPLEMENT = {k: _op(lambda r: 1 - U2_TRUTH[k][r]) for k in TO_DEMORGAN}

# The superfluous negation ops, each with the position of the argument it
# negates: op 4 is not p, op 6 is not q.  Bit 2 of a row is p's row, bit 1 q's.
NEGATIONS = {_op(lambda r: NOT.kind.truth[r >> 1]): 0, _op(lambda r: NOT.kind.truth[r & 1]): 1}


def u2_semantics(op: int, p: int, q: int) -> int:
    return U2Label(op).kind.output(p, q)


def _is_negation(e: Edge) -> bool:
    return isinstance(e.label, U2Label) and e.label.op in NEGATIONS


def _resolve_literal(c: Circuit, vertex: int) -> tuple[int, int]:
    """Follow negation edges down to a non-negation wire; returns (wire, parity)."""
    parity = 0
    e = c.producer_edge(vertex)
    while isinstance(e.label, NotLabel):
        parity ^= 1
        vertex = e.args[0]
        e = c.producer_edge(vertex)
    return vertex, parity


def demorgan_to_u2(c: Circuit) -> Circuit:
    """Equivalent u2 circuit of exactly the same size.

    Negation chains are absorbed into the gate ops (splitting shared
    negations implicitly), and a negated output complements the top gate.
    Constants are out of scope: normalize first.
    """
    if c.basis != "demorgan":
        raise CircuitError("expected a demorgan circuit")
    if any(isinstance(e.label, ConstLabel) for e in c.edges.values()):
        raise CircuitError("translation applies to constant-free (normalized) circuits")
    if circuit_size(c) == 0:
        raise CircuitError("circuit computes a bare literal; no u2 counterpart of equal size")
    top_base, top_parity = _resolve_literal(c, c.root)
    top_edge = c.producer[top_base]
    if not is_binary(c.edges[top_edge].label):
        raise CircuitError("circuit computes a bare literal; no u2 counterpart of equal size")
    builder = CircuitBuilder(c.num_inputs, basis="u2")
    wires: dict[int, int] = {}
    for eid in topo_order(c):
        e = c.edges[eid]
        if isinstance(e.label, InputLabel):
            wires[e.result] = builder.input(e.label.index)
        elif isinstance(e.label, (AndLabel, OrLabel)):
            (v1, n1), (v2, n2) = (_resolve_literal(c, v) for v in e.args)
            op = FROM_DEMORGAN[(e.label.kind.name.lower(), bool(n1), bool(n2))]
            if eid == top_edge and top_parity:
                op = COMPLEMENT[op]
            wires[e.result] = builder.u2(op, wires[v1], wires[v2])
    return builder.build(wires[top_base], prune=True)


def u2_to_demorgan(c: Circuit) -> Circuit:
    """Equivalent demorgan circuit of exactly the same binary-gate count.

    Requires a circuit free of the degenerate ops 1, 2, 3, 5; superfluous
    negation ops 4/6 are first eliminated by pushing: the inner ones up, the
    last in topological order first, then the one at the output down.
    """
    if c.basis != "u2":
        raise CircuitError("expected a u2 circuit")
    for eid, e in sorted(c.edges.items()):
        if isinstance(e.label, U2Label) and e.label.op not in TO_DEMORGAN and e.label.op not in NEGATIONS:
            raise CircuitError(f"edge {eid}: degenerate op {e.label.op}; not translatable")
    while True:
        negs = [eid for eid in topo_order(c) if _is_negation(c.edges[eid])]
        if not negs:
            break
        # The last inner negation's readers come later in topological order,
        # so none of them is another inner negation that push_up would refuse.
        inner = [eid for eid in negs if c.edges[eid].result != c.root]
        c = push_up(c, inner[-1]) if inner else push_down(c, negs[0])
    builder = CircuitBuilder(c.num_inputs, basis="demorgan")
    wires: dict[int, int] = {}
    negated: dict[int, int] = {}

    def neg(v: int) -> int:
        if v not in negated:
            negated[v] = builder.not_(v)
        return negated[v]

    for eid in topo_order(c):
        e = c.edges[eid]
        if isinstance(e.label, InputLabel):
            wires[e.result] = builder.input(e.label.index)
        else:
            gate, n1, n2 = TO_DEMORGAN[e.label.op]
            a, b = wires[e.args[0]], wires[e.args[1]]
            a = neg(a) if n1 else a
            b = neg(b) if n2 else b
            wires[e.result] = builder.and_(a, b) if gate == "and" else builder.or_(a, b)
    return builder.build(wires[c.root], prune=True)


def push_up(c: Circuit, eid: int) -> Circuit:
    """Remove a superfluous negation gate by relabeling every successor.

    The gate's surviving argument is wired through and each reader's op is
    replaced so it computes the same value from the un-negated wire.
    """
    e = c.edges[eid]
    if not _is_negation(e):
        raise CircuitError(f"edge {eid} is not an op-4/6 negation gate")
    kept = e.args[NEGATIONS[e.label.op]]
    out = e.result
    if out == c.root:
        raise CircuitError("the negation gate is the output; nothing to relabel above it")
    edges = dict(c.edges)
    del edges[eid]
    for cid, ce in list(edges.items()):
        if out not in ce.args:
            continue
        if not (isinstance(ce.label, U2Label) and ce.label.op in TO_DEMORGAN):
            raise CircuitError(f"successor edge {cid} has op outside 7..14; cannot relabel")
        op = ce.label.op
        new_args = []
        for pos, v in enumerate(ce.args):
            if v == out:
                op = (PUSH_UP_FIRST if pos == 0 else PUSH_UP_SECOND)[op]
                new_args.append(kept)
            else:
                new_args.append(v)
        edges[cid] = Edge(U2_LABELS[op], (ce.result, *new_args))
    keep = reachable_edges(edges, c.root)
    return Circuit({k: edges[k] for k in keep}, c.root, c.num_inputs, c.basis)


def push_down(c: Circuit, eid: int) -> Circuit:
    """Remove a superfluous negation gate by complementing its producer.

    Requires the negated argument to come from a binary gate read by nothing
    else; an input cannot be complemented in place, which is exactly the
    asymmetry that makes both push directions necessary.
    """
    e = c.edges[eid]
    if not _is_negation(e):
        raise CircuitError(f"edge {eid} is not an op-4/6 negation gate")
    negarg = e.args[NEGATIONS[e.label.op]]
    pid = c.producer[negarg]
    pe = c.edges[pid]
    if not (isinstance(pe.label, U2Label) and pe.label.op in COMPLEMENT):
        raise CircuitError(f"cannot push down: producer of the negated wire is {type(pe.label).__name__}")
    readers = [x for x, other in c.edges.items() if negarg in other.args]
    if readers != [eid]:
        raise CircuitError("cannot push down: the producing gate has other readers")
    edges = dict(c.edges)
    del edges[eid]
    edges[pid] = Edge(U2_LABELS[COMPLEMENT[pe.label.op]], pe.att)
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
    neg_edges = [eid for eid, e in sorted(w.edges.items()) if _is_negation(e)]
    if len(neg_edges) != 1:
        raise CircuitError("witness must contain exactly one op-4/6 gate")
    return w, push_up(w, neg_edges[0]), push_down(w, neg_edges[0])
