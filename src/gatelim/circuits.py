"""Boolean circuits as rooted acyclic hypergraphs.

Gates are hyperedges and wires are vertices: each edge's attachment lists its
result vertex first, then its argument vertices, and every vertex is the
result of exactly one edge.  A circuit carries a basis tag: ``demorgan``
circuits use and/or/not/constant gates, ``u2`` circuits use the fourteen
binary operations indexed 1..14 (all two-input Boolean functions except
exclusive-or and its complement).

Circuits are immutable after construction; every operation here is a pure
function.  Circuit size counts binary gates only - negations, constants, and
inputs are free.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from . import terms


class CircuitError(Exception):
    pass


@dataclass(frozen=True)
class InputLabel:
    index: int


@dataclass(frozen=True)
class ConstLabel:
    value: int


@dataclass(frozen=True)
class NotLabel:
    pass


@dataclass(frozen=True)
class AndLabel:
    pass


@dataclass(frozen=True)
class OrLabel:
    pass


@dataclass(frozen=True)
class U2Label:
    op: int


GateLabel = Union[InputLabel, ConstLabel, NotLabel, AndLabel, OrLabel, U2Label]

NOT = NotLabel()
AND = AndLabel()
OR = OrLabel()
CONST0 = ConstLabel(0)
CONST1 = ConstLabel(1)

# The gate label of each formula node kind.  Rule patterns compile through
# this table and unrollings read it backwards.
TERM_LABELS: dict[type, GateLabel] = {
    terms.Const0: CONST0,
    terms.Const1: CONST1,
    terms.Not: NOT,
    terms.And: AND,
    terms.Or: OR,
}
_LABEL_TERMS = {label: node for node, label in TERM_LABELS.items()}

# Truth table of each binary operation, rows ordered (p,q) = TT, TF, FT, FF.
# This table is the single source of truth for op semantics; ops 4 and 6
# negate their first and second input, 1/2 are constants, 3/5 projections.
U2_TRUTH: dict[int, tuple[int, int, int, int]] = {
    1: (1, 1, 1, 1),
    2: (0, 0, 0, 0),
    3: (1, 1, 0, 0),
    4: (0, 0, 1, 1),
    5: (1, 0, 1, 0),
    6: (0, 1, 0, 1),
    7: (1, 1, 0, 1),
    8: (0, 0, 1, 0),
    9: (1, 0, 1, 1),
    10: (0, 1, 0, 0),
    11: (1, 0, 0, 0),
    12: (0, 1, 1, 1),
    13: (1, 1, 1, 0),
    14: (0, 0, 0, 1),
}


def arity(label: GateLabel) -> int:
    if isinstance(label, (InputLabel, ConstLabel)):
        return 0
    if isinstance(label, NotLabel):
        return 1
    return 2


def is_binary(label: GateLabel) -> bool:
    return isinstance(label, (AndLabel, OrLabel, U2Label))


def label_name(label: GateLabel) -> str:
    if isinstance(label, InputLabel):
        return f"x{label.index}"
    if isinstance(label, ConstLabel):
        return f"CONST{label.value}"
    if isinstance(label, NotLabel):
        return "NOT"
    if isinstance(label, AndLabel):
        return "AND"
    if isinstance(label, OrLabel):
        return "OR"
    return f"U2_{label.op}"


@dataclass(frozen=True)
class Edge:
    label: GateLabel
    att: tuple[int, ...]

    @property
    def result(self) -> int:
        return self.att[0]

    @property
    def args(self) -> tuple[int, ...]:
        return self.att[1:]


class Circuit:
    """A rooted hypergraph; treat as immutable after construction."""

    def __init__(self, edges: dict[int, Edge], root: int, num_inputs: int, basis: str = "demorgan"):
        if basis not in ("demorgan", "u2"):
            raise CircuitError(f"unknown basis {basis!r}")
        self.edges: dict[int, Edge] = dict(edges)
        self.root = root
        self.num_inputs = num_inputs
        self.basis = basis
        self.producer: dict[int, int] = {}
        vertices: set[int] = set()
        for eid, e in self.edges.items():
            self.producer[e.result] = eid
            vertices.update(e.att)
        self.vertices: frozenset[int] = frozenset(vertices)

    def producer_edge(self, vertex: int) -> Edge:
        return self.edges[self.producer[vertex]]

    def input_edge(self, index: int) -> Optional[int]:
        for eid, e in self.edges.items():
            if e.label == InputLabel(index):
                return eid
        return None

    def read_inputs(self) -> set[int]:
        return {e.label.index for e in self.edges.values() if isinstance(e.label, InputLabel)}


def reachable_edges(edges: dict[int, Edge], root: int) -> set[int]:
    """Edge ids reachable from the root vertex through producers and arguments."""
    producer = {e.result: eid for eid, e in edges.items()}
    seen_v: set[int] = set()
    seen_e: set[int] = set()
    stack = [root]
    while stack:
        v = stack.pop()
        if v in seen_v:
            continue
        seen_v.add(v)
        eid = producer.get(v)
        if eid is None:
            continue
        seen_e.add(eid)
        stack.extend(edges[eid].args)
    return seen_e


def validate(c: Circuit) -> list[str]:
    """Check every structural invariant; returns violations (empty = valid)."""
    out = []
    if c.root not in c.vertices:
        out.append(f"root vertex {c.root} does not occur in any edge")
    results: dict[int, list[int]] = {}
    seen_inputs: dict[int, int] = {}
    for eid, e in sorted(c.edges.items()):
        if len(e.att) != 1 + arity(e.label):
            out.append(f"edge {eid}: attachment arity {len(e.att)} for {label_name(e.label)}")
        if not e.att:
            continue
        results.setdefault(e.result, []).append(eid)
        if isinstance(e.label, InputLabel):
            if not 1 <= e.label.index <= c.num_inputs:
                out.append(f"edge {eid}: input index {e.label.index} out of range 1..{c.num_inputs}")
            if e.label.index in seen_inputs:
                out.append(f"edge {eid}: duplicate edge for input x{e.label.index}")
            seen_inputs[e.label.index] = eid
        if isinstance(e.label, U2Label):
            if c.basis != "u2":
                out.append(f"edge {eid}: U2 gate in a {c.basis} circuit")
            if not 1 <= e.label.op <= 14:
                out.append(f"edge {eid}: U2 op {e.label.op} out of range 1..14")
        elif isinstance(e.label, (NotLabel, AndLabel, OrLabel, ConstLabel)) and c.basis != "demorgan":
            out.append(f"edge {eid}: {label_name(e.label)} gate in a {c.basis} circuit")
    for v in sorted(c.vertices):
        eids = results.get(v, [])
        if len(eids) == 0:
            out.append(f"vertex {v} is the result of no edge")
        elif len(eids) > 1:
            out.append(f"vertex {v} is the result of edges {eids} (non-unique result edge)")
    try:
        topo_order(c)
    except CircuitError as exc:
        out.append(str(exc))
    keep = reachable_edges(c.edges, c.root)
    for eid in sorted(set(c.edges) - keep):
        out.append(f"edge {eid} is unreachable from the root")
    return out


def circuit_size(c: Circuit) -> int:
    """Number of binary gates; negations, constants, and inputs are free."""
    return sum(1 for e in c.edges.values() if is_binary(e.label))


def topo_order(c: Circuit) -> list[int]:
    """Edge ids in dependency order, ties broken by ascending edge id."""
    consumers: dict[int, list[int]] = {eid: [] for eid in c.edges}
    indegree: dict[int, int] = {}
    for eid, e in c.edges.items():
        deps = set()
        for v in e.args:
            dep = c.producer.get(v)
            if dep is not None:
                deps.add(dep)
        indegree[eid] = len(deps)
        for dep in deps:
            consumers[dep].append(eid)
    ready = [eid for eid, d in indegree.items() if d == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        eid = heapq.heappop(ready)
        order.append(eid)
        for succ in consumers[eid]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                heapq.heappush(ready, succ)
    if len(order) != len(c.edges):
        raise CircuitError("cycle detected among edges " + str(sorted(set(c.edges) - set(order))))
    return order


def evaluate(c: Circuit, bits: Sequence[int]) -> int:
    """The bit computed at the root; bits[i] is the value of x_{i+1}."""
    if len(bits) != c.num_inputs:
        raise CircuitError(f"assignment has {len(bits)} bits, circuit declares {c.num_inputs} inputs")
    value: dict[int, int] = {}
    for eid in topo_order(c):
        e = c.edges[eid]
        label = e.label
        if isinstance(label, InputLabel):
            v = int(bits[label.index - 1])
        elif isinstance(label, ConstLabel):
            v = label.value
        elif isinstance(label, NotLabel):
            v = 1 - value[e.args[0]]
        elif isinstance(label, AndLabel):
            v = value[e.args[0]] & value[e.args[1]]
        elif isinstance(label, OrLabel):
            v = value[e.args[0]] | value[e.args[1]]
        else:
            p, q = value[e.args[0]], value[e.args[1]]
            v = U2_TRUTH[label.op][(1 - p) * 2 + (1 - q)]
        value[e.result] = v
    return value[c.root]


def unroll_term(c: Circuit, budget: int = 2**20) -> terms.Term:
    """The tree unrolling of the circuit; shared subgraphs duplicate.

    Worst-case exponential in the circuit, hence the node budget.
    """
    if c.basis != "demorgan":
        raise CircuitError("only demorgan circuits unroll to terms")
    count = 0

    def go(v: int) -> terms.Term:
        nonlocal count
        count += 1
        if count > budget:
            raise terms.BudgetError(f"unrolling exceeds {budget} nodes")
        e = c.producer_edge(v)
        if isinstance(e.label, InputLabel):
            return terms.Var(f"x{e.label.index}")
        return _LABEL_TERMS[e.label](*(go(a) for a in e.args))

    return go(c.root)


def bisimilar(a: Circuit, b: Circuit) -> bool:
    """Whether the tree unrollings are equal, without materializing them.

    Walks the pairs of vertices the two unrollings put in the same position,
    visiting each pair once; polynomial even where unrolling would explode.
    """
    if a.basis != b.basis:
        raise CircuitError("cannot compare circuits over different bases")
    seen = {(a.root, b.root)}
    stack = [(a.root, b.root)]
    while stack:
        u, v = stack.pop()
        ea, eb = a.producer_edge(u), b.producer_edge(v)
        if ea.label != eb.label:
            return False
        for pair in zip(ea.args, eb.args):
            if pair not in seen:
                seen.add(pair)
                stack.append(pair)
    return True


def root_morphism(src: Circuit, dst: Circuit) -> Optional[dict[int, int]]:
    """The unique label- and attachment-preserving map sending root to root.

    Rooted term graphs are rigid: the image of every vertex is forced by
    following producer edges from the root, so the morphism either exists
    uniquely or not at all.
    """
    mapping = {src.root: dst.root}
    stack = [src.root]
    while stack:
        u = stack.pop()
        v = mapping[u]
        ea, eb = src.producer_edge(u), dst.producer_edge(v)
        if ea.label != eb.label:
            return None
        for x, y in zip(ea.args, eb.args):
            bound = mapping.get(x)
            if bound is None:
                mapping[x] = y
                stack.append(x)
            elif bound != y:
                return None
    return mapping


def isomorphic(a: Circuit, b: Circuit) -> bool:
    """Whether a bijective hypergraph morphism maps root to root."""
    if a.basis != b.basis:
        raise CircuitError("cannot compare circuits over different bases")
    m = root_morphism(a, b)
    if m is None or len(m) != len(a.vertices):
        return False
    return len(set(m.values())) == len(m) == len(b.vertices)


class CircuitBuilder:
    """Incremental construction; methods return the result vertex of the new gate."""

    def __init__(self, num_inputs: int, basis: str = "demorgan"):
        self.num_inputs = num_inputs
        self.basis = basis
        self._edges: dict[int, Edge] = {}
        self._inputs: dict[int, int] = {}
        self._next_vertex = 0
        self._next_edge = 0

    def _add(self, label: GateLabel, args: tuple[int, ...]) -> int:
        v = self._next_vertex
        self._next_vertex += 1
        self._edges[self._next_edge] = Edge(label, (v, *args))
        self._next_edge += 1
        return v

    def input(self, index: int) -> int:
        """The wire of x_index, creating its edge on first use."""
        if not 1 <= index <= self.num_inputs:
            raise CircuitError(f"input index {index} out of range 1..{self.num_inputs}")
        if index not in self._inputs:
            self._inputs[index] = self._add(InputLabel(index), ())
        return self._inputs[index]

    def const(self, value: int) -> int:
        return self._add(ConstLabel(value), ())

    def not_(self, v: int) -> int:
        return self._add(NOT, (v,))

    def and_(self, a: int, b: int) -> int:
        return self._add(AND, (a, b))

    def or_(self, a: int, b: int) -> int:
        return self._add(OR, (a, b))

    def u2(self, op: int, a: int, b: int) -> int:
        return self._add(U2Label(op), (a, b))

    def build(self, root: int, prune: bool = False) -> Circuit:
        edges = self._edges
        if prune:
            keep = reachable_edges(edges, root)
            edges = {eid: edges[eid] for eid in keep}
        c = Circuit(edges, root, self.num_inputs, self.basis)
        violations = validate(c)
        if violations:
            raise CircuitError("invalid circuit: " + "; ".join(violations))
        return c
