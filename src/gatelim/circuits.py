"""Boolean circuits as rooted acyclic hypergraphs.

Gates are hyperedges and wires are vertices: each edge's attachment lists its
result vertex first, then its argument vertices, and every vertex is the
result of exactly one edge.  A circuit carries the name of its basis, which
keys its row of the basis table ``terms.BASES``: the row lists the gate kinds
the basis has, and every other fact about it.  ``demorgan`` circuits use
and/or/not/constant gates, ``u2`` circuits the fourteen binary operations
indexed 1..14 (all two-input Boolean functions except exclusive-or and its
complement).  ``validate`` and ``CircuitBuilder.build`` read the row once per
circuit and test each gate's kind for membership in it; code that needs one
particular basis imports its row.

A gate's label is its kind, a row of the label table ``KINDS`` (``INPUT`` for
an input), plus an input index, 0 for every other kind.  Labels compare as
tuples, the kind by identity, so every test of a gate's kind is an identity
test on ``label.kind``.

``canonical_names`` is a circuit's one canonical numbering: its gates named
n1..nk in depth-first post-order from the output.  The text format writes
it, and ``isomorphic`` compares it.

``CircuitBuilder`` makes circuits in which vertex v is the result of edge v
and every argument is an earlier wire, so they are defined, acyclic and
topologically numbered by construction; its ``build`` is their check, and
``validate`` the full check for any other circuit.

Circuits are immutable after construction; every operation here is a pure
function.  Circuit size counts binary gates only - negations, constants, and
inputs are free.  Two indexes, which ``Circuit.walk`` runs over, are built on
first use, so that parsing, ``validate`` and ``evaluate`` build neither:
``readers`` and ``leaves``.  A ``rewrite.WorkingGraph`` keeps both current,
and keeps its ``Walk`` too.
"""

from __future__ import annotations

import heapq
from functools import cached_property
from typing import Iterator, NamedTuple, Optional, Sequence

from . import terms
from .terms import BASES, DEMORGAN_BASIS, INPUT, KINDS, U2_BASIS, U2_TRUTH, CircuitError, LabelKind


class Label(NamedTuple):
    """A gate's label: its row of the label table, and for an input its index (0 for every other kind)."""

    kind: LabelKind
    index: int = 0


# The one label of each gate kind, by its text name, so that builders and
# the parser construct none.  Only inputs have a label per index.
LABELS: dict[str, Label] = {name: Label(kind) for name, kind in KINDS.items()}
NOT, AND, OR, CONST0, CONST1 = (LABELS[name] for name in ("NOT", "AND", "OR", "CONST0", "CONST1"))
U2_LABELS = tuple(LABELS[kind.name] for kind in U2_BASIS.kinds)  # op k's label is U2_LABELS[k - 1]


def const_label(value: int) -> Label:
    if value not in (0, 1):
        raise CircuitError(f"constant {value} is not 0 or 1")
    return CONST1 if value else CONST0


def u2_label(op: int) -> Label:
    if not 1 <= op <= len(U2_LABELS):
        raise CircuitError(f"u2 op {op} out of range 1..{len(U2_LABELS)}")
    return U2_LABELS[op - 1]


def is_binary(label: Label) -> bool:
    return label.kind.arity == 2


def label_name(label: Label) -> str:
    kind = label.kind
    return f"{kind.name}{label.index}" if kind is INPUT else kind.name


class _EdgeFields(NamedTuple):
    label: Label
    att: tuple[int, ...]
    result: int
    args: tuple[int, ...]


class Edge(_EdgeFields):
    """A gate: its label and its attachment, the result vertex first, then the arguments.

    Built as ``Edge(label, att)``; ``result`` and ``args`` are stored then,
    so reading them costs no slice.  Edges are immutable values: equal
    ``(label, att)`` give equal edges with equal hashes.
    """

    __slots__ = ()

    def __new__(cls, label: Label, att: tuple[int, ...]) -> Edge:
        return tuple.__new__(cls, (label, att, att[0], att[1:]))

    def __getnewargs__(self):
        return self.label, self.att

    def __repr__(self) -> str:
        return f"{type(self).__name__}(label={self.label!r}, att={self.att!r})"


_new_tuple = tuple.__new__  # with Edge and its four fields, builds an edge without Edge.__new__


class Circuit:
    """A rooted hypergraph; treat as immutable after construction."""

    ids_ordered = False  # proved: every argument's producer has a smaller id than its reader

    def __init__(self, edges: dict[int, Edge], root: int, num_inputs: int, basis: str = DEMORGAN_BASIS.name):
        if basis not in BASES:
            raise CircuitError(f"unknown basis {basis!r}")
        self.edges: dict[int, Edge] = dict(edges)
        self.root = root
        self.num_inputs = num_inputs
        self.basis = basis
        self.producer: dict[int, int] = {}
        self.inputs: dict[int, int] = {}  # input index -> its edge, the first in edge order
        vertices: set[int] = set()
        for eid, e in self.edges.items():
            self.producer[e.result] = eid
            vertices.update(e.att)
            if e.label.kind is INPUT:
                self.inputs.setdefault(e.label.index, eid)
        self.vertices: frozenset[int] = frozenset(vertices)

    @classmethod
    def _numbered(
        cls, edges: dict[int, Edge], root: int, num_inputs: int, basis: str, inputs: dict[int, int]
    ) -> Circuit:
        """A circuit in which edge v has result v and reads only earlier results, indexed without a pass.

        So the producer of v is v, the vertices are the edge ids, and
        ascending id order is topological (``ids_ordered``, which ``topo_order``
        trusts); the caller, ``CircuitBuilder.build``, has proved that and
        gives the input edges, in edge order.
        """
        c = cls({}, root, num_inputs, basis)  # checks the basis
        c.edges = dict(edges)
        c.producer = dict(zip(c.edges, c.edges))
        c.inputs = inputs
        c.vertices = frozenset(c.edges)
        c.ids_ordered = True
        return c

    def producer_edge(self, vertex: int) -> Edge:
        return self.edges[self.producer[vertex]]

    def input_edge(self, index: int) -> Optional[int]:
        return self.inputs.get(index)

    @cached_property
    def readers(self) -> dict[int, set[int]]:
        """The edges reading each vertex; only vertices that are read have an entry."""
        readers: dict[int, set[int]] = {}
        for eid, e in self.edges.items():
            for v in e.args:
                readers.setdefault(v, set()).add(eid)
        return readers

    @cached_property
    def leaves(self) -> set[int]:
        """The edges without arguments: inputs and constants."""
        return {eid for eid, e in self.edges.items() if not e.args}

    def walk(self) -> Iterator[int]:
        """The edge ids in ``topo_order``'s order, computed only as far as they are consumed.

        Kahn's algorithm along the reader index, ready edges on a min-id heap,
        where every wire has one producer (``topo_order`` handles the rest);
        edges on or above a cycle never come out.  ``Walk.grow`` over a fresh
        walk that records nothing.  Do not change the circuit while the walk
        is in use.
        """
        return Walk(self).grow(self, record=False)


class Walk:
    """Kahn's algorithm part-way through a circuit: the edges it has popped, and its state for the next.

    ``seq`` holds the popped edge ids in order and ``pos`` each one's
    position in it.  ``ready`` is the min-id heap of the edges whose argument
    producers have all popped, and ``waiting`` counts, for an edge that has
    not popped, the distinct argument wires whose producers have not; an edge
    without an entry has had none of them pop, or is ready.  ``grow`` is the
    Kahn loop over the whole circuit: ``Circuit.walk`` runs it over a fresh
    walk without recording the pops, and a ``rewrite.WorkingGraph`` keeps
    its walk, recorded, across edits.  ``walk_within`` is the other Kahn
    loop, over a down-closed edge set alone; it repeats ``grow``'s release
    loop with a membership test on each reader, kept out of ``grow`` so that
    the whole-circuit walk pays nothing for it.  An edited walk may hold None in ``seq`` where a
    popped edge was deleted, edges in ``ready`` that are no longer ready, and
    deleted edges in ``waiting``; the recording loop skips an edge that has
    popped or that ``waiting`` holds.

    ``unpop`` and ``place``, called as the circuit changes, keep the walk a
    prefix of the one a fresh walk of the changed circuit pops, cutting it
    (``cut``) only where that walk could differ.  Each returns True when a
    cut would fall in the first half of the walk: walking there again costs
    less than undoing, so the walk is to be dropped, and is left part-edited.
    """

    __slots__ = ("seq", "pos", "ready", "waiting")

    def __init__(self, c: Circuit):
        self.seq: list[Optional[int]] = []
        self.pos: dict[int, int] = {}
        self.ready: list[int] = sorted(c.leaves)
        self.waiting: dict[int, int] = {}

    def grow(self, c: Circuit, record: bool = True) -> Iterator[int]:
        """Pop and yield the edges of ``c`` in order, each one's readers released before it is yielded.

        With ``record`` each pop goes into ``seq`` and ``pos``, and the heap
        entries that edits left stale are skipped.  A fresh walk that is not
        kept has no stale entries, and recording would add a fifth to its
        cost.
        """
        edges, readers = c.edges, c.readers
        seq, pos, ready, waiting = self.seq, self.pos, self.ready, self.waiting
        while ready:
            eid = heapq.heappop(ready)
            if record:
                if eid in pos or eid in waiting:
                    continue
                pos[eid] = len(seq)
                seq.append(eid)
            for r in readers.get(edges[eid].result, ()):
                k = waiting.pop(r, 0) or len(set(edges[r].args))
                if k == 1:
                    heapq.heappush(ready, r)
                else:
                    waiting[r] = k - 1
            yield eid

    def cut(self, c: Circuit, p: int) -> bool:
        """Rewind to position ``p``, or True to drop the walk if ``p`` lies in its first half.

        Each edge popped at ``p`` or later is ready again, and each of its
        readers waits for one more producer.
        """
        seq = self.seq
        if 2 * p < len(seq):
            return True
        pos, ready, waiting, edges, readers = self.pos, self.ready, self.waiting, c.edges, c.readers
        for u in seq[p:]:
            if u is not None:
                del pos[u]
                heapq.heappush(ready, u)
                for r in readers.get(edges[u].result, ()):
                    waiting[r] = waiting.get(r, 0) + 1
        del seq[p:]
        return False

    def unpop(self, c: Circuit, eid: int) -> bool:
        """Edge ``eid`` of ``c`` is about to go; True to drop the walk.

        A popped edge's popped readers can no longer pop, so the walk is cut
        at the earliest of them; the edge leaves None at its position, and
        each reader waits for one more producer.  Without popped readers
        nothing else moves.  The edge is marked in ``waiting``, so that a
        heap entry of it left over is skipped.
        """
        pos, waiting = self.pos, self.waiting
        waiting[eid] = 0
        p = pos.get(eid)
        if p is None:
            return False
        readers = c.readers.get(c.edges[eid].result, ())
        popped = [pos[r] for r in readers if r in pos]
        if popped and self.cut(c, min(popped)):
            return True
        self.seq[p] = None
        del pos[eid]
        for r in readers:
            waiting[r] = waiting.get(r, 0) + 1
        return False

    def place(self, c: Circuit, eid: int, args: tuple[int, ...], above: bool) -> bool:
        """Edge ``eid`` of ``c``, which has not popped, comes to read ``args``; True to drop the walk.

        If some argument's producer has not popped, the edge waits for them.
        Otherwise it is ready, and a fresh walk pops it at the first position
        after its last producer that holds a larger id: the walk is cut
        there.  An id ``above`` every popped one needs no search.
        """
        pos, producer = self.pos, c.producer
        unpopped, last = 0, -1
        for v in set(args):
            p = pos.get(producer.get(v))
            if p is None:
                unpopped += 1
            elif p > last:
                last = p
        if unpopped:
            self.waiting[eid] = unpopped
            return False
        self.waiting.pop(eid, None)
        if not above:
            seq = self.seq
            for j in range(last + 1, len(seq)):
                popped = seq[j]
                if popped is not None and popped > eid:
                    if self.cut(c, j):
                        return True
                    break
        heapq.heappush(self.ready, eid)
        return False


def down_closure(c: Circuit, eids: set[int], limit: int) -> Optional[set[int]]:
    """The edges ``eids`` and every producer below them, or None once that is more than ``limit`` edges.

    The set is down-closed: it holds the producer of each argument of each
    of its edges.  ``eids`` is extended in place.  Every argument wire of
    ``c`` must have a producer, as in a working graph between steps.
    """
    edges, producer = c.edges, c.producer
    todo = list(eids)
    while todo:
        for v in edges[todo.pop()].args:
            p = producer[v]
            if p not in eids:
                eids.add(p)
                todo.append(p)
        if len(eids) > limit:
            return None
    return eids


def walk_within(c: Circuit, within: set[int]) -> Iterator[int]:
    """Kahn's algorithm over the down-closed edge set ``within`` alone, ready edges on a min-id heap.

    Its order is ``c.walk()``'s restricted to ``within`` (the down-closure
    lemma of ``rewrite``), and it pops nothing outside.  Computed only as
    far as it is consumed.
    """
    edges, readers = c.edges, c.readers
    ready = [eid for eid in within if not edges[eid].args]
    heapq.heapify(ready)
    waiting: dict[int, int] = {}
    while ready:
        eid = heapq.heappop(ready)
        yield eid
        for r in readers.get(edges[eid].result, ()):
            if r in within:
                k = waiting.pop(r, 0) or len(set(edges[r].args))
                if k == 1:
                    heapq.heappush(ready, r)
                else:
                    waiting[r] = k - 1


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
    own = frozenset(BASES[c.basis].kinds)
    for eid, e in sorted(c.edges.items()):
        kind = e.label.kind
        if len(e.att) != 1 + kind.arity:
            out.append(f"edge {eid}: attachment arity {len(e.att)} for {label_name(e.label)}")
        results.setdefault(e.result, []).append(eid)
        if kind is INPUT:
            if not 1 <= e.label.index <= c.num_inputs:
                out.append(f"edge {eid}: input index {e.label.index} out of range 1..{c.num_inputs}")
            if e.label.index in seen_inputs:
                out.append(f"edge {eid}: duplicate edge for input x{e.label.index}")
            seen_inputs[e.label.index] = eid
        elif kind not in own:
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
    """Edge ids in dependency order, ties broken by ascending edge id: all of ``c.walk()``.

    When every argument's producer has a smaller id than the edge reading it,
    that order is ascending id order: at each pop the smallest id not yet
    popped has all of its producers popped, so it is the least ready id.  One
    pass checks for that case, as parsed and built circuits number their
    gates, and builds no index; any other circuit, cyclic or not, is walked.
    A circuit that ``CircuitBuilder.build`` proved so numbered
    (``ids_ordered``) skips the pass.
    """
    producer = c.producer
    if c.ids_ordered or all(producer.get(v, -1) < eid for eid, e in c.edges.items() for v in e.args):
        return sorted(c.edges)
    if not len(c.edges) == len(producer) == len(c.vertices):
        # A wire with no producer or two: walk the copy Kahn sees, where edges read only
        # produced wires, and a result that ``producer`` does not name becomes None.
        edges = {
            eid: Edge(e.label, (e.result if producer[e.result] == eid else None, *filter(producer.__contains__, e.args)))
            for eid, e in c.edges.items()
        }
        c = Circuit(edges, c.root, c.num_inputs, c.basis)
    order = list(c.walk())
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
        kind = e.label.kind
        if kind is INPUT:
            v = int(bits[e.label.index - 1])
        else:  # kind.output, inlined
            row = 0
            for a in e.args:
                row = 2 * row + 1 - value[a]
            v = kind.truth[row]
        value[e.result] = v
    return value[c.root]


def unroll_term(c: Circuit, budget: int = 2**20) -> terms.Term:
    """The tree unrolling of the circuit; shared subgraphs duplicate.

    Worst-case exponential in the circuit, hence the node budget.  Built
    bottom-up with explicit stacks, so depth costs no recursion.
    """
    if c.basis != DEMORGAN_BASIS.name:  # the formula signature is the demorgan row's
        raise CircuitError(f"only {DEMORGAN_BASIS.name} circuits unroll to terms")
    count = 0
    built: list[terms.Term] = []  # finished subterms, leftmost first
    todo: list = [c.root]  # a vertex to unroll, or an edge whose args are the last in built
    while todo:
        item = todo.pop()
        if isinstance(item, Edge):
            k = len(built) - len(item.args)
            node = terms.Op(item.label.kind, *built[k:])
            del built[k:]
            built.append(node)
            continue
        count += 1
        if count > budget:
            raise terms.BudgetError(f"unrolling exceeds {budget} nodes")
        e = c.producer_edge(item)
        if e.label.kind is INPUT:
            built.append(terms.Var(label_name(e.label)))
        else:
            todo.append(e)
            todo.extend(reversed(e.args))
    return built[0]


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


def canonical_names(c: Circuit) -> dict[int, str]:
    """Each wire the output reaches, by its name in the canonical text.

    An input's wire is named by its label (``x<k>``).  The gates are named
    n1..nk in depth-first post-order from the output, arguments left to
    right, and the dict holds their wires in that order, each after its
    arguments.  The walk reads only the circuit's structure, so isomorphic
    circuits name their gates alike.  An explicit stack keeps depth from
    costing recursion: (wire, None) visits a wire, and (wire, edge), pushed
    under its arguments not yet visited, names the edge's gate once they
    are named.
    """
    names: dict[int, str] = {}
    entered: set[int] = set()  # wires visited: named, or their gate on the stack
    producer, edges = c.producer, c.edges
    stack: list[tuple[int, Optional[Edge]]] = [(c.root, None)]
    gates = 0
    while stack:
        v, e = stack.pop()
        if e is not None:
            gates += 1
            names[v] = f"n{gates}"
        elif v not in entered:
            entered.add(v)
            e = edges[producer[v]]
            if e.label.kind is INPUT:
                names[v] = label_name(e.label)
            else:
                stack.append((v, e))
                for a in reversed(e.args):
                    if a not in entered:
                        stack.append((a, None))
    return names


def isomorphic(a: Circuit, b: Circuit) -> bool:
    """Whether a bijective hypergraph morphism maps root to root.

    Rooted term graphs are rigid: such a morphism is forced by following
    producers from the root, so it exists exactly when both circuits have
    as many vertices, the same canonical names with the same gates under
    them, and a name for every vertex: every vertex is reached from the
    root.  The declared input counts are not compared.
    """
    if a.basis != b.basis:
        raise CircuitError("cannot compare circuits over different bases")
    forms = []
    for c in (a, b):
        names = canonical_names(c)
        gates = zip(names.values(), map(c.producer_edge, names))
        forms.append([(name, e.label, [names[x] for x in e.args]) for name, e in gates])
    return len(forms[0]) == len(a.vertices) == len(b.vertices) and forms[0] == forms[1]


class CircuitBuilder:
    """Incremental construction; methods return the result vertex of the new gate.

    The builder numbers wires and gates alike, so vertex v is the result of
    edge v; a gate should read only earlier wires.  ``build`` is the check:
    what it returns is a valid circuit, and what it refuses it names with
    ``validate``'s words.
    """

    def __init__(self, num_inputs: int, basis: str = DEMORGAN_BASIS.name):
        self.num_inputs = num_inputs
        self.basis = basis
        self._edges: dict[int, Edge] = {}  # edge v produces vertex v
        self._inputs: dict[int, int] = {}

    def gate(self, label: Label, *args: int) -> int:
        """A new gate with this label reading the argument wires; inputs go through ``input``.

        The edge holds the fields ``Edge(label, att)`` stores, made without
        its Python-level constructor; ``build`` checks them.
        """
        v = len(self._edges)
        self._edges[v] = _new_tuple(Edge, (label, (v, *args), v, args))
        return v

    def input(self, index: int) -> int:
        """The wire of x_index, creating its edge on first use."""
        if not 1 <= index <= self.num_inputs:
            raise CircuitError(f"input index {index} out of range 1..{self.num_inputs}")
        if index not in self._inputs:
            self._inputs[index] = self.gate(Label(INPUT, index))
        return self._inputs[index]

    def const(self, value: int) -> int:
        return self.gate(const_label(value))

    def not_(self, v: int) -> int:
        return self.gate(NOT, v)

    def and_(self, a: int, b: int) -> int:
        return self.gate(AND, a, b)

    def or_(self, a: int, b: int) -> int:
        return self.gate(OR, a, b)

    def u2(self, op: int, a: int, b: int) -> int:
        return self.gate(u2_label(op), a, b)

    def _proved(self, root: int) -> Optional[Circuit]:
        """The circuit with this output, where one pass proves it valid with every edge reached; else None.

        The pass goes from the last edge down.  Vertex v is edge v's result,
        so an edge whose kind, arity and input index are right and whose
        arguments are all earlier wires is defined, and edges so numbered are
        acyclic and in topological order.  The root marks its edge and each
        proved edge its arguments, so an edge is reached exactly when it is
        marked by the time the pass comes to it.  The proof asks more than
        ``validate``: a gate that reads a later wire fails it.
        """
        edges, num_inputs = self._edges, self.num_inputs
        if root not in edges or self.basis not in BASES:
            return None
        own = frozenset(BASES[self.basis].kinds)
        reached = {root}
        inputs: dict[int, int] = {}  # input index -> its edge, the last edge first
        for v in range(len(edges) - 1, -1, -1):
            if v not in reached:
                return None
            e = edges[v]
            label = e.label
            kind = label.kind
            if len(e.args) != kind.arity:
                return None
            if kind is INPUT:
                if not 1 <= label.index <= num_inputs or label.index in inputs:
                    return None
                inputs[label.index] = v
            elif kind not in own:
                return None
            for a in e.args:
                if not 0 <= a < v:
                    return None
                reached.add(a)
        return Circuit._numbered(edges, root, num_inputs, self.basis, dict(reversed(inputs.items())))

    def build(self, root: int, prune: bool = False) -> Circuit:
        """The circuit of the gates made so far with this output; with ``prune``, of those it reaches.

        Raises ``CircuitError`` with ``validate``'s violations exactly when
        that circuit is invalid.  Where ``_proved`` proves it, that is the
        whole check; otherwise ``validate`` runs, so a circuit that the proof
        refuses (it leaves a gate unreached, or a gate reads a later wire) but
        ``validate`` accepts still builds.  Pruning keeps the edges in the
        order of ``reachable_edges``' set.
        """
        c = self._proved(root)
        if c is not None:
            return c
        edges = self._edges
        if prune:
            edges = {eid: edges[eid] for eid in reachable_edges(edges, root)}
        c = Circuit(edges, root, self.num_inputs, self.basis)
        violations = validate(c)
        if violations:
            raise CircuitError("invalid circuit: " + "; ".join(violations))
        return c
