"""The 16-rule circuit simplification system, run on circuits as the formula rules.

``data/demorgan_rules.txt``, the rule file that the demorgan row of
``terms.BASES`` names, is the one source of the rules.  It is read once, into
``DEMORGAN``, the one ``System``: ``gatelim trs check`` certifies its
``trs``, and this module executes the same ``TermRule`` objects on circuits.
``normalize`` and ``graph_measure`` refuse a circuit whose basis row names
no rule file, or another.  A line's position in the file sets the
deterministic (``det``) rule order for both.  The rules are grouped by the
kind of their left-hand root once, in the TRS's own index ``TRS.by_root``:
``System.by_root`` is that index, so the formula redex scan and the circuit
matcher read the same groups.

A left-hand side is matched as a term on the graph, by the one matcher
``terms.match``: each operator node must meet a wire whose producing edge
has the node's kind, its arguments then meet that edge's argument wires, and
a variable matches any wire.  Every occurrence of a variable must meet the
same wire, so de-duplication matches only when both arguments are literally
the same wire and the tautology rules only when one argument is the other
fed through a negation gate.

A rewrite step removes the matched gate, splices in the right-hand term (its
root on the site, one new edge per operator node, each variable the wire it
matched), then garbage-collects everything unreachable from the root.

The normalizer keeps circuits *maximally shared*: no two edges carry
the same label and the same argument wires.  Merging such parallel duplicates
never changes the unrolling, so it is invisible to bisimilarity, but it is
load-bearing for confluence in practice: vertex identifications performed by
the passing and de-duplication rules can split one wire carrying a value into
two parallel copies, and the non-left-linear rules above would then never
see their redex again.  With sharing maintained, a wire-equal pair of
subcircuits is always one vertex and the graph normal form unrolls to the
formula normal form.

``normalize_circuit`` rewrites one mutable working graph (``WorkingGraph``)
in place rather than rebuilding the circuit after every step.  It keeps the
indexes of a ``Circuit`` current, and its reader index is a reference count:
a step deletes the edges it removes and then every edge whose result is no
longer read and is not the root, cascading downwards, which collects exactly
what is no longer reachable.  A new graph copies the circuit's edges,
producers and inputs and builds its reader and leaf indexes with
``Circuit``'s own code, each index in one pass with no per-edge
bookkeeping; its inversion count (below) is 0 for a circuit that
``CircuitBuilder.build`` proved numbered and is counted once otherwise.
Besides these it keeps:

- a hash-cons table from ``(label, argument wires)`` to the one edge carrying
  them.  Only edges that are new, rewired or relabelled are looked up, all of
  them on entry; a duplicate is merged into the lowest-numbered edge of its
  class, whose readers are rewired in turn until nothing collides.  So
  maximal sharing holds after every step, and merges are reported pass by
  pass, each pass in the order of its classes' kept edges;
- the live binary-gate count, for the trace's ``size_after``, and the live
  graph measure, for the step budget;
- the live redexes, keyed by site in rule order.  A new graph has none
  yet, and its first rematch matches every site once; after a change only
  the sites whose candidate key (below) reads a vertex whose producing edge
  changed are matched again: the vertex, its readers, and the readers of
  those of them whose kind is in ``DEMORGAN.inner``.  An edge that a merge
  or a variable right-hand side rewires keeps its label, so the keys of its
  readers, which read its kind, change only where they also read its
  arguments, that is, where its kind is in ``inner``: such a vertex
  (``rewired``) is matched again, and its readers only then.

The rules that match at a site are looked up by a two-level key
(``DEMORGAN.candidates``): the label kinds of the site's edge and of its
arguments' producers; below an argument produced by an edge of a kind in
``DEMORGAN.inner`` (the kinds of the non-root left-hand nodes with
arguments), that edge's argument wires and the kinds of their producers; and
which of all these wires are the same wire.  A kind is a row of the label
table (``terms.KINDS``), so the two constants are two kinds.  No left-hand
side reads more, so the key decides the match: the memo
(``DEMORGAN.memo``) is filled by the one left-hand matcher at the first
site that has a key, and ``match_at`` runs only where a rule matches, to
build the redex.  This is term indexing to the left-hand sides' full depth, as a
discrimination tree does it (McCune, JAR 9(2), 1992); the memo holds only
kinds and wire shapes, so it stays small.  A step still re-verifies its
redex before firing it.

One Kahn loop, ``Walk.grow``, yields the edges in ``topo_order``'s order -
Kahn's algorithm over the reader index from the inputs and constants, ready
edges on a min-id heap - only as far as it is consumed; ``Circuit.walk`` runs
it over a fresh ``Walk``.  The working graph keeps one walk (``kept``) across
steps and refuter rounds, and keeps it a prefix of the walk that a fresh
``Circuit.walk`` of the graph makes: it is cut only where an edit can change
that walk, and grows again from the cut.  The walk applies these rules
itself (``Walk.unpop`` and ``Walk.place``); each edit of the graph asks it.

- A popped edge that goes cuts the walk at its earliest popped reader, which
  can no longer pop.  It leaves None at its own position, and each of its
  readers waits for one more producer.  Without popped readers nothing else
  moves, so a collected edge cuts nothing.
- An edge added or rewired whose argument producers have all popped is
  ready, and a fresh walk pops it at the first position after its last
  producer that holds a larger id: the walk is cut there.  A spliced edge's
  id is above every live one, so it needs no search.
- ``substitute`` keeps the edge's id and leaves it a leaf, so it cuts
  nothing.
- A cut in the first half of the walk drops it instead: walking there again
  costs less than undoing.

This is dynamic topological order under edits (Pearce and Kelly, ACM JEA 11,
2006), except that the order kept is the least one, so the walk is rewound
to a cut instead of reordered.

The live redexes have one order, (topological site, rule), and one
generator yields them in it, ``WorkingGraph.ordered``, only as far as it is
consumed: ``rand`` draws an index uniformly from the live-redex count and
consumes it only up to there (``draw``), and ``det`` fires its first
element, which ``WorkingGraph.first`` finds walking only what decides it.
The graph counts its inversions (``inverted``): the pairs of an edge and a
distinct argument wire whose producer's id is not smaller than the edge's.
With none, the walk's order is ascending edge id (the lemma of
``topo_order``), so the live sites come off a heap of their producers' ids
and nothing is walked; so does a single live site, which needs no order.
Otherwise the live sites that the kept walk has popped come first, by
position, and the walk grows until the rest have come out.  On a circuit
that starts without inversions only a right-hand side with edges, numbered
so from its root down, makes any.

``det`` needs only the first live site, and a refute round fires near the
leaves, where its cuts drop the kept walk; walking again from the leaves
pops every input before the first gate.  The down-closure lemma lets the
first site be found locally.  Call a set of edges S down-closed when it
holds the producer of each argument of each of its edges.  Then the least
Kahn order of the whole graph, restricted to S, is the least Kahn order of
S alone.  Proof sketch: an edge of S is ready in the whole graph exactly
when it is ready in S, since its producers all lie in S, and a pop outside
S readies no edge of S.  So when the whole walk pops an edge of S, it is
the least ready edge of the whole graph, hence of S; by induction over the
pops the two orders agree.  So the first live site of the whole order is
the first live site of a Kahn walk over the down-closure of the live sites
(``circuits.down_closure`` and ``circuits.walk_within``), and nothing
outside that closure pops.  ``first`` takes this walk when the graph has
inversions, two or more live sites and no kept walk, and the closure holds
at most ``CLOSURE_SHARE`` of the edges.  A step high in a deep DAG has a
large closure, which the kept walk, grown by ``ordered`` and cut and reused
by the steps after, answers for less.  Without the budget ``det`` would
never keep a walk once the graph has inversions, and would walk every
step's closure afresh: on seeded constant-fed DAGs of 64 gates, 2.7 times
the pops and undos.
The closure walk is not kept, so a later ``rand`` draw or refuter round
walks as before.

New vertex and edge ids are one more than the largest live id, as in
``apply_rewrite``, which fires one step on the same working graph.  The
graph keeps an upper bound on each, raised by the spliced steps that make
new ids and walked down to the live maximum when a step needs it
(``next_ids``).

The refuter keeps one working graph for a whole search: each round
relabels one input edge as a constant (``WorkingGraph.substitute``) and
normalizes again, so only the sites around that input are matched again.
A round discards its steps, so it runs the normalize loop without
recording them (``_normalize``).
The round fires the same steps, edge ids included, as normalizing the
relabelled circuit from scratch.  A round orders its gates with the kept
walk, read from its start and grown only until the gates it compares have
come out, and the next round's steps cut it only where they change it; so
no round orders the whole graph with ``topo_order``.

The functions on immutable circuits run the same working graph: each copies
the circuit in and takes a ``snapshot`` out.  ``apply_rewrite`` fires one
redex as ``normalize`` does, ``merge_parallel_edges`` is ``share`` and
``substitute_input`` is ``substitute``.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import asdict, dataclass
from itertools import islice
from typing import Callable, Iterator, Mapping, Optional

from .circuits import (
    CONST0,
    INPUT,
    LABELS,
    Circuit,
    CircuitError,
    Edge,
    Walk,
    const_label,
    down_closure,
    topo_order,
    walk_within,
)
from .terms import BASES, DEMORGAN_BASIS, TRS, BudgetError, Op, TermRule, Var, demorgan_system, match


CLOSURE_SHARE = 1 / 8  # the largest share of the edges that ``first`` walks as a down-closure


class StaleRedexError(CircuitError):
    """The circuit changed since the redex was found."""


class System:
    """A rule system for circuits of one basis: a formula ``TRS`` and all the matcher derives from it.

    Holds the ``trs``, its ``rules`` (the ``TermRule`` objects themselves)
    and, derived from the operator nodes of their left-hand sides:

    - ``by_root``: the rules grouped by the kind of their left-hand root,
      each group in rule order.  This is the TRS's own index,
      ``TRS.by_root``, which the formula redex scan reads too;
    - ``inner``: the kinds of the non-root operator nodes with arguments.
      The candidate key reads the arguments of an argument's producer only
      below these kinds, and ``WorkingGraph.rematch`` climbs a second
      reader hop only through them;
    - ``memo``: this system's candidate index, from a candidate key to the
      rules that match, filled at the sites where ``candidates`` meets each
      key first.

    The key describes a site two levels deep, which decides a match only
    while every left-hand operator node with arguments is the root or one
    hop below it; building a system whose rules break that raises
    ``ValueError``.
    """

    def __init__(self, trs: TRS):
        self.trs = trs
        self.rules = trs.rules
        self.by_root = trs.by_root
        nodes = []  # (depth, node) of each left-hand operator node
        todo = [(0, rule.lhs) for rule in self.rules]
        while todo:
            d, u = todo.pop()
            if type(u) is Op:
                nodes.append((d, u))
                todo += ((d + 1, a) for a in u.args)
        if any(u.args and d > 1 for d, u in nodes):
            raise ValueError("a left-hand node with arguments lies deeper than the candidate key reads")
        self.inner = frozenset(u.kind for d, u in nodes if d and u.args)
        self.memo: dict[tuple, tuple[TermRule, ...]] = {}

    def candidates(self, g: Circuit, site: int) -> tuple[TermRule, ...]:
        """The rules, in rule order, that match at the site of ``g``.

        The key is the kind of the site's label, its argument wires and,
        below each argument produced by an edge of a kind in ``inner``, that
        edge's argument wires; then the kind of the producer of each of
        these wires (None if it has none) and which of them are the same
        wire.  That is all a left-hand side reads, so the key decides the
        match: a key met for the first time is filled by matching each rule
        of the site's kind at this site, as ``match_at`` does, and every
        later site with the same key reads the memo.  The fill builds no
        redex, so ``match_at`` calls count redexes built and re-verified
        however warm the memo is.
        """
        edges, producer, inner = g.edges, g.producer, self.inner
        e = edges[producer[site]]
        wires = [*e.args]
        kinds = []
        for v in e.args:
            p = producer.get(v)
            k = None if p is None else edges[p].label.kind
            kinds.append(k)
            if k in inner:
                wires += edges[p].args
        for v in wires[len(kinds) :]:
            p = producer.get(v)
            kinds.append(None if p is None else edges[p].label.kind)
        key = (e.label.kind, tuple(kinds), tuple(map(wires.index, wires)))
        found = self.memo.get(key)
        if found is None:
            rules, node = self.by_root.get(e.label.kind, ()), _wires(g)
            found = self.memo[key] = tuple(rule for rule in rules if match(rule.lhs, site, node) is not None)
        return found


DEMORGAN = System(demorgan_system())  # the system of every basis row with the demorgan rule file


def _require_rules(c: Circuit, what: str) -> None:
    """Refuse a circuit whose basis row names another rule file than ``DEMORGAN``'s, or none."""
    if BASES[c.basis].rules != DEMORGAN_BASIS.rules:
        raise CircuitError(f"{what} is defined for {DEMORGAN_BASIS.name} circuits")


@dataclass(frozen=True)
class Redex:
    site: int
    rule: TermRule
    binding: Mapping[str, int]  # each left-hand variable's wire


def _wires(c: Circuit) -> Callable[[int], Optional[tuple]]:
    """``terms.match``'s ``node`` on the wires of ``c``: a wire's producer's kind and argument wires."""
    edges, producer = c.edges, c.producer

    def node(v: int) -> Optional[tuple]:
        eid = producer.get(v)
        if eid is None:
            return None
        e = edges[eid]
        return e.label.kind, e.args

    return node


def match_at(c: Circuit, rule: TermRule, site: int) -> Optional[Redex]:
    """Match the rule's left-hand side with its root at the given wire, reading each wire's producer."""
    binding = match(rule.lhs, site, _wires(c))
    return None if binding is None else Redex(site, rule, binding)


def find_redexes(c: Circuit) -> list[Redex]:
    """All (site, rule) matches, ordered by (topological site position, rule order).

    The per-label rule groups preserve global rule order, so scanning sites
    in topological order yields the stated ordering directly.
    """
    out: list[Redex] = []
    for eid in topo_order(c):
        e = c.edges[eid]
        for rule in DEMORGAN.by_root.get(e.label.kind, ()):
            r = match_at(c, rule, e.result)
            if r is not None:
                out.append(r)
    return out


@dataclass(frozen=True)
class TraceStep:
    step: int
    rule: str
    site: Optional[int]
    removed_edges: tuple[int, ...]
    added_edges: tuple[int, ...]
    size_after: int

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class RewriteTrace:
    steps: tuple[TraceStep, ...]


class WorkingGraph(Circuit):
    """A circuit rewritten in place: the working graph of the module docstring.

    Every change keeps the ``Circuit`` indexes ``edges``, ``producer``,
    ``inputs``, ``readers`` and ``leaves`` current, and ``vertices`` is
    computed when read, so every function on circuits runs on the graph as
    it is.  ``walk`` is the graph's kept walk, made on first use and kept a
    fresh walk's prefix by every change after.  A new graph is neither
    shared nor scanned (``redexes`` is None); its first ``normalize`` does
    both.
    """

    __slots__ = ("readers", "leaves")  # faster to read than instance attributes over Circuit's lazy ones

    def __init__(self, c: Circuit):  # builds every index in bulk, without Circuit.__init__
        self.edges: dict[int, Edge] = dict(c.edges)
        self.producer: dict[int, int] = dict(c.producer)
        self.root = c.root
        self.num_inputs = c.num_inputs
        self.basis = c.basis
        self.inputs: dict[int, int] = dict(c.inputs)  # input index -> its edge, as on a Circuit
        self.readers: dict[int, set[int]] = Circuit.readers.func(self)  # only vertices that are read
        self.leaves: set[int] = Circuit.leaves.func(self)  # edges without arguments: inputs and constants
        kinds = [e.label.kind for e in self.edges.values()]
        self.size = sum([kind.arity == 2 for kind in kinds])
        self.measure = sum([kind.weight for kind in kinds])
        self.table: dict[tuple, int] = {}
        self.redexes: Optional[dict[int, list[Redex]]] = None  # None until the first rematch matches every site
        self.touched: set[int] = set()  # vertices whose producing edge changed or went since the last rematch
        self.rewired: set[int] = set()  # vertices whose producing edge was rewired (same label) since the last rematch
        self.unshared: set[int] = set(self.edges)  # edges not yet looked up in the table
        # (reader, distinct argument) pairs whose producer's id is not smaller: none where build proved the order
        self.inverted = 0 if c.ids_ordered else sum([self._inversions(eid, e.args) for eid, e in self.edges.items()])
        self.kept: Optional[Walk] = None  # the walk kept on the graph, if any; an edit may drop it
        # Bounds on the live ids, walked down to them by ``next_ids``.
        self.top_v = max(max(self.producer, default=-1), max(self.readers, default=-1))
        self.top_e = max(self.edges, default=-1)
        # Results nothing reads: all unreachable, collected by the first step.
        self.orphans = [v for v in self.producer if v != self.root and v not in self.readers]

    @property
    def vertices(self) -> frozenset[int]:
        return frozenset(self.producer.keys() | self.readers.keys())

    def _inversions(self, eid: int, args: tuple[int, ...]) -> int:
        """How many of the distinct argument wires of edge ``eid`` have a producer not below it."""
        producer = self.producer
        return len({v for v in args if producer.get(v, -1) >= eid})

    def _inverted_readers(self, eid: int, vertex: int) -> int:
        """How many readers of the vertex have an id not above ``eid``, its producer's."""
        readers = self.readers.get(vertex)
        return sum([eid >= r for r in readers]) if readers else 0

    def _add(self, eid: int, e: Edge) -> None:
        self.inverted += self._inverted_readers(eid, e.result)
        self.edges[eid] = e
        self.producer[e.result] = eid
        for v in e.args:
            readers = self.readers.setdefault(v, set())
            if eid not in readers:
                readers.add(eid)
                self.inverted += self.producer.get(v, -1) >= eid
        if not e.args:
            self.leaves.add(eid)
            if e.label.kind is INPUT:
                self.inputs.setdefault(e.label.index, eid)
        kind = e.label.kind
        self.size += kind.arity == 2
        self.measure += kind.weight
        self.touched.add(e.result)
        self.unshared.add(eid)
        if self.kept is not None and self.kept.place(self, eid, e.args, eid > self.top_e):
            self.kept = None

    def _delete(self, eid: int) -> Edge:
        if self.kept is not None and self.kept.unpop(self, eid):
            self.kept = None
        e = self.edges.pop(eid)
        for v in set(e.args):
            self.inverted -= self.producer.get(v, -1) >= eid
            readers = self.readers[v]
            readers.discard(eid)
            if not readers:
                del self.readers[v]
        del self.producer[e.result]
        self.inverted -= self._inverted_readers(eid, e.result)
        self.leaves.discard(eid)
        if e.label.kind is INPUT and self.inputs.get(e.label.index) == eid:
            del self.inputs[e.label.index]
        key = (e.label, e.args)
        if self.table.get(key) == eid:
            del self.table[key]
        kind = e.label.kind
        self.size -= kind.arity == 2
        self.measure -= kind.weight
        self.touched.add(e.result)
        return e

    def _redirect(self, old: int, new: int) -> None:
        """Every reader of vertex ``old`` reads ``new`` instead."""
        for r in self.readers.pop(old, ()):
            e = self.edges[r]
            key = (e.label, e.args)
            if self.table.get(key) == r:
                del self.table[key]
            self.edges[r] = rewired = Edge(e.label, tuple(new if v == old else v for v in e.att))
            self.inverted += self._inversions(r, rewired.args) - self._inversions(r, e.args)
            self.readers.setdefault(new, set()).add(r)
            self.rewired.add(e.result)
            self.unshared.add(r)
            if self.kept is not None and self.kept.place(self, r, rewired.args, False):
                self.kept = None
        if self.root == old:
            self.root = new

    def _kept(self) -> Walk:
        if self.kept is None:
            self.kept = Walk(self)
        return self.kept

    def walk(self) -> Iterator[int]:
        """The kept walk: the edges it has popped, then those it pops as it grows."""
        kept = self._kept()
        for eid in kept.seq:
            if eid is not None:
                yield eid
        yield from kept.grow(self)

    def _collect(self, candidates: list[int]) -> list[int]:
        """Delete the producers of unread non-root vertices, cascading; their edge ids."""
        dead = []
        while candidates:
            v = candidates.pop()
            eid = self.producer.get(v)
            if eid is None or v == self.root or v in self.readers:
                continue
            dead.append(eid)
            candidates.extend(self._delete(eid).args)
        return dead

    def _fire(self, redex: Redex) -> tuple[list[int], list[int]]:
        """Re-verify the redex, splice its right-hand side in place and collect garbage.

        A variable right-hand side redirects the site to the wire it matched.
        Otherwise each operator node of the right-hand term, counted by
        occurrence, becomes a new edge: the root's first, on the site, then
        from a stack that pops the last argument first.  An operator argument
        gets a new vertex, in argument order, when its parent's edge is
        added; a variable argument is the wire it matched.  Returns the
        removed and the added edge ids.
        """
        fresh = match_at(self, redex.rule, redex.site)
        if fresh is None or fresh.binding != redex.binding:
            raise StaleRedexError(f"redex {redex.rule.name}@{redex.site} no longer matches")
        site, rhs, binding = redex.site, redex.rule.rhs, redex.binding
        spliced = type(rhs) is Op
        if spliced:
            next_v, next_e = self.next_ids()
        removed = [self.producer[site]]
        candidates = [*self._delete(removed[0]).args, *self.orphans]
        self.orphans = []
        added: list[int] = []
        if spliced:
            todo = [(rhs, site)]  # operator nodes still to add, each with its result vertex
            while todo:
                u, v = todo.pop()
                att = [v]
                for a in u.args:
                    if type(a) is Var:
                        att.append(binding[a.name])
                    else:
                        todo.append((a, next_v))
                        att.append(next_v)
                        next_v += 1
                self._add(next_e, Edge(LABELS[u.kind.name], tuple(att)))
                added.append(next_e)
                next_e += 1
            self.top_v, self.top_e = next_v - 1, next_e - 1
        else:
            self._redirect(site, binding[rhs.name])
        removed.extend(sorted(self._collect(candidates)))
        return removed, added

    def next_ids(self) -> tuple[int, int]:
        """One more than the largest live vertex id, and than the largest live edge id.

        ``top_v`` and ``top_e`` bound the live ids from above: only a spliced
        step makes new ids, and it raises them.  Each is walked down to the
        largest live id, past ids freed since, and kept there.
        """
        producer, readers, edges = self.producer, self.readers, self.edges
        v, e = self.top_v, self.top_e
        while v not in producer and v not in readers:
            v -= 1
        while e not in edges:
            e -= 1
        self.top_v, self.top_e = v, e
        return v + 1, e + 1

    def share(self) -> list[int]:
        """Merge the duplicates among the unshared edges, cascading; the merged edge ids.

        Each round merges as one pass over every edge would: the lowest id
        of each class is kept, and the others go in the order of their
        classes' kept ids, ascending within a class.
        """
        edges, table = self.edges, self.table
        merged: list[int] = []
        while self.unshared:
            unshared, self.unshared = self.unshared, set()
            # The classes with a duplicate, by the id the table held when the first duplicate came: its key,
            # then its ids.  Each key is hashed once, by ``setdefault``, which enters a new key with the
            # first id met; only the classes here are sorted and set to their lowest id after.
            classes: dict[int, list] = {}
            for eid in unshared:
                e = edges.get(eid)
                if e is not None:
                    key = (e.label, e.args)
                    first = table.setdefault(key, eid)
                    if first != eid:
                        if first not in classes:
                            classes[first] = [key, first]
                        classes[first].append(eid)
            duplicates = []
            for key, *ids in classes.values():
                ids.sort()
                table[key] = ids[0]
                duplicates.append(ids)
            moves = []
            for keep, *others in sorted(duplicates):
                for other in others:
                    merged.append(other)
                    moves.append((self._delete(other).result, self.edges[keep].result))
            for old, new in moves:
                self._redirect(old, new)
        return merged

    def _match(self, site: int) -> None:
        rules = DEMORGAN.candidates(self, site)
        if rules:
            self.redexes[site] = [match_at(self, rule, site) for rule in rules]
        else:
            self.redexes.pop(site, None)

    def rematch(self) -> None:
        """Match again every site whose candidate key reads the producing edge of a touched or rewired vertex.

        The key reads the site's edge, the producers of its arguments and,
        below an argument produced by an edge of a kind in
        ``DEMORGAN.inner``, the producers of that edge's arguments.  So the
        sites are the touched vertices, their readers' results, and the
        readers' results of those of the latter whose kind is in ``inner``.
        A rewired edge keeps its kind, so a reader's key changes only if it
        reads the rewired edge's arguments, that is, if that kind is in
        ``inner``: a rewired vertex is matched again, with its readers only
        then.  A fresh graph has matched no site yet, so it matches every
        site once.
        """
        edges, producer, readers, inner = self.edges, self.producer, self.readers, DEMORGAN.inner
        if self.redexes is None:
            self.redexes = {}
            region = producer.keys()
        else:
            for v in self.touched:
                self.redexes.pop(v, None)
            region = {v for v in self.touched if v in producer}
            above = {edges[r].result for v in region for r in readers.get(v, ())}
            region |= above
            region.update(edges[r].result for v in above if edges[producer[v]].label.kind in inner for r in readers.get(v, ()))
            for v in self.rewired:
                eid = producer.get(v)
                if eid is not None:
                    region.add(v)
                    if edges[eid].label.kind in inner:
                        region.update(edges[r].result for r in readers.get(v, ()))
        self.touched = set()
        self.rewired = set()
        for site in region:
            self._match(site)

    def ordered(self) -> Iterator[Redex]:
        """The live redexes in (topological site, rule) order, computed only as far as they are consumed.

        With one live site, or with no inversion, the sites come off a heap
        of their producers' ids and nothing is walked: without inversions
        the walk's order is ascending edge id (the lemma of ``topo_order``).
        Otherwise the sites the kept walk has popped come first, by
        position, and it grows until every other live site has come out.
        Do not change the graph while the generator is in use.
        """
        redexes, edges = self.redexes, self.edges
        sites = [self.producer[site] for site in redexes]
        if len(sites) < 2 or not self.inverted:
            heapq.heapify(sites)
            while sites:
                yield from redexes[edges[heapq.heappop(sites)].result]
            return
        kept = self._kept()
        popped = sorted(filter(kept.pos.__contains__, sites), key=kept.pos.__getitem__)
        for eid in popped:
            yield from redexes[edges[eid].result]
        left = len(sites) - len(popped)
        if left:
            for eid in kept.grow(self):
                found = redexes.get(edges[eid].result)
                if found:
                    yield from found
                    left -= 1
                    if not left:
                        return

    def first(self) -> Redex:
        """The first redex of ``ordered``, walking only what decides it; ``det``'s choice.

        With inversions, two or more live sites and no kept walk, the live
        sites' down-closure is walked alone (the down-closure lemma), unless
        it holds more than ``CLOSURE_SHARE`` of the edges.  Otherwise
        ``ordered`` decides, walking nothing for one live site or a graph
        without inversions.
        """
        redexes, producer, edges = self.redexes, self.producer, self.edges
        if self.kept is None and self.inverted and len(redexes) > 1:
            closure = down_closure(self, set(map(producer.__getitem__, redexes)), len(edges) * CLOSURE_SHARE)
            if closure is not None:
                for eid in walk_within(self, closure):
                    found = redexes.get(edges[eid].result)
                    if found:
                        return found[0]
        return next(self.ordered())

    def substitute(self, index: int, bit: int) -> None:
        """Relabel the x_index edge as the constant bit, keeping its edge id.

        The next ``normalize`` merges a duplicate constant into the
        lowest-numbered edge and matches again only around the relabelled edge.
        """
        eid = self.input_edge(index)
        if eid is None:
            raise CircuitError(f"input x{index} is not present")
        kept, self.kept = self.kept, None  # a leaf under the same id: the walk order does not move
        self._add(eid, Edge(const_label(int(bit)), self._delete(eid).att))
        self.kept = kept

    def draw(self, rng: random.Random) -> Redex:
        """A live redex drawn uniformly, reading ``ordered`` only up to it.

        ``rng.randrange`` of the live-redex count makes the one draw that
        ``rng.choice`` of the whole ordered list makes, so a seed picks the
        same redex and leaves the same state.
        """
        i = rng.randrange(sum(map(len, self.redexes.values())))
        return next(islice(self.ordered(), i, None))

    def normalize(self, strategy: str = "det", seed: Optional[int] = None) -> list[TraceStep]:
        """Share, match again what changed and fire redexes until none is live; the steps taken.

        A leading ``sharing`` step reports the merges made on entry.  The
        budget is one more step than the graph measure after them.
        """
        steps: list[TraceStep] = []
        self._normalize(strategy, seed, steps)
        return steps

    def _normalize(self, strategy: str = "det", seed: Optional[int] = None, steps: Optional[list] = None) -> None:
        """``normalize``, appending its steps to ``steps``, or recording none without it: a refuter round."""
        _require_rules(self, "the rule system")
        if strategy not in ("det", "rand"):
            raise CircuitError(f"unknown strategy {strategy!r}")
        rng = random.Random(seed) if strategy == "rand" else None
        merged = self.share()
        if merged and steps is not None:
            steps.append(TraceStep(0, "sharing", None, tuple(merged), (), self.size))
        self.rematch()
        budget = self.measure + 1
        fired = 0
        while self.redexes:
            chosen = self.first() if rng is None else self.draw(rng)
            removed, added = self._fire(chosen)
            removed += self.share()
            self.rematch()
            if steps is not None:
                steps.append(
                    TraceStep(len(steps), chosen.rule.name, chosen.site, tuple(removed), tuple(added), self.size)
                )
            fired += 1
            if fired > budget:
                raise BudgetError(f"no normal form within {budget} steps")

    def snapshot(self) -> Circuit:
        return Circuit(self.edges, self.root, self.num_inputs, self.basis)


def apply_rewrite(c: Circuit, redex: Redex) -> tuple[Circuit, TraceStep]:
    """One proper rewrite step at the redex.

    Removes the unique gate producing the site, splices in the right-hand
    term (its root on the site; each variable the wire it matched), and
    garbage-collects.  The redex is re-verified first.  Parallel
    duplicates the step makes are left in place.
    """
    graph = WorkingGraph(c)
    removed, added = graph._fire(redex)
    return graph.snapshot(), TraceStep(0, redex.rule.name, redex.site, tuple(removed), tuple(added), graph.size)


def merge_parallel_edges(c: Circuit) -> tuple[Circuit, tuple[int, ...]]:
    """Merge duplicate edges carrying the same label and argument wires, cascading.

    Keeps the lowest-numbered edge of each duplicate class and identifies the
    result vertices (``WorkingGraph.share``).  The unrolling is unchanged, so
    the merged circuit is bisimilar to the input.  Returns ``c`` itself when
    nothing merges.
    """
    graph = WorkingGraph(c)
    merged = graph.share()
    return (graph.snapshot() if merged else c), tuple(merged)


def substitute_input(c: Circuit, index: int, bit: int) -> Circuit:
    """Relabel the x_index edge as the constant bit; no other change."""
    if CONST0.kind not in BASES[c.basis].kinds:
        raise CircuitError(f"constants exist only in the {DEMORGAN_BASIS.name} basis")
    graph = WorkingGraph(c)
    graph.substitute(index, bit)
    return graph.snapshot()


def graph_measure(c: Circuit) -> int:
    """Termination measure; strictly decreases on every rewrite step."""
    _require_rules(c, "the measure")
    return sum(e.label.kind.weight for e in c.edges.values())


def normalize_circuit(
    c: Circuit, strategy: str = "det", seed: Optional[int] = None
) -> tuple[Circuit, RewriteTrace]:
    """Rewrite to a redex-free circuit; any strategy yields a bisimilar result.

    ``det`` always fires the first redex in (topological site, rule) order;
    ``rand`` picks uniformly with the given seed.  Maximal sharing is
    restored on entry and after every step (see module docstring).
    """
    graph = WorkingGraph(c)
    steps = graph.normalize(strategy, seed)
    return (graph.snapshot() if steps else c), RewriteTrace(tuple(steps))
