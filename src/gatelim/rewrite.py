"""The 16-rule circuit simplification system, compiled from the rule file.

``data/demorgan_rules.txt`` is the one source of the rules: ``gatelim trs
check`` certifies the formula rules it holds, and ``compile_rule`` turns the
same rules into the circuit patterns this module executes.  A line's position
in the file sets the deterministic (``det``) rule order for both.

A pattern is a small circuit whose *open* vertices (one per rule variable)
have no producing edge and match any wire.  Every occurrence of a variable
shares its open vertex, so de-duplication matches only when both arguments
are literally the same wire and the tautology rules only when one argument
is the other fed through a negation gate.

A rewrite step removes the matched gate, splices in the right-hand pattern
(identifying the site with its root, and the open vertex with its matched
wire when the right-hand side reuses it), then garbage-collects everything
unreachable from the root.

The normalizer keeps circuits *maximally shared*: no two edges carry
the same label and the same argument wires.  Merging such parallel duplicates
never changes the unrolling, so it is invisible to bisimilarity, but it is
load-bearing for confluence in practice: vertex identifications performed by
the passing and de-duplication rules can split one wire carrying a value into
two parallel copies, and the non-left-linear patterns above would then never
see their redex again.  With sharing maintained, a wire-equal pair of
subcircuits is always one vertex and the graph normal form unrolls to the
formula normal form.

``normalize_circuit`` rewrites one mutable working graph in place rather than
rebuilding the circuit after every step.  Besides the edges and the producer
of each vertex it keeps:

- a reader index, the edges reading each vertex.  Its size is the vertex's
  reference count: a step deletes the edges it removes and then every edge
  whose result is no longer read and is not the root, cascading downwards,
  which collects exactly what is no longer reachable;
- a hash-cons table from ``(label, argument wires)`` to the one edge carrying
  them.  ``merge_parallel_edges`` establishes maximal sharing once on entry;
  after each step only the edges the step created or rewired are looked up,
  and a duplicate is merged into the lowest-numbered edge of its class, whose
  readers are rewired in turn until nothing collides.  So maximal sharing
  holds after every step, and merges are reported pass by pass in the order
  ``merge_parallel_edges`` reports them;
- the live binary-gate count, for the trace's ``size_after``;
- the live redexes, keyed by site in rule order.  One full scan fills it on
  entry; after a step only the sites that can see a vertex whose producing
  edge changed - at most the left-hand patterns' depth of reader hops above
  it - are matched again.

Choosing a redex needs the (topological site, rule) order of the live
redexes, so ``topo_order`` runs only in steps where redexes at two or more
sites are live.  New vertex and edge ids are one more than the largest live
id, as in ``apply_rewrite``, which fires one step on the same working graph.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Mapping, Optional

from .circuits import (
    AND,
    NOT,
    OR,
    TERM_LABELS,
    Circuit,
    CircuitError,
    ConstLabel,
    Edge,
    GateLabel,
    InputLabel,
    circuit_size,
    is_binary,
    topo_order,
)
from .terms import BudgetError, Term, TermRule, Var, children, demorgan_system, variables


class StaleRedexError(CircuitError):
    """The circuit changed since the redex was found."""


@dataclass(frozen=True)
class PatternEdge:
    label: GateLabel
    att: tuple[str, ...]


@dataclass(frozen=True)
class Pattern:
    """A circuit fragment over named vertices; open vertices have no producer.

    Edges are listed root edge first, parents before children, so a matcher
    can bind each edge's result vertex before visiting it.
    """

    edges: tuple[PatternEdge, ...]
    root: str
    open_vertices: frozenset[str]


@dataclass(frozen=True)
class GraphRule:
    name: str
    lhs: Pattern
    rhs: Pattern


def _compile_term(t: Term) -> Pattern:
    """The pattern of a term: one edge per non-variable node, in pre-order.

    Each variable becomes an open vertex named after it, shared by all of
    its occurrences.
    """
    edges: list = []

    def vertex(node: Term) -> str:
        if isinstance(node, Var):
            return node.name
        k = len(edges)
        edges.append(None)  # reserve the slot: parents precede children
        v = f"#{k}"
        edges[k] = PatternEdge(TERM_LABELS[type(node)], (v, *map(vertex, children(node))))
        return v

    root = vertex(t)
    return Pattern(tuple(edges), root, frozenset(variables(t)))


def compile_rule(rule: TermRule) -> GraphRule:
    """The circuit form of a formula rule.

    ``apply_rewrite`` splices a right-hand side either as a bare variable or
    as a ground term, so any other right-hand side is rejected.
    """
    if not isinstance(rule.rhs, Var) and variables(rule.rhs):
        raise ValueError(f"rule {rule.name}: right-hand side must be a bare variable or ground")
    return GraphRule(rule.name, _compile_term(rule.lhs), _compile_term(rule.rhs))


RULES: tuple[GraphRule, ...] = tuple(compile_rule(r) for r in demorgan_system().rules)

# Rules grouped by the label kind of their root edge, for redex scanning.
_RULES_BY_ROOT: dict[type, tuple[GraphRule, ...]] = {}
for _rule in RULES:
    _kind = type(_rule.lhs.edges[0].label)
    _RULES_BY_ROOT[_kind] = _RULES_BY_ROOT.get(_kind, ()) + (_rule,)


def _pattern_depth(p: Pattern) -> int:
    """Producer hops from the root to the deepest edge of the pattern."""
    depth = {p.root: 0}
    for pe in p.edges:
        for name in pe.att[1:]:
            depth.setdefault(name, depth[pe.att[0]] + 1)
    return max(depth[pe.att[0]] for pe in p.edges)


# A match at a site reads producing edges at most this many hops below it.
_DEPTH = max(_pattern_depth(rule.lhs) for rule in RULES)


@dataclass(frozen=True)
class Redex:
    site: int
    rule: GraphRule
    vertex_map: Mapping[str, int]


def match_at(c: Circuit, rule: GraphRule, site: int) -> Optional[Redex]:
    """Match the rule's left pattern with its root sent to the given vertex."""
    vm: dict[str, int] = {rule.lhs.root: site}
    for pe in rule.lhs.edges:
        rv = vm[pe.att[0]]
        eid = c.producer.get(rv)
        if eid is None:
            return None
        e = c.edges[eid]
        if e.label != pe.label:
            return None
        for pname, v in zip(pe.att[1:], e.att[1:]):
            bound = vm.get(pname)
            if bound is None:
                vm[pname] = v
            elif bound != v:
                return None
    return Redex(site, rule, vm)


def find_redexes(c: Circuit) -> list[Redex]:
    """All (site, rule) matches, ordered by (topological site position, rule order).

    The per-label rule groups preserve global rule order, so scanning sites
    in topological order yields the stated ordering directly.
    """
    out: list[Redex] = []
    for eid in topo_order(c):
        e = c.edges[eid]
        for rule in _RULES_BY_ROOT.get(type(e.label), ()):
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
        return {
            "step": self.step,
            "rule": self.rule,
            "site": self.site,
            "removed_edges": list(self.removed_edges),
            "added_edges": list(self.added_edges),
            "size_after": self.size_after,
        }


@dataclass(frozen=True)
class RewriteTrace:
    steps: tuple[TraceStep, ...]


def _remap(edges: dict[int, Edge], vmap: dict[int, int]) -> dict[int, Edge]:
    return {eid: Edge(e.label, tuple(vmap.get(v, v) for v in e.att)) for eid, e in edges.items()}


class _Graph:
    """A circuit rewritten in place: the working graph of the module docstring.

    ``edges`` and ``producer`` mean what they mean on a ``Circuit``, so
    ``match_at`` and ``topo_order`` run on the graph as they are.
    """

    def __init__(self, c: Circuit):
        self.edges: dict[int, Edge] = dict(c.edges)
        self.producer: dict[int, int] = dict(c.producer)
        self.root = c.root
        self.num_inputs = c.num_inputs
        self.basis = c.basis
        self.readers: dict[int, set[int]] = {}  # only vertices that are read
        self.table: dict[tuple, int] = {}
        self.size = 0
        for eid, e in self.edges.items():
            for v in e.args:
                self.readers.setdefault(v, set()).add(eid)
            self.table.setdefault((e.label, e.args), eid)
            self.size += is_binary(e.label)
        self.redexes: dict[int, list[Redex]] = {}
        self.touched: set[int] = set()  # vertices whose producing edge changed or went
        self.unshared: set[int] = set()  # edges not yet looked up in the table
        # Results nothing reads: all unreachable, collected by the first step.
        self.orphans = [v for v in self.producer if v != self.root and v not in self.readers]

    def _add(self, eid: int, e: Edge) -> None:
        self.edges[eid] = e
        self.producer[e.result] = eid
        for v in e.args:
            self.readers.setdefault(v, set()).add(eid)
        self.size += is_binary(e.label)
        self.touched.add(e.result)
        self.unshared.add(eid)

    def _delete(self, eid: int) -> Edge:
        e = self.edges.pop(eid)
        del self.producer[e.result]
        for v in set(e.args):
            readers = self.readers[v]
            readers.discard(eid)
            if not readers:
                del self.readers[v]
        key = (e.label, e.args)
        if self.table.get(key) == eid:
            del self.table[key]
        self.size -= is_binary(e.label)
        self.touched.add(e.result)
        return e

    def _redirect(self, old: int, new: int) -> None:
        """Every reader of vertex ``old`` reads ``new`` instead."""
        for r in self.readers.pop(old, ()):
            e = self.edges[r]
            key = (e.label, e.args)
            if self.table.get(key) == r:
                del self.table[key]
            self.edges[r] = Edge(e.label, tuple(new if v == old else v for v in e.att))
            self.readers.setdefault(new, set()).add(r)
            self.touched.add(e.result)
            self.unshared.add(r)
        if self.root == old:
            self.root = new

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

    def fire(self, redex: Redex) -> TraceStep:
        """Re-verify the redex, splice its right-hand side in place and collect garbage."""
        fresh = match_at(self, redex.rule, redex.site)
        if fresh is None or fresh.vertex_map != redex.vertex_map:
            raise StaleRedexError(f"redex {redex.rule.name}@{redex.site} no longer matches")
        site = redex.site
        rhs = redex.rule.rhs
        ground = rhs.root not in rhs.open_vertices
        if ground:
            next_v = max(max(self.producer), max(self.readers, default=-1)) + 1
            next_e = max(self.edges) + 1
        removed = [self.producer[site]]
        candidates = [*self._delete(removed[0]).args, *self.orphans]
        self.orphans = []
        added: list[int] = []
        if ground:
            local: dict[str, int] = {rhs.root: site}
            for pe in rhs.edges:
                for name in pe.att:
                    if name not in local:
                        local[name] = next_v
                        next_v += 1
                self._add(next_e, Edge(pe.label, tuple(local[n] for n in pe.att)))
                added.append(next_e)
                next_e += 1
        else:
            self._redirect(site, redex.vertex_map[rhs.root])
        removed.extend(sorted(self._collect(candidates)))
        return TraceStep(0, redex.rule.name, site, tuple(removed), tuple(added), self.size)

    def share(self) -> list[int]:
        """Merge the duplicates among the unshared edges, cascading; the merged edge ids.

        Each round is one pass of ``merge_parallel_edges``: the same classes,
        the same kept edge and the same order of removal.
        """
        merged: list[int] = []
        while self.unshared:
            classes: dict[tuple, list[int]] = {}
            for eid in self.unshared:
                e = self.edges.get(eid)
                if e is not None:
                    classes.setdefault((e.label, e.args), []).append(eid)
            self.unshared = set()
            duplicates = []
            for key, ids in classes.items():
                owner = self.table.get(key)
                if owner is not None:
                    ids.append(owner)
                ids.sort()
                self.table[key] = ids[0]
                if len(ids) > 1:
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
        label = self.edges[self.producer[site]].label
        found = []
        for rule in _RULES_BY_ROOT.get(type(label), ()):
            r = match_at(self, rule, site)
            if r is not None:
                found.append(r)
        if found:
            self.redexes[site] = found
        else:
            self.redexes.pop(site, None)

    def scan(self) -> None:
        for site in self.producer:
            self._match(site)

    def rematch(self) -> None:
        """Match again every site within pattern depth above a touched vertex."""
        for v in self.touched:
            self.redexes.pop(v, None)
        region = {v for v in self.touched if v in self.producer}
        frontier = region
        for _ in range(_DEPTH):
            frontier = {self.edges[r].result for v in frontier for r in self.readers.get(v, ())} - region
            region |= frontier
        self.touched = set()
        for site in region:
            self._match(site)

    def ordered(self) -> list[Redex]:
        """The live redexes in (topological site, rule) order."""
        if len(self.redexes) == 1:
            return next(iter(self.redexes.values()))
        position = {eid: i for i, eid in enumerate(topo_order(self))}
        sites = sorted(self.redexes, key=lambda v: position[self.producer[v]])
        return [r for site in sites for r in self.redexes[site]]

    def snapshot(self) -> Circuit:
        return Circuit(self.edges, self.root, self.num_inputs, self.basis)


def apply_rewrite(c: Circuit, redex: Redex) -> tuple[Circuit, TraceStep]:
    """One proper rewrite step at the redex.

    Removes the unique gate producing the site, splices in the right-hand
    pattern (site = its root; the open vertex, when reused, = its matched
    wire), and garbage-collects.  The redex is re-verified first.  Parallel
    duplicates the step makes are left in place.
    """
    graph = _Graph(c)
    step = graph.fire(redex)
    return graph.snapshot(), step


def merge_parallel_edges(c: Circuit) -> tuple[Circuit, tuple[int, ...]]:
    """Merge duplicate edges carrying the same label and argument wires.

    Keeps the lowest-numbered edge of each duplicate class and identifies the
    result vertices.  The unrolling is unchanged, so the merged circuit is
    bisimilar to the input.
    """
    edges = dict(c.edges)
    root = c.root
    removed: list[int] = []
    while True:
        groups: dict[tuple, list[int]] = {}
        for eid in sorted(edges):
            e = edges[eid]
            groups.setdefault((e.label, e.args), []).append(eid)
        vmap: dict[int, int] = {}
        for ids in groups.values():
            keep = ids[0]
            for other in ids[1:]:
                vmap[edges[other].result] = edges[keep].result
                removed.append(other)
                del edges[other]
        if not vmap:
            break
        edges = _remap(edges, vmap)
        root = vmap.get(root, root)
    if not removed:
        return c, ()
    return Circuit(edges, root, c.num_inputs, c.basis), tuple(removed)


def substitute_input(c: Circuit, index: int, bit: int) -> Circuit:
    """Relabel the x_index edge as the constant bit; no other change."""
    if c.basis != "demorgan":
        raise CircuitError("constants exist only in the demorgan basis")
    eid = c.input_edge(index)
    if eid is None:
        raise CircuitError(f"input x{index} is not present")
    edges = dict(c.edges)
    edges[eid] = Edge(ConstLabel(int(bit)), edges[eid].att)
    return Circuit(edges, c.root, c.num_inputs, c.basis)


_MEASURE = {ConstLabel(0): 5, AND: 4, OR: 4, ConstLabel(1): 2, NOT: 1}


def graph_measure(c: Circuit) -> int:
    """Termination measure; strictly decreases on every rewrite step."""
    if c.basis != "demorgan":
        raise CircuitError("the measure is defined for demorgan circuits")
    total = 0
    for e in c.edges.values():
        if isinstance(e.label, InputLabel):
            total += 1
        else:
            total += _MEASURE[e.label]
    return total


def normalize_circuit(
    c: Circuit, strategy: str = "det", seed: Optional[int] = None
) -> tuple[Circuit, RewriteTrace]:
    """Rewrite to a redex-free circuit; any strategy yields a bisimilar result.

    ``det`` always fires the first redex in (topological site, rule) order;
    ``rand`` picks uniformly with the given seed.  Maximal sharing is
    restored on entry and after every step (see module docstring).
    """
    if c.basis != "demorgan":
        raise CircuitError("the rule system is defined for demorgan circuits")
    if strategy not in ("det", "rand"):
        raise CircuitError(f"unknown strategy {strategy!r}")
    rng = random.Random(seed)
    steps: list[TraceStep] = []
    c, merged = merge_parallel_edges(c)
    if merged:
        steps.append(TraceStep(0, "sharing", None, merged, (), circuit_size(c)))
    budget = graph_measure(c) + 1
    graph = _Graph(c)
    graph.scan()
    fired = 0
    while graph.redexes:
        redexes = graph.ordered()
        chosen = redexes[0] if strategy == "det" else rng.choice(redexes)
        step = graph.fire(chosen)
        merged = graph.share()
        graph.rematch()
        steps.append(
            replace(
                step,
                step=len(steps),
                removed_edges=step.removed_edges + tuple(merged),
                size_after=graph.size,
            )
        )
        fired += 1
        if fired > budget:
            raise BudgetError(f"no normal form within {budget} steps")
    return (graph.snapshot() if fired else c), RewriteTrace(tuple(steps))
