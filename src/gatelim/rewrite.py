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

The normalization driver additionally keeps circuits *maximally shared*: after
every step it merges parallel duplicate edges (same label, same argument
wires, distinct results).  Merging duplicates never changes the unrolling, so
it is invisible to bisimilarity, but it is load-bearing for confluence in
practice: vertex identifications performed by the passing and de-duplication
rules can split one wire carrying a value into two parallel copies, and the
non-left-linear patterns above would then never see their redex again.  With
sharing maintained, a wire-equal pair of subcircuits is always one vertex and
the graph normal form unrolls to the formula normal form.
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
    reachable_edges,
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


def apply_rewrite(c: Circuit, redex: Redex) -> tuple[Circuit, TraceStep]:
    """One proper rewrite step at the redex.

    Removes the unique gate producing the site, splices in the right-hand
    pattern (site = its root; the open vertex, when reused, = its matched
    wire), and garbage-collects.  The redex is re-verified first.
    """
    fresh = match_at(c, redex.rule, redex.site)
    if fresh is None or fresh.vertex_map != redex.vertex_map:
        raise StaleRedexError(f"redex {redex.rule.name}@{redex.site} no longer matches")
    site = redex.site
    rhs = redex.rule.rhs
    edges = dict(c.edges)
    removed = [c.producer[site]]
    del edges[removed[0]]
    added: list[int] = []
    root = c.root
    if rhs.root in rhs.open_vertices:
        # right-hand side is the bare open vertex: identify site with its match
        target = redex.vertex_map[rhs.root]
        edges = _remap(edges, {site: target})
        if root == site:
            root = target
    else:
        next_v = max(c.vertices) + 1
        next_e = max(c.edges) + 1
        local: dict[str, int] = {rhs.root: site}
        for pe in rhs.edges:
            for name in pe.att:
                if name not in local:
                    local[name] = next_v
                    next_v += 1
            edges[next_e] = Edge(pe.label, tuple(local[n] for n in pe.att))
            added.append(next_e)
            next_e += 1
    keep = reachable_edges(edges, root)
    removed.extend(sorted(set(edges) - keep))
    edges = {eid: edges[eid] for eid in keep}
    new_c = Circuit(edges, root, c.num_inputs, c.basis)
    step = TraceStep(0, redex.rule.name, site, tuple(removed), tuple(added), circuit_size(new_c))
    return new_c, step


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
    fired = 0
    while True:
        redexes = find_redexes(c)
        if not redexes:
            break
        chosen = redexes[0] if strategy == "det" else rng.choice(redexes)
        c, step = apply_rewrite(c, chosen)
        c, merged = merge_parallel_edges(c)
        step = replace(
            step,
            step=len(steps),
            removed_edges=step.removed_edges + merged,
            size_after=circuit_size(c),
        )
        steps.append(step)
        fired += 1
        if fired > budget:
            raise BudgetError(f"no normal form within {budget} steps")
    return c, RewriteTrace(tuple(steps))
