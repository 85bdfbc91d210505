"""Reference normalizer and refuter for the tests: rebuild the circuit every step.

This is the normalizer that ``gatelim.rewrite.normalize_circuit`` replaced
with its incremental working graph.  Every step it rescans the whole circuit
with ``find_redexes``, rebuilds it with a copying rewrite step that
garbage-collects by reachability, and restores maximal sharing with
``merge_parallel_edges``, a pass-by-pass merge over every edge (the library's
``merge_parallel_edges`` now runs the working graph's ``share``).  It is slow
and plainly correct, so the tests require the incremental normalizer to agree
with it byte for byte.

``search_bad_restriction`` is the refuter's restriction search as it ran
before the refuter kept one working graph across rounds: every round
substitutes into an immutable circuit and normalizes the result from
scratch, and every structural question is answered by scanning that circuit.

``kahn_order`` is the plain min-id Kahn order that ``topo_order`` must give,
without its ascending-id shortcut.

``replayed_graph`` enters a circuit into a ``WorkingGraph`` edge by edge, as
the graph's constructor did before it built its indexes in bulk: every index
starts empty and each edge goes in through the incremental ``add_edge``.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import replace
from typing import Optional

from gatelim.circuits import (
    Circuit,
    INPUT,
    LABELS,
    NOT,
    CircuitError,
    Edge,
    Label,
    circuit_size,
    const_label,
    is_binary,
    reachable_edges,
    topo_order,
)
from gatelim.refuter import IterationRecord, RefuterOutcome, Restriction, fixer, literal_of
from gatelim.rewrite import (
    Redex,
    RewriteTrace,
    StaleRedexError,
    TraceStep,
    WorkingGraph,
    find_redexes,
    graph_measure,
    match_at,
)
from gatelim.rewrite import normalize_circuit as incremental_normalize
from gatelim.terms import BudgetError, Var


def kahn_order(c: Circuit) -> list[int]:
    """Kahn's algorithm, ready edges on a min-id heap; raises on a cycle as ``topo_order`` does."""
    deps = {eid: {c.producer[v] for v in e.args if v in c.producer} for eid, e in c.edges.items()}
    ready = [eid for eid, d in deps.items() if not d]
    heapq.heapify(ready)
    order = []
    while ready:
        eid = heapq.heappop(ready)
        order.append(eid)
        for succ, d in deps.items():
            if eid in d:
                d.discard(eid)
                if not d:
                    heapq.heappush(ready, succ)
    if len(order) != len(c.edges):
        raise CircuitError("cycle detected among edges " + str(sorted(set(c.edges) - set(order))))
    return order


def _remap(edges: dict[int, Edge], vmap: dict[int, int]) -> dict[int, Edge]:
    return {eid: Edge(e.label, tuple(vmap.get(v, v) for v in e.att)) for eid, e in edges.items()}


def merge_parallel_edges(c: Circuit) -> tuple[Circuit, tuple[int, ...]]:
    """Merge duplicate edges pass by pass over every edge, keeping the lowest id of each class."""
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


def apply_rewrite(c: Circuit, redex: Redex) -> tuple[Circuit, TraceStep]:
    """One rewrite step on a copy of the circuit, then garbage collection by reachability.

    The right-hand term is spliced by a recursion over its occurrences: a
    node's edge takes the next edge id, its operator arguments the next
    vertex ids from left to right, and then its arguments are spliced from
    right to left.
    """
    fresh = match_at(c, redex.rule, redex.site)
    if fresh is None or fresh.binding != redex.binding:
        raise StaleRedexError(f"redex {redex.rule.name}@{redex.site} no longer matches")
    site = redex.site
    rhs = redex.rule.rhs
    edges = dict(c.edges)
    removed = [c.producer[site]]
    del edges[removed[0]]
    added: list[int] = []
    root = c.root
    if isinstance(rhs, Var):
        # right-hand side is a bare variable: identify the site with its match
        target = redex.binding[rhs.name]
        edges = _remap(edges, {site: target})
        if root == site:
            root = target
    else:
        next_v = itertools.count(max(c.vertices) + 1)
        next_e = itertools.count(max(c.edges) + 1)

        def splice(term, result):
            wires = [redex.binding[a.name] if isinstance(a, Var) else next(next_v) for a in term.args]
            eid = next(next_e)
            edges[eid] = Edge(LABELS[term.kind.name], (result, *wires))
            added.append(eid)
            for a, w in reversed(list(zip(term.args, wires))):
                if not isinstance(a, Var):
                    splice(a, w)

        splice(rhs, site)
    keep = reachable_edges(edges, root)
    removed.extend(sorted(set(edges) - keep))
    edges = {eid: edges[eid] for eid in keep}
    new_c = Circuit(edges, root, c.num_inputs, c.basis)
    step = TraceStep(0, redex.rule.name, site, tuple(removed), tuple(added), circuit_size(new_c))
    return new_c, step


def normalize_circuit(
    c: Circuit, strategy: str = "det", seed: Optional[int] = None
) -> tuple[Circuit, RewriteTrace]:
    """The rescan normalizer: same contract and same outputs as the library's."""
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


def substitute_input(c: Circuit, index: int, bit: int) -> Circuit:
    """The circuit with the x_index edge, found by a scan of every edge, relabelled as the constant bit."""
    eid = next(eid for eid, e in c.edges.items() if e.label == Label(INPUT, index))
    return Circuit({**c.edges, eid: Edge(const_label(int(bit)), c.edges[eid].att)}, c.root, c.num_inputs, c.basis)


def costly_readers(c: Circuit, wire: int, order) -> list[int]:
    """And/or gates reading the wire directly or through a negation, by a scan of every edge."""
    wires = {wire} | {e.result for e in c.edges.values() if e.label.kind is NOT.kind and e.args[0] == wire}
    return [g for g in order if is_binary(c.edges[g].label) and any(v in wires for v in c.edges[g].args)]


def search_bad_restriction(c: Circuit) -> RefuterOutcome:
    """The per-round refuter: ``normalize_circuit(substitute_input(work, p, bit))`` each round."""
    n = c.num_inputs
    work, _ = incremental_normalize(c)
    restriction = Restriction(n)
    iterations: list[IterationRecord] = []
    while len(restriction.active) > 2:
        read = work.inputs.keys()
        unread = sorted(v for v in restriction.active if v not in read)
        if unread:
            return RefuterOutcome("degen", restriction, var=unread[0], iterations=tuple(iterations))
        order = topo_order(work)
        h = next(eid for eid in order if is_binary(work.edges[eid].label))
        (p, _), (q, _) = (literal_of(work, v) for v in work.edges[h].args)
        readers = costly_readers(work, work.edges[work.input_edge(p)].result, order)
        if len(readers) == 1:
            restriction = restriction.assign(q, fixer(work, h, q))
            return RefuterOutcome("degen", restriction, var=p, iterations=tuple(iterations))
        f = next(g for g in readers if g != h)
        root = work.producer_edge(work.root)
        output_gate = work.producer[root.args[0]] if root.label.kind is NOT.kind else work.producer[work.root]
        if output_gate == f:
            restriction = restriction.assign(p, fixer(work, f, p))
            return RefuterOutcome("const", restriction, var=p, sibling=q, iterations=tuple(iterations))
        f_prime = costly_readers(work, work.edges[f].result, order)[0]
        bit = fixer(work, f, p)
        restriction = restriction.assign(p, bit)
        size_before = circuit_size(work)
        work, _ = incremental_normalize(substitute_input(work, p, bit))
        iterations.append(
            IterationRecord(len(iterations), h, f, f_prime, p, bit, size_before, circuit_size(work))
        )
    return RefuterOutcome("fails", restriction, iterations=tuple(iterations))


def add_edge(g: WorkingGraph, eid: int, e: Edge) -> None:
    """Add one edge to the graph's indexes, counting the inversions it makes with the edges already in."""
    g.inverted += sum(eid >= r for r in g.readers.get(e.result, ()))
    g.edges[eid] = e
    g.producer[e.result] = eid
    for v in e.args:
        readers = g.readers.setdefault(v, set())
        if eid not in readers:
            readers.add(eid)
            g.inverted += g.producer.get(v, -1) >= eid
    if not e.args:
        g.leaves.add(eid)
        if e.label.kind is INPUT:
            g.inputs.setdefault(e.label.index, eid)
    g.size += e.label.kind.arity == 2
    g.measure += e.label.kind.weight
    g.touched.add(e.result)
    g.unshared.add(eid)


def replayed_graph(c: Circuit) -> WorkingGraph:
    """A working graph of ``c`` entered edge by edge through ``add_edge``.

    Every result is touched, and the redex index is empty rather than
    unbuilt, so its first ``rematch`` matches the region around the touched
    vertices, as every later rematch does.
    """
    g = WorkingGraph.__new__(WorkingGraph)
    g.root, g.num_inputs, g.basis = c.root, c.num_inputs, c.basis
    g.edges, g.producer, g.readers, g.inputs, g.table, g.redexes = {}, {}, {}, {}, {}, {}
    g.leaves, g.touched, g.rewired, g.unshared = set(), set(), set(), set()
    g.size = g.measure = g.inverted = 0
    g.kept = None
    for eid, e in c.edges.items():
        add_edge(g, eid, e)
    g.top_v = max(max(g.producer, default=-1), max(g.readers, default=-1))
    g.top_e = max(g.edges, default=-1)
    g.orphans = [v for v in g.producer if v != g.root and v not in g.readers]
    return g
