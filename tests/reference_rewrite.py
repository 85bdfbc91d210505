"""Reference normalizer for the tests: rescan and rebuild the circuit every step.

This is the normalizer that ``gatelim.rewrite.normalize_circuit`` replaced
with its incremental working graph.  Every step it rescans the whole circuit
with ``find_redexes``, rebuilds it with a copying rewrite step that
garbage-collects by reachability, and restores maximal sharing with
``merge_parallel_edges``.  It is slow and plainly correct, so the tests
require the incremental normalizer to agree with it byte for byte.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Optional

from gatelim.circuits import Circuit, Edge, circuit_size, reachable_edges
from gatelim.rewrite import (
    Redex,
    RewriteTrace,
    StaleRedexError,
    TraceStep,
    find_redexes,
    graph_measure,
    match_at,
    merge_parallel_edges,
)
from gatelim.terms import BudgetError


def _remap(edges: dict[int, Edge], vmap: dict[int, int]) -> dict[int, Edge]:
    return {eid: Edge(e.label, tuple(vmap.get(v, v) for v in e.att)) for eid, e in edges.items()}


def apply_rewrite(c: Circuit, redex: Redex) -> tuple[Circuit, TraceStep]:
    """One rewrite step on a copy of the circuit, then garbage collection by reachability."""
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
