"""Reference isomorphism for the tests: the root morphism that ``gatelim.circuits.isomorphic`` was built on.

``isomorphic`` now compares canonical names (``circuits.canonical_names``).
Before, it followed producers from both roots at once, building the unique
label- and attachment-preserving map of one circuit's vertices to the
other's, and asked that map to be a bijection onto all vertices of both.
The tests require the two to agree.
"""

from __future__ import annotations

from typing import Optional

from gatelim.circuits import Circuit, CircuitError


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
