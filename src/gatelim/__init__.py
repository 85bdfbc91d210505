"""Convergent gate-elimination rewriting for Boolean circuits.

Formula-level rewriting with a mechanized convergence certificate, the
same rules run on circuits as the circuit simplification system, a
constructive refuter for undersized parity circuits, and translation to and
from the full two-input basis that never adds a binary gate.

``import gatelim`` loads no submodule.  The names in ``__all__`` resolve on
first use (PEP 562): the first one read imports the API and binds every
name, each the very object its module binds.  ``gatelim.cli`` imports
only what its command runs.
"""


def _exports() -> dict:
    from .circuits import (
        Circuit,
        CircuitBuilder,
        CircuitError,
        bisimilar,
        circuit_size,
        evaluate,
        isomorphic,
        topo_order,
        unroll_term,
        validate,
    )
    from .refuter import (
        Counterexample,
        RefuterError,
        RefuterOutcome,
        Restriction,
        refute,
        schnorr_exhaustive_check,
        xor_circuit,
    )
    from .rewrite import (
        apply_rewrite,
        find_redexes,
        graph_measure,
        merge_parallel_edges,
        normalize_circuit,
        substitute_input,
    )
    from .terms import (
        TRS,
        Term,
        TermRule,
        certify_convergence,
        critical_pairs,
        demorgan_system,
        joinable,
        normalize_term,
    )
    from .textio import ParseError, parse_circuit, serialize_circuit
    from .u2 import demorgan_to_u2, nonconfluence_witness, push_down, push_up, u2_semantics, u2_to_demorgan

    return locals()


def __getattr__(name: str) -> object:
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals().update(_exports())
    return globals()[name]


def __dir__() -> list[str]:
    return sorted(globals().keys() | set(__all__))


__all__ = [
    "Circuit",
    "CircuitBuilder",
    "CircuitError",
    "Counterexample",
    "ParseError",
    "RefuterError",
    "RefuterOutcome",
    "Restriction",
    "TRS",
    "Term",
    "TermRule",
    "apply_rewrite",
    "bisimilar",
    "certify_convergence",
    "circuit_size",
    "critical_pairs",
    "demorgan_system",
    "demorgan_to_u2",
    "evaluate",
    "find_redexes",
    "graph_measure",
    "isomorphic",
    "joinable",
    "merge_parallel_edges",
    "nonconfluence_witness",
    "normalize_circuit",
    "normalize_term",
    "parse_circuit",
    "push_down",
    "push_up",
    "refute",
    "schnorr_exhaustive_check",
    "serialize_circuit",
    "substitute_input",
    "topo_order",
    "u2_semantics",
    "u2_to_demorgan",
    "unroll_term",
    "validate",
    "xor_circuit",
]
