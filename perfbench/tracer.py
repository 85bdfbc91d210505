"""Span recorder for the traced run.

Wraps the public functions of each layer (module) of ``gatelim`` so that
every call records a span: name, start, end and parent span.  Spans stay in
memory until the run ends.  ``match_at`` is only counted, not timed: there are
hundreds of thousands of calls per large refute.

Modules bind one another's functions with ``from .x import f``, so a function
is replaced under every name, in every ``gatelim`` module, that refers to it.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter
from pathlib import Path
from time import perf_counter

LAYERS = ("cli", "textio", "circuits", "rewrite", "refuter", "u2", "terms")

SPANNED = {
    "cli": ("main",),
    "textio": ("parse_circuit", "serialize_circuit"),
    "circuits": ("topo_order", "reachable_edges", "validate", "evaluate"),
    "rewrite": ("normalize_circuit", "find_redexes", "apply_rewrite", "merge_parallel_edges", "substitute_input"),
    "refuter": ("refute_detailed", "search_bad_restriction", "extract_counterexample"),
    "u2": ("demorgan_to_u2", "u2_to_demorgan", "push_up", "push_down"),
    "terms": ("demorgan_system", "certify_convergence", "critical_pairs", "joinable", "normalize_term"),
}

OP = "op"  # root span of one op, recorded by the benchmark around cli.main


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording a span per call; ``after(args, result)`` may add counts."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = perf_counter()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _after_hooks(self):
        counts = self.counts

        def parse(args, result):
            counts["textio.parse.lines"] += args[0].count("\n")

        def merge(args, result):
            counts["rewrite.merge_parallel_edges.merged_edges"] += len(result[1])

        def search(args, result):
            counts["refuter.rounds"] += len(result.iterations)
            counts[f"refuter.outcome.{result.tag}"] += 1

        return {
            "textio.parse_circuit": parse,
            "rewrite.merge_parallel_edges": merge,
            "refuter.search_bad_restriction": search,
        }

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"gatelim.{layer}") for layer in LAYERS}
        namespaces = [importlib.import_module("gatelim"), *modules.values()]
        hooks = self._after_hooks()
        replacements = {}
        for layer, names in SPANNED.items():
            for fname in names:
                full = f"{layer}.{fname}"
                fn = getattr(modules[layer], fname)
                replacements[id(fn)] = (fn, self.wrap(full, fn, hooks.get(full)))
        match_at = modules["rewrite"].match_at
        replacements[id(match_at)] = (match_at, self._count_match_at(match_at))
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._undo.append((ns, attr, value))
                    setattr(ns, attr, hit[1])
        circuit = modules["circuits"].Circuit
        self._undo.append((circuit, "__init__", circuit.__init__))
        circuit.__init__ = self.wrap("circuits.Circuit", circuit.__init__)

    def _count_match_at(self, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts["rewrite.match_at.calls"] += 1
            if result is not None:
                counts["rewrite.match_at.hits"] += 1
            return result

        return counted

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path: Path) -> None:
        with open(path, "w") as out:
            for i, (name, start, end, parent) in enumerate(self.spans):
                out.write(json.dumps({"id": i, "name": name, "start": start, "end": end, "parent": parent}) + "\n")

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive time and self time (time no child span covers)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            row = out.setdefault(name, {"calls": 0, "time_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["time_s"] += end - start
            row["self_s"] += end - start - covered
        return out

