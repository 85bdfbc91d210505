"""Command-line entry point.

Exit codes: 0 success, 1 usage or parse error, 2 precondition violation
(e.g. refuting a circuit that is not undersized), 3 internal error -
something the library guarantees failed to hold, which is a bug, or the
interpreter ran out of stack or memory.

Each command imports the modules it runs when it runs, so a process loads
only those: ``trs check`` loads ``terms`` alone, and ``translate`` loads no
``rewrite`` or ``refuter``.  The errors ``main`` maps to exit codes are
defined in ``terms``, which every command loads.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import sys
from typing import Optional, Sequence

from . import terms


def _bound_before() -> dict:
    from . import refuter, rewrite, textio, u2
    from .circuits import Circuit, CircuitError, circuit_size, evaluate, isomorphic

    return locals()


def __getattr__(name: str) -> object:
    """A name ``cli`` bound when it imported every module at once: those modules and the circuit names.

    Read as an attribute of ``cli``, it is loaded then, with the rest of them.
    """
    if not name.startswith("__"):
        found = _bound_before()
        if name in found:
            return found[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse defaults to exit code 2
        raise UsageError(message)


def _non_negative(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _write(text: str) -> None:
    """Write text to stdout and flush it: a write that fails fails here, as a usage error, not at exit."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        raise UsageError(f"cannot write stdout: {exc}") from exc


def _write_trace(path: str, records: Sequence[dict]) -> None:
    import json

    try:
        with open(path, "w") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _cmd_validate(args: argparse.Namespace) -> int:
    from . import circuits, textio

    c = textio.parse_circuit(_read(args.file))  # parsing builds the circuit, and building validates it
    _write(f"valid: {len(c.edges)} edges, {circuits.circuit_size(c)} binary gates, basis {c.basis}\n")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    from . import circuits, textio

    c = textio.parse_circuit(_read(args.file))
    if not all(ch in "01" for ch in args.input) or len(args.input) != c.num_inputs:
        print(
            f"error: --input must be {c.num_inputs} bits of 0/1 (x1 leftmost)",
            file=sys.stderr,
        )
        return 2
    bits = [int(ch) for ch in args.input]
    _write(f"{circuits.evaluate(c, bits)}\n")
    return 0


def _cmd_normalize(args: argparse.Namespace) -> int:
    from . import rewrite, textio

    c = textio.parse_circuit(_read(args.file))
    normal, trace = rewrite.normalize_circuit(c, strategy=args.strategy, seed=args.seed)
    if args.trace is not None:
        _write_trace(args.trace, [s.as_dict() for s in trace.steps])
    _write(textio.serialize_circuit(normal))
    return 0


def _cmd_refute(args: argparse.Namespace) -> int:
    from . import refuter, textio

    c = textio.parse_circuit(_read(args.file))
    cex, outcome = refuter.refute_detailed(c)
    if args.trace is not None:
        records = []
        if outcome is not None:  # n <= 3 is brute-forced: the trace file is empty
            records = [it.as_dict() for it in outcome.iterations]
            records.append(
                {
                    "outcome": outcome.tag,
                    "restriction": dict(outcome.restriction.assigned),
                    "var": outcome.var,
                    "sibling": outcome.sibling,
                }
            )
        _write_trace(args.trace, records)
    _write("".join(str(b) for b in cex.input) + "\n")
    return 0


def _cmd_translate(args: argparse.Namespace) -> int:
    from . import textio, u2

    c = textio.parse_circuit(_read(args.file))
    out = u2.demorgan_to_u2(c) if args.to == terms.U2_BASIS.name else u2.u2_to_demorgan(c)
    _write(textio.serialize_circuit(out))
    return 0


def _cmd_trs_check(args: argparse.Namespace) -> int:
    report = terms.certify_convergence(terms.demorgan_system(), samples=args.samples, seed=args.seed)
    _write(
        f"rules: {report.rule_count}\n"
        f"critical pairs: {report.pair_count}\n"
        f"unjoinable pairs: {len(report.unjoinable)}\n"
        f"weight samples: {report.weight_samples}, violations: {report.weight_violations}\n"
    )
    if not report.convergent:
        print("NOT CONVERGENT", file=sys.stderr)
        return 3
    _write("convergent: all critical pairs joinable, weight strictly decreasing\n")
    return 0


def _cmd_schnorr_check(args: argparse.Namespace) -> int:
    from . import circuits, refuter

    lower = refuter.schnorr_exhaustive_check()
    xor2 = refuter.xor_circuit(2)
    upper = all(
        circuits.evaluate(xor2, (a, b)) == (a + b) % 2 for a in (0, 1) for b in (0, 1)
    )
    _write(
        f"no 2-input circuit with <= 2 binary gates computes parity: {lower}\n"
        f"3-gate parity circuit correct on all 4 inputs: {upper}\n"
    )
    if not (lower and upper):
        return 3
    return 0


def _cmd_demo_nonconfluence(args: argparse.Namespace) -> int:
    from . import circuits, textio, u2

    witness, up, down = u2.nonconfluence_witness()
    _write("# witness\n" + textio.serialize_circuit(witness))
    _write("# pushed up\n" + textio.serialize_circuit(up))
    _write("# pushed down\n" + textio.serialize_circuit(down))
    table_equal = all(
        circuits.evaluate(up, bits) == circuits.evaluate(down, bits) == circuits.evaluate(witness, bits)
        for bits in itertools.product((0, 1), repeat=witness.num_inputs)
    )
    iso = circuits.isomorphic(up, down)
    _write(f"truth tables equal: {table_equal}\nisomorphic: {iso}\n")
    if not table_equal or iso:
        return 3
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="gatelim", description="Gate-elimination rewriting for Boolean circuits")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a circuit file against the structural invariants")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("eval", help="evaluate a circuit on an input bitstring")
    p.add_argument("file")
    p.add_argument("--input", required=True, help="bits for x1..xn, x1 leftmost, e.g. 101")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("normalize", help="rewrite a circuit to its normal form")
    p.add_argument("file")
    p.add_argument("--strategy", choices=("det", "rand"), default="det")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", metavar="OUT.JSONL")
    p.set_defaults(fn=_cmd_normalize)

    p = sub.add_parser("refute", help="find an input where an undersized circuit is not parity")
    p.add_argument("file")
    p.add_argument("--trace", metavar="OUT.JSONL")
    p.set_defaults(fn=_cmd_refute)

    p = sub.add_parser("translate", help="translate between the demorgan and u2 bases")
    p.add_argument("file")
    p.add_argument("--to", choices=(terms.U2_BASIS.name, terms.DEMORGAN_BASIS.name), required=True)
    p.set_defaults(fn=_cmd_translate)

    p = sub.add_parser("trs", help="formula rewriting system commands")
    trs_sub = p.add_subparsers(dest="trs_command", required=True)
    q = trs_sub.add_parser("check", help="run the convergence certificate")
    q.add_argument("--samples", type=_non_negative, default=1000)
    q.add_argument("--seed", type=int, default=0)
    q.set_defaults(fn=_cmd_trs_check)

    p = sub.add_parser("schnorr-check", help="exhaustive 2-input parity lower bound check")
    p.set_defaults(fn=_cmd_schnorr_check)

    p = sub.add_parser("demo-nonconfluence", help="print the u2 divergence witness")
    p.set_defaults(fn=_cmd_demo_nonconfluence)

    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser, built once per process; every ``parse_args`` fills a fresh namespace."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except terms.ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except terms.CircuitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AssertionError, terms.InternalError, terms.BudgetError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (RecursionError, MemoryError) as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
