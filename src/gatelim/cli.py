"""Command-line entry point.

Exit codes: 0 success, 1 usage or parse error, 2 precondition violation
(e.g. refuting a circuit that is not undersized), 3 internal error -
something the library guarantees failed to hold, which is a bug, or the
interpreter ran out of stack or memory.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from . import refuter, rewrite, terms, textio, u2
from .circuits import Circuit, CircuitError, circuit_size, evaluate, isomorphic, validate


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse defaults to exit code 2
        raise UsageError(message)


def _load(path: str) -> Circuit:
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    return textio.parse_circuit(text)


def _write_trace(path: Optional[str], records: Sequence[dict]) -> None:
    if path is None:
        return
    with open(path, "w") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


def _cmd_validate(args: argparse.Namespace) -> int:
    c = _load(args.file)
    violations = validate(c)
    if violations:
        for v in violations:
            print(v)
        return 2
    print(f"valid: {len(c.edges)} edges, {circuit_size(c)} binary gates, basis {c.basis}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    c = _load(args.file)
    if not all(ch in "01" for ch in args.input) or len(args.input) != c.num_inputs:
        print(
            f"error: --input must be {c.num_inputs} bits of 0/1 (x1 leftmost)",
            file=sys.stderr,
        )
        return 2
    bits = [int(ch) for ch in args.input]
    print(evaluate(c, bits))
    return 0


def _cmd_normalize(args: argparse.Namespace) -> int:
    c = _load(args.file)
    normal, trace = rewrite.normalize_circuit(c, strategy=args.strategy, seed=args.seed)
    _write_trace(args.trace, [s.as_dict() for s in trace.steps])
    sys.stdout.write(textio.serialize_circuit(normal))
    return 0


def _cmd_refute(args: argparse.Namespace) -> int:
    c = _load(args.file)
    cex, outcome = refuter.refute_detailed(c)
    records = []
    if outcome is not None:
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
    print("".join(str(b) for b in cex.input))
    return 0


def _cmd_translate(args: argparse.Namespace) -> int:
    c = _load(args.file)
    if args.to == "u2":
        out = u2.demorgan_to_u2(c)
    else:
        out = u2.u2_to_demorgan(c)
    sys.stdout.write(textio.serialize_circuit(out))
    return 0


def _cmd_trs_check(args: argparse.Namespace) -> int:
    trs = terms.demorgan_system()
    report = terms.certify_convergence(trs, samples=args.samples, seed=args.seed)
    print(f"rules: {report.rule_count}")
    print(f"critical pairs: {report.pair_count}")
    print(f"unjoinable pairs: {len(report.unjoinable)}")
    print(f"weight samples: {report.weight_samples}, violations: {report.weight_violations}")
    if not report.convergent:
        print("NOT CONVERGENT", file=sys.stderr)
        return 3
    print("convergent: all critical pairs joinable, weight strictly decreasing")
    return 0


def _cmd_schnorr_check(args: argparse.Namespace) -> int:
    lower = refuter.schnorr_exhaustive_check()
    xor2 = refuter.xor_circuit(2)
    upper = all(
        evaluate(xor2, (a, b)) == (a + b) % 2 for a in (0, 1) for b in (0, 1)
    )
    print(f"no 2-input circuit with <= 2 binary gates computes parity: {lower}")
    print(f"3-gate parity circuit correct on all 4 inputs: {upper}")
    if not (lower and upper):
        return 3
    return 0


def _cmd_demo_nonconfluence(args: argparse.Namespace) -> int:
    witness, up, down = u2.nonconfluence_witness()
    print("# witness")
    sys.stdout.write(textio.serialize_circuit(witness))
    print("# pushed up")
    sys.stdout.write(textio.serialize_circuit(up))
    print("# pushed down")
    sys.stdout.write(textio.serialize_circuit(down))
    table_equal = all(
        evaluate(up, bits) == evaluate(down, bits) == evaluate(witness, bits)
        for bits in _assignments(witness.num_inputs)
    )
    iso = isomorphic(up, down)
    print(f"truth tables equal: {table_equal}")
    print(f"isomorphic: {iso}")
    if not table_equal or iso:
        return 3
    return 0


def _assignments(n: int):
    for k in range(2**n):
        yield tuple((k >> (n - 1 - i)) & 1 for i in range(n))


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
    p.add_argument("--to", choices=("u2", "demorgan"), required=True)
    p.set_defaults(fn=_cmd_translate)

    p = sub.add_parser("trs", help="formula rewriting system commands")
    trs_sub = p.add_subparsers(dest="trs_command", required=True)
    q = trs_sub.add_parser("check", help="run the convergence certificate")
    q.add_argument("--samples", type=int, default=1000)
    q.add_argument("--seed", type=int, default=0)
    q.set_defaults(fn=_cmd_trs_check)

    p = sub.add_parser("schnorr-check", help="exhaustive 2-input parity lower bound check")
    p.set_defaults(fn=_cmd_schnorr_check)

    p = sub.add_parser("demo-nonconfluence", help="print the u2 divergence witness")
    p.set_defaults(fn=_cmd_demo_nonconfluence)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except textio.ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except CircuitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AssertionError, refuter.InternalError, terms.BudgetError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (RecursionError, MemoryError) as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
