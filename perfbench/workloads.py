"""The four benchmark workloads: seeded corpora, the ops run on them, and their checks.

Each op is one ``gatelim`` command line run in-process.  Every op carries an
oracle check (see ``oracle.py``) that raises ``OracleError`` on a wrong
output.  Sizes are stratified grids and the seed only varies the circuits
drawn at each grid point, so the latency distribution is much the same from
seed to seed while the inputs differ.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import families
import oracle

# The grids are fine so that op latencies fill a continuous range: a median
# that falls into the gap between two item sizes jumps from run to run.
#
# refute_neartight: n on this grid, two items per n with pos early and late in
# n/2+2 .. n (so every item runs at least n/2 rounds), seeded jitter of +-1.
REFUTE_NS = tuple(range(12, 33))
REFUTE_POS_FRACS = (0.25, 1.0)

# normalize_constdag: one DAG per grid point, normalized with det and rand in
# turn; binary gates before normalization, and the constant share of the
# first layer's wires.  Constant propagation cascades, so a DAG is
# redrawn until the share of its gates that read a constant lies in
# CONSTDAG_TOUCHED.  That share predicts the rewrite steps (about 1.2 per
# touched gate); left free, it ranges from 3% to 60%, and the median op
# latency then moves by a third from seed to seed.
CONSTDAG_GATES = tuple(range(110, 181, 2))
CONSTDAG_CONST_SHARE = 0.15
CONSTDAG_TOUCHED = (0.15, 0.2)

# translate_normaldag: binary gates of the already-normal DAGs.
NORMALDAG_GATES = tuple(range(200, 551, 25))

# certify_trs: --samples of each op.
TRS_SAMPLES = tuple(range(50, 401, 10))


@dataclass
class Op:
    argv: list[str]
    check: Callable[[str], None]
    gates: int = 0  # binary gates in the op's input
    n: int = 0  # inputs of the op's circuit
    writes: Optional[Path] = None  # stdout is saved here for a later op


@dataclass
class Corpus:
    ops: list[Op]
    warmup: list[str]  # argv of a tiny op of the same kind, for the set-up measurement


def _write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


def _check(reference: oracle.Reference, basis: str, binary: Optional[int], normal: bool):
    """Check an output circuit against the source; ``binary`` None means any size."""

    def check(stdout: str) -> None:
        out = oracle.parse(stdout)
        if out.basis != basis:
            raise oracle.OracleError(f"basis {out.basis}, expected {basis}")
        if binary is not None and out.binary != binary:
            raise oracle.OracleError(f"{out.binary} binary gates, expected {binary}")
        if normal and (violations := oracle.normal_form_violations(out)):
            raise oracle.OracleError("not a normal form: " + "; ".join(violations[:3]))
        reference.check(out)

    return check


def refute_neartight(rng: random.Random, work: Path) -> Corpus:
    ops = []
    for n in REFUTE_NS:
        lo = n // 2 + 2
        for frac in REFUTE_POS_FRACS:
            pos = min(n, max(lo, lo + round(frac * (n - lo)) + rng.choice((-1, 0, 1))))
            text = families.neartight(rng, n, pos)
            parsed = oracle.parse(text)
            path = _write(work / f"neartight-{n}-{pos}.ckt", text)
            ops.append(
                Op(["refute", path], lambda out, c=parsed: oracle.check_counterexample(c, out), parsed.binary, n)
            )
    rng.shuffle(ops)
    warm = _write(work / "warmup.ckt", families.neartight(rng, 4, 4))
    return Corpus(ops, ["refute", warm])


def normalize_constdag(rng: random.Random, work: Path) -> Corpus:
    ops = []
    for k, gates in enumerate(CONSTDAG_GATES):
        n = rng.randint(16, 24)
        while True:
            text, touched = families.layered_dag(rng, n, gates, 16, const_share=CONSTDAG_CONST_SHARE)
            if CONSTDAG_TOUCHED[0] <= touched / gates <= CONSTDAG_TOUCHED[1]:
                break
        path = _write(work / f"constdag-{gates}.ckt", text)
        strategy = ["--strategy", "det"] if k % 2 == 0 else ["--strategy", "rand", "--seed", str(rng.randrange(2**31))]
        check = _check(oracle.Reference(oracle.parse(text), rng), "demorgan", None, normal=True)
        ops.append(Op(["normalize", path, *strategy], check, gates, n))
    warm = _write(work / "warmup.ckt", families.layered_dag(rng, 4, 6, 2, const_share=CONSTDAG_CONST_SHARE)[0])
    return Corpus(ops, ["normalize", warm])


def translate_normaldag(rng: random.Random, work: Path) -> Corpus:
    ops = []
    for gates in NORMALDAG_GATES:
        n = rng.randint(16, 24)
        text, _ = families.layered_dag(rng, n, gates, 32)
        reference = oracle.Reference(oracle.parse(text), rng)
        path = _write(work / f"normaldag-{gates}.ckt", text)
        u2_path = work / f"normaldag-{gates}.u2.ckt"
        ops += [
            Op(["normalize", path], _check(reference, "demorgan", gates, normal=True), gates, n),
            Op(["translate", path, "--to", "u2"], _check(reference, "u2", gates, normal=False), gates, n, u2_path),
            Op(
                ["translate", str(u2_path), "--to", "demorgan"],
                _check(reference, "demorgan", gates, normal=False),
                gates,
                n,
            ),
        ]
    warm = _write(work / "warmup.ckt", families.layered_dag(rng, 4, 6, 2)[0])
    return Corpus(ops, ["translate", warm, "--to", "u2"])


def certify_trs(rng: random.Random, work: Path) -> Corpus:
    ops = []
    for samples in TRS_SAMPLES:
        argv = ["trs", "check", "--samples", str(samples), "--seed", str(rng.randrange(2**31))]
        ops.append(Op(argv, lambda out, s=samples: oracle.check_certificate(out, s)))
    rng.shuffle(ops)
    return Corpus(ops, ["trs", "check", "--samples", "1"])


WORKLOADS: dict[str, Callable[[random.Random, Path], Corpus]] = {
    "refute_neartight": refute_neartight,
    "normalize_constdag": normalize_constdag,
    "translate_normaldag": translate_normaldag,
    "certify_trs": certify_trs,
}
