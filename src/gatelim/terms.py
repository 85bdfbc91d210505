"""Boolean formulas as trees, and a convergent simplification system for them.

Every fact about a basis is stated once, in its row of the basis table
``BASES`` (a ``Basis``): its name in the text format, its signature (the gate
kinds it has, in order), the file of its rule system if it has one, and how
its parse errors count operands.  The label table ``KINDS`` is the union of
the rows' kinds, each a ``LabelKind`` that gives its arity, truth table,
measure weight and formula name.  A kind belongs to a basis because the
basis's row lists it, so two rows may share kinds.

A term is a variable (``Var``) or an operator node (``Op``) whose ``kind``
is a row of ``KINDS``, as a circuit gate's is.  The formula signature is the
demorgan row's (``zero``, ``one``, ``not``, ``and``, ``or``), read in that
row's order.  No term operation recurses, so any depth is fine.

The module ships a fixed 16-rule simplification system over this signature
(loaded from ``data/demorgan_rules.txt``) together with the machinery needed
to certify it convergent: a node-weight measure that strictly decreases on
every rewrite (termination) and a critical pair computation whose
joinability, combined with termination, gives confluence by Newman's lemma.

A system's rules are indexed once, when its ``TRS`` is made: ``TRS.by_root``
groups them by the kind of their left-hand root, each group in rule order.
A rule can match only at a node of its root's kind, so the redex scan tries
just that group at each node, and the critical pair computation unifies only
the overlaps whose root kinds agree.  ``rewrite.System`` reads the same index.

A term's redexes have one order, innermost first: ``redexes`` yields them
lazily, positions in post-order and the rules at each in system order.  The
deterministic strategy (``rewrite_step``, ``normalize_term``) fires the
first and the random one (``normalize_term_random``) draws from all of them.

Random terms have one draw loop, ``random_term``, which folds each node as
it is completed.  By default the fold builds the term; ``sample_weight``
folds the same draws to the term's weight instead, so the certificate's
weight samples cost no term.
"""

from __future__ import annotations

import functools
import random
import re
from dataclasses import dataclass, field
from importlib import resources
from typing import Callable, ClassVar, Iterator, NamedTuple, Optional, Union


# The package's errors.  They are defined here, in the module every command
# loads, so that ``cli.main`` maps them to exit codes without loading the
# modules of other commands; ``circuits``, ``textio`` and ``refuter`` bind
# the same objects under their names.


class BudgetError(RuntimeError):
    """A rewriting or unrolling budget was exhausted.

    The shipped systems terminate, so this firing indicates a bug rather
    than a legal outcome.
    """


class CircuitError(Exception):
    """A circuit breaks a structural invariant, or a precondition of an operation on it."""


class ParseError(Exception):
    """A line of circuit text that does not parse."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class InternalError(Exception):
    """A guarantee of the library failed to hold: a bug, not a bad input."""


@dataclass(frozen=True, eq=False)
class LabelKind:
    """The facts every label of one kind shares: a row of ``KINDS``, or ``INPUT``.

    Kinds compare and hash by identity, so a dict keyed by kind costs what
    one keyed by type does.  A pickled or copied kind is its row again.
    """

    name: str  # the op in the text format; an input's name is this and its index
    arity: int
    truth: Optional[tuple[int, ...]]  # output bit per row of argument bits, in ``output``'s order
    weight: int  # the gate's part of the termination measure
    term: Optional[str]  # the operator's name in formula text; inputs and u2 gates have none

    def output(self, *bits: int) -> int:
        """The output bit on these argument bits.

        Row r is where the complemented bits, the first most significant,
        spell r in binary, so the all-ones row is row 0.
        """
        row = 0
        for bit in bits:
            row = 2 * row + 1 - bit
        return self.truth[row]

    def __repr__(self) -> str:
        return self.name

    def __reduce__(self) -> tuple:
        return _kind_named, (self.name,)


# Truth table of each binary operation, rows ordered (p,q) = TT, TF, FT, FF.
# This table is the single source of truth for op semantics; ops 4 and 6
# negate their first and second input, 1/2 are constants, 3/5 projections.
U2_TRUTH: dict[int, tuple[int, int, int, int]] = {
    1: (1, 1, 1, 1),
    2: (0, 0, 0, 0),
    3: (1, 1, 0, 0),
    4: (0, 0, 1, 1),
    5: (1, 0, 1, 0),
    6: (0, 1, 0, 1),
    7: (1, 1, 0, 1),
    8: (0, 0, 1, 0),
    9: (1, 0, 1, 1),
    10: (0, 1, 0, 0),
    11: (1, 0, 0, 0),
    12: (0, 1, 1, 1),
    13: (1, 1, 1, 0),
    14: (0, 0, 0, 1),
}

INPUT = LabelKind("x", 0, None, 1, None)


class Basis(NamedTuple):
    """A row of ``BASES``: every fact about one basis.

    ``kinds`` is its signature: a gate kind is in the basis because the row
    lists it, and inputs, which every basis has, are in none.  ``rules`` is
    the file of its rule system under ``data/``, or None where it has none.
    ``operands`` is how a parse error counts an op's operands, formatted
    with the op's ``arity``.
    """

    name: str  # the basis in the text format and on every circuit
    kinds: tuple[LabelKind, ...]
    rules: Optional[str] = None
    operands: str = "{arity} operand(s)"


# Truth rows are ordered as in U2_TRUTH; the weights make ``graph_measure``
# fall on every rewrite step.  The u2 kinds are op 1..14 in order.
DEMORGAN_BASIS = Basis(
    "demorgan",
    (
        LabelKind("CONST0", 0, (0,), 5, "zero"),
        LabelKind("CONST1", 0, (1,), 2, "one"),
        LabelKind("NOT", 1, (0, 1), 1, "not"),
        LabelKind("AND", 2, (1, 0, 0, 0), 4, "and"),
        LabelKind("OR", 2, (1, 1, 1, 0), 4, "or"),
    ),
    "demorgan_rules.txt",
)
U2_BASIS = Basis(
    "u2", tuple(LabelKind(f"U2_{op}", 2, truth, 0, None) for op, truth in U2_TRUTH.items()), operands="2 operands"
)

# Every basis by its text name: the one place a basis is stated.
BASES: dict[str, Basis] = {basis.name: basis for basis in (DEMORGAN_BASIS, U2_BASIS)}

# Every gate kind by its text name: the union of the rows.
KINDS: dict[str, LabelKind] = {kind.name: kind for basis in BASES.values() for kind in basis.kinds}


def _kind_named(name: str) -> LabelKind:
    return INPUT if name == INPUT.name else KINDS[name]


# The kinds formula nodes have, by their names in formula text: the demorgan row's.
_OPERATORS: dict[str, LabelKind] = {kind.term: kind for kind in DEMORGAN_BASIS.kinds}


@dataclass(frozen=True)
class Var:
    name: str
    args: ClassVar[tuple] = ()  # no arguments, so a walk reads ``args`` on every node alike

    def __repr__(self) -> str:
        return self.name


class Op:
    """An operator node: ``kind`` is its row of ``KINDS`` and ``args`` its arguments.

    Immutable.  The hash is computed once, from the arguments' hashes, and
    ``==`` walks both terms with a stack of pairs, so neither recurses.
    """

    __slots__ = ("kind", "args", "_hash")

    def __init__(self, kind: LabelKind, *args: Term):
        if kind.term is None or len(args) != kind.arity:
            raise ValueError(f"no formula node of kind {kind.name} has {len(args)} arguments")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "_hash", hash((kind.term, args)))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r}: terms are immutable")

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:  # copied and pickled as its formula text
        return parse_term, (repr(self),)

    def __eq__(self, other: object) -> bool:
        if type(other) is not Op:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            # types first: a ``!=`` on a mixed pair would come back here
            if type(a) is not type(b) or (a != b if type(a) is Var else a._hash != b._hash or a.kind is not b.kind):
                return False
            stack.extend(zip(a.args, b.args))
        return True

    def __repr__(self) -> str:
        out: list[str] = []
        todo: list = [self]  # terms still to write, and the text that follows them, last first
        while todo:
            u = todo.pop()
            if type(u) is not Op:
                out.append(u if type(u) is str else u.name)
            elif u.args:
                out.append("(" + u.kind.term)
                todo.append(")")
                for a in reversed(u.args):
                    todo += a, " "
            else:
                out.append(u.kind.term)
        return "".join(out)


Term = Union[Var, Op]
Binding = dict[str, Term]
Position = tuple[int, ...]

ZERO = Op(KINDS["CONST0"])
ONE = Op(KINDS["CONST1"])
Not = functools.partial(Op, KINDS["NOT"])
And = functools.partial(Op, KINDS["AND"])
Or = functools.partial(Op, KINDS["OR"])


def fold(t: Term, var: Callable, op: Callable):
    """Fold t bottom-up: ``var(v)`` at each variable, ``op(u, values of u.args)`` at each operator node.

    The calls come in post-order, left to right.
    """
    values: list = []
    todo: list = [t]  # terms to fold, and (u,) once the values of u's arguments are the last in values
    while todo:
        u = todo.pop()
        if type(u) is tuple:
            (u,) = u
            k = len(values) - len(u.args)
            values[k:] = [op(u, values[k:])]
        elif type(u) is Var:
            values.append(var(u))
        else:
            todo.append((u,))
            todo.extend(reversed(u.args))
    return values[0]


def variables(t: Term) -> set[str]:
    return fold(t, lambda v: {v.name}, lambda u, names: set().union(*names))


def positions(t: Term) -> Iterator[Position]:
    """All subterm positions of t, root first, in left-to-right order."""
    stack: list[tuple[Position, Term]] = [((), t)]
    while stack:
        pos, u = stack.pop()
        yield pos
        stack.extend((pos + (i,), u.args[i]) for i in reversed(range(len(u.args))))


def subterm_at(t: Term, pos: Position) -> Term:
    for i in pos:
        t = t.args[i]
    return t


def replace_at(t: Term, pos: Position, new: Term) -> Term:
    spine = [t]  # the nodes above the position, root first
    for i in pos[:-1]:
        spine.append(spine[-1].args[i])
    for u, i in zip(reversed(spine), reversed(pos)):
        new = Op(u.kind, *u.args[:i], new, *u.args[i + 1 :])
    return new


def apply_substitution(t: Term, binding: Binding) -> Term:
    """Replace every variable in binding's domain by its image."""
    return fold(t, lambda v: binding.get(v.name, v), lambda u, args: Op(u.kind, *args))


def _node(t: Term) -> Optional[tuple[LabelKind, tuple[Term, ...]]]:
    return None if type(t) is Var else (t.kind, t.args)


def match(pattern: Term, t, node: Callable = _node) -> Optional[dict]:
    """Match pattern against t at the root.

    ``node(s)`` reads a subject node: its kind and its arguments, or None
    where no operator node is, which only a variable matches.  By default
    the subject is a term, and the binding returned satisfies
    apply_substitution(pattern, binding) == t; the circuit rewriter's
    subjects are wires, read through their producers.  A variable occurring
    twice in the pattern must match equal subjects.  Pairs are visited left
    to right.  Returns None where the pattern does not match.
    """
    binding: dict = {}
    stack = [(pattern, t)]
    while stack:
        p, s = stack.pop()
        if type(p) is Var:
            bound = binding.setdefault(p.name, s)
            if bound is not s and bound != s:
                return None
        else:
            n = node(s)
            if n is None or n[0] is not p.kind:
                return None
            stack.extend(zip(reversed(p.args), reversed(n[1])))
    return binding


def evaluate_term(t: Term, env: dict[str, int]) -> int:
    """Standard Boolean semantics; env maps variable names to 0/1."""
    return fold(t, lambda v: env[v.name], lambda u, bits: u.kind.output(*bits))


# ---------------------------------------------------------------------------
# Rules and rewriting


@dataclass(frozen=True)
class TermRule:
    name: str
    lhs: Term
    rhs: Term

    def __post_init__(self) -> None:
        if type(self.lhs) is Var:
            raise ValueError(f"rule {self.name}: left-hand side is a bare variable")
        if not variables(self.rhs) <= variables(self.lhs):
            raise ValueError(f"rule {self.name}: right-hand side introduces variables")


@dataclass(frozen=True)
class TRS:
    """An ordered list of rewrite rules; order fixes the deterministic strategy.

    ``by_root`` is the system's one rule index: the rules grouped by the kind
    of their left-hand root, each group in rule order.
    """

    rules: tuple[TermRule, ...]
    by_root: dict[LabelKind, tuple[TermRule, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        by_root: dict[LabelKind, tuple[TermRule, ...]] = {}
        for rule in self.rules:
            by_root[rule.lhs.kind] = by_root.get(rule.lhs.kind, ()) + (rule,)
        object.__setattr__(self, "by_root", by_root)


def redexes(trs: TRS, t: Term) -> Iterator[tuple[Position, TermRule, Binding]]:
    """Every redex of t, innermost first, as (position, rule, binding).

    Positions come in post-order, left to right, and the rules at one
    position in system order; a position is built only when it is yielded.
    This is the one redex order: ``rewrite_step`` fires its first element and
    ``normalize_term_random`` draws from all of it.  At each node only the
    rules of its kind in ``trs.by_root`` are tried.
    """
    by_root = trs.by_root
    path = [[t, 0]]  # the nodes from the root down, each with how many of its arguments were entered
    while path:
        u, i = path[-1]
        if i < len(u.args):
            path[-1][1] += 1
            path.append([u.args[i], 0])
            continue
        path.pop()
        if type(u) is Var:
            continue
        for rule in by_root.get(u.kind, ()):
            binding = match(rule.lhs, u)
            if binding is not None:
                yield tuple(i - 1 for _, i in path), rule, binding


def rewrite_step(trs: TRS, t: Term) -> Optional[tuple[Term, Position, str]]:
    """One leftmost-innermost rewrite step: the first of ``redexes``.

    Returns (result, redex position, rule name), or None if t is in
    normal form.
    """
    for pos, rule, binding in redexes(trs, t):
        return replace_at(t, pos, apply_substitution(rule.rhs, binding)), pos, rule.name
    return None


def normalize_term(trs: TRS, t: Term) -> Term:
    """Rewrite to a fixpoint.  The result is the unique normal form.

    One bottom-up pass: a node's arguments are normalized left to right,
    then its root is tried, and a contractum is normalized in turn.  Its
    variables' images are subterms of a redex whose arguments were normal,
    so they are not entered again.  This fires the steps of ``rewrite_step``
    repeated, in their order, without scanning from the root after each.

    Budget is 3x the initial weight; the weight strictly decreases per
    step, so exceeding it means the rule system is broken.
    """
    budget = 3 * term_weight(t)
    by_root = trs.by_root
    steps = 0
    values: list[Term] = []  # normal forms of the terms done, in order
    # Terms to normalize; (u,) once u's arguments are the last of values; (p, binding) for a contractum's node p.
    todo: list = [t]
    while todo:
        u = todo.pop()
        if type(u) is tuple:
            if len(u) == 2:
                p, binding = u
                if type(p) is Var:
                    values.append(binding[p.name])
                else:
                    todo.append((p,))
                    todo.extend((a, binding) for a in reversed(p.args))
                continue
            (u,) = u
            k = len(values) - len(u.args)
            args = values[k:]
            del values[k:]
            if any(a is not b for a, b in zip(args, u.args)):
                u = Op(u.kind, *args)
            for rule in by_root.get(u.kind, ()):
                binding = match(rule.lhs, u)
                if binding is not None:
                    if steps == budget:
                        raise BudgetError(f"no normal form within {budget} steps")
                    steps += 1
                    todo.append((rule.rhs, binding))
                    break
            else:
                values.append(u)
        elif type(u) is Var:
            values.append(u)
        else:
            todo.append((u,))
            todo.extend(reversed(u.args))
    return values[0]


def normalize_term_random(trs: TRS, t: Term, rng: random.Random) -> Term:
    """Rewrite to a fixpoint choosing a uniformly random redex each step."""
    budget = 3 * term_weight(t)
    for _ in range(budget + 1):
        rs = list(redexes(trs, t))
        if not rs:
            return t
        pos, rule, binding = rng.choice(rs)
        t = replace_at(t, pos, apply_substitution(rule.rhs, binding))
    raise BudgetError(f"no normal form within {budget} steps")


# The one definition of the per-node weight: zero weighs 3, every other operator node 1.
_NODE_WEIGHT: dict[LabelKind, int] = {kind: 3 if kind is ZERO.kind else 1 for kind in _OPERATORS.values()}


def weight_shape(t: Term) -> tuple[int, int]:
    """(skel, occ): the weight of t's non-variable nodes (``_NODE_WEIGHT``) and its number of variable occurrences."""
    skel = occ = 0
    stack = [t]
    while stack:
        u = stack.pop()
        if type(u) is Var:
            occ += 1
        else:
            skel += _NODE_WEIGHT[u.kind]
            stack.extend(u.args)
    return skel, occ


def term_weight(t: Term) -> int:
    """Termination measure: every node weighs 1 except zero, which weighs 3."""
    skel, occ = weight_shape(t)
    return skel + occ


def joinable(trs: TRS, a: Term, b: Term) -> bool:
    """Whether a and b rewrite to the same normal form.

    Valid as a joinability test because the system terminates; variables
    are treated as opaque constants.
    """
    return normalize_term(trs, a) == normalize_term(trs, b)


# ---------------------------------------------------------------------------
# Critical pairs


@dataclass(frozen=True)
class CriticalPair:
    left: Term
    right: Term
    outer_rule: str
    inner_rule: str
    position: Position


def unify(s: Term, t: Term) -> Optional[Binding]:
    """Syntactic unification with occurs check; returns a fully resolved mgu.

    Pairs are visited depth first, left to right: that order picks the
    variable each binding binds, and so the names in critical pairs.  The
    bindings are kept unresolved while unifying: the occurs check walks the
    bound term through the bindings, each bound variable once, and the mgu
    is resolved once at the end.
    """
    subst: Binding = {}

    def resolve(u: Term) -> Term:
        while type(u) is Var and u.name in subst:
            u = subst[u.name]
        return u

    def occurs(name: str, u: Term) -> bool:  # whether the variable is in u resolved
        entered: set[str] = set()
        stack = [u]
        while stack:
            u = stack.pop()
            if type(u) is not Var:
                stack.extend(u.args)
            elif u.name == name:
                return True
            elif u.name in subst and u.name not in entered:
                entered.add(u.name)
                stack.append(subst[u.name])
        return False

    stack = [(s, t)]
    while stack:
        a, b = map(resolve, stack.pop())
        if type(a) is not Var and type(b) is Var:
            a, b = b, a
        if type(a) is Var:
            if type(b) is Var and b.name == a.name:
                continue
            if occurs(a.name, b):
                return None
            subst[a.name] = b
        elif a.kind is not b.kind:
            return None
        else:
            stack.extend(zip(reversed(a.args), reversed(b.args)))

    images: Binding = {}  # each bound variable's image, resolved

    def image(u: Term) -> Term:  # u resolved, folded post-order through images as they are made
        values: list[Term] = []
        todo: list = [u]  # terms to resolve, (u,) once u's arguments are resolved, and a name once its image is
        while todo:
            u = todo.pop()
            if type(u) is str:
                images[u] = values[-1]
            elif type(u) is tuple:
                (u,) = u
                k = len(values) - len(u.args)
                values[k:] = [Op(u.kind, *values[k:])]
            elif type(u) is not Var:
                todo.append((u,))
                todo.extend(reversed(u.args))
            elif u.name in images:
                values.append(images[u.name])
            elif u.name in subst:
                todo += u.name, subst[u.name]
            else:
                values.append(u)
        return values[0]

    return {name: image(Var(name)) for name in subst}


def critical_pairs(trs: TRS) -> list[CriticalPair]:
    """All critical pairs of the system.

    For every ordered rule pair and every non-variable position of the outer
    left-hand side that unifies with the (renamed) inner left-hand side, the
    two one-step results of the overlapped term.  The root overlap of a rule
    with itself is trivial and skipped.  A position whose node has another
    kind than the inner left-hand root cannot unify and is not tried.

    The inner rule is renamed apart to names no rule uses: each old name and
    the least number from 2 up that frees all of them (Baader and Nipkow,
    *Term Rewriting and All That*, 1998, ch. 6).
    """
    pairs = []
    taken = set().union(*(variables(r.lhs) for r in trs.rules))  # an rhs reads only lhs variables
    apart = []
    for r in trs.rules:
        names, k = variables(r.lhs), 2
        while any(f"{v}{k}" in taken for v in names):
            k += 1
        apart.append({v: Var(f"{v}{k}") for v in names})
    renamed = [(apply_substitution(r.lhs, a), apply_substitution(r.rhs, a)) for r, a in zip(trs.rules, apart)]
    for i, outer in enumerate(trs.rules):
        sites = [(pos, sub) for pos in positions(outer.lhs) if type(sub := subterm_at(outer.lhs, pos)) is not Var]
        for j, (inner, (inner_lhs, inner_rhs)) in enumerate(zip(trs.rules, renamed)):
            for pos, sub in sites:
                if sub.kind is not inner_lhs.kind or (pos == () and i == j):
                    continue
                sigma = unify(sub, inner_lhs)
                if sigma is None:
                    continue
                peak = apply_substitution(outer.lhs, sigma)
                left = apply_substitution(outer.rhs, sigma)
                right = replace_at(peak, pos, apply_substitution(inner_rhs, sigma))
                pairs.append(CriticalPair(left, right, outer.name, inner.name, pos))
    return pairs


@dataclass(frozen=True)
class ConvergenceReport:
    rule_count: int
    pair_count: int
    unjoinable: tuple[CriticalPair, ...]
    weight_samples: int
    weight_violations: int

    @property
    def convergent(self) -> bool:
        return not self.unjoinable and self.weight_violations == 0


# What ``random_term`` draws from: the leaves, and the kinds of the nodes with arguments.
LEAVES: tuple[Term, ...] = (
    *(Op(kind) for kind in _OPERATORS.values() if not kind.arity),
    Var("x1"),
    Var("x2"),
    Var("x3"),
)
_NODE_KINDS = tuple(kind for kind in _OPERATORS.values() if kind.arity)


def random_term(rng: random.Random, max_depth: int, leaves: tuple = LEAVES, node: Callable = Op):
    """A random term over x1, x2 and x3 at most max_depth deep; each node is drawn before its arguments.

    This is the one draw loop.  It folds each node as its last argument is
    drawn: a leaf is ``leaves[i]`` where ``LEAVES[i]`` is drawn, and a node
    is ``node(kind, *arguments)``.  So the defaults build the term, and other
    values fold the same draws, with the same ``rng`` calls, to something
    else, as ``sample_weight`` does.
    """
    open_: list[tuple[LabelKind, list]] = []  # operator nodes still missing arguments, outermost first
    while True:
        if len(open_) == max_depth or rng.random() < 0.3:
            t = rng.choice(leaves)
            while open_:  # close every node t completes
                kind, args = open_[-1]
                args.append(t)
                if len(args) < kind.arity:
                    break
                open_.pop()
                t = node(kind, *args)
            else:
                return t
        else:
            open_.append((rng.choice(_NODE_KINDS), []))


_LEAF_WEIGHTS = tuple(1 if type(t) is Var else _NODE_WEIGHT[t.kind] for t in LEAVES)


def sample_weight(rng: random.Random, max_depth: int) -> int:
    """term_weight(random_term(rng, max_depth)), drawn with the same ``rng`` calls but no term built."""
    return random_term(rng, max_depth, _LEAF_WEIGHTS, lambda kind, *weights: _NODE_WEIGHT[kind] + sum(weights))


def certify_convergence(trs: TRS, samples: int = 1000, seed: int = 0) -> ConvergenceReport:
    """Mechanized convergence certificate.

    Checks (1) joinability of every critical pair and (2) strict decrease of
    term_weight for every rule instantiated with random terms for the rule
    variable.  Termination plus joinable critical pairs gives convergence.

    Check (2) binds every variable of a rule to the same sample g and uses the
    substitution lemma instead of building each instance: term_weight is a
    sum of per-node weights and a variable weighs 1, so for either side t

        term_weight(apply_substitution(t, {x: g})) == skel + occ * term_weight(g)

    with (skel, occ) = weight_shape(t).  The samples are drawn and weighed,
    not built: ``sample_weight`` makes the ``rng`` calls that random_term
    would, in the same order, so a seed gives the same report as
    instantiating and weighing every rule would.  The rules a sample of one
    weight violates are counted once per weight.
    """
    if samples < 0:
        raise ValueError(f"samples must be non-negative, got {samples}")
    pairs = critical_pairs(trs)
    unjoinable = tuple(p for p in pairs if not joinable(trs, p.left, p.right))
    shapes = [(weight_shape(rule.lhs), weight_shape(rule.rhs)) for rule in trs.rules]
    rng = random.Random(seed)
    violated: dict[int, int] = {}  # sample weight -> how many rules a sample of that weight violates
    violations = 0
    for _ in range(samples):
        w = sample_weight(rng, max_depth=4)
        if w not in violated:
            violated[w] = sum(
                lhs_skel + lhs_occ * w <= rhs_skel + rhs_occ * w
                for (lhs_skel, lhs_occ), (rhs_skel, rhs_occ) in shapes
            )
        violations += violated[w]
    return ConvergenceReport(
        rule_count=len(trs.rules),
        pair_count=len(pairs),
        unjoinable=unjoinable,
        weight_samples=samples,
        weight_violations=violations,
    )


# ---------------------------------------------------------------------------
# Textual rule format


class RuleSyntaxError(ValueError):
    pass


_TOKEN_RE = re.compile(r"\(|\)|[a-z0-9_]+")


def parse_term(text: str) -> Term:
    """Parse an s-expression term: (and T T), (or T T), (not T), zero, one, vars.

    The operators and constants are the formula names of the demorgan row's kinds.
    """
    tokens = _TOKEN_RE.findall(text)
    if "".join(tokens) != re.sub(r"\s+", "", text):
        raise RuleSyntaxError(f"bad characters in term: {text!r}")
    open_: list[tuple[LabelKind, list[Term]]] = []  # operator nodes not yet closed, outermost first
    pos = 0
    while True:
        if pos >= len(tokens):
            raise RuleSyntaxError(f"unexpected end of term: {text!r}")
        tok = tokens[pos]
        pos += 1
        if open_ and len(open_[-1][1]) == open_[-1][0].arity:
            if tok != ")":
                raise RuleSyntaxError(f"missing ')' in {text!r}")
            kind, args = open_.pop()
            t = Op(kind, *args)
        elif tok == "(":
            if pos >= len(tokens):
                raise RuleSyntaxError(f"unexpected end of term: {text!r}")
            head = tokens[pos]
            pos += 1
            kind = _OPERATORS.get(head)
            if kind is None or not kind.arity:
                raise RuleSyntaxError(f"unknown operator {head!r}")
            open_.append((kind, []))
            continue
        elif tok == ")":
            raise RuleSyntaxError(f"unexpected ')' in {text!r}")
        else:
            kind = _OPERATORS.get(tok)
            t = Op(kind) if kind is not None and not kind.arity else Var(tok)
        if not open_:
            break
        open_[-1][1].append(t)
    if pos != len(tokens):
        raise RuleSyntaxError(f"trailing tokens in {text!r}")
    return t


def _data_lines(filename: str) -> Iterator[str]:
    text = resources.files("gatelim").joinpath("data", filename).read_text()
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line


def load_rules(filename: str) -> TRS:
    rules = []
    for line in _data_lines(filename):
        head, _, rest = line.partition(":")
        lhs_text, arrow, rhs_text = rest.partition("->")
        if not arrow or not head.strip():
            raise RuleSyntaxError(f"expected 'name: LHS -> RHS', got {line!r}")
        rules.append(TermRule(head.strip(), parse_term(lhs_text), parse_term(rhs_text)))
    return TRS(tuple(rules))


def load_identities(filename: str = "demorgan_identities.txt") -> list[tuple[Term, Term]]:
    out = []
    for line in _data_lines(filename):
        lhs_text, tilde, rhs_text = line.partition("~")
        if not tilde:
            raise RuleSyntaxError(f"expected 'LHS ~ RHS', got {line!r}")
        out.append((parse_term(lhs_text), parse_term(rhs_text)))
    return out


@functools.cache
def demorgan_system() -> TRS:
    """The shipped 16-rule simplification system, from the demorgan row's rule file.

    Loaded once per process: every caller, ``rewrite.DEMORGAN`` among them,
    holds the one object, so ``trs check`` certifies the very system that
    ``normalize`` runs.
    """
    trs = load_rules(DEMORGAN_BASIS.rules)
    if len(trs.rules) != 16:
        raise RuleSyntaxError(f"expected 16 rules, found {len(trs.rules)}")
    return trs
