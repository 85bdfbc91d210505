"""Boolean formulas as trees, and a convergent simplification system for them.

Terms are built from binary ``and``/``or``, unary ``not``, the constants
``zero``/``one``, and named variables.  The module ships a fixed 16-rule
simplification system over this signature (loaded from ``data/demorgan_rules.txt``)
together with the machinery needed to certify it convergent: a node-weight
measure that strictly decreases on every rewrite (termination) and a critical
pair computation whose joinability, combined with termination, gives
confluence by Newman's lemma.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from importlib import resources
from typing import Iterator, Optional, Union


class BudgetError(RuntimeError):
    """A rewriting or unrolling budget was exhausted.

    The shipped systems terminate, so this firing indicates a bug rather
    than a legal outcome.
    """


@dataclass(frozen=True)
class Var:
    name: str

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Const0:
    def __repr__(self) -> str:
        return "zero"


@dataclass(frozen=True)
class Const1:
    def __repr__(self) -> str:
        return "one"


@dataclass(frozen=True)
class Not:
    child: "Term"

    def __repr__(self) -> str:
        return f"(not {self.child!r})"


@dataclass(frozen=True)
class And:
    left: "Term"
    right: "Term"

    def __repr__(self) -> str:
        return f"(and {self.left!r} {self.right!r})"


@dataclass(frozen=True)
class Or:
    left: "Term"
    right: "Term"

    def __repr__(self) -> str:
        return f"(or {self.left!r} {self.right!r})"


Term = Union[Var, Const0, Const1, Not, And, Or]
Binding = dict[str, Term]
Position = tuple[int, ...]

ZERO = Const0()
ONE = Const1()


def children(t: Term) -> tuple[Term, ...]:
    if isinstance(t, Not):
        return (t.child,)
    if isinstance(t, (And, Or)):
        return (t.left, t.right)
    return ()


def rebuild(t: Term, kids: tuple[Term, ...]) -> Term:
    if isinstance(t, Not):
        return Not(kids[0])
    if isinstance(t, And):
        return And(kids[0], kids[1])
    if isinstance(t, Or):
        return Or(kids[0], kids[1])
    return t


def variables(t: Term) -> set[str]:
    if isinstance(t, Var):
        return {t.name}
    out: set[str] = set()
    for c in children(t):
        out |= variables(c)
    return out


def positions(t: Term) -> Iterator[Position]:
    """All subterm positions of t, root first, in left-to-right order."""
    yield ()
    for i, c in enumerate(children(t)):
        for p in positions(c):
            yield (i,) + p


def subterm_at(t: Term, pos: Position) -> Term:
    for i in pos:
        t = children(t)[i]
    return t


def replace_at(t: Term, pos: Position, new: Term) -> Term:
    if not pos:
        return new
    kids = list(children(t))
    kids[pos[0]] = replace_at(kids[pos[0]], pos[1:], new)
    return rebuild(t, tuple(kids))


def apply_substitution(t: Term, binding: Binding) -> Term:
    """Replace every variable in binding's domain by its image."""
    if isinstance(t, Var):
        return binding.get(t.name, t)
    kids = children(t)
    if not kids:
        return t
    return rebuild(t, tuple(apply_substitution(c, binding) for c in kids))


def match(pattern: Term, t: Term) -> Optional[Binding]:
    """Match pattern against t at the root.

    Returns a binding with apply_substitution(pattern, binding) == t, or
    None.  A variable occurring twice in the pattern must match equal
    subterms.
    """
    binding: Binding = {}

    def go(p: Term, s: Term) -> bool:
        if isinstance(p, Var):
            bound = binding.get(p.name)
            if bound is None:
                binding[p.name] = s
                return True
            return bound == s
        if type(p) is not type(s):
            return False
        return all(go(pc, sc) for pc, sc in zip(children(p), children(s)))

    return binding if go(pattern, t) else None


def evaluate_term(t: Term, env: dict[str, int]) -> int:
    """Standard Boolean semantics; env maps variable names to 0/1."""
    if isinstance(t, Var):
        return env[t.name]
    if isinstance(t, Const0):
        return 0
    if isinstance(t, Const1):
        return 1
    if isinstance(t, Not):
        return 1 - evaluate_term(t.child, env)
    if isinstance(t, And):
        return evaluate_term(t.left, env) & evaluate_term(t.right, env)
    return evaluate_term(t.left, env) | evaluate_term(t.right, env)


# ---------------------------------------------------------------------------
# Rules and rewriting


@dataclass(frozen=True)
class TermRule:
    name: str
    lhs: Term
    rhs: Term

    def __post_init__(self) -> None:
        if isinstance(self.lhs, Var):
            raise ValueError(f"rule {self.name}: left-hand side is a bare variable")
        if not variables(self.rhs) <= variables(self.lhs):
            raise ValueError(f"rule {self.name}: right-hand side introduces variables")


@dataclass(frozen=True)
class TRS:
    """An ordered list of rewrite rules; order fixes the deterministic strategy."""

    rules: tuple[TermRule, ...]


def rewrite_step(trs: TRS, t: Term) -> Optional[tuple[Term, Position, str]]:
    """One leftmost-innermost rewrite step; rules tried in system order.

    Returns (result, redex position, rule name), or None if t is in
    normal form.
    """
    for i, c in enumerate(children(t)):
        got = rewrite_step(trs, c)
        if got is not None:
            new_child, pos, name = got
            kids = list(children(t))
            kids[i] = new_child
            return rebuild(t, tuple(kids)), (i,) + pos, name
    for rule in trs.rules:
        binding = match(rule.lhs, t)
        if binding is not None:
            return apply_substitution(rule.rhs, binding), (), rule.name
    return None


def redexes(trs: TRS, t: Term) -> list[tuple[Position, TermRule]]:
    """Every (position, rule) pair at which a rule matches a subterm of t."""
    out = []
    for pos in positions(t):
        sub = subterm_at(t, pos)
        for rule in trs.rules:
            if match(rule.lhs, sub) is not None:
                out.append((pos, rule))
    return out


def rewrite_at(trs: TRS, t: Term, pos: Position, rule: TermRule) -> Term:
    sub = subterm_at(t, pos)
    binding = match(rule.lhs, sub)
    if binding is None:
        raise ValueError(f"rule {rule.name} does not match at {pos}")
    return replace_at(t, pos, apply_substitution(rule.rhs, binding))


def normalize_term(trs: TRS, t: Term) -> Term:
    """Rewrite to a fixpoint.  The result is the unique normal form.

    Budget is 3x the initial weight; the weight strictly decreases per
    step, so exceeding it means the rule system is broken.
    """
    budget = 3 * term_weight(t)
    for _ in range(budget + 1):
        got = rewrite_step(trs, t)
        if got is None:
            return t
        t = got[0]
    raise BudgetError(f"no normal form within {budget} steps")


def normalize_term_random(trs: TRS, t: Term, rng: random.Random) -> Term:
    """Rewrite to a fixpoint choosing a uniformly random redex each step."""
    budget = 3 * term_weight(t)
    for _ in range(budget + 1):
        rs = redexes(trs, t)
        if not rs:
            return t
        pos, rule = rng.choice(rs)
        t = rewrite_at(trs, t, pos, rule)
    raise BudgetError(f"no normal form within {budget} steps")


def weight_shape(t: Term) -> tuple[int, int]:
    """(skel, occ): the weight of t's non-variable nodes and its number of variable occurrences.

    This is the one definition of the per-node weight: zero weighs 3, every
    other node 1.  Walks with an explicit stack, so any depth is fine.
    """
    skel = occ = 0
    stack = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, Var):
            occ += 1
        else:
            skel += 3 if isinstance(u, Const0) else 1
            stack.extend(children(u))
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
    """Syntactic unification with occurs check; returns a fully resolved mgu."""
    subst: Binding = {}

    def resolve(u: Term) -> Term:
        while isinstance(u, Var) and u.name in subst:
            u = subst[u.name]
        return u

    def occurs(name: str, u: Term) -> bool:
        u = resolve(u)
        if isinstance(u, Var):
            return u.name == name
        return any(occurs(name, c) for c in children(u))

    def go(a: Term, b: Term) -> bool:
        a, b = resolve(a), resolve(b)
        if isinstance(a, Var):
            if isinstance(b, Var) and b.name == a.name:
                return True
            if occurs(a.name, b):
                return False
            subst[a.name] = b
            return True
        if isinstance(b, Var):
            return go(b, a)
        if type(a) is not type(b):
            return False
        return all(go(ca, cb) for ca, cb in zip(children(a), children(b)))

    if not go(s, t):
        return None

    def deep(u: Term) -> Term:
        u = resolve(u)
        kids = children(u)
        if not kids:
            return u
        return rebuild(u, tuple(deep(c) for c in kids))

    return {name: deep(Var(name)) for name in subst}


def critical_pairs(trs: TRS) -> list[CriticalPair]:
    """All critical pairs of the system.

    For every ordered rule pair and every non-variable position of the outer
    left-hand side that unifies with the (renamed) inner left-hand side, the
    two one-step results of the overlapped term.  The root overlap of a rule
    with itself is trivial and skipped.
    """
    pairs = []
    apart = [{v: Var(v + "2") for v in variables(r.lhs)} for r in trs.rules]  # an rhs reads only lhs variables
    renamed = [(apply_substitution(r.lhs, a), apply_substitution(r.rhs, a)) for r, a in zip(trs.rules, apart)]
    for i, outer in enumerate(trs.rules):
        for j, (inner, (inner_lhs, inner_rhs)) in enumerate(zip(trs.rules, renamed)):
            for pos in positions(outer.lhs):
                if pos == () and i == j:
                    continue
                sub = subterm_at(outer.lhs, pos)
                if isinstance(sub, Var):
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


def random_term(rng: random.Random, max_depth: int, var_names: tuple[str, ...] = ("x1", "x2", "x3")) -> Term:
    leaves: tuple[Term, ...] = (ZERO, ONE) + tuple(Var(v) for v in var_names)

    def draw(depth: int) -> Term:
        if depth == 0 or rng.random() < 0.3:
            return rng.choice(leaves)
        kind = rng.choice(("not", "and", "or"))
        if kind == "not":
            return Not(draw(depth - 1))
        left = draw(depth - 1)
        right = draw(depth - 1)
        return And(left, right) if kind == "and" else Or(left, right)

    return draw(max_depth)


def certify_convergence(trs: TRS, samples: int = 1000, seed: int = 0) -> ConvergenceReport:
    """Mechanized convergence certificate.

    Checks (1) joinability of every critical pair and (2) strict decrease of
    term_weight for every rule instantiated with random terms for the rule
    variable.  Termination plus joinable critical pairs gives convergence.

    Check (2) binds every variable of a rule to the same sample g and uses the
    substitution lemma instead of building each instance: term_weight is a
    sum of per-node weights and a variable weighs 1, so for either side t

        term_weight(apply_substitution(t, {x: g})) == skel + occ * term_weight(g)

    with (skel, occ) = weight_shape(t).  The samples are still drawn, with
    the same random_term calls in the same order, so that a seed gives the
    same report as instantiating and weighing every rule would.
    """
    if samples < 0:
        raise ValueError(f"samples must be non-negative, got {samples}")
    pairs = critical_pairs(trs)
    unjoinable = tuple(p for p in pairs if not joinable(trs, p.left, p.right))
    shapes = [(weight_shape(rule.lhs), weight_shape(rule.rhs)) for rule in trs.rules]
    rng = random.Random(seed)
    violations = 0
    for _ in range(samples):
        w = term_weight(random_term(rng, max_depth=4))
        for (lhs_skel, lhs_occ), (rhs_skel, rhs_occ) in shapes:
            if lhs_skel + lhs_occ * w <= rhs_skel + rhs_occ * w:
                violations += 1
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
    """Parse an s-expression term: (and T T), (or T T), (not T), zero, one, vars."""
    tokens = _TOKEN_RE.findall(text)
    if "".join(tokens) != re.sub(r"\s+", "", text):
        raise RuleSyntaxError(f"bad characters in term: {text!r}")
    pos = 0

    def next_token() -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise RuleSyntaxError(f"unexpected end of term: {text!r}")
        tok = tokens[pos]
        pos += 1
        return tok

    def parse() -> Term:
        tok = next_token()
        if tok == "(":
            head = next_token()
            if head == "not":
                t: Term = Not(parse())
            elif head in ("and", "or"):
                left, right = parse(), parse()
                t = And(left, right) if head == "and" else Or(left, right)
            else:
                raise RuleSyntaxError(f"unknown operator {head!r}")
            if next_token() != ")":
                raise RuleSyntaxError(f"missing ')' in {text!r}")
            return t
        if tok == ")":
            raise RuleSyntaxError(f"unexpected ')' in {text!r}")
        if tok == "zero":
            return ZERO
        if tok == "one":
            return ONE
        return Var(tok)

    t = parse()
    if pos != len(tokens):
        raise RuleSyntaxError(f"trailing tokens in {text!r}")
    return t


def _data_lines(filename: str) -> Iterator[str]:
    text = resources.files("gatelim").joinpath("data", filename).read_text()
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line


def load_rules(filename: str = "demorgan_rules.txt") -> TRS:
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


def demorgan_system() -> TRS:
    """The shipped 16-rule simplification system."""
    trs = load_rules()
    if len(trs.rules) != 16:
        raise RuleSyntaxError(f"expected 16 rules, found {len(trs.rules)}")
    return trs
