"""Reference term algorithms for the tests: unindexed, and resolved on every bind.

``unify`` and ``critical_pairs`` are the certificate's algorithms before the
rule index: ``critical_pairs`` tries every non-variable position of every
outer left-hand side against every inner rule, whatever their root kinds,
and ``unify`` substitutes the bindings into the bound term for every occurs
check and again for the resolved mgu.  ``random_term`` draws and builds a
term with its own loop, as before the draw was shared with the weight
sampler.  ``normalize_term`` fires one ``rewrite_step`` at a time, each
scanning again from the root, as before the one bottom-up pass.  They are
slow and plainly correct, so the tests require the library to agree with
them exactly: the same pairs in the same order with the same variable names,
the same mgu, the same draws, the same normal forms after the same steps.
"""

from __future__ import annotations

import random
from typing import Optional

from gatelim.terms import (
    DEMORGAN_BASIS,
    Binding,
    BudgetError,
    CriticalPair,
    Op,
    Term,
    TRS,
    Var,
    apply_substitution,
    positions,
    replace_at,
    rewrite_step,
    subterm_at,
    term_weight,
    variables,
)


def unify(s: Term, t: Term) -> Optional[Binding]:
    """Syntactic unification with occurs check; returns a fully resolved mgu."""
    subst: Binding = {}

    def resolve(u: Term) -> Term:
        while type(u) is Var and u.name in subst:
            u = subst[u.name]
        return u

    def resolved(u: Term) -> Term:  # substituted until no variable of it is bound
        while variables(u) & subst.keys():
            u = apply_substitution(u, subst)
        return u

    stack = [(s, t)]
    while stack:
        a, b = map(resolve, stack.pop())
        if type(a) is not Var and type(b) is Var:
            a, b = b, a
        if type(a) is Var:
            if type(b) is Var and b.name == a.name:
                continue
            if a.name in variables(resolved(b)):
                return None
            subst[a.name] = b
        elif a.kind is not b.kind:
            return None
        else:
            stack.extend(zip(reversed(a.args), reversed(b.args)))
    return {name: resolved(u) for name, u in subst.items()}


def critical_pairs(trs: TRS) -> list[CriticalPair]:
    """All critical pairs, every (outer, inner, position) triple tried with ``unify``."""
    pairs = []
    taken = set().union(*(variables(r.lhs) for r in trs.rules))
    apart = []
    for r in trs.rules:
        names, k = variables(r.lhs), 2
        while any(f"{v}{k}" in taken for v in names):
            k += 1
        apart.append({v: Var(f"{v}{k}") for v in names})
    renamed = [(apply_substitution(r.lhs, a), apply_substitution(r.rhs, a)) for r, a in zip(trs.rules, apart)]
    for i, outer in enumerate(trs.rules):
        for j, (inner, (inner_lhs, inner_rhs)) in enumerate(zip(trs.rules, renamed)):
            for pos in positions(outer.lhs):
                if pos == () and i == j:
                    continue
                sub = subterm_at(outer.lhs, pos)
                if type(sub) is Var:
                    continue
                sigma = unify(sub, inner_lhs)
                if sigma is None:
                    continue
                peak = apply_substitution(outer.lhs, sigma)
                left = apply_substitution(outer.rhs, sigma)
                right = replace_at(peak, pos, apply_substitution(inner_rhs, sigma))
                pairs.append(CriticalPair(left, right, outer.name, inner.name, pos))
    return pairs


def random_term(rng: random.Random, max_depth: int) -> Term:
    """A random term over x1, x2 and x3 at most max_depth deep; each node is drawn before its arguments."""
    formula_kinds = DEMORGAN_BASIS.kinds  # the formula signature
    leaves = tuple(Op(kind) for kind in formula_kinds if not kind.arity) + (Var("x1"), Var("x2"), Var("x3"))
    ops = tuple(kind for kind in formula_kinds if kind.arity)
    open_: list = []  # operator nodes still missing arguments, outermost first
    while True:
        if len(open_) == max_depth or rng.random() < 0.3:
            t = rng.choice(leaves)
            while open_:  # close every node t completes
                kind, args = open_[-1]
                args.append(t)
                if len(args) < kind.arity:
                    break
                open_.pop()
                t = Op(kind, *args)
            else:
                return t
        else:
            open_.append((rng.choice(ops), []))


def normalize_term(trs: TRS, t: Term) -> Term:
    """Rewrite to a fixpoint, one ``rewrite_step`` at a time: each step scans again from the root."""
    budget = 3 * term_weight(t)
    for _ in range(budget + 1):
        got = rewrite_step(trs, t)
        if got is None:
            return t
        t = got[0]
    raise BudgetError(f"no normal form within {budget} steps")
