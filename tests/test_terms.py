"""Formula rewriting: matching, normalization, and the convergence certificate."""

import copy
import hashlib
import itertools
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

import reference_terms as reference
from gatelim import terms
from gatelim.terms import (
    ONE,
    ZERO,
    And,
    BudgetError,
    Not,
    Or,
    TermRule,
    TRS,
    Var,
    apply_substitution,
    certify_convergence,
    critical_pairs,
    demorgan_system,
    evaluate_term,
    joinable,
    load_identities,
    match,
    normalize_term,
    normalize_term_random,
    parse_term,
    positions,
    random_term,
    redexes,
    replace_at,
    rewrite_step,
    sample_weight,
    subterm_at,
    term_weight,
    unify,
    variables,
    weight_shape,
)

G = Var("g")
X1, X2 = Var("x1"), Var("x2")
TRS_B = demorgan_system()
# violates exactly when term_weight(g) >= 3, so its violation count depends on every sample's weight
FLIP = TRS((TermRule("flip", And(G, And(ONE, ONE)), And(G, G)),))
# outweighs its right side at every weight below 5, but the right side gains faster in g
FIVE = TRS((TermRule("five", parse_term("(and (and one one) (and one g))"), parse_term("(and g g)")),))


def boolean_tables_equal(a, b):
    names = sorted(variables(a) | variables(b))
    for bits in itertools.product((0, 1), repeat=len(names)):
        env = dict(zip(names, bits))
        if evaluate_term(a, env) != evaluate_term(b, env):
            return False
    return True


def test_apply_substitution():
    assert apply_substitution(And(G, ONE), {"g": Or(X1, X2)}) == And(Or(X1, X2), ONE)
    assert apply_substitution(Not(X1), {}) == Not(X1)
    assert apply_substitution(And(G, Not(G)), {"g": Not(ONE)}) == And(Not(ONE), Not(Not(ONE)))


def test_match_basic():
    assert match(And(G, ONE), And(Or(X1, X2), ONE)) == {"g": Or(X1, X2)}
    assert match(And(G, Not(G)), And(X1, Not(X2))) is None
    assert match(And(G, Not(G)), And(Not(X1), Not(Not(X1)))) == {"g": Not(X1)}


def test_match_roundtrips_with_substitution():
    rng = random.Random(3)
    for _ in range(200):
        t = random_term(rng, 4)
        binding = match(t, t)
        assert binding is not None
        assert apply_substitution(t, binding) == t


def test_rewrite_step_examples():
    got = rewrite_step(TRS_B, And(Or(X1, X2), ONE))
    assert got == (Or(X1, X2), (), "pass_and_right")
    got = rewrite_step(TRS_B, ZERO)
    assert got == (Not(ONE), (), "zero_elim")
    assert rewrite_step(TRS_B, X1) is None


def test_rewrite_step_is_innermost():
    # the inner redex (x1 and 1) fires before the outer or-dedup
    t = Or(And(X1, ONE), And(X1, ONE))
    got = rewrite_step(TRS_B, t)
    assert got is not None
    assert got[1] == (0,)
    assert got[2] == "pass_and_right"


def test_normalize_examples():
    assert normalize_term(TRS_B, Not(Not(X1))) == X1
    assert normalize_term(TRS_B, And(X1, Not(X1))) == Not(ONE)
    t = Or(And(X1, ONE), ZERO)
    # hand chain: pass_and_right, zero_elim, pass_or_right
    assert normalize_term(TRS_B, t) == X1
    assert boolean_tables_equal(t, X1)


def test_normalize_preserves_boolean_function():
    rng = random.Random(11)
    for _ in range(300):
        t = random_term(rng, 5)
        assert boolean_tables_equal(t, normalize_term(TRS_B, t))


def test_term_weight():
    assert term_weight(ZERO) == 3
    assert term_weight(Not(ONE)) == 2
    assert term_weight(And(X1, ONE)) == 3
    lhs = apply_substitution(And(G, Not(G)), {"g": X1})
    assert term_weight(lhs) == 4 > term_weight(Not(ONE)) == 2


def test_term_weight_of_a_deep_chain():
    t = ZERO
    for _ in range(10_000):
        t = Not(t)
    assert term_weight(t) == 10_003
    assert weight_shape(t) == (10_003, 0)


def test_weight_shape_gives_the_weight_of_every_instance():
    rng = random.Random(12)
    shapes = [(rule, weight_shape(rule.lhs), weight_shape(rule.rhs)) for rule in TRS_B.rules]
    for k in range(1000):
        g = random_term(rng, k % 6)
        w = term_weight(g)
        for rule, (lhs_skel, lhs_occ), (rhs_skel, rhs_occ) in shapes:
            binding = {name: g for name in variables(rule.lhs)}
            assert lhs_skel + lhs_occ * w == term_weight(apply_substitution(rule.lhs, binding)), rule.name
            assert rhs_skel + rhs_occ * w == term_weight(apply_substitution(rule.rhs, binding)), rule.name


def reference_weight(t):
    """The measure as first written: zero weighs 3, every other node 1."""
    w = 3 if t == ZERO else 1
    return w + sum(reference_weight(a) for a in t.args)


def reference_violations(trs, samples, seed):
    """certify_convergence's weight check done by instantiating and weighing every rule."""
    rng = random.Random(seed)
    violations = 0
    for _ in range(samples):
        g = random_term(rng, max_depth=4)
        for rule in trs.rules:
            binding = {name: g for name in variables(rule.lhs)}
            lhs_w = reference_weight(apply_substitution(rule.lhs, binding))
            rhs_w = reference_weight(apply_substitution(rule.rhs, binding))
            if lhs_w <= rhs_w:
                violations += 1
    return violations


def test_weight_violations_equal_the_instance_loop(monkeypatch):
    draws = []
    real = terms.sample_weight
    monkeypatch.setattr(terms, "sample_weight", lambda *args, **kwargs: draws.append(1) or real(*args, **kwargs))
    assert weight_shape(FIVE.rules[0].lhs) == (6, 1) and weight_shape(FIVE.rules[0].rhs) == (1, 2)
    for trs in (FLIP, FIVE):
        for seed in range(5):
            draws.clear()
            report = certify_convergence(trs, samples=200, seed=seed)
            assert report.weight_violations == reference_violations(trs, 200, seed) > 0, (trs, seed)
            assert len(draws) == report.weight_samples == 200 and not report.convergent
    assert certify_convergence(FLIP, samples=200, seed=1).weight_violations == 146


def must_not_run(*args, **kwargs):
    raise AssertionError("called")


def test_a_system_heavier_on_the_left_at_every_weight_draws_no_sample(monkeypatch):
    # Every rule outweighs its right side at the least sample weight and gains at least as fast, so no draw can count.
    monkeypatch.setattr(terms, "sample_weight", must_not_run)
    for trs in (TRS_B, MIXED):
        for seed in range(5):
            report = certify_convergence(trs, samples=200, seed=seed)
            assert report.weight_violations == reference_violations(trs, 200, seed) == 0, seed
            assert report.weight_samples == 200 and report.convergent


def test_the_same_sample_check_misses_a_violation_of_a_split_binding(monkeypatch):
    # ROADMAP item 5: the rule falls whenever g and h are one term, so neither the
    # no-draw decision nor the sampler it replaces sees that a light g and a heavy h make it rise.
    split = TermRule("split", parse_term("(and (and g g) (not h))"), parse_term("(and h h)"))
    monkeypatch.setattr(terms, "sample_weight", must_not_run)
    for seed in range(5):
        assert certify_convergence(TRS((split,)), samples=200, seed=seed).weight_violations == 0
        assert reference_violations(TRS((split,)), 200, seed) == 0
    heavy = parse_term("(and (and x1 x1) x1)")
    binding = {"g": X1, "h": heavy}
    assert term_weight(heavy) == 5
    assert term_weight(apply_substitution(split.lhs, binding)) == 10
    assert term_weight(apply_substitution(split.rhs, binding)) == 11


def test_sample_weight_makes_the_draws_random_term_makes():
    # sample_weight weighs the term random_term builds from the same state, the
    # shared loop builds what the build-only loop did, and all three leave the
    # generator in the same state
    for seed in range(200):
        for depth in range(7):
            weigh, build, old = (random.Random(seed) for _ in range(3))
            for _ in range(3):
                w = sample_weight(weigh, depth)
                t = random_term(build, depth)
                assert t == reference.random_term(old, depth)
                assert w == term_weight(t), (seed, depth)
                assert weigh.getstate() == build.getstate() == old.getstate(), (seed, depth)


def test_certify_rejects_negative_samples():
    with pytest.raises(ValueError):
        certify_convergence(TRS_B, samples=-5)
    assert certify_convergence(TRS_B, samples=0).weight_samples == 0


def test_every_rule_strictly_decreases_weight():
    rng = random.Random(5)
    for _ in range(1000):
        g = random_term(rng, 4)
        for rule in TRS_B.rules:
            binding = {name: g for name in variables(rule.lhs)}
            assert term_weight(apply_substitution(rule.lhs, binding)) > term_weight(
                apply_substitution(rule.rhs, binding)
            ), rule.name


def test_every_step_strictly_decreases_weight():
    rng = random.Random(6)
    for _ in range(200):
        t = random_term(rng, 5)
        while True:
            got = rewrite_step(TRS_B, t)
            if got is None:
                break
            assert term_weight(got[0]) < term_weight(t)
            t = got[0]


def test_rules_are_boolean_sound():
    for rule in TRS_B.rules:
        assert boolean_tables_equal(rule.lhs, rule.rhs), rule.name


def test_identities_load_and_are_boolean_sound():
    identities = load_identities()
    assert len(identities) == 25
    for lhs, rhs in identities:
        assert boolean_tables_equal(lhs, rhs)


def test_system_is_the_expected_sixteen_rules():
    expected = [
        ("zero_elim", ZERO, Not(ONE)),
        ("double_neg_elim", Not(Not(G)), G),
        ("and_dedup", And(G, G), G),
        ("or_dedup", Or(G, G), G),
        ("fix_and_right", And(G, Not(ONE)), Not(ONE)),
        ("fix_and_left", And(Not(ONE), G), Not(ONE)),
        ("fix_or_right", Or(G, ONE), ONE),
        ("fix_or_left", Or(ONE, G), ONE),
        ("pass_and_right", And(G, ONE), G),
        ("pass_and_left", And(ONE, G), G),
        ("pass_or_right", Or(G, Not(ONE)), G),
        ("pass_or_left", Or(Not(ONE), G), G),
        ("taut_and_right", And(G, Not(G)), Not(ONE)),
        ("taut_and_left", And(Not(G), G), Not(ONE)),
        ("taut_or_right", Or(G, Not(G)), ONE),
        ("taut_or_left", Or(Not(G), G), ONE),
    ]
    assert [(r.name, r.lhs, r.rhs) for r in TRS_B.rules] == expected


def test_rule_wellformedness_enforced():
    with pytest.raises(ValueError):
        TermRule("bad", G, ONE)
    with pytest.raises(ValueError):
        TermRule("bad", Not(ONE), G)


def assert_normal_structure(t):
    """No double negation, no equal-sibling gate, no constant unless t is one of the two constants."""
    if t == ONE or t == Not(ONE):
        return

    def op(s):
        return None if type(s) is Var else s.kind.term

    def walk(s):
        assert s != ZERO and s != ONE, "constant inside a non-constant normal form"
        if op(s) == "not":
            assert op(s.args[0]) != "not", "double negation in normal form"
        elif op(s) in ("and", "or"):
            assert s.args[0] != s.args[1], "equal-sibling gate in normal form"
        for a in s.args:
            walk(a)

    walk(t)


def test_normal_form_structure():
    rng = random.Random(7)
    for _ in range(300):
        assert_normal_structure(normalize_term(TRS_B, random_term(rng, 5)))


def test_order_independence():
    rng = random.Random(8)
    for k in range(150):
        t = random_term(rng, 5)
        det = normalize_term(TRS_B, t)
        for seed in range(3):
            assert normalize_term_random(TRS_B, t, random.Random(seed)) == det


def test_redexes_come_innermost_first_and_rewrite_step_fires_the_first():
    # positions in post-order, left to right, and the rules at each in system order
    rng = random.Random(17)
    differs = 0
    for _ in range(500):
        t = random_term(rng, 6)
        post_order = sorted(positions(t), key=lambda pos: pos + (float("inf"),))
        expected = [
            (pos, rule.name)
            for pos in post_order
            for rule in TRS_B.rules
            if match(rule.lhs, subterm_at(t, pos)) is not None
        ]
        found = list(redexes(TRS_B, t))
        assert [(pos, rule.name) for pos, rule, _ in found] == expected
        for pos, rule, binding in found:
            assert apply_substitution(rule.lhs, binding) == subterm_at(t, pos)
        if not found:
            assert rewrite_step(TRS_B, t) is None
            continue
        pos, rule, binding = next(redexes(TRS_B, t))
        assert rewrite_step(TRS_B, t) == (replace_at(t, pos, apply_substitution(rule.rhs, binding)), pos, rule.name)
        differs += pos != min(pos for pos, _, _ in found)  # the outermost-first order would start elsewhere
    assert differs > 100


def unindexed_redexes(trs, t):
    """Every rule tried at every position of t: positions in post-order, rules in system order."""
    post_order = sorted(positions(t), key=lambda pos: pos + (float("inf"),))
    found = []
    for pos in post_order:
        for rule in trs.rules:
            binding = match(rule.lhs, subterm_at(t, pos))
            if binding is not None:
                found.append((pos, rule, binding))
    return found


def interleaved(trs):
    """The rules of trs dealt round-robin from their root-kind groups, so neighbours differ in root kind."""
    groups = [list(rules) for rules in trs.by_root.values()]
    rules = []
    while any(groups):
        rules += (group.pop(0) for group in groups if group)
    return TRS(tuple(rules))


MIXED = interleaved(TRS_B)


def test_by_root_groups_the_rules_by_root_kind_in_rule_order():
    for trs in (TRS_B, MIXED, FLIP, TRS(())):
        kinds = {rule.lhs.kind: None for rule in trs.rules}
        assert trs.by_root == {k: tuple(r for r in trs.rules if r.lhs.kind is k) for k in kinds}
    assert TRS(TRS_B.rules) == TRS_B and hash(TRS(TRS_B.rules)) == hash(TRS_B)
    roots = [rule.lhs.kind for rule in MIXED.rules]
    assert sorted(map(repr, roots)) == sorted(repr(rule.lhs.kind) for rule in TRS_B.rules)
    assert all(a is not b for a, b in zip(roots, roots[1:]))


def test_redexes_equal_the_unindexed_scan():
    rng = random.Random(23)
    found = 0
    for k in range(2000):
        t = random_term(rng, k % 7)
        for trs in (TRS_B, MIXED):
            got = list(redexes(trs, t))
            assert got == unindexed_redexes(trs, t)
            found += len(got)
    assert found > 4000


def pair_text(pairs):
    return [(p.outer_rule, p.inner_rule, p.position, repr(p.left), repr(p.right)) for p in pairs]


def test_critical_pairs_equal_the_unindexed_reference():
    rng = random.Random(29)
    outer = TermRule("a", parse_term("(and g2 (not g))"), Var("g2"))
    systems = [TRS_B, MIXED, FLIP, TRS((outer, TermRule("b", Not(G), G)))]
    for _ in range(40):
        subset = rng.sample(TRS_B.rules, rng.randint(1, 16))
        systems += TRS(tuple(subset)), TRS(tuple(r for r in TRS_B.rules if r in subset))
    count = 0
    for trs in systems:
        got, expected = critical_pairs(trs), reference.critical_pairs(trs)
        assert got == expected
        assert pair_text(got) == pair_text(expected)
        count += len(got)
    assert count > 1000


def random_pattern(rng, depth):
    """A random term whose variables are g, g2, h and x1."""
    names = ("g", "g2", "h", "x1")
    return apply_substitution(random_term(rng, depth), {x: Var(rng.choice(names)) for x in ("x1", "x2", "x3")})


def test_unify_gives_the_reference_mgu():
    rng = random.Random(31)
    unified = 0
    for k in range(3000):
        s = random_pattern(rng, k % 5)
        if k % 2:
            t = random_pattern(rng, k % 4)
        else:  # an instance of s, which unifies with it unless a variable occurs in its own image
            names = sorted(variables(s))
            t = apply_substitution(s, {v: random_pattern(rng, 2) for v in rng.sample(names, min(2, len(names)))})
        sigma = unify(s, t)
        expected = reference.unify(s, t)
        assert sigma == expected and list(sigma or ()) == list(expected or ())
        if sigma is not None:
            assert apply_substitution(s, sigma) == apply_substitution(t, sigma)
            unified += 1
    assert 500 < unified < 2500


def binding_chain(n, start, tail=ONE):
    """(and v<start> (and v<start+1> ... (and v<start+n-1> tail)))."""
    t = tail
    for k in reversed(range(start, start + n)):
        t = And(Var(f"v{k}"), t)
    return t


def test_unify_resolves_a_long_chain_of_bindings():
    # v0 is bound to v1, v1 to v2, and so on: every image is the last variable
    s, t = binding_chain(200, 0), binding_chain(200, 1)
    assert unify(s, t) == reference.unify(s, t)
    n = 5000
    assert unify(binding_chain(n, 0), binding_chain(n, 1)) == {f"v{k}": Var(f"v{n}") for k in range(n)}
    assert unify(And(G, Var("h")), And(Var("h"), Not(G))) is None  # g occurs in the image of h
    # the last pair binds v<n> to (not v0), and v0 is bound to v<n> through every binding
    for n in (2, 3, 200):
        s, t = binding_chain(n, 0, Var(f"v{n}")), binding_chain(n, 1, Not(Var("v0")))
        assert unify(s, t) is None and reference.unify(s, t) is None


def test_critical_pair_example_tautology_vs_double_negation():
    pairs = critical_pairs(TRS_B)
    # overlap of (and g (not g)) with (not (not g2)) at the second argument:
    # peak (and (not g2) (not (not g2))), results (not one) and (and (not g2) g2)
    hits = [
        p
        for p in pairs
        if p.outer_rule == "taut_and_right" and p.inner_rule == "double_neg_elim" and p.position == (1,)
    ]
    assert len(hits) == 1
    pair = hits[0]
    assert pair.left == Not(ONE)
    assert pair.right == And(Not(Var("g2")), Var("g2"))
    assert joinable(TRS_B, pair.left, pair.right)


def test_critical_pair_example_root_overlap():
    pairs = critical_pairs(TRS_B)
    hits = [
        p
        for p in pairs
        if p.outer_rule == "pass_and_right" and p.inner_rule == "pass_and_left" and p.position == ()
    ]
    assert len(hits) == 1
    assert hits[0].left == ONE and hits[0].right == ONE


def test_no_overlap_between_zero_elim_and_or_fixing():
    pairs = critical_pairs(TRS_B)
    assert not [
        p
        for p in pairs
        if {p.outer_rule, p.inner_rule} == {"zero_elim", "fix_or_right"}
    ]


def test_all_critical_pairs_joinable():
    pairs = critical_pairs(TRS_B)
    for p in pairs:
        assert joinable(TRS_B, p.left, p.right), (p.outer_rule, p.inner_rule, p.position)
    # recorded count of the shipped system's critical pairs
    assert len(pairs) == 61


def test_critical_pairs_are_pinned():
    # sha256 of the 61 pairs, in order, as the first implementation listed them
    key = [(p.outer_rule, p.inner_rule, p.position, repr(p.left), repr(p.right)) for p in critical_pairs(TRS_B)]
    digest = hashlib.sha256(repr(key).encode()).hexdigest()
    assert digest == "dae8cbdd0cc8d821578a83d71c753627fa87e8f69e9ac9e7fb2bd1dfd15851f8"


def up_to_renaming(pairs):
    """The pairs with their variables renamed v0, v1, ... in order of first occurrence."""
    out = []
    for p in pairs:
        names = {}
        for t in (p.left, p.right):
            for pos in positions(t):
                u = subterm_at(t, pos)
                if type(u) is Var:
                    names.setdefault(u.name, Var(f"v{len(names)}"))
        renamed = (apply_substitution(p.left, names), apply_substitution(p.right, names))
        out.append((p.outer_rule, p.inner_rule, p.position, renamed))
    return out


def test_renaming_apart_avoids_the_outer_rules_variables():
    # the inner rule's g renamed g2 would capture the outer rule's own g2
    outer = TermRule("a", parse_term("(and g2 (not g))"), Var("g2"))
    over_g = critical_pairs(TRS((outer, TermRule("b", Not(G), G))))
    over_h = critical_pairs(TRS((outer, TermRule("b", Not(Var("h")), Var("h")))))
    assert [(p.left, p.right) for p in over_h] == [(Var("g2"), And(Var("g2"), Var("h2")))]
    assert up_to_renaming(over_g) == up_to_renaming(over_h)
    assert over_g[0].right != And(Var("g2"), Var("g2"))


def test_joinable_examples():
    assert joinable(TRS_B, Not(ONE), And(Not(G), G))
    assert joinable(TRS_B, X1, X1)
    assert not joinable(TRS_B, ONE, Not(ONE))


def test_equal_sides_are_joined_without_normalizing(monkeypatch):
    # 53 of the shipped system's 61 pairs have equal sides.  Under a system that
    # loops, normalizing them would exceed the budget; they are joinable all the same.
    looping = TRS((TermRule("dd", Not(Not(G)), Not(Not(G))),))
    with pytest.raises(BudgetError):
        normalize_term(looping, Not(Not(X1)))
    monkeypatch.setattr(terms, "normalize_term", must_not_run)
    for build in (lambda: X1, lambda: Not(Not(X1)), lambda: chain(DEEP)):
        assert joinable(looping, build(), build()) and joinable(TRS_B, build(), build())
    assert sum(p.left == p.right for p in critical_pairs(TRS_B)) == 53
    assert certify_convergence(looping, samples=0).unjoinable == ()


def test_certificate_report():
    report = certify_convergence(TRS_B, samples=200, seed=1)
    assert report.convergent
    assert report.rule_count == 16
    assert report.pair_count == 61
    print(f"critical pairs of the shipped system: {report.pair_count}")


def report_key(trs, seed):
    """certify_convergence's report, its unjoinable pairs as text, or the message of the BudgetError it raises."""
    try:
        r = certify_convergence(trs, samples=200, seed=seed)
    except BudgetError as exc:
        return str(exc)
    pairs = [f"{p.outer_rule}/{p.inner_rule} at {p.position}: {p.left!r} vs {p.right!r}" for p in r.unjoinable]
    return r.rule_count, r.pair_count, pairs, r.weight_violations


def test_reports_are_pinned():
    skewed_pairs = ["dneg/not_one at (0,): one vs (not zero)"]
    expected = {
        "TRS_B": [(16, 61, [], 0)] * 5,
        "MIXED": [(16, 61, [], 0)] * 5,
        "FLIP": [(1, 0, [], n) for n in (157, 146, 140, 129, 135)],
        "FIVE": [(1, 0, [], n) for n in (127, 116, 111, 111, 112)],
        "SKEWED": [(4, 2, skewed_pairs, n) for n in (357, 346, 340, 329, 335)],
        "loop": [(1, 0, [], 200)] * 5,
        "loop and and_one": ["no normal form within 9 steps"] * 5,
    }
    systems = {
        "TRS_B": TRS_B,
        "MIXED": MIXED,
        "FLIP": FLIP,
        "FIVE": FIVE,
        "SKEWED": SKEWED,
        "loop": TRS(terms_rules_loop()),
        "loop and and_one": TRS(terms_rules_loop() + (TermRule("and_one", And(G, ONE), G),)),
    }
    assert {name: [report_key(trs, seed) for seed in range(5)] for name, trs in systems.items()} == expected


def test_parse_term_grammar():
    assert parse_term("(and g (not g))") == And(G, Not(G))
    assert parse_term("zero") == ZERO
    assert parse_term("  (or one x7) ") == Or(ONE, Var("x7"))
    with pytest.raises(ValueError):
        parse_term("(and g)")
    with pytest.raises(ValueError):
        parse_term("(xor g g)")


def test_budget_error_on_nonterminating_system():
    looping = TRS(terms_rules_loop())
    with pytest.raises(BudgetError):
        normalize_term(looping, And(X1, X2))


def terms_rules_loop():
    # a deliberately circular system to prove the budget trips
    return (
        TermRule("swap", And(Var("a"), Var("b")), And(Var("b"), Var("a"))),
    )


def test_random_term_draws_are_pinned():
    # The same RNG calls in the same order give the same terms.
    rng = random.Random(0)
    assert [repr(random_term(rng, max_depth=4)) for _ in range(4)] == [
        "(and x3 (and (and (not x3) one) (or (or x3 one) (or zero x1))))",
        "(not (and (not (and x2 x3)) x3))",
        "(not (and (or (or x2 x1) x1) (not x3)))",
        "one",
    ]
    rng = random.Random(11)
    assert [repr(random_term(rng, max_depth=4)) for _ in range(4)] == [
        "(or (and (or x3 (or one zero)) (not zero)) (and (or (or one x3) x3) zero))",
        "one",
        "(and (or (or x1 (or zero x2)) (and (not x1) (not x3))) zero)",
        "(not (and (not (not one)) zero))",
    ]
    rng = random.Random(3)
    assert [repr(random_term(rng, 3)) for _ in range(4)] == [
        "x3",
        "x3",
        "(or zero (and one x2))",
        "(or (or (not one) (or x2 zero)) (not x3))",
    ]


def chain(depth, bottom=X1):
    """An alternating and/or chain: bottom at the end of the left spine, x2 hanging off every node."""
    t = bottom
    for k in range(depth):
        t = (And if k % 2 == 0 else Or)(t, X2)
    return t


DEEP = 10_000


def test_term_operations_at_depth_ten_thousand():
    t, same = chain(DEEP), chain(DEEP)
    assert t is not same and t == same and hash(t) == hash(same)
    assert t != chain(DEEP, X2) and t != chain(DEEP - 1) and t != X1
    text = repr(t)
    assert text.startswith("(or (and (or ") and text.endswith(" x2)")
    assert parse_term(text) == t
    assert evaluate_term(t, {"x1": 1, "x2": 1}) == 1 and evaluate_term(t, {"x1": 1, "x2": 0}) == 0
    assert apply_substitution(t, {"x1": ONE}) == chain(DEEP, ONE)
    assert variables(t) == {"x1", "x2"}
    assert term_weight(t) == 2 * DEEP + 1
    pattern = chain(DEEP, G)
    assert match(pattern, chain(DEEP, Not(X1))) == {"g": Not(X1), "x2": X2}
    assert unify(chain(DEEP, Not(X1)), pattern) == {"g": Not(X1)}
    assert joinable(TRS_B, t, same)
    assert normalize_term(TRS_B, t) == t
    assert normalize_term(TRS_B, chain(DEEP, Not(Not(X1)))) == t


# Not confluent: innermost-first turns (not (not one)) into (not zero), outermost-first into one.
SKEWED = TRS(
    (
        TermRule("dneg", Not(Not(G)), G),
        TermRule("not_one", Not(ONE), ZERO),
        TermRule("or_zero", Or(G, ZERO), And(G, G)),
        TermRule("and_dup", And(G, G), ONE),
    )
)


def outcome_and_steps(monkeypatch, normalize, trs, t):
    """normalize(trs, t), or the error it raises, and how many steps it fired: the matches that bound."""
    steps = []
    real_match = terms.match

    def counting(*args):
        binding = real_match(*args)
        steps.append(binding is not None)
        return binding

    with monkeypatch.context() as m:
        m.setattr(terms, "match", counting)
        try:
            outcome = normalize(trs, t)
        except BudgetError as exc:
            outcome = ("BudgetError", str(exc))
    return outcome, sum(steps), len(steps)


def test_normalize_term_fires_the_leftmost_innermost_steps(monkeypatch):
    # The one pass against the restart loop: the same normal form after the same steps, or the same error.
    assert normalize_term(SKEWED, Not(Not(ONE))) == Not(ZERO)
    rng = random.Random(25)
    cases = [(trs, random_term(rng, rng.randint(1, 7))) for _ in range(150) for trs in (TRS_B, SKEWED)]
    cases += [(TRS(terms_rules_loop()), And(X1, X2)), (FLIP, And(X1, And(ONE, ONE))), (SKEWED, Or(X1, ZERO))]
    fired = errors = 0
    for trs, t in cases:
        got, steps, _ = outcome_and_steps(monkeypatch, normalize_term, trs, t)
        assert (got, steps) == outcome_and_steps(monkeypatch, reference.normalize_term, trs, t)[:2], t
        fired += steps
        errors += type(got) is tuple
    assert fired > 300 and errors == 1


def spread_chain(depth):
    """``chain(depth)`` with every x2 written (and x2 one): a redex hangs off every level."""
    t = X1
    for k in range(depth):
        t = (And if k % 2 == 0 else Or)(t, And(X2, ONE))
    return t


def test_normalize_term_on_spread_redexes_makes_linearly_many_matches(monkeypatch):
    # 11 per level: the restart loop made 35,750 at depth 100, quadratically many, and took 5 s at depth 1,000.
    for depth in (1_000, 2_000):
        got, steps, calls = outcome_and_steps(monkeypatch, normalize_term, TRS_B, spread_chain(depth))
        assert got == chain(depth) and steps == depth
        assert calls == 11 * depth
    assert outcome_and_steps(monkeypatch, reference.normalize_term, TRS_B, spread_chain(100))[1:] == (100, 35_750)


def test_positions_and_redexes_at_depth_two_thousand():
    # a position is a path from the root, so these are quadratic in depth by design
    depth = 2_000
    t = chain(depth, Not(Not(X1)))
    spine = (0,) * depth
    assert len(list(positions(t))) == 2 * depth + 3
    assert subterm_at(t, spine) == Not(Not(X1))
    assert [(pos, rule.name) for pos, rule, _ in redexes(TRS_B, t)] == [(spine, "double_neg_elim")]
    assert rewrite_step(TRS_B, t) == (chain(depth), spine, "double_neg_elim")


small_terms = st.recursive(
    st.sampled_from([ZERO, ONE, G, X1, X2, Var("g2")]),
    lambda kids: st.one_of(
        kids.map(Not),
        st.tuples(kids, kids).map(lambda p: And(*p)),
        st.tuples(kids, kids).map(lambda p: Or(*p)),
    ),
    max_leaves=12,
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(small_terms, small_terms)
def test_text_equality_and_hash_agree(t, u):
    assert parse_term(repr(t)) == t
    assert pickle.loads(pickle.dumps(t)) == t == copy.deepcopy(t)
    subterms = [subterm_at(s, pos) for s in (t, u) for pos in positions(s)]
    for a in subterms:
        for b in subterms:
            assert (a == b) == (repr(a) == repr(b))
            if a == b:
                assert hash(a) == hash(b)
