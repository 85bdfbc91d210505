"""Circuit rewriting: redex detection, the proper step, and the driver."""

import collections
import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

import reference_rewrite
from gen import (
    constant_dag,
    constant_fed,
    demorgan_circuits,
    neartight_parity,
    parity_tree,
    random_circuit,
    renumbered,
    revertexed,
    truth_table,
)

from gatelim.circuits import (
    AND,
    CONST0,
    CONST1,
    INPUT,
    NOT,
    OR,
    Circuit,
    CircuitBuilder,
    CircuitError,
    Edge,
    Label,
    bisimilar,
    circuit_size,
    evaluate,
    unroll_term,
    label_name,
    validate,
)
from gatelim import refuter, rewrite, terms
from gatelim.cli import main
from gatelim.refuter import refute_detailed, search_bad_restriction
from gatelim.rewrite import (
    DEMORGAN,
    System,
    WorkingGraph,
    apply_rewrite,
    find_redexes,
    graph_measure,
    match_at,
    merge_parallel_edges,
    normalize_circuit,
    StaleRedexError,
    substitute_input,
)
from gatelim.terms import ONE, TRS, And, Not, Op, Or, TermRule, Var, demorgan_system, normalize_term, rewrite_step
from gatelim.textio import serialize_circuit

TRS_B = demorgan_system()


def test_rule_table_matches_the_formula_system():
    assert DEMORGAN.rules is DEMORGAN.trs.rules
    assert DEMORGAN.by_root is DEMORGAN.trs.by_root  # one rule index, the TRS's


def test_demorgan_system_derives_what_the_matcher_reads():
    assert DEMORGAN.trs == TRS_B
    assert DEMORGAN.inner == {NOT.kind}
    assert {kind.name: [r.name for r in rules] for kind, rules in DEMORGAN.by_root.items()} == {
        "CONST0": ["zero_elim"],
        "NOT": ["double_neg_elim"],
        "AND": [
            "and_dedup",
            "fix_and_right",
            "fix_and_left",
            "pass_and_right",
            "pass_and_left",
            "taut_and_right",
            "taut_and_left",
        ],
        "OR": [
            "or_dedup",
            "fix_or_right",
            "fix_or_left",
            "pass_or_right",
            "pass_or_left",
            "taut_or_right",
            "taut_or_left",
        ],
    }


def test_no_right_hand_side_builds_a_binary_gate():
    # Every right-hand side is a variable or holds no binary operator, so
    # every binary gate of a normal form is a gate of the input, under its id
    # (the first step of the refuter module docstring).
    shapes = set()
    for rule in DEMORGAN.rules:
        todo = [rule.rhs]
        while todo:
            u = todo.pop()
            if type(u) is Op:
                assert u.kind.arity < 2, rule.name
                todo += u.args
        shapes.add(repr(rule.rhs) if type(rule.rhs) is Op else "variable")
    assert shapes == {"variable", repr(ONE), repr(Not(ONE))}


def test_a_system_reading_deeper_than_the_candidate_key_is_refused():
    g = Var("g")
    deep = TermRule("deep", And(Not(Not(g)), g), g)  # the inner NOT has an argument two hops down
    with pytest.raises(ValueError, match="deeper than the candidate key reads"):
        System(TRS((deep,)))


def dedup_and_tautology():
    """AND(x1, x1) and AND(x1, NOT x1) in one circuit: the two sites and the circuit."""
    b = CircuitBuilder(1)
    x1 = b.input(1)
    dedup, taut = b.and_(x1, x1), b.and_(x1, b.not_(x1))
    return dedup, taut, b.build(b.or_(dedup, taut))


def test_each_system_has_its_own_candidate_memo():
    (and_dedup,) = [r for r in TRS_B.rules if r.name == "and_dedup"]
    system = System(TRS((and_dedup,)))
    dedup, taut, c = dedup_and_tautology()
    assert [r.name for r in DEMORGAN.candidates(c, taut)] == ["taut_and_right"]
    assert DEMORGAN.memo[AND.kind, (INPUT, NOT.kind, INPUT), (0, 1, 0)] == DEMORGAN.candidates(c, taut)
    before = dict(DEMORGAN.memo)
    assert system.candidates(c, dedup) == system.rules
    assert system.candidates(c, taut) == ()
    dedup_key = (AND.kind, (INPUT, INPUT), (0, 0))  # AND(a, a)
    taut_key = (AND.kind, (INPUT, NOT.kind), (0, 1))  # AND(a, NOT(...)): no rule here reads below a NOT
    assert system.memo == {dedup_key: system.rules, taut_key: ()}
    assert DEMORGAN.memo == before


def test_an_empty_system_builds_and_offers_no_rule():
    # every term is normal in it; a completion starts from such partial rule sets
    empty = System(TRS(()))
    assert empty.rules == () and empty.by_root == {} and empty.inner == frozenset()
    dedup, taut, c = dedup_and_tautology()
    b = CircuitBuilder(1)
    double_neg = b.not_(b.not_(b.input(1)))
    for g, site in ((c, dedup), (c, taut), (b.build(double_neg), double_neg)):
        assert empty.candidates(g, site) == ()


def test_trs_check_certifies_the_system_normalize_runs(monkeypatch, capsys):
    def read_again(*args, **kwargs):
        raise AssertionError("the rule file was read again")

    certified = []
    certify = terms.certify_convergence

    def spy(trs, **kwargs):
        certified.append(trs)
        return certify(trs, **kwargs)

    monkeypatch.setattr(terms, "load_rules", read_again)
    monkeypatch.setattr(terms, "certify_convergence", spy)
    assert main(["trs", "check", "--samples", "5"]) == 0
    assert capsys.readouterr().out == (
        "rules: 16\n"
        "critical pairs: 61\n"
        "unjoinable pairs: 0\n"
        "weight samples: 5, violations: 0\n"
        "convergent: all critical pairs joinable, weight strictly decreasing\n"
    )
    assert len(certified) == 1 and certified[0] is DEMORGAN.trs


def test_a_right_hand_side_with_variables_inside_is_spliced():
    # De Morgan backwards: the right-hand side has edges and reads both matched wires
    g, h = Var("g"), Var("h")
    rule = TermRule("demorgan_back", Or(Not(g), Not(h)), Not(And(g, h)))
    b = CircuitBuilder(3)
    n1 = b.not_(b.input(1))  # also read outside the redex, so a reused left-hand wire would stay live
    site = b.or_(n1, b.not_(b.input(2)))
    c = b.build(b.and_(site, b.or_(n1, b.input(3))))
    redex = match_at(c, rule, site)
    assert redex is not None
    out, step = apply_rewrite(c, redex)
    assert validate(out) == []
    assert step.rule == "demorgan_back" and len(step.added_edges) == 2
    expected, pos, _ = rewrite_step(TRS((rule,)), unroll_term(c))
    assert pos == (0,)
    assert unroll_term(out) == expected
    assert unroll_term(out) == And(Not(And(Var("x1"), Var("x2"))), Or(Not(Var("x1")), Var("x3")))
    assert truth_table(out) == truth_table(c)


def test_a_node_object_at_two_right_hand_positions_is_spliced_per_occurrence():
    # Absorption, with g at two depths on the left and one And object at two
    # positions on the right, as a completion would build it.
    g, h = Var("g"), Var("h")
    gh = And(g, h)
    rule = TermRule("absorb", Or(g, gh), And(Or(g, gh), Or(g, Not(gh))))
    assert rule.rhs.args[0].args[1] is rule.rhs.args[1].args[1].args[0]
    system = System(TRS((rule,)))
    assert system.inner == {AND.kind}
    b = CircuitBuilder(2)
    x1, x2 = b.input(1), b.input(2)
    absorbed, kept = b.or_(x1, b.and_(x1, x2)), b.or_(x2, b.and_(x1, x2))  # g at both depths, or not
    c = b.build(b.and_(absorbed, kept))
    assert system.candidates(c, absorbed) == (rule,)
    assert system.candidates(c, kept) == ()

    circuits = []
    b = CircuitBuilder(3)
    x1 = b.input(1)
    site = b.or_(x1, b.and_(x1, b.input(2)))
    circuits.append((b.build(b.and_(site, b.input(3))), site))
    b = CircuitBuilder(3)
    n1 = b.not_(b.input(1))  # also read outside the redex
    site = b.or_(n1, b.and_(n1, b.or_(b.input(2), b.input(3))))
    circuits.append((b.build(b.or_(b.and_(n1, b.input(3)), site)), site))
    b = CircuitBuilder(2)
    x2 = b.input(2)
    site = b.or_(x2, b.and_(x2, b.not_(b.input(1))))
    circuits.append((b.build(site), site))
    rng = random.Random(5)
    for c, site in circuits:
        for c in (c, renumbered(c, rng)):
            redex = match_at(c, rule, site)
            assert redex is not None and redex.binding["g"] == c.edges[c.producer[site]].args[0]
            out, step = apply_rewrite(c, redex)
            ref, ref_step = reference_rewrite.apply_rewrite(c, redex)
            assert (out.edges, out.root) == (ref.edges, ref.root) and step == ref_step
            assert len(step.added_edges) == 6 and validate(out) == []
            assert unroll_term(out) == rewrite_step(TRS((rule,)), unroll_term(c))[0]
            assert truth_table(out) == truth_table(c)
            assert_normalizers_agree(out)
            nf, _ = normalize_circuit(out)
            for seed in range(4):
                assert bisimilar(nf, normalize_circuit(out, "rand", seed=seed)[0])
            assert unroll_term(nf) == normalize_term(TRS_B, unroll_term(out))


def test_find_redexes_dedup_requires_shared_wire():
    b = CircuitBuilder(1)
    v = b.input(1)
    c = b.build(b.and_(v, v))
    redexes = find_redexes(c)
    assert [r.rule.name for r in redexes] == ["and_dedup"]

    b = CircuitBuilder(2)
    c = b.build(b.and_(b.input(1), b.input(2)))
    assert find_redexes(c) == []


def test_find_redexes_fixing_example():
    b = CircuitBuilder(1)
    c = b.build(b.or_(b.input(1), b.const(1)))
    assert [r.rule.name for r in find_redexes(c)] == ["fix_or_right"]


def test_find_redexes_tautology_requires_negation_of_same_wire():
    b = CircuitBuilder(1)
    v = b.input(1)
    c = b.build(b.and_(v, b.not_(v)))
    assert [r.rule.name for r in find_redexes(c)] == ["taut_and_right"]

    # negation of a different wire carrying the same variable is not a redex
    b = CircuitBuilder(2)
    c = b.build(b.and_(b.input(1), b.not_(b.input(2))))
    assert find_redexes(c) == []


def test_find_redexes_order_is_topological_then_rule_order():
    b = CircuitBuilder(1)
    v = b.input(1)
    inner = b.and_(v, v)
    c = b.build(b.or_(inner, inner))
    names = [r.rule.name for r in find_redexes(c)]
    assert names == ["and_dedup", "or_dedup"]


def test_apply_passing_rewires_and_collects_garbage():
    b = CircuitBuilder(1)
    c = b.build(b.and_(b.input(1), b.const(1)))
    (redex,) = find_redexes(c)
    assert redex.rule.name == "pass_and_right"
    out, step = apply_rewrite(c, redex)
    assert validate(out) == []
    assert len(out.edges) == 1
    assert out.producer_edge(out.root).label.kind is INPUT
    assert step.size_after == 0
    assert len(step.removed_edges) == 2  # the and gate plus the orphaned constant


def test_apply_tautology_builds_false_constant():
    b = CircuitBuilder(1)
    v = b.input(1)
    c = b.build(b.and_(v, b.not_(v)))
    (redex,) = find_redexes(c)
    out, _ = apply_rewrite(c, redex)
    assert validate(out) == []
    assert unroll_term(out) == Not(ONE)
    assert circuit_size(out) == 0


def test_apply_zero_elim_keeps_gate_count():
    b = CircuitBuilder(1)
    c = b.build(b.const(0))
    assert graph_measure(c) == 5
    (redex,) = find_redexes(c)
    out, _ = apply_rewrite(c, redex)
    assert unroll_term(out) == Not(ONE)
    assert graph_measure(out) == 3
    assert circuit_size(out) == circuit_size(c) == 0


def test_stale_redex_rejected():
    b = CircuitBuilder(1)
    c = b.build(b.or_(b.input(1), b.const(1)))
    (redex,) = find_redexes(c)
    changed, _ = apply_rewrite(c, redex)
    with pytest.raises(StaleRedexError):
        apply_rewrite(changed, redex)


def test_substitute_input():
    b = CircuitBuilder(2)
    c = b.build(b.and_(b.input(1), b.input(2)))
    out = substitute_input(c, 2, 1)
    labels = sorted(label_name(e.label) for e in out.edges.values())
    assert labels == ["AND", "CONST1", "x1"]

    b = CircuitBuilder(1)
    c = b.build(b.input(1))
    out = substitute_input(c, 1, 0)
    assert unroll_term(normalize_circuit(out)[0]) == Not(ONE)

    b = CircuitBuilder(2)
    c = b.build(b.and_(b.input(1), b.input(2)))
    nf, _ = normalize_circuit(substitute_input(c, 2, 0))
    assert unroll_term(nf) == Not(ONE)
    assert not nf.inputs  # x1 garbage-collected

    with pytest.raises(CircuitError):
        substitute_input(c, 5, 0)


def test_substitute_input_matches_the_reference_relabel():
    for c in merge_corpus():
        if c.basis != "demorgan":
            continue
        for i in sorted(c.inputs):
            out = substitute_input(c, i, i % 2)
            ref = reference_rewrite.substitute_input(c, i, i % 2)
            assert (out.edges, out.root, out.inputs) == (ref.edges, ref.root, ref.inputs)


def test_input_index_on_circuits_and_working_graphs():
    b = CircuitBuilder(3)
    c = b.build(b.and_(b.input(3), b.not_(b.input(1))))
    assert c.inputs == {3: 0, 1: 1}
    assert c.input_edge(1) == 1 and c.input_edge(2) is None
    # two edges for x1 (an invalid circuit): the first in edge order is the one indexed
    twice = Circuit({5: Edge(Label(INPUT, 1), (0,)), 1: Edge(Label(INPUT, 1), (1,)), 2: Edge(AND, (2, 0, 1))}, 2, 1)
    assert twice.input_edge(1) == 5
    graph = WorkingGraph(c)  # neither shared nor normalized
    assert graph.input_edge(3) == 0 and graph.input_edge(1) == 1
    graph.substitute(3, 1)
    assert graph.input_edge(3) is None and graph.inputs == {1: 1}
    graph.normalize()
    assert graph.inputs == {1: 1} and graph.snapshot().inputs == graph.inputs


def test_normalize_examples():
    b = CircuitBuilder(1)
    c = b.build(b.or_(b.and_(b.input(1), b.const(1)), b.const(0)))
    nf, trace = normalize_circuit(c)
    assert unroll_term(nf) == Var("x1")
    assert [s.rule for s in trace.steps] == ["pass_and_right", "zero_elim", "pass_or_right"]

    b = CircuitBuilder(1)
    c = b.build(b.not_(b.not_(b.input(1))))
    nf, _ = normalize_circuit(c)
    assert unroll_term(nf) == Var("x1")

    x = CircuitBuilder(2)
    c = x.build(x.and_(x.input(1), x.input(2)))
    nf, trace = normalize_circuit(c)
    assert nf is c or unroll_term(nf) == unroll_term(c)
    assert trace.steps == ()


def test_graph_measure_values():
    b = CircuitBuilder(2)
    c = b.build(b.and_(b.input(1), b.input(2)))
    assert graph_measure(c) == 6


def test_measure_strictly_decreases_on_every_step():
    rng = random.Random(20)
    for _ in range(150):
        c = random_circuit(rng, rng.randint(1, 5), rng.randint(1, 10))
        while True:
            redexes = find_redexes(c)
            if not redexes:
                break
            nxt, _ = apply_rewrite(c, rng.choice(redexes))
            assert graph_measure(nxt) < graph_measure(c)
            assert validate(nxt) == []
            c = nxt


def test_rewrite_steps_preserve_the_function():
    rng = random.Random(21)
    for _ in range(100):
        n = rng.randint(1, 5)
        c = random_circuit(rng, n, rng.randint(1, 10))
        reference = truth_table(c)
        while True:
            redexes = find_redexes(c)
            if not redexes:
                break
            c, _ = apply_rewrite(c, rng.choice(redexes))
            assert truth_table(c) == reference


def test_trace_sizes_non_increasing():
    rng = random.Random(22)
    for _ in range(100):
        c = random_circuit(rng, rng.randint(1, 5), rng.randint(1, 12))
        _, trace = normalize_circuit(c)
        size = circuit_size(c)
        for step in trace.steps:
            assert step.size_after <= size
            size = step.size_after


def test_merge_parallel_edges_preserves_unrolling():
    b = CircuitBuilder(1)
    v = b.input(1)
    c = b.build(b.or_(b.not_(v), b.not_(v)))
    merged, removed = merge_parallel_edges(c)
    assert removed
    assert unroll_term(merged) == unroll_term(c)
    assert validate(merged) == []
    again, removed_again = merge_parallel_edges(merged)
    assert removed_again == () and again is merged


def test_merge_collapses_cascading_duplicates():
    # merging the two negations makes the two and-gates parallel in turn
    b = CircuitBuilder(2)
    x1, x2 = b.input(1), b.input(2)
    left = b.and_(b.not_(x1), x2)
    right = b.and_(b.not_(x1), x2)
    c = b.build(b.or_(left, right))
    merged, removed = merge_parallel_edges(c)
    assert len(removed) == 2
    assert unroll_term(merged) == unroll_term(c)
    nf, _ = normalize_circuit(c)
    assert unroll_term(nf) == And(Not(Var("x1")), Var("x2"))



def merge_corpus():
    """Random, constant-fed, unreachable-edge and u2 circuits, most with parallel duplicates."""
    rng = random.Random(61)
    out = []
    for _ in range(60):
        n = rng.randint(1, 5)
        c = random_circuit(rng, n, rng.randint(1, 14))
        out.append(c)
        for i in rng.sample(range(1, n + 1), rng.randint(1, n)):
            if c.input_edge(i) is not None:
                c = substitute_input(c, i, rng.randint(0, 1))
        out.append(c)
        # copies of random edges under fresh ids and results that nothing reads
        edges = dict(c.edges)
        fresh = max(c.vertices) + 1
        for eid in rng.sample(sorted(c.edges), min(3, len(c.edges))):
            e = c.edges[eid]
            edges[rng.choice((-1, 1)) * (fresh + 100)] = Edge(e.label, (fresh, *e.args))
            fresh += 1
        out.append(Circuit(edges, c.root, c.num_inputs, c.basis))
        b = CircuitBuilder(n, basis="u2")
        nodes = [b.input(i) for i in range(1, n + 1)]
        for _ in range(rng.randint(1, 8)):
            nodes.append(b.u2(rng.randint(1, 14), rng.choice(nodes), rng.choice(nodes)))
        out.append(b.build(nodes[-1], prune=True))
    return out


def test_merge_parallel_edges_matches_the_reference_loop():
    merging = 0
    for c in merge_corpus():
        merged, removed = merge_parallel_edges(c)
        ref, ref_removed = reference_rewrite.merge_parallel_edges(c)
        assert (merged.edges, merged.root, removed) == (ref.edges, ref.root, ref_removed)
        assert list(merged.edges) == list(ref.edges)
        assert (merged is c) == (not removed) == (ref is c)
        merging += bool(removed)
    assert merging > 60

def test_sharing_lets_nonlinear_rules_fire():
    # two parallel negations of the same wire; without sharing maintenance the
    # de-duplication pattern would never match and the or-gate would survive
    b = CircuitBuilder(1)
    v = b.input(1)
    c = b.build(b.or_(b.not_(v), b.not_(v)))
    nf, _ = normalize_circuit(c)
    assert unroll_term(nf) == Not(Var("x1"))

    # sharing is also restored after a merge performed by a passing rule
    b = CircuitBuilder(2)
    x1, x2 = b.input(1), b.input(2)
    g1 = b.or_(x2, b.not_(x2))
    g2 = b.and_(x1, g1)
    c = b.build(b.or_(b.not_(g2), b.not_(x1)))
    nf, _ = normalize_circuit(c)
    assert unroll_term(nf) == Not(Var("x1"))


def test_strategies_agree_up_to_bisimilarity():
    rng = random.Random(23)
    for _ in range(100):
        c = random_circuit(rng, rng.randint(1, 6), rng.randint(1, 12))
        det, _ = normalize_circuit(c, "det")
        for seed in range(3):
            rand_nf, _ = normalize_circuit(c, "rand", seed=seed)
            assert bisimilar(det, rand_nf)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(demorgan_circuits(), st.integers(0, 1000))
def test_the_det_normal_form_is_normal_strategy_free_and_keeps_the_function(c, seed):
    nf, _ = normalize_circuit(c)
    again, trace = normalize_circuit(nf)
    assert trace.steps == () and again is nf
    assert bisimilar(nf, normalize_circuit(c, "rand", seed=seed)[0])
    assert truth_table(nf) == truth_table(c)


def test_graph_normal_form_agrees_with_term_normal_form():
    rng = random.Random(24)
    for _ in range(100):
        c = random_circuit(rng, rng.randint(1, 5), rng.randint(1, 10))
        nf, _ = normalize_circuit(c)
        assert unroll_term(nf) == normalize_term(TRS_B, unroll_term(c))


def test_substituting_all_inputs_evaluates_by_rewriting():
    rng = random.Random(25)
    for _ in range(60):
        n = rng.randint(1, 4)
        c = random_circuit(rng, n, rng.randint(1, 8))
        for bits in itertools.product((0, 1), repeat=n):
            work = c
            for i, bit in enumerate(bits, start=1):
                if work.input_edge(i) is not None:
                    work = substitute_input(work, i, bit)
            nf, _ = normalize_circuit(work)
            expected = ONE if evaluate(c, bits) else Not(ONE)
            assert unroll_term(nf) == expected


def test_normalize_rejects_u2():
    b = CircuitBuilder(2, basis="u2")
    c = b.build(b.u2(11, b.input(1), b.input(2)))
    with pytest.raises(CircuitError):
        normalize_circuit(c)


STRATEGIES = [("det", None)] + [("rand", k) for k in range(5)]


def assert_normalizers_agree(c):
    """The incremental normalizer matches the rescan reference on every strategy."""
    for strategy, seed in STRATEGIES:
        nf, trace = normalize_circuit(c, strategy, seed=seed)
        ref_nf, ref_trace = reference_rewrite.normalize_circuit(c, strategy, seed=seed)
        assert serialize_circuit(nf) == serialize_circuit(ref_nf)
        assert (nf.edges, nf.root) == (ref_nf.edges, ref_nf.root)
        assert [s.as_dict() for s in trace.steps] == [s.as_dict() for s in ref_trace.steps]


def test_merges_of_one_pass_are_reported_in_first_id_order():
    # pass_and_right sends wire 4 to x1, so edges 2 and 9 become duplicates
    # of edges 1 and 5 in the same pass; merge_parallel_edges reports the
    # class with the lower first id first, whatever order they were met in.
    edges = {
        0: Edge(Label(INPUT, 1), (0,)),
        3: Edge(Label(INPUT, 2), (3,)),
        6: Edge(CONST1, (6,)),
        4: Edge(AND, (4, 0, 6)),
        1: Edge(NOT, (1, 0)),
        2: Edge(NOT, (2, 4)),
        5: Edge(OR, (5, 0, 3)),
        9: Edge(OR, (9, 4, 3)),
        7: Edge(AND, (7, 1, 2)),
        8: Edge(AND, (8, 5, 9)),
        10: Edge(OR, (10, 7, 8)),
    }
    c = Circuit(edges, 10, 2)
    assert validate(c) == []
    _, trace = normalize_circuit(c)
    assert trace.steps[0].removed_edges == (4, 6, 2, 9)
    assert_normalizers_agree(c)


def with_unreachable_edges(c, junk):
    """c plus a renumbered copy of junk that nothing reachable from c's root reads."""
    shift = 1 + max(max(c.edges), max(c.vertices))
    edges = dict(c.edges)
    for eid, e in junk.edges.items():
        edges[eid + shift] = Edge(e.label, tuple(v + shift for v in e.att))
    return Circuit(edges, c.root, max(c.num_inputs, junk.num_inputs))


def test_incremental_normalizer_matches_reference_on_random_circuits():
    rng = random.Random(26)
    for _ in range(80):
        c = random_circuit(rng, rng.randint(1, 6), rng.randint(1, 14))
        assert_normalizers_agree(c)
        assert_normalizers_agree(with_unreachable_edges(c, random_circuit(rng, 3, rng.randint(1, 6))))
        for redex in find_redexes(c):
            out, step = apply_rewrite(c, redex)
            ref_out, ref_step = reference_rewrite.apply_rewrite(c, redex)
            assert (out.edges, out.root, step) == (ref_out.edges, ref_out.root, ref_step)


def test_incremental_normalizer_matches_reference_on_constant_fed_circuits(monkeypatch):
    # Substituting inputs by constants gives unshared constant edges, so the
    # merges on entry and the merges after a step both meet CONST edges.
    entry = None
    merged_in_steps = []
    real_merge = reference_rewrite.merge_parallel_edges

    def recording_merge(c):
        out, removed = real_merge(c)
        if c is not entry:
            merged_in_steps.extend(c.edges[eid].label for eid in removed)
        return out, removed

    monkeypatch.setattr(reference_rewrite, "merge_parallel_edges", recording_merge)
    rng = random.Random(27)
    sharing_steps = 0
    for _ in range(80):
        n = rng.randint(2, 6)
        c = random_circuit(rng, n, rng.randint(2, 16))
        for i in rng.sample(range(1, n + 1), rng.randint(1, n)):
            if c.input_edge(i) is not None:
                c = substitute_input(c, i, rng.randint(0, 1))
        entry = c
        assert_normalizers_agree(c)
        _, trace = normalize_circuit(c)
        sharing_steps += any(step.rule == "sharing" for step in trace.steps)
    assert sharing_steps > 0
    assert any(label.kind in (CONST0.kind, CONST1.kind) for label in merged_in_steps)


def test_incremental_normalizer_matches_reference_on_substituted_neartight_parity():
    # The refuter's pattern: normalize, substitute one input, normalize again.
    for n in range(4, 8):
        for weak_at in (2, n // 2 + 1, n):
            for bit in (0, 1):
                work = neartight_parity(n, weak_at)
                assert_normalizers_agree(work)
                for i in range(1, n + 1):
                    work, _ = normalize_circuit(work)
                    if work.input_edge(i) is None:
                        continue
                    work = substitute_input(work, i, bit)
                    assert_normalizers_agree(work)


def and_chain_from_zero(length):
    b = CircuitBuilder(1)
    x, acc = b.input(1), b.const(0)
    for _ in range(length):
        acc = b.and_(acc, x)
    return b.build(acc)


def test_match_attempts_grow_linearly_along_a_collapsing_chain(monkeypatch):
    # Each step re-matches only the sites near what it changed.  A normalizer
    # that rescans the whole circuit every step makes about L^2 attempts here.
    calls = 0
    real_match = rewrite.match_at

    def counting_match(*args):
        nonlocal calls
        calls += 1
        return real_match(*args)

    monkeypatch.setattr(rewrite, "match_at", counting_match)
    attempts = {}
    for length in (100, 400):
        calls = 0
        nf, trace = normalize_circuit(and_chain_from_zero(length))
        assert len(trace.steps) == length + 1
        assert unroll_term(nf) == Not(ONE)
        attempts[length] = calls
    assert attempts[400] <= 40 * 400
    assert attempts[400] / attempts[100] <= 4.5


def redex_keys(redexes):
    return sorted((r.site, r.rule.name, sorted(r.binding.items())) for r in redexes)


@pytest.fixture
def checked_rematch(monkeypatch):
    """After every rematch, the live redexes are those of a full rescan.

    Also checks that the candidate index decides matches: at every site,
    each rule the index offers matches and every other rule fails to match;
    and that the graph's ``Circuit`` indexes are those of a circuit built
    afresh from its edges.
    """
    real_rematch = WorkingGraph.rematch
    calls = []

    def checking_rematch(graph):
        real_rematch(graph)
        calls.append(len(graph.edges))
        fresh = Circuit(graph.edges, graph.root, graph.num_inputs)
        assert isinstance(graph, Circuit)
        for index in ("producer", "inputs", "vertices", "readers"):
            assert getattr(graph, index) == getattr(fresh, index), index
        live = [r for found in graph.redexes.values() for r in found]
        assert redex_keys(live) == redex_keys(find_redexes(graph.snapshot()))
        for e in graph.edges.values():
            offered = DEMORGAN.candidates(graph, e.result)
            for rule in DEMORGAN.rules:
                assert (match_at(graph, rule, e.result) is not None) == (rule in offered), rule.name

    monkeypatch.setattr(WorkingGraph, "rematch", checking_rematch)
    return calls


def test_live_redexes_equal_a_rescan_on_random_circuits(checked_rematch):
    rng = random.Random(61)
    for _ in range(40):
        n = rng.randint(1, 6)
        c = random_circuit(rng, n, rng.randint(1, 16))
        fed = c
        for i in rng.sample(range(1, n + 1), rng.randint(1, n)):
            if fed.input_edge(i) is not None:
                fed = substitute_input(fed, i, rng.randint(0, 1))
        for circuit in (c, fed):
            for strategy, seed in STRATEGIES:
                normalize_circuit(circuit, strategy, seed=seed)
    assert len(checked_rematch) > 1000


def test_live_redexes_equal_a_rescan_through_neartight_refutations(checked_rematch):
    for n in range(5, 11):
        for pos in range(2, n + 1):
            search_bad_restriction(neartight_parity(n, pos))
    assert len(checked_rematch) > 200


def walk_order(graph):
    """The live redexes in (topological site, rule) order, taken from a fresh walk of the graph's circuit."""
    return [r for eid in graph.snapshot().walk() for r in graph.redexes.get(graph.edges[eid].result, [])]


def recount_inverted(graph):
    return sum(
        graph.producer.get(v, -1) >= eid for eid, e in graph.edges.items() for v in set(e.args)
    )


@pytest.fixture
def checked_order(monkeypatch):
    """After every step the inversion count is a recount, and the whole ordered list at every choice is a full walk's.

    Returns how many choices with two or more live sites were made without
    inversions (the ordered shortcut) and with them (the walk).
    """
    real_rematch, real_ordered = WorkingGraph.rematch, WorkingGraph.ordered
    choices = {"shortcut": 0, "walk": 0}

    def checking_rematch(graph):
        real_rematch(graph)
        assert graph.inverted == recount_inverted(graph)

    def checking_ordered(graph):
        assert graph.inverted == recount_inverted(graph)
        got = list(real_ordered(graph))
        assert got == walk_order(graph)
        if len(graph.redexes) > 1:
            choices["walk" if graph.inverted else "shortcut"] += 1
        return iter(got)

    monkeypatch.setattr(WorkingGraph, "rematch", checking_rematch)
    monkeypatch.setattr(WorkingGraph, "ordered", checking_ordered)
    return choices


def test_redex_choice_equals_a_full_walk(checked_order):
    rng = random.Random(62)
    circuits = []
    for _ in range(30):
        n = rng.randint(2, 6)
        c = random_circuit(rng, n, rng.randint(2, 16))
        fed = c
        for i in rng.sample(range(1, n + 1), rng.randint(1, n)):
            if fed.input_edge(i) is not None:
                fed = substitute_input(fed, i, rng.randint(0, 1))
        circuits += [c, fed, renumbered(fed, rng)]
    circuits += [neartight_parity(n, pos) for n in (5, 8) for pos in (2, n // 2 + 1, n)]
    circuits += [revertexed(c, random.Random(k)) for k, c in enumerate(circuits)]
    for c in circuits:
        for strategy, seed in STRATEGIES:
            normalize_circuit(c, strategy, seed=seed)
    for n in range(5, 9):
        for pos in range(2, n + 1):
            search_bad_restriction(neartight_parity(n, pos))
    assert checked_order["shortcut"] > 150
    assert checked_order["walk"] > 150


def test_det_choice_is_the_head_of_a_full_walk(monkeypatch):
    # ``det`` consumes only the head of ``ordered``, so the head is checked
    # on its own, branch by branch: at every det choice, against a fresh
    # full walk.
    real_ordered = WorkingGraph.ordered
    choices = collections.Counter()

    def checking_ordered(graph):
        if len(graph.redexes) == 1:
            branch = "one site"
        else:
            branch = "closure" if graph.inverted else "no inversions"
        got = real_ordered(graph)
        head = next(got)
        assert head == walk_order(graph)[0]
        choices[branch] += 1
        return itertools.chain([head], got)

    monkeypatch.setattr(WorkingGraph, "ordered", checking_ordered)
    rng = random.Random(70)
    for _ in range(30):
        c = random_circuit(rng, rng.randint(2, 6), rng.randint(2, 16))
        fed = constant_fed(c, rng)
        for circuit in (c, fed, renumbered(fed, rng), revertexed(fed, rng), revertexed(renumbered(c, rng), rng)):
            normalize_circuit(circuit)
    for _ in range(4):
        normalize_circuit(renumbered(constant_dag(rng, rng.randint(6, 10), 64, 8, 0.25), rng))
    for n in range(5, 13):
        for pos in range(2, n + 1):
            search_bad_restriction(neartight_parity(n, pos))
    assert min(choices[b] for b in ("one site", "no inversions", "closure")) > 100, choices


@st.composite
def dags_with_a_down_closed_subset(draw):
    """A circuit whose edge ids do not follow its shape, and a down-closed set of its edges."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    c = renumbered(random_circuit(rng, draw(st.integers(1, 6)), draw(st.integers(1, 30))), rng)
    tops = {eid for eid in c.edges if draw(st.booleans())}
    return c, rewrite.down_closure(c, tops)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(dags_with_a_down_closed_subset())
def test_least_order_restricted_to_a_down_closed_set_is_its_own(dag):
    # The down-closure lemma: the least Kahn order of the whole graph,
    # restricted to a down-closed set S, is the least Kahn order of S alone.
    c, down = dag
    own = list(Circuit({eid: c.edges[eid] for eid in down}, c.root, c.num_inputs).walk())
    assert [eid for eid in c.walk() if eid in down] == own
    assert list(rewrite.walk_within(c, down)) == own


def test_a_rewired_edge_rematches_its_readers_only_when_its_kind_is_read_below():
    # x3's readers come to read x1 instead.  The AND keeps its kind, so the OR
    # above it is not matched again; NOT is in ``DEMORGAN.inner``, so the
    # readers of a rewired NOT are.
    b = CircuitBuilder(3)
    x1, x2, x3 = (b.input(i) for i in (1, 2, 3))
    conj, neg = b.and_(x2, x3), b.not_(x3)
    disj, conj2 = b.or_(conj, x1), b.and_(neg, x2)
    c = b.build(b.or_(disj, conj2))
    assert DEMORGAN.inner == {NOT.kind}
    graph = WorkingGraph(c)
    graph.normalize()
    assert graph.redexes == {}
    matched = []
    real_match = WorkingGraph._match
    graph._match = lambda site: (matched.append(site), real_match(graph, site))
    graph._redirect(x3, x1)
    assert graph.touched == set() and graph.rewired == {conj, neg}
    graph.rematch()
    assert sorted(matched) == sorted([conj, neg, conj2])
    assert graph.rewired == set()
    assert graph.redexes == {} and redex_keys(find_redexes(graph.snapshot())) == []


def test_the_walk_a_round_reads_is_a_fresh_walk(monkeypatch):
    # A round reads ``WorkingGraph.walk``: ascending ids without inversions,
    # a Kahn walk of the graph otherwise.  Either way it must be the walk of
    # the graph's circuit taken afresh; renumbered inputs drive the Kahn branch.
    real_costly_readers = refuter.costly_readers
    branches = collections.Counter()

    def checking_costly_readers(g, *args):
        assert list(g.walk()) == list(g.snapshot().walk())
        branches["kahn" if g.inverted else "ascending"] += 1
        return real_costly_readers(g, *args)

    monkeypatch.setattr(refuter, "costly_readers", checking_costly_readers)
    rng = random.Random(71)
    circuits = [neartight_parity(n, pos) for n in range(5, 13) for pos in range(2, n + 1)]
    circuits += [parity_tree(rng, rng.randint(6, 16), 1) for _ in range(20)]
    for c in circuits:
        for circuit in (c, renumbered(c, rng)):
            search_bad_restriction(circuit)
    assert min(branches["ascending"], branches["kahn"]) >= 100, branches


def test_next_ids_are_one_more_than_the_largest_live_ids(monkeypatch):
    # The bounds ``_fire`` takes its new ids from are walked down to the
    # live maximum, also after a step collects it; an id freed so is reused.
    real_fire = WorkingGraph._fire
    seen = {}  # graph -> every edge id it has held
    counts = {"steps": 0, "collected": 0, "reused": 0}

    def formula(graph):
        return max(max(graph.producer), max(graph.readers, default=-1)) + 1, max(graph.edges) + 1

    def checking_fire(graph, redex):
        before = formula(graph)
        assert graph.next_ids() == before
        held = seen.setdefault(graph, set(graph.edges))
        removed, added = real_fire(graph, redex)
        after = formula(graph)
        assert graph.next_ids() == after
        if added:
            assert added[0] == before[1]
        counts["steps"] += 1
        counts["collected"] += after[1] <= max(held)
        counts["reused"] += any(eid in held for eid in added)
        held.update(added)
        return removed, added

    monkeypatch.setattr(WorkingGraph, "_fire", checking_fire)
    rng = random.Random(66)
    for _ in range(40):
        c = random_circuit(rng, rng.randint(2, 6), rng.randint(2, 16))
        for circuit in (c, constant_fed(c, rng), renumbered(constant_fed(c, rng), rng)):
            for strategy, seed in STRATEGIES[:3]:
                normalize_circuit(circuit, strategy, seed=seed)
    for n in range(5, 10):
        for pos in range(2, n + 1):
            search_bad_restriction(neartight_parity(n, pos))
    assert counts["steps"] > 1200
    assert counts["collected"] > 400
    assert counts["reused"] > 150


def test_the_lazy_draw_picks_what_choice_of_the_whole_list_picks():
    # rand draws an index and consumes ``ordered`` only up to it; the same
    # seed must draw the same redex and leave the same state.
    rng = random.Random(67)
    circuits = [constant_dag(rng, rng.randint(5, 8), 40, 8, 0.3) for _ in range(10)]
    for _ in range(30):
        c = random_circuit(rng, rng.randint(2, 6), rng.randint(2, 16))
        circuits += [c, constant_fed(c, rng), renumbered(constant_fed(c, rng), rng)]
    draws = walked = 0
    for k, c in enumerate(circuits):
        graph = WorkingGraph(c)
        graph.share()
        graph.rematch()
        lazy = random.Random(k)
        while graph.redexes:
            walked += bool(graph.inverted) and len(graph.redexes) > 1  # ``ordered`` walks a down-closure
            whole = random.Random()
            whole.setstate(lazy.getstate())
            chosen = graph.draw(lazy)
            assert chosen == whole.choice(list(graph.ordered()))
            assert lazy.getstate() == whole.getstate()
            graph._fire(chosen)
            graph.share()
            graph.rematch()
            draws += 1
    assert draws > 400
    assert walked > 200


def test_zero_elim_is_never_tried_at_a_one(monkeypatch):
    # The candidate index keys constants by value, so a CONST1 site is
    # offered no rule at all: zero_elim is the only rule rooted at a constant.
    attempts = []
    const1_sites = 0
    real_match, real_site_match = rewrite.match_at, WorkingGraph._match

    def recording_match(c, rule, site):
        attempts.append((rule.name, c.producer_edge(site).label))
        return real_match(c, rule, site)

    def counting_site_match(graph, site):
        nonlocal const1_sites
        const1_sites += graph.producer_edge(site).label == CONST1
        real_site_match(graph, site)

    monkeypatch.setattr(rewrite, "match_at", recording_match)
    monkeypatch.setattr(WorkingGraph, "_match", counting_site_match)
    for n in range(5, 11):
        for pos in range(2, n + 1):
            search_bad_restriction(neartight_parity(n, pos))
    assert const1_sites > 100
    assert any(name == "zero_elim" for name, _ in attempts)
    assert not any(label == CONST1 for _, label in attempts)


def with_duplicate(c, eid):
    """c with a parallel copy of edge ``eid`` on a new wire, read with the old output by a new AND output."""
    e = c.edges[eid]
    top_e, top_v = max(c.edges), max(c.vertices)
    edges = {**c.edges, top_e + 1: Edge(e.label, (top_v + 1, *e.args))}
    edges[top_e + 2] = Edge(AND, (top_v + 2, c.root, top_v + 1))
    return Circuit(edges, top_v + 2, c.num_inputs)


@st.composite
def entry_circuits(draw):
    """Small circuits, each maybe constant-fed, carrying a duplicate and renumbered (so not ``ids_ordered``)."""
    c = draw(demorgan_circuits())
    rng = random.Random(draw(st.integers(0, 2**16)))
    if draw(st.booleans()):
        c = constant_fed(c, rng)
    if draw(st.booleans()):
        duplicable = [eid for eid, e in c.edges.items() if e.label.kind is not INPUT]
        if duplicable:
            c = with_duplicate(c, rng.choice(duplicable))
    if draw(st.booleans()):
        c = renumbered(c, rng)
    return c


ENTRY_INDEXES = (
    "edges", "producer", "root", "readers", "inputs", "table", "unshared", "rewired",
    "size", "measure", "inverted", "top_v", "top_e", "orphans",
)  # fmt: skip


def assert_entry_is_the_replay(c):
    """``WorkingGraph(c)`` holds what an edge-by-edge replay holds, also after the first share and rematch.

    Returns the inversion count on entry, the merge count of the first share and the live redex sites.
    """
    bulk, replay = WorkingGraph(c), reference_rewrite.replayed_graph(c)
    for name in ENTRY_INDEXES:
        assert getattr(bulk, name) == getattr(replay, name), name
    inverted = bulk.inverted
    merged = bulk.share()
    assert merged == replay.share()
    bulk.rematch()
    replay.rematch()
    for name in ENTRY_INDEXES:
        assert getattr(bulk, name) == getattr(replay, name), name
    assert bulk.redexes == replay.redexes
    assert bulk.touched == replay.touched == bulk.rewired == set()
    return inverted, len(merged), len(bulk.redexes)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(entry_circuits())
def test_bulk_entry_equals_an_edge_by_edge_replay(c):
    assert_entry_is_the_replay(c)


def test_bulk_entry_equals_the_replay_on_renumbered_fed_and_duplicated_dags():
    # Larger circuits than the property draws, each kind of entry seen.
    rng = random.Random(68)
    seen = {"inverted": 0, "merged": 0, "redexes": 0}
    circuits = [constant_dag(rng, rng.randint(6, 10), 64, 8, 0.25) for _ in range(6)]
    circuits += [neartight_parity(n, pos) for n in (6, 9) for pos in (2, n)]
    for c in list(circuits):
        dup = with_duplicate(c, rng.choice([eid for eid, e in c.edges.items() if e.label.kind is not INPUT]))
        circuits += [renumbered(c, rng), dup, renumbered(dup, rng)]
    for c in circuits:
        for key, count in zip(seen, assert_entry_is_the_replay(c)):
            seen[key] += count > 0
    assert seen["inverted"] >= 20 and seen["merged"] >= 20 and seen["redexes"] >= 20, seen


def test_a_proved_circuit_enters_without_inversions_and_a_renumbered_one_counts_them():
    rng = random.Random(69)
    c = constant_dag(rng, 8, 64, 8, 0.25)
    assert c.ids_ordered and WorkingGraph(c).inverted == 0
    shuffled = renumbered(c, rng)
    assert not shuffled.ids_ordered
    assert WorkingGraph(shuffled).inverted == recount_inverted(shuffled) > 0


# sha256 of every output below: normal forms, traces and refutations.  A
# change meant to keep outputs byte-identical keeps it.
PINNED_DIGEST = "1d9fba4a44c679232a3a907af59832a2b0025f87a77af4679f92782ba95734c5"


def test_outputs_are_pinned():
    digest = hashlib.sha256()

    def record(*values):
        digest.update(json.dumps(values).encode() + b"\n")

    rng = random.Random(63)
    for _ in range(60):
        n = rng.randint(1, 6)
        c = random_circuit(rng, n, rng.randint(1, 18))
        for i in rng.sample(range(1, n + 1), rng.randint(0, n)):
            if c.input_edge(i) is not None:
                c = substitute_input(c, i, rng.randint(0, 1))
        for circuit in (c, renumbered(c, rng)):
            for strategy, seed in (("det", None), ("rand", 1), ("rand", 2)):
                nf, trace = normalize_circuit(circuit, strategy, seed=seed)
                record(serialize_circuit(nf), [step.as_dict() for step in trace.steps])
    for n in range(4, 15):
        for pos in sorted({2, n // 2 + 1, n}):
            cex, outcome = refute_detailed(neartight_parity(n, pos))
            record(
                cex.input,
                cex.claimed,
                cex.truth,
                outcome.tag,
                outcome.var,
                outcome.sibling,
                outcome.restriction.assigned,
                [it.as_dict() for it in outcome.iterations],
            )
    assert digest.hexdigest() == PINNED_DIGEST
