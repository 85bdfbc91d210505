"""Circuit rewriting: redex detection, the proper step, and the driver."""

import itertools
import random

import pytest

from gen import random_circuit, truth_table

from gatelim.circuits import (
    AndLabel,
    CircuitBuilder,
    CircuitError,
    ConstLabel,
    InputLabel,
    NotLabel,
    OrLabel,
    bisimilar,
    circuit_size,
    evaluate,
    unroll_term,
    validate,
)
from gatelim.rewrite import (
    RULES,
    apply_rewrite,
    compile_rule,
    find_redexes,
    graph_measure,
    match_at,
    merge_parallel_edges,
    normalize_circuit,
    StaleRedexError,
    substitute_input,
)
from gatelim.terms import ONE, ZERO, And, Not, Or, TermRule, Var, demorgan_system, normalize_term

TRS_B = demorgan_system()


def pattern_term(pattern):
    producer = {pe.att[0]: pe for pe in pattern.edges}

    def go(name):
        if name in pattern.open_vertices:
            return Var("g")
        pe = producer[name]
        if isinstance(pe.label, ConstLabel):
            return ZERO if pe.label.value == 0 else ONE
        if isinstance(pe.label, NotLabel):
            return Not(go(pe.att[1]))
        if isinstance(pe.label, AndLabel):
            return And(go(pe.att[1]), go(pe.att[2]))
        assert isinstance(pe.label, OrLabel)
        return Or(go(pe.att[1]), go(pe.att[2]))

    return go(pattern.root)


def test_rule_table_matches_the_formula_system():
    assert len(RULES) == 16
    assert [r.name for r in RULES] == [r.name for r in TRS_B.rules]
    for graph_rule, term_rule in zip(RULES, TRS_B.rules):
        assert pattern_term(graph_rule.lhs) == term_rule.lhs, graph_rule.name
        assert pattern_term(graph_rule.rhs) == term_rule.rhs, graph_rule.name


def test_repeated_variable_compiles_to_one_shared_open_vertex():
    (and_dedup,) = [r for r in RULES if r.name == "and_dedup"]
    (root_edge,) = and_dedup.lhs.edges
    assert root_edge.label == AndLabel()
    (open_vertex,) = and_dedup.lhs.open_vertices
    assert root_edge.att[1:] == (open_vertex, open_vertex)
    assert and_dedup.rhs.root == open_vertex and and_dedup.rhs.edges == ()


def test_compile_rule_rejects_a_nested_variable_on_the_right():
    with pytest.raises(ValueError):
        compile_rule(TermRule("bad", And(Var("g"), ONE), Not(Var("g"))))


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
    assert isinstance(out.producer_edge(out.root).label, InputLabel)
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
    labels = sorted(type(e.label).__name__ for e in out.edges.values())
    assert labels == ["AndLabel", "ConstLabel", "InputLabel"]

    b = CircuitBuilder(1)
    c = b.build(b.input(1))
    out = substitute_input(c, 1, 0)
    assert unroll_term(normalize_circuit(out)[0]) == Not(ONE)

    b = CircuitBuilder(2)
    c = b.build(b.and_(b.input(1), b.input(2)))
    nf, _ = normalize_circuit(substitute_input(c, 2, 0))
    assert unroll_term(nf) == Not(ONE)
    assert nf.read_inputs() == set()  # x1 garbage-collected

    with pytest.raises(CircuitError):
        substitute_input(c, 5, 0)


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
