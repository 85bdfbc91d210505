"""Hypergraph circuit model: validation, evaluation, unrolling, comparisons."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from gen import (
    assignments,
    neartight_parity,
    random_circuit,
    renumbered,
    revertexed,
    term_truth_table,
    truth_table,
    undersized_circuit,
)
from reference_circuits import isomorphic as reference_isomorphic
from reference_rewrite import kahn_order

from gatelim.circuits import (
    AND,
    CONST1,
    Circuit,
    CircuitBuilder,
    CircuitError,
    Edge,
    INPUT,
    LABELS,
    Label,
    NOT,
    OR,
    U2_TRUTH,
    bisimilar,
    canonical_names,
    circuit_size,
    evaluate,
    isomorphic,
    label_name,
    reachable_edges,
    topo_order,
    unroll_term,
    validate,
)
from gatelim.refuter import xor_circuit
from gatelim.rewrite import WorkingGraph, substitute_input
from gatelim.terms import BASES, And, Not, Or, Var
from gatelim.textio import parse_circuit, serialize_circuit


def single_input():
    b = CircuitBuilder(1)
    return b.build(b.input(1))


def test_minimal_circuit_is_valid():
    assert validate(single_input()) == []


def test_edges_are_values_with_stored_fields():
    e = Edge(AND, (2, 0, 1))
    same = Edge(AND, (2, 0, 1))
    assert e == same and hash(e) == hash(same)
    assert e != Edge(AND, (2, 1, 0)) and e != Edge(OR, (2, 0, 1))
    assert len({e, same, Edge(CONST1, (2,))}) == 2
    for name in ("label", "att", "result", "args"):
        with pytest.raises(AttributeError):
            setattr(e, name, None)
    assert e.result == e.att[0] == 2
    assert e.args == e.att[1:] == (0, 1)
    assert e.args is e.args
    assert Edge(CONST1, (3,)).args == ()
    assert repr(e) == "Edge(label=Label(kind=AND, index=0), att=(2, 0, 1))"
    assert repr(Edge(Label(INPUT, 2), (0,))) == "Edge(label=Label(kind=x, index=2), att=(0,))"


def test_validate_reports_arity_violation():
    c = Circuit({0: Edge(Label(INPUT, 1), (0,)), 1: Edge(AND, (1, 0))}, 1, 1)
    assert any("arity" in v for v in validate(c))


def test_validate_reports_duplicate_result():
    c = Circuit(
        {0: Edge(Label(INPUT, 1), (0,)), 1: Edge(Label(INPUT, 2), (0,))},
        0,
        2,
    )
    assert any("non-unique result" in v for v in validate(c))


def test_validate_reports_unreachable_and_cycle():
    b = CircuitBuilder(2)
    v1, v2 = b.input(1), b.input(2)
    b.and_(v1, v2)
    with pytest.raises(CircuitError, match="unreachable"):
        b.build(v1)
    cyc = Circuit({0: Edge(Label(INPUT, 1), (0,)), 1: Edge(AND, (1, 1, 0))}, 1, 1)
    assert any("cycle" in v for v in validate(cyc))


@st.composite
def builder_programs(draw):
    """A builder program, valid or not, and the edges it makes: (n, basis, calls, edges, root, prune).

    A call is ``("input", k)`` or ``("gate", label, args)``.  Every gate has
    a label of the basis, its arity and earlier wires, except that in half
    the programs one step breaks one rule: a wrong arity, a label of the
    other basis, an input gate out of range or duplicated, an argument wire
    not yet made or never made.  Three programs in four end in binary gates
    over the wires no gate reads, so that the last gate reaches every gate.
    Three roots in four are the last gate; the rest may leave gates
    unreached or be no wire at all.
    """
    n = draw(st.integers(0, 3))
    basis = draw(st.sampled_from(("demorgan", "u2")))
    own = [label for label in LABELS.values() if label.kind in BASES[basis].kinds]
    other = [label for label in LABELS.values() if label.kind not in BASES[basis].kinds]
    calls, edges, inputs = [], {}, {}

    def unread():
        return sorted(set(edges) - {a for e in edges.values() for a in e.args})

    def gate(label, args):
        calls.append(("gate", label, args))
        edges[len(edges)] = Edge(label, (len(edges), *args))

    size = draw(st.integers(1, 8))
    fault = draw(st.integers(0, 2 * size - 1))  # the step that breaks a rule, if < size
    for i in range(size):
        v = len(edges)
        step = draw(st.sampled_from(("arity", "basis", "x", "wire") if i == fault else ("input", "gate")))
        if step == "input":
            k = draw(st.integers(1, n)) if n else None
            if k is not None:
                calls.append(("input", k))
                if k not in inputs:
                    inputs[k] = v
                    edges[v] = Edge(Label(INPUT, k), (v,))
            continue
        if step == "x":  # out of range, or a second edge for an input
            index = st.integers(-1, n + 1)
            label = Label(INPUT, draw(st.sampled_from(sorted(inputs)) | index if inputs else index))
        elif step == "wire":
            label = draw(st.sampled_from([label for label in own if label.kind.arity]))
        else:
            label = draw(st.sampled_from(other if step == "basis" else own))
        arity = label.kind.arity
        if step == "arity":
            arity = draw(st.integers(0, 3).filter(lambda a: a != label.kind.arity))
        bad = draw(st.integers(0, arity - 1)) if step == "wire" else None
        unmade = st.integers(v, v + 3) | st.just(-1)
        earlier = st.integers(0, v - 1) | st.sampled_from(ends) if (ends := unread()) else unmade
        gate(label, tuple(draw(unmade if j == bad else earlier) for j in range(arity)))
    if draw(st.integers(0, 3)):
        binary = [label for label in own if label.kind.arity == 2]
        while len(ends := unread()) > 1:
            gate(draw(st.sampled_from(binary)), (ends[0], ends[1]))
    root = draw(st.integers(-1, len(edges)) if draw(st.integers(0, 3)) == 0 else st.just(len(edges) - 1))
    return n, basis, calls, edges, root, draw(st.booleans())


def test_build_raises_exactly_when_validate_reports_a_violation():
    outcomes = set()

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(builder_programs())
    def check(program):
        n, basis, calls, edges, root, prune = program
        b = CircuitBuilder(n, basis)
        for call in calls:
            if call[0] == "input":
                b.input(call[1])
            else:
                b.gate(call[1], *call[2])
        if prune:
            edges = {eid: edges[eid] for eid in reachable_edges(edges, root)}
        expected = Circuit(edges, root, n, basis)
        violations = validate(expected)
        outcomes.add(bool(violations))
        if violations:
            with pytest.raises(CircuitError) as info:
                b.build(root, prune)
            assert str(info.value) == "invalid circuit: " + "; ".join(violations)
        else:
            c = b.build(root, prune)
            for index in ("edges", "producer", "inputs"):
                assert list(getattr(c, index).items()) == list(getattr(expected, index).items())
            assert (c.root, c.num_inputs, c.basis, c.vertices) == (root, n, basis, expected.vertices)

    check()
    assert outcomes == {False, True}


def test_circuit_size():
    b = CircuitBuilder(1)
    c = b.build(b.not_(b.input(1)))
    assert circuit_size(c) == 0
    assert circuit_size(xor_circuit(2)) == 3
    b = CircuitBuilder(3)
    c = b.build(b.and_(b.and_(b.input(1), b.input(2)), b.input(3)))
    assert circuit_size(c) == 2


def test_topo_order_is_a_linear_extension():
    rng = random.Random(0)
    for _ in range(100):
        c = random_circuit(rng, rng.randint(1, 5), rng.randint(1, 10))
        order = topo_order(c)
        assert sorted(order) == sorted(c.edges)
        placed = {}
        for pos, eid in enumerate(order):
            placed[eid] = pos
        for eid, e in c.edges.items():
            for v in e.args:
                assert placed[c.producer[v]] < placed[eid]


def ids_ascend_topologically(c):
    return all(c.producer[v] < eid for eid, e in c.edges.items() for v in e.args)


def test_topo_order_equals_min_id_kahn():
    # Built circuits number every gate after its arguments, so topo_order
    # takes its ascending-id shortcut; shuffled ids make it run Kahn.
    rng = random.Random(5)
    circuits = [random_circuit(rng, rng.randint(1, 6), rng.randint(1, 16)) for _ in range(60)]
    circuits += [undersized_circuit(rng, rng.randint(4, 7)) for _ in range(20)]
    circuits += [neartight_parity(n, pos) for n in (4, 7) for pos in range(2, n + 1)]
    shuffled = 0
    for c in circuits:
        assert ids_ascend_topologically(c)
        assert topo_order(c) == kahn_order(c) == sorted(c.edges)
        for _ in range(3):
            d = renumbered(c, rng)
            shuffled += not ids_ascend_topologically(d)
            assert topo_order(d) == kahn_order(d)
    assert shuffled > 200


def test_only_circuits_the_builder_proved_skip_the_numbering_check():
    rng = random.Random(21)
    built = [neartight_parity(n, pos) for n in (4, 7) for pos in range(2, n + 1)]
    for _ in range(40):
        built.append(parse_circuit(serialize_circuit(random_circuit(rng, rng.randint(1, 6), rng.randint(1, 16)))))
    for c in built:
        assert c.ids_ordered
        assert topo_order(c) == kahn_order(c) == sorted(c.edges)
        same = Circuit(c.edges, c.root, c.num_inputs)  # numbered alike, but not by the builder
        assert not same.ids_ordered and topo_order(same) == sorted(c.edges)
        d = renumbered(c, rng)
        assert not d.ids_ordered and topo_order(d) == kahn_order(d)
        assert not WorkingGraph(c).ids_ordered
    # a build the proof refuses, as one with an unreached gate, is checked as any circuit is
    b = CircuitBuilder(1)
    x1 = b.input(1)
    b.not_(x1)
    assert not b.build(b.and_(x1, x1), prune=True).ids_ordered


def test_topo_order_reports_a_cycle_as_kahn_does():
    rng = random.Random(6)
    cycles = 0
    for _ in range(60):
        c = random_circuit(rng, rng.randint(2, 5), rng.randint(2, 12))
        gates = [eid for eid, e in c.edges.items() if e.args]
        if not gates:
            continue
        # One argument of a gate reads the output, which depends on that gate.
        eid = rng.choice(gates)
        e = c.edges[eid]
        edges = dict(c.edges)
        edges[eid] = Edge(e.label, (e.result, c.root, *e.args[1:]))
        for d in (Circuit(edges, c.root, c.num_inputs), renumbered(Circuit(edges, c.root, c.num_inputs), rng)):
            with pytest.raises(CircuitError) as expected:
                kahn_order(d)
            with pytest.raises(CircuitError) as got:
                topo_order(d)
            assert str(got.value) == str(expected.value)
            assert str(got.value).startswith("cycle detected among edges")
            cycles += 1
    assert cycles > 60


def test_topo_order_does_not_wait_for_an_argument_without_a_producer():
    # Kahn over the producer map ignores wire 9; a walk of the circuit as it
    # is would wait for it, never release edge 5 and report a cycle.
    c = Circuit({0: Edge(Label(INPUT, 1), (0,)), 5: Edge(AND, (2, 0, 9)), 3: Edge(NOT, (4, 2))}, 4, 1)
    assert topo_order(c) == kahn_order(c) == [0, 5, 3]
    assert validate(c) == ["vertex 9 is the result of no edge"]
    # Edge 3 reads only wire 9, so it is ready at once although it has an argument.
    loose = Circuit({1: Edge(Label(INPUT, 1), (0,)), 3: Edge(NOT, (2, 9)), 0: Edge(NOT, (4, 2))}, 4, 1)
    assert topo_order(loose) == kahn_order(loose) == [1, 3, 0]


@pytest.mark.parametrize("args", [(1,), (1, 0)], ids=["NOT", "AND"])
def test_topo_order_releases_readers_of_a_vertex_produced_twice_once(args):
    # Edges 1 and 2 both produce vertex 1, and the producer map names 2, so
    # the reader numbered 0 waits for edge 2 alone.  A walk of the circuit as
    # it is would let edge 1 release it too: early, and for NOT a second time.
    reader = Edge(NOT if len(args) == 1 else AND, (3, *args))
    c = Circuit({4: Edge(Label(INPUT, 1), (0,)), 1: Edge(NOT, (1, 0)), 2: Edge(NOT, (1, 0)), 0: reader}, 3, 1)
    assert c.producer[1] == 2
    assert topo_order(c) == kahn_order(c) == [4, 1, 2, 0]
    assert validate(c) == [
        "vertex 1 is the result of edges [1, 2] (non-unique result edge)",
        "edge 1 is unreachable from the root",
    ]


def test_walk_orders_a_renumbered_chain_ten_thousand_deep():
    b = CircuitBuilder(2)
    acc = b.input(1)
    for k in range(10_000):
        acc = (b.and_ if k % 2 == 0 else b.or_)(acc, b.input(2))
    c = renumbered(b.build(acc), random.Random(9))
    assert not ids_ascend_topologically(c)  # so topo_order walks
    order = topo_order(c)
    assert sorted(order) == sorted(c.edges)
    placed = {eid: pos for pos, eid in enumerate(order)}
    assert all(placed[c.producer[v]] < placed[eid] for eid, e in c.edges.items() for v in e.args)


def test_parse_validate_and_evaluate_build_no_reader_index():
    c = parse_circuit(serialize_circuit(neartight_parity(6, 4)))
    assert validate(c) == []
    assert truth_table(c) == truth_table(neartight_parity(6, 4))
    assert "readers" not in vars(c) and "leaves" not in vars(c)
    d = renumbered(c, random.Random(3))
    assert not ids_ascend_topologically(d)
    topo_order(d)  # walks, so builds both
    assert "readers" in vars(d) and "leaves" in vars(d)


def test_topo_order_simple_chain():
    b = CircuitBuilder(1)
    c = b.build(b.not_(b.input(1)))
    order = topo_order(c)
    assert [label_name(c.edges[e].label) for e in order] == ["x1", "NOT"]


def test_evaluate_examples():
    x = xor_circuit(2)
    assert [evaluate(x, bits) for bits in assignments(2)] == [0, 1, 1, 0]
    b = CircuitBuilder(2, basis="u2")
    c = b.build(b.u2(8, b.input(1), b.input(2)))
    assert evaluate(c, (0, 1)) == 1
    assert [evaluate(c, bits) for bits in assignments(2)] == [0, 1, 0, 0]
    b = CircuitBuilder(1)
    c = b.build(b.const(1))
    assert evaluate(c, (0,)) == 1 and evaluate(c, (1,)) == 1


def test_evaluate_rejects_wrong_length():
    with pytest.raises(CircuitError, match="assignment"):
        evaluate(single_input(), (0, 1))


def test_bit_parallel_truth_table_agrees_with_evaluate():
    # gen.truth_table reads kind.truth over row masks; evaluate reads it one row at a time
    def evaluated(c):
        return tuple(evaluate(c, bits) for bits in assignments(c.num_inputs))

    rng = random.Random(23)
    for _ in range(150):
        n = rng.randint(1, 6)
        c = random_circuit(rng, n, rng.randint(1, 16))
        for i in rng.sample(range(1, n + 1), rng.randint(0, n)):
            if c.input_edge(i) is not None:
                c = substitute_input(c, i, rng.randint(0, 1))
        b = CircuitBuilder(n, basis="u2")
        nodes = [b.input(i) for i in range(1, n + 1)]
        for _ in range(rng.randint(1, 12)):
            nodes.append(b.u2(rng.randint(1, 14), rng.choice(nodes), rng.choice(nodes)))
        for circuit in (c, b.build(nodes[-1], prune=True)):
            assert truth_table(circuit) == evaluated(circuit)


def test_u2_truth_table_pinned():
    # columns over rows (p,q) = TT, TF, FT, FF
    assert U2_TRUTH[4] == (0, 0, 1, 1)  # negation of p
    assert U2_TRUTH[6] == (0, 1, 0, 1)  # negation of q
    assert U2_TRUTH[8] == (0, 0, 1, 0)  # (not p) and q
    assert U2_TRUTH[11] == (1, 0, 0, 0)  # and
    assert U2_TRUTH[13] == (1, 1, 1, 0)  # or
    assert len(U2_TRUTH) == 14
    tables = {U2_TRUTH[k] for k in U2_TRUTH}
    assert len(tables) == 14
    xor = (0, 1, 1, 0)
    assert xor not in tables and tuple(1 - b for b in xor) not in tables


def test_unroll_duplicates_shared_subcircuits():
    b = CircuitBuilder(2)
    shared = b.and_(b.input(1), b.input(2))
    c = b.build(b.or_(shared, shared))
    t = unroll_term(c)
    assert t == Or(And(Var("x1"), Var("x2")), And(Var("x1"), Var("x2")))

    b = CircuitBuilder(3)
    assert unroll_term(b.build(b.input(3))) == Var("x3")

    b = CircuitBuilder(1)
    assert unroll_term(b.build(b.not_(b.not_(b.input(1))))) == Not(Not(Var("x1")))


def test_bisimilar():
    b = CircuitBuilder(2)
    shared = b.and_(b.input(1), b.input(2))
    c_shared = b.build(b.or_(shared, shared))
    b = CircuitBuilder(2)
    left = b.and_(b.input(1), b.input(2))
    right = b.and_(b.input(1), b.input(2))
    c_tree = b.build(b.or_(left, right))
    assert bisimilar(c_shared, c_shared)
    assert bisimilar(c_shared, c_tree)
    assert bisimilar(xor_circuit(1000), xor_circuit(1000))  # deep: no recursion

    b = CircuitBuilder(2)
    c1 = b.build(b.and_(b.input(1), b.input(2)))
    b = CircuitBuilder(2)
    c2 = b.build(b.and_(b.input(2), b.input(1)))
    assert not bisimilar(c1, c2)  # arguments are ordered; no commutativity


def test_bisimilar_matches_unrolling_on_small_circuits():
    rng = random.Random(1)
    pool = [random_circuit(rng, 3, rng.randint(1, 6)) for _ in range(40)]
    for a in pool[:12]:
        for b in pool[:12]:
            assert bisimilar(a, b) == (unroll_term(a) == unroll_term(b))


def test_isomorphic():
    x = xor_circuit(3)
    assert isomorphic(x, x)
    b = CircuitBuilder(2)
    and_only = b.build(b.and_(b.input(1), b.input(2)))
    b = CircuitBuilder(2)
    or_only = b.build(b.or_(b.input(1), b.input(2)))
    assert not isomorphic(and_only, or_only)


def test_bisimilar_does_not_imply_isomorphic():
    b = CircuitBuilder(2)
    shared = b.and_(b.input(1), b.input(2))
    c_shared = b.build(b.or_(shared, shared))
    b = CircuitBuilder(2)
    c_tree = b.build(b.or_(b.and_(b.input(1), b.input(2)), b.and_(b.input(1), b.input(2))))
    assert bisimilar(c_shared, c_tree)
    assert not isomorphic(c_shared, c_tree)
    assert circuit_size(c_shared) == 2 and circuit_size(c_tree) == 3


def test_isomorphic_implies_bisimilar_and_same_size():
    rng = random.Random(2)
    for _ in range(60):
        c = random_circuit(rng, rng.randint(1, 4), rng.randint(1, 8))
        # re-number ids by rebuilding through serialization-free copy
        shifted = Circuit(
            {eid + 100: Edge(e.label, tuple(v + 500 for v in e.att)) for eid, e in c.edges.items()},
            c.root + 500,
            c.num_inputs,
            c.basis,
        )
        assert isomorphic(c, shifted)
        assert bisimilar(c, shifted)
        assert circuit_size(c) == circuit_size(shifted)


def isomorphism_pool(rng):
    """Small circuits with their renumbered and revertexed copies, copies declaring one more input,
    and copies carrying an unreachable edge, some of them as many vertices as another circuit."""
    b = CircuitBuilder(2)
    bases = [b.build(b.input(2)), xor_circuit(2), xor_circuit(3), neartight_parity(4, 2)]
    bases += [random_circuit(rng, rng.randint(1, 3), rng.randint(1, 4)) for _ in range(20)]
    pool = []
    for c in bases:
        pool += [c, renumbered(c, rng), revertexed(c, rng), Circuit(c.edges, c.root, c.num_inputs + 1)]
        # an unreachable NOT of a wire, and an unreachable gate standing in for the output
        top = max(c.edges) + 1
        for extra in (Edge(NOT, (max(c.vertices) + 1, c.root)), Edge(OR, (max(c.vertices) + 1, c.root, c.root))):
            pool.append(Circuit({**c.edges, top: extra}, c.root, c.num_inputs))
    return pool


def test_isomorphic_agrees_with_the_root_morphism_reference():
    pool = isomorphism_pool(random.Random(9))
    agreed = 0
    for a in pool:
        for b in pool:
            got = isomorphic(a, b)
            assert got == reference_isomorphic(a, b), (serialize_circuit(a), serialize_circuit(b))
            agreed += got
    assert agreed > 16 * len(pool) // 6  # the four reachable copies of each circuit, and random ones collide


def test_canonical_names_name_the_serialized_gates():
    c = xor_circuit(3)
    names = canonical_names(c)
    assert len(names) == len(c.vertices)
    gates = [name for v, name in names.items() if c.producer_edge(v).label.kind is not INPUT]
    assert gates == [f"n{k}" for k in range(1, len(gates) + 1)]
    text = serialize_circuit(c).splitlines()
    assert [line.split()[0] for line in text[3:-1]] == gates and text[-1] == f"output {names[c.root]}"
    shifted = revertexed(renumbered(c, random.Random(4)), random.Random(5))
    assert sorted(canonical_names(shifted).values()) == sorted(names.values())


def test_evaluate_agrees_with_term_semantics():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(1, 5)
        c = random_circuit(rng, n, rng.randint(1, 8))
        t = unroll_term(c)
        names = [f"x{i}" for i in range(1, n + 1)]
        assert truth_table(c) == term_truth_table(t, names)


def test_unroll_budget():
    from gatelim.terms import BudgetError

    b = CircuitBuilder(1)
    v = b.input(1)
    for _ in range(30):
        v = b.and_(v, v)
    c = b.build(v)
    with pytest.raises(BudgetError):
        unroll_term(c, budget=2**12)


def test_unroll_deep_chain_without_recursion():
    depth = 1500
    b = CircuitBuilder(2)
    acc = b.input(1)
    direct = Var("x1")
    for k in range(depth):
        acc = (b.and_ if k % 2 == 0 else b.or_)(acc, b.input(2))
        direct = (And if k % 2 == 0 else Or)(direct, Var("x2"))
    t = unroll_term(b.build(acc))
    kinds: dict[str, int] = {}
    stack = [t]
    while stack:
        node = stack.pop()
        name = "Var" if type(node) is Var else node.kind.name
        kinds[name] = kinds.get(name, 0) + 1
        stack.extend(node.args)
        if type(node) is Var:
            assert node.name == ("x1" if kinds["Var"] == depth + 1 else "x2")
    assert kinds == {"OR": depth // 2, "AND": depth // 2, "Var": depth + 1}
    assert t.kind.name == "OR"
    # term equality and repr walk without recursion too, at a depth recursion could not reach
    assert t == direct and repr(t) == repr(direct)
