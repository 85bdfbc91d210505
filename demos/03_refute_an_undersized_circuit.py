"""Catch a circuit that claims to compute parity with too few gates.

Parity on n inputs needs 3(n-1) and/or gates.  Any smaller circuit is wrong
somewhere, and the refuter finds a witnessing input deterministically instead
of searching all 2^n assignments.
"""

from gatelim import CircuitBuilder, circuit_size, evaluate
from gatelim.refuter import parity, refute_detailed, xor_circuit

# an honest parity circuit on 4 variables, padded with a fifth declared input
honest = xor_circuit(4)
b = CircuitBuilder(5)
from gatelim.circuits import Circuit

claimed = Circuit(honest.edges, honest.root, 5, "demorgan")
print(f"circuit: {circuit_size(claimed)} gates, 5 inputs, bound is 3(5-1) = 12")

cex, outcome = refute_detailed(claimed)
print(f"search outcome: {outcome.tag} (x{outcome.var} is never read)")
print(f"counterexample: {''.join(map(str, cex.input))}")
print(f"  circuit says {cex.claimed}, parity is {cex.truth}")
assert evaluate(claimed, cex.input) != parity(cex.input)
print()

# a deeper circuit that survives two elimination rounds before failing
b = CircuitBuilder(4)
n1 = b.not_(b.input(3))
n2 = b.or_(b.input(1), n1)
n4 = b.and_(n2, b.not_(b.input(2)))
n5 = b.and_(b.input(4), b.input(1))
n6 = b.or_(b.input(3), n5)
n7 = b.or_(n4, n6)
c = b.build(b.and_(n7, b.input(4)))
print(f"harder circuit: {circuit_size(c)} gates on 4 inputs, bound is 9")
cex, outcome = refute_detailed(c)
print(f"search outcome: {outcome.tag} after {len(outcome.iterations)} elimination rounds")
for it in outcome.iterations:
    print(
        f"  round {it.iteration}: fixed x{it.var} := {it.bit}, "
        f"size {it.size_before} -> {it.size_after}"
    )
print(f"restriction: {dict(outcome.restriction.assigned)}")
print(f"counterexample: {''.join(map(str, cex.input))} "
      f"(circuit {cex.claimed}, parity {cex.truth})")
