"""Translate a circuit into the 14-op binary basis and back, size preserved.

With negations free, each and/or gate plus the negation state of its inputs
is one of the ops 7..14, so a demorgan circuit goes to u2 and back without
adding or removing a binary gate.
"""

import itertools

from gatelim import circuit_size, demorgan_to_u2, evaluate, serialize_circuit, u2_to_demorgan
from gatelim.refuter import xor_circuit

c = xor_circuit(3)
print(f"parity on 3 inputs, {circuit_size(c)} gates:")
print(serialize_circuit(c))

u = demorgan_to_u2(c)
print(f"as a u2 circuit, {circuit_size(u)} gates (negations absorbed):")
print(serialize_circuit(u))

back = u2_to_demorgan(u)
print(f"translated back, {circuit_size(back)} gates:")
print(serialize_circuit(back))

table = lambda cc: [evaluate(cc, bits) for bits in itertools.product((0, 1), repeat=3)]
assert table(c) == table(u) == table(back)
print("truth tables identical across all three circuits")
