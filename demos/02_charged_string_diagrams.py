"""Charged-string diagrams and their compilation to qudit operators.

A diagram is a word of generators: caps create entangled pairs of string
ends, cups annihilate them, charges ride the strings, braids cross them.
The evaluator compiles a diagram to a dense operator through the
Jordan-Wigner dictionary.

Run:  python demos/02_charged_string_diagrams.py
"""

import numpy as np

from pappa import (
    BraidPos,
    Cap,
    Charge,
    Cup,
    Diagram,
    adjoint,
    compose,
    evaluate,
    make_phase_ring,
    normalize,
    pauli_gate,
)

d = 3
ring = make_phase_ring(d)

print("A closed neutral loop evaluates to the quantum dimension sqrt(d):")
loop = Diagram.identity(d, 0).then(Cap(0)).then(Cup(0))
print(f"  evaluate(loop) = {evaluate(ring, loop).matrix[0, 0]:.6f}  (sqrt({d}) = {d**0.5:.6f})")

print("\nA charged loop vanishes (neutrality):")
charged = Diagram.identity(d, 0).then(Cap(0)).then(Charge(1, 1)).then(Cup(0))
print(f"  evaluate(charged loop) = {evaluate(ring, charged).matrix[0, 0]:.2e}")
print(f"  normalize() recognizes it as the zero diagram: {normalize(charged).is_zero}")

print("\nThe Pauli pictures: a charge on one string of a qudit pair.")
print("Right-string charge 1 acts as X, the Z picture is the same-height")
print("pair (left +1, right -1):")
zpic = Diagram.identity(d, 2).then(Charge(0, 1, 0)).then(Charge(1, -1, 0))
print(f"  |Z picture - Z| = {np.abs(evaluate(ring, zpic).matrix - pauli_gate(ring, 'Z')).max():.2e}")

print("\nPara isotopy: sliding one charge past another vertically costs q^(kl).")
k, l = 1, 2
low = Diagram.identity(d, 4).then(Charge(0, k, 0)).then(Charge(3, l, 1))
high = Diagram.identity(d, 4).then(Charge(0, k, 1)).then(Charge(3, l, 0))
low_m, high_m = evaluate(ring, low).matrix, evaluate(ring, high).matrix
entry = np.unravel_index(np.argmax(np.abs(high_m)), high_m.shape)
ratio = low_m[entry] / high_m[entry]
print(f"  evaluation ratio = {ratio:.6f},  q^(k l) = {ring.q_pow(k * l):.6f}")

print("\nVertical reflection is the adjoint:")
dia = Diagram.identity(d, 2).then(Charge(0, 1, 1)).then(BraidPos(0)).then(Charge(1, 2, 0))
lhs = evaluate(ring, adjoint(dia)).matrix
rhs = evaluate(ring, dia).matrix.conj().T
print(f"  |evaluate(adjoint(D)) - evaluate(D)^dagger| = {np.abs(lhs - rhs).max():.2e}")

print("\nnormalize() rewrites to a canonical form without changing the value:")
messy = (
    Diagram.identity(d, 2)
    .then(Charge(0, 1, 3))
    .then(Cap(1))
    .then(Charge(2, d - 1, 2))
    .then(Cup(1))
    .then(Charge(1, 1, 1))
)
tidy = normalize(messy)
print(f"  {len(messy.gens)} generators -> {len(tidy.gens)}, "
      f"value drift = {np.abs(evaluate(ring, tidy).matrix - evaluate(ring, messy).matrix).max():.2e}")

print("\nResolution of the identity: d^-1/2 sum_k cap_k cup_(-k) = 1:")
acc = np.zeros((d, d), dtype=complex)
for k in range(d):
    capk = Diagram.identity(d, 0).then(Cap(0)).then(Charge(1, k))
    cupk = Diagram.identity(d, 2).then(Charge(1, -k)).then(Cup(0))
    acc += (evaluate(ring, capk).matrix @ evaluate(ring, cupk).matrix)
acc /= d**0.5
print(f"  |sum - identity| = {np.abs(acc - np.eye(d)).max():.2e}")
