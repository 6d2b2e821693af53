"""Clifford structure of the string Fourier transform.

Run:  python demos/04_clifford_group.py
"""

import numpy as np

from pappa import cz_gate, make_phase_ring, pauli_gate, sft_matrix
from pappa.clifford import (
    generate_group,
    is_clifford,
    verify_braid_gaussian_dressing,
    verify_cz_from_sft,
    verify_sft_factorizations,
)
from pappa.gates import Local, controlled_gate, gate_power

print("C_Z is the SFT dressed by single-qudit Cliffords:")
print("  C_Z = (F^-1 x FG^-1) SFT (FGF^-1 x F^-1G^-1)")
for d in (2, 3, 5):
    rep = verify_cz_from_sft(make_phase_ring(d))
    print(f"  d={d}: residual = {rep.residual:.2e}"
          f"   (variant-dressing guard at {rep.alternate_residual:.2f})")

print("\nThe SFT factors through controlled gates two ways, and at k=0 the")
print("first factorization is the Hadamard+CNOT Bell recipe:")
for d in (2, 3, 5):
    rep = verify_sft_factorizations(make_phase_ring(d))
    print(f"  d={d}: factorizations {rep.extras['factorization1']:.2e} / "
          f"{rep.extras['factorization2']:.2e}, Bell corollary {rep.extras['bell_corollary']:.2e}")

print("\nThe strand-straddling negative braid is a Gaussian dressing of the SFT")
print("(with the twist scalar omega^1/2):")
for d in (2, 3, 5):
    rep = verify_braid_gaussian_dressing(make_phase_ring(d))
    print(f"  d={d}: residual = {rep.residual:.2e}")

print("\nMembership testing by Pauli conjugation:")
ring = make_phase_ring(2)
t_gate = np.diag([1.0, np.exp(1j * np.pi / 4)])
print(f"  is_clifford(SFT on 2 qubits) = {is_clifford(ring, sft_matrix(ring, 2))}")
print(f"  is_clifford(pi/8 gate)       = {is_clifford(ring, t_gate)}")

print("\nBreadth-first closure over phaseless unitaries (d=2, one qubit):")
gens = {
    name: gate_power(ring, name, 1) for name in "XYZFG"
}
rep = generate_group(ring, 1, gens, cap=10_000)
print(f"  closure of {{X,Y,Z,F,G}} has order {rep.order} (cap hit: {rep.cap_hit})")

print("\nTwo-qubit closure with the SFT reaches the entangling gates:")
gens2 = {}
for site in (0, 1):
    for name in "XYZFG":
        gens2[f"{name}{site}"] = Local((site,), gate_power(ring, name, 1)).to_matrix(2, 2)
gens2["sft"] = sft_matrix(ring, 2)
rep = generate_group(
    ring, 2, gens2, cap=30_000,
    probes={
        "C_Z": cz_gate(ring, 2),
        "CNOT": controlled_gate(ring, 2, 0, 1, pauli_gate(ring, "X")),
    },
)
print(f"  order {rep.order}, C_Z found: {rep.membership['C_Z']}, "
      f"CNOT found: {rep.membership['CNOT']}")
