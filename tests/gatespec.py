"""``GateSpec``: a symbolic gate placed on sites, applied through the local kernels.

This is the per-kind dispatch that ran ``.pc`` circuits before they ran as
one-party protocols; the tests use it as an oracle for the protocol walker
and to apply the braid, ``sym`` and SFT kinds to states.
"""

from dataclasses import dataclass

import numpy as np

from pappa import gates
from pappa.evaluator import apply_sft, braid_local
from pappa.gates import QState


@dataclass(frozen=True)
class GateSpec:
    """A symbolic gate with site placement, resolvable against any register.

    Kinds: ``X Y Z F G`` (with integer ``power``), ``ctrl`` (controlled
    power of a named base gate; sites = (control, target)), ``cz``,
    ``braid`` (sites = (strand,), ``sign`` +-1), ``sym`` (sites =
    (strand,), parameter ``m``) and ``sft`` (whole register).
    """

    kind: str
    sites: tuple[int, ...] = ()
    power: int = 1
    base: str = "X"
    sign: int = 1
    m: int = 0

    def __post_init__(self):
        if self.kind == "ctrl" and len(set(self.sites)) != 2:
            raise ValueError("controlled gates need distinct control and target")


def ctrl_power_block(ring, name: str, exponent: int):
    """ctrl-A**exponent of a named gate, written out: ``gate_power(ring, name,
    exponent * c)`` in the c-th diagonal block, c the control value."""
    d = ring.d
    block = np.zeros((d * d, d * d), dtype=complex)
    for c in range(d):
        block[c * d : (c + 1) * d, c * d : (c + 1) * d] = gates.gate_power(ring, name, exponent * c)
    return block


def _apply(state: QState, local: gates.Local) -> QState:
    return QState(state.d, state.n, gates.apply_local(state.vector, state.d, state.n, local))


def apply_gate_spec(ring, state: QState, spec: GateSpec) -> QState:
    """Apply a symbolic gate to a state (site-local kernels throughout)."""
    n = state.n
    if spec.kind == "braid":
        (strand,) = spec.sites
        if not 0 <= strand < 2 * n - 1:
            raise ValueError(f"braid strand {strand} out of range for n={n}")
        return _apply(state, braid_local(ring, strand, spec.sign))
    if spec.kind == "sym":
        (strand,) = spec.sites
        j = gates._sym_pair(n, strand)
        return _apply(state, gates.Local((j, j + 1), gates.sym_gate_matrix(ring, spec.m)))
    if any(not 0 <= s < n for s in spec.sites):
        raise ValueError(f"sites {spec.sites} outside register of {n}")
    if spec.kind in ("X", "Y", "Z", "F", "G"):
        (site,) = spec.sites
        return gates.apply_site_gate(state, gates.gate_power(ring, spec.kind, spec.power), site)
    if spec.kind == "ctrl":
        block = ctrl_power_block(ring, spec.base, spec.power)
        return _apply(state, gates.Local(spec.sites, block))
    if spec.kind == "cz":
        a, b = spec.sites
        return gates.apply_controlled(state, gates.gate_power(ring, "Z", 1), a, b, spec.power)
    if spec.kind == "sft":
        return apply_sft(ring, state)
    raise ValueError(f"unknown gate kind {spec.kind!r}")
