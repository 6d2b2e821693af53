"""Entangled resource states, density matrices, and entanglement entropy.

The maximally entangled family is produced by the string Fourier
transform acting on product states; closed forms (the q-power of |Max_k>
is the diagonal of one ``gates.Weyl`` word, Z**k1 x Z**(k1+k2) x ...):

    |Max>_n     = d**-((n-1)/2) * sum_{|l|=0} |l>
    |Max_k>     = SFT|k> = zeta**(-|k|**2) d**-((n-1)/2)
                  * sum_{|l|=|k|} q**(k1 l1 + (k1+k2) l2 + ... + |k| ln) |l>
    |GHZ>_n     = d**-0.5 * sum_k |k,...,k>
    |GHZ_k>     = (F x...x F)**-1 |Max_k>
                = zeta**(-|k|**2) d**-0.5 * sum_s q**(-s|k|)
                  |k1+s, k1+k2+s, ..., |k|+s>

Entropy is von Neumann entropy in nats, eigenvalues below 1e-12 treated
as null-space.  A pure state's ``entanglement_entropy`` comes from its
Schmidt values, the state laid out as a (cut, rest) matrix by the plan of
``gates._local_axes``, with no d**n x d**n matrix; ``DensityMatrix``,
``partial_trace`` and ``entropy`` are for mixed states.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .gates import QState, Weyl, _integer, _local_axes, basis_index, digit_sums
from .phases import PhaseRing

_EIG_CUTOFF = 1e-12
_NO_QUDITS = "a state needs at least one qudit"


def max_state(ring: PhaseRing, n: int) -> QState:
    """Uniform superposition over the zero-total-charge sector."""
    if n < 1:
        raise ValueError(_NO_QUDITS)
    d = ring.d
    v = np.zeros(d**n, dtype=complex)
    v[digit_sums(d, n) % d == 0] = float(d) ** (-(n - 1) / 2)
    return QState(d, n, v)


def _charges(ring: PhaseRing, ks) -> tuple[int, ...]:
    """``ks`` as a tuple, checked to hold at least one charge, each in 0..d-1."""
    ks = tuple(ks)
    if not ks:
        raise ValueError(_NO_QUDITS)
    if any(not 0 <= k < ring.d for k in ks):
        raise ValueError("charges must lie in 0..d-1")
    return ks


def ghz_state(ring: PhaseRing, n: int) -> QState:
    return ghz_basis(ring, (0,) * n)


def max_basis(ring: PhaseRing, ks) -> QState:
    """Closed form of SFT |k1,...,kn> (the generalized Max basis)."""
    ks = _charges(ring, ks)
    d, n = ring.d, len(ks)
    ktot = sum(ks)
    # q**(k1 l1 + (k1+k2) l2 + ...): the exponents of the word Z**k1 x Z**(k1+k2) x ...
    expo = Weyl.of_paulis(ring, n, [(j, "Z", p) for j, p in enumerate(accumulate(ks))]).exponents()
    v = float(d) ** (-(n - 1) / 2) * ring.eps_table[expo]
    v[(digit_sums(d, n) - ktot) % d != 0] = 0.0
    return QState(d, n, ring.zeta_pow(-ktot * ktot) * v)


def ghz_basis(ring: PhaseRing, ks) -> QState:
    """Closed form of (F x...x F)**-1 SFT |k>, the GHZ basis family."""
    ks = _charges(ring, ks)
    d, n = ring.d, len(ks)
    ktot = sum(ks)
    prefix = np.cumsum(ks)
    v = np.zeros(d**n, dtype=complex)
    for s in range(d):
        digits = tuple((int(p) + s) % d for p in prefix)
        v[basis_index(digits, d)] += d**-0.5 * ring.q_pow(-s * ktot)
    return QState(d, n, ring.zeta_pow(-ktot * ktot) * v)


@dataclass
class DensityMatrix:
    """Positive, trace-one operator on an n-qudit register."""

    d: int
    n: int
    matrix: np.ndarray

    def __post_init__(self):
        dim = self.d**self.n
        if self.matrix.shape != (dim, dim):
            raise ValueError("density matrix has wrong shape")
        if np.abs(self.matrix - self.matrix.conj().T).max() > 1e-10:
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(self.matrix) - 1.0) > 1e-10:
            raise ValueError("density matrix trace is not one")
        if np.linalg.eigvalsh(self.matrix).min() < -1e-9:
            raise ValueError("density matrix is not positive semidefinite")

    @classmethod
    def from_state(cls, state: QState) -> "DensityMatrix":
        v = _normalized(state)
        return cls(state.d, state.n, np.outer(v, v.conj()))


def _normalized(state: QState) -> np.ndarray:
    norm = np.linalg.norm(state.vector)
    if norm == 0:
        raise ValueError("a zero state cannot be normalised")
    return state.vector / norm


def _keep_sites(keep, n: int) -> tuple[int, ...]:
    """``keep`` as sorted distinct sites, checked to be nonempty and in 0..n-1."""
    keep = tuple(sorted({_integer(s, "site") for s in keep}))  # 1.0 would hit a plan cached for 1
    if not keep:
        raise ValueError("keep set must be nonempty")
    if keep[0] < 0 or keep[-1] >= n:
        raise ValueError("keep set out of range")
    return keep


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced density matrix on the (0-based) site set ``keep``."""
    keep = _keep_sites(keep, rho.n)
    d, n = rho.d, rho.n
    t = rho.matrix.reshape([d] * (2 * n))
    drop = [i for i in range(n) if i not in keep]
    for count, site in enumerate(drop):
        ax = site - count  # axes shift left as we trace out
        t = np.trace(t, axis1=ax, axis2=ax + (n - count))
    m = t.reshape(d ** len(keep), d ** len(keep))
    return DensityMatrix(d, len(keep), m)


def entropy(rho: DensityMatrix) -> float:
    """Von Neumann entropy -sum(lam ln lam) in nats over the support."""
    return _entropy_of(np.linalg.eigvalsh(rho.matrix))


def _entropy_of(lams: np.ndarray) -> float:
    lams = lams[lams > _EIG_CUTOFF]
    return float(-(lams * np.log(lams)).sum())


def entanglement_entropy(state: QState, cut) -> float:
    """Entropy of the reduced state on ``cut`` (a site or site set), from Schmidt values."""
    try:
        cut = (operator.index(cut),)
    except TypeError:
        pass
    d, n = state.d, state.n
    plan = _local_axes(d, n, _keep_sites(cut, n), ())
    m = _normalized(state).reshape(plan.view).transpose(plan.axes).reshape(plan.dw, -1)
    return _entropy_of(np.linalg.svd(m, compute_uv=False) ** 2)
