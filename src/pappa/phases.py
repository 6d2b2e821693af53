"""Root-of-unity scalar system shared by every other module.

A ``PhaseRing`` fixes, for a qudit degree ``d``:

* ``q``     -- the primitive d-th root of unity exp(2*pi*i/d),
* ``zeta``  -- a square root of q satisfying zeta**(d*d) == 1,
* ``eps``   -- exp(i*pi/d), a primitive 2d-th root of unity,
* ``omega`` -- the normalized quadratic sum d**-0.5 * sum_j zeta**(j*j),
  which has modulus one,
* ``omega_sqrt`` -- a fixed square root of omega (principal branch).

Every phase is one read of the ring's read-only ``eps_table`` of eps**e,
e = 0..2d-1, built once per degree: q, zeta, eps and omega's terms too.
Exponents are reduced exactly mod 2d before the read, so they do not drift.
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass, field

import numpy as np

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class PhaseRing:
    """Immutable bundle of the scalar constants for one qudit degree."""

    d: int
    q: complex
    zeta: complex
    eps: complex
    omega: complex
    omega_sqrt: complex
    # zeta as a power of eps: eps**zeta_exp == zeta exactly.
    zeta_exp: int
    eps_table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "eps_table", _eps_powers(self.d))

    def q_pow(self, e: int) -> complex:
        """q**e with the exponent reduced mod d."""
        return self.eps_pow(2 * e)

    def zeta_pow(self, e: int) -> complex:
        """zeta**e with the exponent reduced mod 2d."""
        return self.eps_pow(self.zeta_exp * e)

    def eps_pow(self, e: int) -> complex:
        """eps**e with the exponent reduced mod 2d: one read of ``eps_table``."""
        return complex(self.eps_table[e % (2 * self.d)])


def make_phase_ring(d: int) -> PhaseRing:
    """The scalar system for qudit degree ``d`` (d >= 2), built once per degree.

    The square root of q is pinned to zeta = exp(i*pi/d) for even d and
    zeta = q**((d+1)/2) for odd d; both choices satisfy zeta**2 == q and
    zeta**(d*d) == 1, and recording the choice keeps every downstream
    phase deterministic.  A second call returns the same object, so the
    caches keyed by ring find it by identity.
    """
    if not isinstance(d, int) or d < 2:
        raise ValueError(f"qudit degree must be an integer >= 2, got {d!r}")
    return _phase_ring(int(d))


@functools.cache
def _eps_powers(d: int) -> np.ndarray:
    """eps**e for e = 0..2d-1, read-only: the one array every ring of degree d holds."""
    table = np.array([cmath.exp(1j * cmath.pi * e / d) for e in range(2 * d)])
    table.flags.writeable = False
    return table


@functools.cache
def _phase_ring(d: int) -> PhaseRing:
    zeta_exp = 1 if d % 2 == 0 else d + 1
    eps = _eps_powers(d).tolist()
    omega = sum(eps[(zeta_exp * j * j) % (2 * d)] for j in range(d)) / (d**0.5)
    # Principal square root: half the principal argument, taken in (-pi, pi].
    omega_sqrt = cmath.exp(1j * cmath.phase(omega) / 2) * abs(omega) ** 0.5
    return PhaseRing(
        d=d, q=eps[2], zeta=eps[zeta_exp % (2 * d)], eps=eps[1], omega=omega,
        omega_sqrt=omega_sqrt, zeta_exp=zeta_exp,
    )


def phase_pow(ring: PhaseRing, base: str, e: int) -> complex:
    """Integer power of one of the named phases ``q``, ``zeta``, ``eps``, ``omega``.

    Exponents of q are reduced mod d, of zeta and eps mod 2d, before
    evaluation; omega powers use exact angle multiplication.
    """
    if base not in ("q", "zeta", "eps", "omega"):
        raise ValueError(f"unknown phase base {base!r}")
    if base == "omega":  # |omega| == 1
        return cmath.exp(1j * e * cmath.phase(ring.omega))
    return getattr(ring, f"{base}_pow")(e)


def gauss_identity_residual(ring: PhaseRing, ell: int) -> float:
    """Residual of d**-0.5 * sum_k q**(k*ell) zeta**(k*k) == omega * zeta**(-ell*ell).

    Returns |LHS - RHS|; callers assert it is below tolerance.
    """
    if not 0 <= ell < ring.d:
        raise ValueError(f"ell must lie in 0..d-1, got {ell}")
    lhs = sum(ring.q_pow(k * ell) * ring.zeta_pow(k * k) for k in range(ring.d)) / (
        ring.d**0.5
    )
    rhs = ring.omega * ring.zeta_pow(-ell * ell)
    return abs(lhs - rhs)
