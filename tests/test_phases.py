"""Scalar system: roots of unity, omega, and the quadratic sum identity."""

import cmath

import numpy as np
import pytest

from pappa.phases import gauss_identity_residual, make_phase_ring, phase_pow


def test_d2_constants():
    ring = make_phase_ring(2)
    assert abs(ring.zeta - 1j) < 1e-12
    # omega computed by the defining sum with zeta = i: (1 + i)/sqrt(2)
    assert abs(ring.omega - (1 + 1j) / 2**0.5) < 1e-12
    assert abs(ring.omega - cmath.exp(1j * cmath.pi / 4)) < 1e-12


def test_d3_constants():
    ring = make_phase_ring(3)
    # direct evaluation of the defining sum with zeta = q**2
    sum_oracle = sum(ring.q ** (2 * j * j % 3) for j in range(3)) / 3**0.5
    assert abs(ring.zeta - ring.q**2) < 1e-12
    assert abs(ring.omega - sum_oracle) < 1e-12
    assert abs(ring.omega - (-1j)) < 1e-12


@pytest.mark.parametrize("d", range(2, 9))
def test_ring_invariants(d):
    ring = make_phase_ring(d)
    assert abs(ring.zeta**2 - ring.q) < 1e-12
    assert abs(ring.zeta ** (d * d) - 1) < 1e-10
    assert abs(abs(ring.omega) - 1) < 1e-12
    assert abs(ring.omega_sqrt**2 - ring.omega) < 1e-12
    assert abs(ring.eps - cmath.exp(1j * cmath.pi / d)) < 1e-12
    expected_zeta = ring.eps if d % 2 == 0 else ring.eps ** (d + 1)
    assert abs(ring.zeta - expected_zeta) < 1e-12


@pytest.mark.parametrize("d", range(2, 9))
def test_gauss_identity(d):
    ring = make_phase_ring(d)
    for ell in range(d):
        assert gauss_identity_residual(ring, ell) < 1e-9


def test_gauss_identity_brute_force_d5():
    # independent brute-force evaluation of both sides at d=5, ell=4
    ring = make_phase_ring(5)
    lhs = sum(ring.q ** (k * 4) * ring.zeta ** (k * k) for k in range(5)) / 5**0.5
    rhs = ring.omega * ring.zeta ** (-16)
    assert abs(lhs - rhs) < 1e-9
    assert gauss_identity_residual(ring, 4) < 1e-9


def test_phase_pow_examples():
    assert abs(phase_pow(make_phase_ring(2), "zeta", 2) - (-1)) < 1e-12
    assert abs(phase_pow(make_phase_ring(3), "q", 3) - 1) < 1e-12
    assert abs(phase_pow(make_phase_ring(4), "eps", 8) - 1) < 1e-12


def test_phase_pow_exact_reduction():
    ring = make_phase_ring(7)
    # huge exponents reduce exactly before float evaluation
    assert abs(phase_pow(ring, "q", 7 * 10**9 + 3) - ring.q**3) < 1e-12
    assert abs(phase_pow(ring, "zeta", 14 * 10**9 + 5) - ring.zeta**5) < 1e-10


@pytest.mark.parametrize("d", range(2, 12))
def test_phase_pow_omega(d):
    """omega is an eighth root of unity; its powers are angle multiples."""
    ring = make_phase_ring(d)
    assert abs(phase_pow(ring, "omega", 8) - 1) < 1e-12
    if d <= 7:
        for e in range(-9, 10):
            assert abs(phase_pow(ring, "omega", e) - ring.omega**e) < 1e-12, e


def test_rejects_bad_degree():
    with pytest.raises(ValueError):
        make_phase_ring(1)
    with pytest.raises(ValueError):
        make_phase_ring(0)


@pytest.mark.parametrize("d", range(2, 9))
def test_one_ring_per_degree(d):
    assert make_phase_ring(d) is make_phase_ring(d)
    assert make_phase_ring(d).d == d


@pytest.mark.parametrize("bad", [[2], 2.0, np.int64(3), True, 1])
def test_non_integer_degrees_raise_value_error_before_the_cache(bad):
    with pytest.raises(ValueError, match="qudit degree must be an integer >= 2"):
        make_phase_ring(bad)


def test_omega_sqrt_principal_branch():
    for d in range(2, 9):
        ring = make_phase_ring(d)
        half = cmath.phase(ring.omega_sqrt)
        assert -cmath.pi / 2 < half <= cmath.pi / 2 + 1e-12
