"""Weyl words: the parafermion identities as equalities of integer words, and
the fold of Pauli factors against the Kronecker products of the loop builders."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from pappa.diagrams import Charge
from pappa.evaluator import _charge_run_matrix, charge_run_word
from pappa.gates import Weyl, kron_all
from pappa.phases import make_phase_ring

import gate_loops

DEGREES = range(2, 8)


def units(ring, n, *strands):
    """The word of c_{s_1} c_{s_2} ... (unit charges; the rightmost applies first)."""
    return charge_run_word(ring, n, [Charge(s, 1, i) for i, s in enumerate(strands)])


@pytest.mark.parametrize("d", DEGREES)
def test_parafermion_identities_hold_as_words(d):
    """c_s**d = 1 and c_s c_t = q c_t c_s (s < t) for every strand up to n = 6: 203 words per d."""
    ring, cases = make_phase_ring(d), 0
    for n in range(1, 7):
        one = Weyl(d, (0,) * n, (0,) * n, 0)
        for s in range(2 * n):
            assert units(ring, n, *[s] * d) == one, (n, s)
            cases += 1
            for t in range(s + 1, 2 * n):
                swapped = units(ring, n, t, s)
                assert units(ring, n, s, t) == replace(swapped, c=(swapped.c + 2) % (2 * d)), (n, s, t)
                cases += 1
    assert cases == 203


@pytest.mark.parametrize("d", DEGREES)
def test_pauli_fold_is_the_product_of_the_loop_builders(d):
    """Random runs of X, Y and Z powers on random sites, first factor applied first."""
    ring, rng = make_phase_ring(d), np.random.default_rng(d)
    for _ in range(30):
        n = int(rng.integers(1, 4))
        factors = [
            (int(rng.integers(n)), str(rng.choice(list("XYZ"))), int(rng.integers(-2 * d, 2 * d + 1)))
            for _ in range(int(rng.integers(1, 6)))
        ]
        c = int(rng.integers(-3 * d, 3 * d))
        want = ring.eps_pow(c) * np.eye(d**n)
        for site, name, k in factors:
            mats = [np.eye(d)] * n
            mats[site] = gate_loops.gate_power(ring, name, k)
            want = kron_all(mats) @ want
        word = Weyl.of_paulis(ring, n, factors, c)
        x = rng.normal(size=(d**n, 2)) + 1j * rng.normal(size=(d**n, 2))
        assert np.abs(word.apply(ring, np.eye(d**n, dtype=complex)) - want).max() < 1e-12, factors
        assert np.abs(word.apply(ring, x) - want @ x).max() < 1e-12, factors
        assert np.abs(word.apply(ring, x[:, 0]) - want @ x[:, 0]).max() < 1e-12, factors


def exact_charge_run(ring, n, charges):
    """A charge run column by column: the digits move and the eps exponent sums
    in Python ints, then one ``eps_pow`` per entry.  Higher tiers apply first,
    the right charge of a tier first, and a tier's pairs on distinct strands
    add the twist zeta**(-k*l)."""
    d, z = ring.d, ring.zeta_exp
    ordered = sorted(charges, key=lambda c: (-c.tier, -c.strand))
    pairs = itertools.combinations(charges, 2)
    twist = sum(a.k * b.k for a, b in pairs if a.tier == b.tier and a.strand != b.strand)
    out = np.zeros((d**n, d**n), dtype=complex)
    for col, digits in enumerate(itertools.product(range(d), repeat=n)):
        m, e = list(digits), -z * twist
        for ch in ordered:
            j, k = ch.strand // 2, ch.k
            if ch.strand % 2 == 0:  # Y**-k|m> = zeta**(k*k + 2*k*m) |m + k>
                e += z * (k * k + 2 * k * m[j])
            m[j] = (m[j] + k) % d
            e += sum(2 * k * m[i] for i in range(j + 1, n))  # Z**k = eps**(2*k*m)
        out[int("".join(map(str, m)), d), col] = ring.eps_pow(e)
    return out


@pytest.mark.parametrize("d", DEGREES)
def test_charge_runs_carry_the_exact_phases(d):
    """Every entry of a run is eps**e for the exact integer e, bit for bit."""
    ring, rng = make_phase_ring(d), np.random.default_rng(50 + d)
    for _ in range(40):
        n = int(rng.integers(1, 4))
        charges = [
            Charge(int(rng.integers(2 * n)), int(rng.integers(-2 * d, 2 * d + 1)), int(rng.integers(3)))
            for _ in range(int(rng.integers(1, 6)))
        ]
        want = exact_charge_run(ring, n, charges)
        assert np.array_equal(_charge_run_matrix(ring, n, charges), want), charges


def test_charge_fold_refuses_strands_outside_the_row():
    ring = make_phase_ring(3)
    for strand in (-1, 4):
        with pytest.raises(ValueError, match="out of range"):
            charge_run_word(ring, 2, [Charge(strand, 1)])
