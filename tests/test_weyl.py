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


def _random_word(d, n, rng):
    a, b = (tuple(rng.integers(d, size=n).tolist()) for _ in "ab")
    return Weyl(d, a, b, int(rng.integers(2 * d)))


@pytest.mark.parametrize("d", DEGREES)
def test_compose_is_the_word_of_the_dense_product(d):
    """w1.compose(w2) is the word ``of_matrix`` reads from w1's matrix times w2's,
    for random pairs on up to three qudits."""
    ring, rng = make_phase_ring(d), np.random.default_rng(200 + d)
    for _ in range(60):
        n = int(rng.integers(1, 4))
        w1, w2 = _random_word(d, n, rng), _random_word(d, n, rng)
        eye = np.eye(d**n, dtype=complex)
        want = Weyl.of_matrix(ring, n, w1.apply(ring, eye) @ w2.apply(ring, eye), 1e-9)
        assert want is not None and w1.compose(w2) == want, (w1, w2)


@pytest.mark.parametrize("d", DEGREES)
def test_power_is_the_word_of_the_dense_power(d):
    """w.power(k) is the word of the matrix power, on one or two qudits, for k
    from -3d to 3d and for large k of either sign.  A word's order divides 2d,
    so k and k mod 2d agree."""
    ring, rng = make_phase_ring(d), np.random.default_rng(300 + d)
    large = (10**6 + 1, -(10**6) - 3, 2 * d * 10**5 + d - 1)
    for _ in range(12):
        n = int(rng.integers(1, 3))
        w = _random_word(d, n, rng)
        m = w.apply(ring, np.eye(d**n, dtype=complex))
        for k in (*range(-3 * d, 3 * d + 1), *large):
            want = Weyl.of_matrix(ring, n, np.linalg.matrix_power(m, k), 1e-8)
            assert want is not None and w.power(k) == want, (w, k)
        for k in (10**30 + 7, -(10**30) - 5):
            assert w.power(k) == w.power(k % (2 * d)), (w, k)
        assert w.power(1) == w and w.power(2) == w.compose(w)


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
