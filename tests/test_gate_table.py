"""The one phase table and the one gate-block cache, held to the loop builders bit for bit."""

import cmath

import numpy as np
import pytest

from pappa import entangle, evaluator, gates
from pappa.diagrams import Charge, Diagram, Sym
from pappa.phases import make_phase_ring

import gate_loops
from tests import dense_eval

DEGREES = range(2, 8)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def bits(z):
    return np.complex128(z).tobytes()


@pytest.mark.parametrize("d", range(2, 10))
def test_eps_table_is_built_once_per_ring(d):
    """The ring's table is one read-only array of exp(i pi e / d), computed here,
    and every phase the ring hands out is one of its entries, bit for bit."""
    ring = make_phase_ring(d)
    eps = ring.eps_table
    assert ring.eps_table is eps and make_phase_ring(d).eps_table is eps
    with pytest.raises(ValueError, match="read-only"):
        eps[0] = 1
    assert same_bits(eps, np.array([cmath.exp(1j * cmath.pi * e / d) for e in range(2 * d)]))
    z = ring.zeta_exp
    assert [bits(ring.q), bits(ring.zeta), bits(ring.eps)] == [bits(eps[2]), bits(eps[z]), bits(eps[1])]
    for e in range(-4 * d, 4 * d + 1):
        got = [ring.eps_pow(e), ring.q_pow(e), ring.zeta_pow(e)]
        assert all(type(g) is complex for g in got), e
        want = [eps[e % (2 * d)], eps[2 * e % (2 * d)], eps[z * e % (2 * d)]]
        assert list(map(bits, got)) == list(map(bits, want)), e


@pytest.mark.parametrize("d", DEGREES)
def test_gate_power_matches_the_loop_builders(d):
    ring = make_phase_ring(d)
    for name in "XYZFG":
        for p in range(-8 * d, 8 * d + 1):
            got = gates.gate_power(ring, name, p)
            assert same_bits(got, gate_loops.gate_power(ring, name, p)), (name, p)
            assert got.flags.writeable


@pytest.mark.parametrize("d", DEGREES)
def test_named_gates_and_closed_forms_match_the_loop_builders(d):
    ring = make_phase_ring(d)
    assert same_bits(gates.fourier_gate(ring), gate_loops.fourier_gate(ring))
    assert same_bits(gates.gaussian_gate(ring), gate_loops.gaussian_power(ring, 1))
    for m in range(-d, d + 1):
        assert same_bits(gates.sym_gate_matrix(ring, m), gate_loops.sym_gate_matrix(ring, m)), m
    for n in (1, 2, 3):
        assert same_bits(gates.sft_matrix(ring, n), gate_loops.sft_matrix(ring, n)), n
        for a in range(n):
            for b in range(n):
                if a != b:
                    want = gate_loops.cz_gate(ring, n, a, b)
                    assert same_bits(gates.cz_gate(ring, n, a, b), want)


@pytest.mark.parametrize("d", DEGREES)
def test_states_and_charge_words_keep_the_loop_builders_bits(d):
    """``max_basis`` keeps the digit loop's bits.  A charge word is one Weyl
    word, so each nonzero entry is one ``ring.eps_table`` entry; the Kronecker
    chain of ``dense_eval`` multiplies up to n rounded phases, each off by up
    to 5e-16, so the two agree to 1e-15 per extra factor."""
    ring = make_phase_ring(d)
    table = {z.tobytes() for z in ring.eps_table}
    for n in (1, 2, 3):
        for ks in gates.all_digit_tuples(d, n):
            assert same_bits(entangle.max_basis(ring, ks).vector, gate_loops.max_basis(ring, ks)), ks
        for s in range(2 * n):
            for k in range(-d, d + 1):
                word = evaluator.charge_word(ring, n, s, k)
                kron = dense_eval.charge_word(ring, n, s, k)
                assert np.abs(word - kron).max() <= 1e-15 * max(n - 1, 1), (n, s, k)
                assert all(z.tobytes() in table for z in word[word != 0]), (n, s, k)


def test_gate_power_refuses_unknown_names():
    with pytest.raises(ValueError, match="unknown gate"):
        gates.gate_power(make_phase_ring(3), "H", 1)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_gate_block_is_a_read_only_cache_keyed_mod_4d(d):
    ring = make_phase_ring(d)
    for name in "XYZFG":
        for p in (-4 * d - 1, -1, 0, 1, 4 * d + 1):
            block = gates.gate_block(ring, name, p)
            assert not block.flags.writeable
            assert gates.gate_block(ring, name, p + 4 * d) is block
            assert same_bits(block, gates.gate_power(ring, name, p)), (name, p)


def test_evaluate_of_charges_builds_no_gate_block(monkeypatch):
    """A charge run is one Weyl word: a charge-only evaluate reads no gate block."""
    d = 3
    ring = make_phase_ring(d)
    charges = [(0, 1), (1, 2), (1, 2 + 4 * d), (2, -1), (3, 1), (0, 1 - 4 * d), (2, -1)]
    diagram = Diagram(d, 4, 4, tuple(Charge(s, k, t % 2) for t, (s, k) in enumerate(charges)))
    gates._gate_block.cache_clear()
    built, real = [], gates.gate_power
    monkeypatch.setattr(gates, "gate_power", lambda *args: built.append(args) or real(*args))
    got = evaluator.evaluate(ring, diagram).matrix
    assert built == [] and gates._gate_block.cache_info().currsize == 0
    assert np.abs(got - dense_eval.evaluate(ring, diagram).matrix).max() < 1e-12


def test_evaluate_builds_each_sym_block_once(monkeypatch):
    """sym lines read the cached b_m (m mod d): a second evaluate builds none."""
    d = 3
    ring = make_phase_ring(d)
    diagram = Diagram(d, 4, 4, tuple(Sym(1, m) for m in (1, 2 + d, -1, 2, 0)))
    gates._sym_block.cache_clear()
    built = []
    real = gates.sym_gate_matrix
    monkeypatch.setattr(gates, "sym_gate_matrix", lambda ring, m: built.append(m) or real(ring, m))
    first = evaluator.evaluate(ring, diagram).matrix
    assert sorted(built) == [0, 1, 2]
    built.clear()
    second = evaluator.evaluate(ring, diagram).matrix
    assert built == []
    assert same_bits(first, second)
    assert same_bits(gates.sym_block(ring, -1), gate_loops.sym_gate_matrix(ring, -1))
