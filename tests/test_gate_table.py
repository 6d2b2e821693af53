"""The one phase table and the one gate-block cache, held to the loop builders bit for bit."""

import numpy as np
import pytest

from pappa import entangle, evaluator, gates
from pappa.diagrams import Charge, Diagram, Sym
from pappa.phases import make_phase_ring

import gate_loops

DEGREES = range(2, 8)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("d", DEGREES)
def test_eps_table_is_built_once_per_ring(d):
    ring = make_phase_ring(d)
    eps = gates._eps_table(ring)
    assert gates._eps_table(ring) is eps and not eps.flags.writeable
    assert same_bits(eps, np.array([ring.eps_pow(e) for e in range(2 * d)]))
    q = gates._q_table(ring)
    assert gates._q_table(ring) is q and not q.flags.writeable
    assert same_bits(np.ascontiguousarray(q), gate_loops.q_table(ring))


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


def _outputs(ring):
    d = ring.d
    out = []
    for n in (1, 2, 3):
        for ks in gates.all_digit_tuples(d, n):
            out += [entangle.max_basis(ring, ks).vector, entangle.ghz_basis(ring, ks).vector]
        for s in range(2 * n):
            out += [evaluator.charge_word(ring, n, s, k) for k in range(-d, d + 1)]
    return out


@pytest.mark.parametrize("d", DEGREES)
def test_states_and_charge_words_keep_the_loop_builders_bits(monkeypatch, d):
    ring = make_phase_ring(d)
    table = _outputs(ring)
    monkeypatch.setattr(gates, "gate_block", gate_loops.gate_power)
    monkeypatch.setattr(gates, "_q_table", gate_loops.q_table)
    monkeypatch.setattr(entangle, "_q_table", gate_loops.q_table)
    loops = _outputs(ring)
    assert len(table) == len(loops)
    for i, (a, b) in enumerate(zip(table, loops)):
        assert same_bits(a, b), i


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


def _counting_gate_power(monkeypatch):
    calls = []
    real = gates.gate_power

    def counted(ring, name, power=1):
        calls.append((name, power))
        return real(ring, name, power)

    monkeypatch.setattr(gates, "gate_power", counted)
    return calls


def test_evaluate_builds_each_charge_head_once(monkeypatch):
    """Charges reuse the cached X**k and Y**-k heads: each (gate, power mod 4d)
    is built once, and a second evaluate builds none."""
    d = 3
    ring = make_phase_ring(d)
    charges = [(0, 1), (1, 2), (1, 2 + 4 * d), (2, -1), (3, 1), (0, 1 - 4 * d), (2, -1)]
    diagram = Diagram(d, 4, 4, tuple(Charge(s, k) for s, k in charges))
    gates._gate_block.cache_clear()
    built = _counting_gate_power(monkeypatch)
    first = evaluator.evaluate(ring, diagram).matrix
    assert sorted(built) == sorted([("Y", 4 * d - 1), ("X", 2), ("Y", 1), ("X", 1)])
    built.clear()
    second = evaluator.evaluate(ring, diagram).matrix
    assert built == []
    assert same_bits(first, second)


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
