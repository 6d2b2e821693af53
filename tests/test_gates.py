"""Single-qudit gates, controlled gates, measurement, and the tricks."""

import numpy as np
import pytest

from pappa import gates
from pappa.gates import (
    QState,
    apply_controlled,
    apply_site_gate,
    controlled_gate,
    cz_gate,
    fourier_gate,
    gate_power,
    gaussian_gate,
    measure,
    pauli_gate,
    project_site,
    sym_gate,
    sym_gate_matrix,
)
from pappa.phases import make_phase_ring
from pappa.verify import tricks_residuals

from dense_eval import index_digits
from gatespec import GateSpec, apply_gate_spec

RINGS = {d: make_phase_ring(d) for d in (2, 3, 4, 5, 7)}


def mx(a):
    return float(np.abs(a).max())


def test_qubit_case_matches_pauli_matrices():
    ring = RINGS[2]
    assert mx(pauli_gate(ring, "X") - np.array([[0, 1], [1, 0]])) < 1e-12
    assert mx(pauli_gate(ring, "Y") - np.array([[0, -1j], [1j, 0]])) < 1e-12
    assert mx(pauli_gate(ring, "Z") - np.diag([1, -1])) < 1e-12
    hadamard = np.array([[1, 1], [1, -1]]) / 2**0.5
    assert mx(fourier_gate(ring) - hadamard) < 1e-12
    assert mx(gaussian_gate(ring) - np.diag([1, 1j])) < 1e-12


def test_d3_z_diagonal():
    ring = RINGS[3]
    assert mx(pauli_gate(ring, "Z") - np.diag([1, ring.q, ring.q**2])) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7])
def test_weyl_relations(d):
    ring = RINGS[d]
    x, y, z = (pauli_gate(ring, w) for w in "XYZ")
    assert mx(x @ y - ring.q * y @ x) < 1e-12
    assert mx(y @ z - ring.q * z @ y) < 1e-12
    assert mx(z @ x - ring.q * x @ z) < 1e-12
    assert mx(x @ y @ z - ring.zeta * np.eye(d)) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7])
def test_fourier_and_gaussian_conjugation(d):
    ring = RINGS[d]
    x, y, z = (pauli_gate(ring, w) for w in "XYZ")
    f, g = fourier_gate(ring), gaussian_gate(ring)
    assert mx(f @ x @ np.linalg.inv(f) - z) < 1e-9
    assert mx(g @ x @ np.linalg.inv(g) - np.linalg.inv(y)) < 1e-9


@pytest.mark.parametrize("d", [2, 3, 5])
def test_gate_powers_consistent(d):
    ring = RINGS[d]
    for name in "XYZGF":
        base = gate_power(ring, name, 1)
        for k in range(-2, 2 * d + 1):
            direct = gate_power(ring, name, k)
            chained = np.linalg.matrix_power(base, k % (4 * d)) if k >= 0 else np.linalg.inv(
                np.linalg.matrix_power(base, (-k) % (4 * d))
            )
            # compare against an honest repeated product
            ref = np.eye(d, dtype=complex)
            for _ in range(abs(k)):
                ref = ref @ (base if k >= 0 else np.linalg.inv(base))
            assert mx(direct - ref) < 1e-9, (name, k)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7])
def test_unitarity(d):
    ring = RINGS[d]
    eye = np.eye(d)
    for m in (
        pauli_gate(ring, "X"),
        pauli_gate(ring, "Y"),
        pauli_gate(ring, "Z"),
        fourier_gate(ring),
        gaussian_gate(ring),
    ):
        assert mx(m @ m.conj().T - eye) < 1e-10


def test_cnot_is_controlled_x_d2():
    ring = RINGS[2]
    cnot = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
    assert mx(controlled_gate(ring, 2, 0, 1, pauli_gate(ring, "X")) - cnot) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 5])
def test_cz_diagonal_and_flavor_free(d):
    ring = RINGS[d]
    z = pauli_gate(ring, "Z")
    first = controlled_gate(ring, 2, 0, 1, z)
    second = controlled_gate(ring, 2, 0, 1, z, flavor="second-controls")
    cz = cz_gate(ring, 2)
    assert mx(first - cz) < 1e-12
    assert mx(second - cz) < 1e-12
    for k1 in range(d):
        for k2 in range(d):
            idx = gates.basis_index((k1, k2), d)
            assert abs(cz[idx, idx] - ring.q_pow(k1 * k2)) < 1e-12


def test_zero_control_acts_trivially():
    ring = RINGS[3]
    rng = np.random.default_rng(0)
    a = gates._random_unitary(3, rng)
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    psi = QState(3, 2, np.kron([1, 0, 0], v / np.linalg.norm(v)))
    out = apply_controlled(psi, a, 0, 1)
    assert mx(out.vector - psi.vector) < 1e-12


def test_controlled_gate_flavors_differ_on_general_a():
    ring = RINGS[3]
    a = pauli_gate(ring, "X")
    c1a = controlled_gate(ring, 2, 0, 1, a)
    ca1 = controlled_gate(ring, 2, 0, 1, a, flavor="second-controls")
    # C_{1,A}|k1,k2> = |k1, k2+k1>;  C_{A,1}|k1,k2> = |k1+k2, k2>
    for k1 in range(3):
        for k2 in range(3):
            src = gates.basis_index((k1, k2), 3)
            assert abs(c1a[gates.basis_index((k1, (k2 + k1) % 3), 3), src] - 1) < 1e-12
            assert abs(ca1[gates.basis_index(((k1 + k2) % 3, k2), 3), src] - 1) < 1e-12


def test_controlled_site_clash_rejected():
    ring = RINGS[2]
    with pytest.raises(ValueError):
        controlled_gate(ring, 2, 1, 1, pauli_gate(ring, "X"))


def test_measure_basis_state_deterministic():
    psi = QState.basis(3, 2, (2, 1))
    rng = np.random.default_rng(9)
    outcome, post, p = measure(psi, 0, rng)
    assert outcome == 2 and abs(p - 1) < 1e-12
    outcome, post, p = measure(post, 1, rng)
    assert outcome == 1 and abs(p - 1) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 5])
def test_measure_max2_uniform_and_correlated(d):
    from pappa.entangle import max_state

    ring = RINGS[d]
    psi = max_state(ring, 2)
    for outcome in range(d):
        post, p = project_site(psi, 0, outcome)
        assert abs(p - 1 / d) < 1e-12
        # post state collapses to |outcome, -outcome>
        expect = QState.basis(d, 2, (outcome, (-outcome) % d))
        assert mx(post.vector - expect.vector) < 1e-12


def test_measure_seed_determinism():
    ring = RINGS[3]
    psi = QState(3, 1, np.ones(3) / 3**0.5)
    first = [measure(psi, 0, np.random.default_rng(21))[0] for _ in range(5)]
    second = [measure(psi, 0, np.random.default_rng(21))[0] for _ in range(5)]
    assert first == second


@pytest.mark.parametrize("d", [2, 3, 5])
def test_sym_gate_family(d):
    ring = RINGS[d]
    swap = sym_gate_matrix(ring, 0)
    for k in range(d):
        for l in range(d):
            src = gates.basis_index((k, l), d)
            dst = gates.basis_index((l, k), d)
            assert abs(swap[dst, src] - 1) < 1e-12
    assert mx(swap @ swap - np.eye(d * d)) < 1e-12
    for m in range(d):
        bm = sym_gate_matrix(ring, m)
        assert mx(bm @ bm.conj().T - np.eye(d * d)) < 1e-12
        for k in range(d):
            for l in range(d):
                src = gates.basis_index((k, l), d)
                dst = gates.basis_index((l, k), d)
                assert abs(bm[dst, src] - ring.q_pow(m * k * l)) < 1e-12


def test_sym_gate_embedding_and_range():
    ring = RINGS[2]
    m = sym_gate(ring, 3, 3, 1)  # qudits 1,2 of three
    assert m.shape == (8, 8)
    with pytest.raises(ValueError):
        sym_gate(ring, 2, 2, 0)  # even strand is not a boundary
    with pytest.raises(ValueError):
        sym_gate(ring, 2, 3, 0)


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_circuit_tricks(d):
    residuals = tricks_residuals(RINGS[d], np.random.default_rng(5))
    assert set(residuals) == {"trick1_g+1", "trick1_g-1", "trick2_g+1", "trick2_g-1", "trick3", "trick4"}
    assert all(r < 1e-9 for r in residuals.values()), residuals


def test_trick4_identity_d2():
    ring = RINGS[2]
    for m in range(2):
        lhs = gate_power(ring, "Y", -m) @ gate_power(ring, "X", -m)
        rhs = ring.zeta_pow(-m * m) * gate_power(ring, "Z", m)
        assert mx(lhs - rhs) < 1e-12


def test_gate_spec_dispatch():
    from pappa.gates import sft_matrix

    ring = RINGS[3]
    psi = QState.basis(3, 2, (1, 2))
    out = apply_gate_spec(ring, psi, GateSpec("X", (0,), 2))
    assert mx(out.vector - QState.basis(3, 2, (0, 2)).vector) < 1e-12
    out = apply_gate_spec(ring, psi, GateSpec("ctrl", (0, 1), 1, base="X"))
    assert mx(out.vector - QState.basis(3, 2, (1, 0)).vector) < 1e-12
    out = apply_gate_spec(ring, psi, GateSpec("cz", (0, 1)))
    assert mx(out.vector - ring.q_pow(2) * psi.vector) < 1e-12
    out = apply_gate_spec(ring, psi, GateSpec("sym", (1,), m=1))
    assert mx(out.vector - ring.q_pow(2) * QState.basis(3, 2, (2, 1)).vector) < 1e-12
    out = apply_gate_spec(ring, QState.zero(3, 2), GateSpec("sft"))
    assert mx(out.vector - sft_matrix(ring, 2)[:, 0]) < 1e-12
    braided = apply_gate_spec(ring, psi, GateSpec("braid", (1,), sign=-1))
    assert abs(braided.norm() - 1) < 1e-12


def test_gate_spec_validation():
    with pytest.raises(ValueError):
        GateSpec("ctrl", (1, 1))
    with pytest.raises(ValueError):
        apply_gate_spec(RINGS[2], QState.zero(2, 2), GateSpec("X", (5,)))


# local kernels against their dense builders

LOCAL_SIZES = [(d, n) for d in (2, 3, 5) for n in range(1, 5) if d**n <= 625]


@pytest.mark.parametrize("d,n", LOCAL_SIZES)
def test_braid_spec_matches_dense_braid_op(d, n):
    from pappa.evaluator import braid_op

    ring = RINGS[d]
    rng = np.random.default_rng(31)
    for strand in range(2 * n - 1):
        for sign in (1, -1):
            psi = gates._random_state(ring, n, rng)
            out = apply_gate_spec(ring, psi, GateSpec("braid", (strand,), sign=sign))
            dense = braid_op(ring, n, strand, sign).matrix @ psi.vector
            assert mx(out.vector - dense) < 1e-12, (strand, sign)


@pytest.mark.parametrize("d,n", [(d, n) for d, n in LOCAL_SIZES if n >= 2])
def test_sym_spec_matches_dense_sym_gate(d, n):
    ring = RINGS[d]
    rng = np.random.default_rng(32)
    for strand in range(1, 2 * n - 1, 2):
        for m in range(d):
            psi = gates._random_state(ring, n, rng)
            out = apply_gate_spec(ring, psi, GateSpec("sym", (strand,), m=m))
            dense = sym_gate(ring, n, strand, m) @ psi.vector
            assert mx(out.vector - dense) < 1e-12, (strand, m)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_embedded_braid_matches_charge_sum(d):
    """The cached block, embedded, is the Jordan-Wigner charge-sum braid."""
    from pappa.evaluator import _braid_charge_sum, _braid_matrix

    ring = RINGS[d]
    n = 3 if d < 5 else 2
    for strand in range(2 * n - 1):
        for sign in (1, -1):
            got = _braid_matrix(ring, n, strand, sign)
            assert mx(got - _braid_charge_sum(ring, n, strand, sign)) < 1e-12


def test_local_kinds_build_no_full_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a d**n x d**n matrix was built")

    monkeypatch.setattr(gates, "apply_full_matrix", refuse)
    monkeypatch.setattr(gates, "sft_matrix", refuse)
    monkeypatch.setattr(gates, "sym_gate", refuse)
    ring = RINGS[3]
    psi = QState.zero(3, 4)
    for spec in (
        GateSpec("braid", (6,), sign=1),
        GateSpec("braid", (1,), sign=-1),
        GateSpec("sym", (3,), m=2),
        GateSpec("sft"),
    ):
        psi = apply_gate_spec(ring, psi, spec)
    assert abs(psi.norm() - 1) < 1e-12


def test_braid_and_sym_strand_ranges():
    ring = RINGS[2]
    psi = QState.zero(2, 2)
    for spec in (
        GateSpec("braid", (3,)),
        GateSpec("braid", (-1,)),
        GateSpec("sym", (2,)),
        GateSpec("sym", (3,)),
    ):
        with pytest.raises(ValueError):
            apply_gate_spec(ring, psi, spec)


@pytest.mark.parametrize("d,n", [(2, 0), (2, 1), (2, 5), (3, 4), (4, 3), (5, 3), (7, 2)])
def test_digit_table_matches_scalar_digits(d, n):
    table = gates.digit_table(d, n)
    assert table.shape == (d**n, n)
    for idx in range(d**n):
        assert tuple(table[idx].tolist()) == index_digits(idx, d, n)
        assert gates.basis_index(table[idx].tolist(), d) == idx
    assert np.array_equal(gates.digit_sums(d, n), table.sum(axis=1))
    assert list(gates.all_digit_tuples(d, n)) == [index_digits(i, d, n) for i in range(d**n)]


def test_digit_tables_are_cached_and_read_only():
    for build in (gates.digit_table, gates.digit_sums):
        table = build(3, 3)
        assert build(3, 3) is table
        with pytest.raises(ValueError):
            table[0] = 1
