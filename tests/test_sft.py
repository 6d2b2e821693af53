"""String Fourier transform: both constructions, rotation order, pictures."""

import numpy as np
import pytest

from pappa import dsl, evaluator, gates, verify
from pappa.diagrams import Cap, Charge, Diagram, compose, sft_rotate
from pappa.evaluator import evaluate, sft_via_braids
from pappa.gates import (
    QState,
    all_digit_tuples,
    basis_index,
    gaussian_gate,
    sft_matrix,
)
from pappa.phases import make_phase_ring

from dense_eval import index_digits
from gatespec import GateSpec, apply_gate_spec

RINGS = {d: make_phase_ring(d) for d in (2, 3, 5)}


def mx(a):
    return float(np.abs(a).max())


def sft_matrix_loop(ring, n):
    """The closed form entry by entry: the oracle for the vectorised ``sft_matrix``."""
    d = ring.d
    dim = d**n
    out = np.zeros((dim, dim), dtype=complex)
    scale = float(d) ** ((1 - n) / 2)
    for kidx in range(dim):
        ks = index_digits(kidx, d, n)
        for lidx in range(dim):
            ls = index_digits(lidx, d, n)
            if (sum(ls) - sum(ks)) % d != 0:
                continue
            expo = 0
            prefix = 0
            for j2 in range(n):
                expo -= prefix * ks[j2]
                prefix += ls[j2]
            out[lidx, kidx] = scale * ring.zeta_pow(sum(ls) ** 2) * ring.q_pow(expo)
    return out


@pytest.mark.parametrize("d,n", [(2, 1), (2, 4), (2, 6), (3, 1), (3, 3), (3, 4), (5, 2), (5, 3)])
def test_sft_matrix_matches_entrywise_loop(d, n):
    assert mx(sft_matrix(RINGS[d], n) - sft_matrix_loop(RINGS[d], n)) < 1e-15


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_cross_oracle_braid_product_vs_matrix(d, n):
    ring = RINGS[d]
    assert mx(sft_matrix(ring, n) - sft_via_braids(ring, n)) < 1e-9


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_sft_unitary(d, n):
    s = sft_matrix(RINGS[d], n)
    assert mx(s @ s.conj().T - np.eye(RINGS[d].d ** n)) < 1e-10


def test_sft_n1_is_gaussian():
    for d in (2, 3, 5):
        assert mx(sft_matrix(RINGS[d], 1) - gaussian_gate(RINGS[d])) < 1e-12


def test_sft_bell_state_d2():
    s = sft_matrix(RINGS[2], 2)
    bell = np.zeros(4)
    bell[0] = bell[3] = 2**-0.5
    assert mx(s[:, 0] - bell) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_full_rotation_phase(d, n):
    """SFT**(2n) multiplies |k> by q**(|k| squared)."""
    ring = RINGS[d]
    power = np.linalg.matrix_power(sft_matrix(ring, n), 2 * n)
    for ks in all_digit_tuples(d, n):
        idx = basis_index(ks, d)
        col = power[:, idx].copy()
        col[idx] -= ring.q_pow(sum(ks) ** 2)
        assert mx(col) < 1e-9


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [2, 3])
def test_charge_sector_preservation(d, n):
    ring = RINGS[d]
    s = sft_matrix(ring, n)
    for ks in all_digit_tuples(d, n):
        for ls in all_digit_tuples(d, n):
            if (sum(ks) - sum(ls)) % d:
                assert abs(s[basis_index(ls, d), basis_index(ks, d)]) < 1e-12


def test_sft_adjoint_is_conjugate_coefficients():
    for d in (2, 3):
        ring = RINGS[d]
        s = sft_matrix(ring, 2)
        for ks in all_digit_tuples(d, 2):
            for ls in all_digit_tuples(d, 2):
                lhs = s.conj().T[basis_index(ls, d), basis_index(ks, d)]
                rhs = np.conj(s[basis_index(ks, d), basis_index(ls, d)])
                assert abs(lhs - rhs) < 1e-12


def _basis_caps_diagram(d, ks):
    """Product of charged caps in decreasing-height order: d**(n/4) |k>."""
    dia = Diagram.identity(d, 0)
    n = len(ks)
    for j in range(n):
        dia = dia.then(Cap(2 * j))
    for j, k in enumerate(ks):
        dia = dia.then(Charge(2 * j + 1, k, n - j))
    return dia


@pytest.mark.parametrize("d,n", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_sft_matrix_picture_entrywise(d, n):
    """The braided picture with charged caps and cups reproduces the matrix.

    Evaluating [charged cups] . [rotation staircase] . [charged caps]
    equals d**(n/2) <l|SFT|k> entrywise.
    """
    from pappa.diagrams import adjoint

    ring = RINGS[d]
    s = sft_matrix(ring, n)
    for ks in all_digit_tuples(d, n):
        caps = _basis_caps_diagram(d, ks)
        rotated = sft_rotate(caps)
        for ls in all_digit_tuples(d, n):
            bra = adjoint(_basis_caps_diagram(d, ls))
            closed = compose(bra, rotated)
            got = evaluate(ring, closed).matrix[0, 0]
            want = d ** (n / 2) * s[basis_index(ls, d), basis_index(ks, d)]
            assert abs(got - want) < 1e-9, (ks, ls)


@pytest.mark.parametrize("d,n", [(2, 2), (3, 2), (2, 3), (3, 3), (5, 2)])
def test_sft_rotate_matches_gate_on_states(d, n):
    ring = RINGS[d]
    rng = np.random.default_rng(13)
    s = sft_matrix(ring, n)
    for _ in range(3):
        ks = tuple(int(rng.integers(d)) for _ in range(n))
        caps = _basis_caps_diagram(d, ks)
        lhs = evaluate(ring, sft_rotate(caps)).matrix[:, 0]
        rhs = s @ evaluate(ring, caps).matrix[:, 0]
        assert mx(lhs - rhs) < 1e-9


def test_sft_rotate_rejects_odd_boundary():
    with pytest.raises(ValueError):
        sft_rotate(Diagram.identity(2, 3))


def test_double_rotation_of_max_diagram():
    """2n rotations of the n-cap diagram reproduce it with the q phase."""
    d, n = 3, 2
    ring = RINGS[d]
    dia = _basis_caps_diagram(d, (1, 2))
    base = evaluate(ring, dia).matrix
    rot = dia
    for _ in range(2 * n):
        rot = sft_rotate(rot)
    got = evaluate(ring, rot).matrix
    assert mx(got - ring.q_pow((1 + 2) ** 2) * base) < 1e-9


@pytest.mark.parametrize("d", [2, 3, 5])
def test_sft_controlled_gate_factorizations(d):
    from pappa.clifford import verify_sft_factorizations

    rep = verify_sft_factorizations(RINGS[d])
    assert rep.residual < 1e-9
    assert rep.extras["bell_corollary"] < 1e-9


@pytest.mark.parametrize(
    "d,n", [(d, n) for d in (2, 3, 5) for n in range(1, 5) if d**n <= 625]
)
def test_sft_spec_matches_dense_matrix(d, n):
    ring = RINGS[d]
    rng = np.random.default_rng(41)
    s = sft_matrix(ring, n)
    for _ in range(2):
        v = rng.normal(size=d**n) + 1j * rng.normal(size=d**n)
        out = apply_gate_spec(ring, QState(d, n, v), GateSpec("sft"))
        assert mx(out.vector - s @ v) < 1e-12


def test_sft_circuit_at_sixteen_qubits(monkeypatch):
    """SFT of a charge-neutral basis state: unit norm, log 2 at every one-qudit cut."""
    from pappa import dsl, entangle

    def refuse(*args, **kwargs):
        raise AssertionError("a d**n x d**n matrix was built")

    monkeypatch.setattr(gates, "apply_full_matrix", refuse)
    monkeypatch.setattr(gates, "sft_matrix", refuse)
    monkeypatch.setattr(entangle.DensityMatrix, "from_state", classmethod(refuse))
    n = 16
    flips = [1, 2, 5, 8, 9, 13]  # an even number of ones: total charge 0 mod 2
    text = "circuit d=2 n=16\n" + "".join(f"gate X@{s}\n" for s in flips) + "sft\n"
    circ = dsl.parse_circuit(text)
    state, regs = dsl.run_circuit(RINGS[2], circ)
    assert regs == {}
    assert abs(state.norm() - 1) < 1e-12
    for site in range(n):
        assert abs(entangle.entanglement_entropy(state, site) - np.log(2)) < 1e-9


@pytest.mark.parametrize("n", [0, -1])
def test_sft_suite_refuses_n_below_1(n):
    """n < 1 would skip every braid-product check and still pass."""
    with pytest.raises(ValueError, match=f"n must be at least 1, got {n}"):
        verify.run_suite("sft", 2, 1e-9, n=n)
    with pytest.raises(ValueError, match=f"n must be at least 1, got {n}"):
        verify.suite_sft(2, n_max=n)


def test_sft_suite_n1_runs_its_checks():
    res = verify.run_suite("sft", 2, 1e-9, n=1)
    assert res.passed
    assert [name for name, _ in res.lines if name.endswith("_n1")][:4] == [
        "cross_oracle_n1", "unitary_n1", "full_rotation_n1", "charge_sectors_n1"
    ]


@pytest.mark.parametrize("n", [0, -1])
def test_sft_on_no_qudits_is_refused(n):
    """On zero qudits the closed form gives sqrt(d) and the braids omega**0.5: not unitaries."""
    ring = RINGS[2]
    for build in (sft_matrix, evaluator.sft_locals):
        with pytest.raises(ValueError, match=f"at least one qudit, got n={n}"):
            build(ring, n)


def test_sft_paths_through_the_braids_refuse_zero_qudits():
    ring = RINGS[2]
    with pytest.raises(ValueError, match="at least one qudit, got n=0"):
        sft_via_braids(ring, 0)
    with pytest.raises(ValueError, match="at least one qudit, got n=-1"):
        sft_via_braids(ring, -1)
    with pytest.raises(ValueError, match="at least one qudit, got n=0"):
        evaluator.apply_sft(ring, QState(2, 0, np.ones(1, dtype=complex)))
    with pytest.raises(ValueError, match="at least one qudit, got n=0"):
        dsl.run_circuit(ring, dsl.parse_circuit("circuit d=2 n=0\nsft\n"))
