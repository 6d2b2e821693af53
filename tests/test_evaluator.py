"""Jordan-Wigner dictionary: charges, caps/cups, and the simulation map."""

import numpy as np
import pytest

from pappa import gates
from pappa.diagrams import Box, Cap, Charge, Cup, Diagram, compose, tensor
from pappa.evaluator import (
    QOperator,
    _cap_matrix,
    _cup_matrix,
    charge_word,
    evaluate,
    local_conjugation_op,
    parafermion_relations_check,
    resolution_of_identity_check,
)
from pappa.gates import gate_power, kron_all
from pappa.phases import make_phase_ring

RINGS = {d: make_phase_ring(d) for d in (2, 3, 5)}


def mx(a):
    return float(np.abs(a).max())


def ev(ring, dia, boxes=None):
    return evaluate(ring, dia, boxes).matrix


def test_charge_right_strand_is_x_with_z_string():
    for d in (2, 3):
        ring = RINGS[d]
        got = charge_word(ring, 3, 1, 1)
        want = kron_all(
            [gate_power(ring, "X", 1), gate_power(ring, "Z", 1), gate_power(ring, "Z", 1)]
        )
        assert mx(got - want) < 1e-12


def test_charge_left_strand_is_y_inverse_with_z_string():
    for d in (2, 3):
        ring = RINGS[d]
        got = charge_word(ring, 3, 0, 1)
        want = kron_all(
            [gate_power(ring, "Y", -1), gate_power(ring, "Z", 1), gate_power(ring, "Z", 1)]
        )
        assert mx(got - want) < 1e-12
        # charge -1 on the left strand reads Y (x) Z^-1 (x) Z^-1
        got = charge_word(ring, 3, 0, -1)
        want = kron_all(
            [gate_power(ring, "Y", 1), gate_power(ring, "Z", -1), gate_power(ring, "Z", -1)]
        )
        assert mx(got - want) < 1e-12


def test_charge_zero_is_identity():
    ring = RINGS[3]
    assert mx(charge_word(ring, 2, 3, 0) - np.eye(9)) < 1e-12


def test_charge_word_rejects_strand_out_of_range():
    for strand in (-1, 4):
        with pytest.raises(ValueError, match="out of range"):
            charge_word(RINGS[3], 2, strand, 1)


@pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (3, 3)])
def test_parafermion_relations(d, n):
    assert parafermion_relations_check(RINGS[d], n) < 1e-9


@pytest.mark.parametrize("d", [2, 3, 5])
def test_cap_cup_loop_and_orthogonality(d):
    ring = RINGS[d]
    # cup . cap in the empty context evaluates to sqrt(d)
    loop = ev(ring, Diagram.single(d, 0, Cap(0)).then(Cup(0)))
    assert abs(loop[0, 0] - d**0.5) < 1e-12
    # charged pairing: cup_{-l} cap_k = sqrt(d) delta_{lk}
    cap = _cap_matrix(ring, 0, 0)
    cup = _cup_matrix(ring, 1, 0)
    for k in range(d):
        for l in range(d):
            capk = charge_word(ring, 1, 1, k) @ cap
            cupl = cup @ charge_word(ring, 1, 1, -l)
            val = (cupl @ capk)[0, 0]
            assert abs(val - (d**0.5 if k == l else 0)) < 1e-12


def test_charged_cap_is_basis_ket():
    for d in (2, 3):
        ring = RINGS[d]
        cap = ev(ring, Diagram.single(d, 0, Cap(0)))
        for k in range(d):
            vec = (charge_word(ring, 1, 1, k) @ cap)[:, 0]
            expect = np.zeros(d)
            expect[k] = d**0.25
            assert mx(vec - expect) < 1e-12


def test_cap_inserts_at_slot():
    ring = RINGS[2]
    op = ev(ring, Diagram.single(2, 2, Cap(0)))  # new qudit before the existing one
    psi = np.array([0.0, 1.0])  # |1>
    out = op @ psi
    expect = np.zeros(4)
    expect[gates.basis_index((0, 1), 2)] = 2**0.25
    assert mx(out - expect) < 1e-12
    with pytest.raises(ValueError):
        _cap_matrix(ring, 1, 3)
    with pytest.raises(ValueError):
        _cup_matrix(ring, 1, 1)


def test_pauli_reduce_dictionary():
    """The X / Y / Z pictures act on charged caps per the dictionary."""
    for d in (2, 3, 5):
        ring = RINGS[d]
        for k in range(d):
            capk = Diagram.single(d, 0, Cap(0)).then(Charge(1, k, 10))
            # X picture: charge 1 on the right strand
            x_pic = compose(Diagram.identity(d, 2).then(Charge(1, 1, 0)), capk)
            capk1 = Diagram.single(d, 0, Cap(0)).then(Charge(1, k + 1, 10))
            assert mx(ev(ring, x_pic) - ev(ring, capk1)) < 1e-12
            # Y picture: charge -1 on the left strand, result zeta**(1-2k) cap_{k-1}
            y_pic = compose(Diagram.identity(d, 2).then(Charge(0, -1, 0)), capk)
            capkm = Diagram.single(d, 0, Cap(0)).then(Charge(1, k - 1, 10))
            assert (
                mx(ev(ring, y_pic) - ring.zeta_pow(1 - 2 * k) * ev(ring, capkm))
                < 1e-12
            )
            # Z picture: left charge 1 and right charge -1 at the same tier
            z_pic = compose(
                Diagram.identity(d, 2).then(Charge(0, 1, 0)).then(Charge(1, -1, 0)),
                capk,
            )
            assert mx(ev(ring, z_pic) - ring.q_pow(k) * ev(ring, capk)) < 1e-12


def test_z_picture_is_pauli_z_operator():
    for d in (2, 3, 5):
        ring = RINGS[d]
        pic = Diagram.identity(d, 2).then(Charge(0, 1, 0)).then(Charge(1, -1, 0))
        assert mx(ev(ring, pic) - gates.pauli_gate(ring, "Z")) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 5])
def test_resolution_of_identity(d):
    assert resolution_of_identity_check(RINGS[d]) < 1e-9


def test_evaluate_rejects_odd_boundary():
    with pytest.raises(ValueError):
        evaluate(RINGS[2], Diagram.identity(2, 3))


def test_functor_soundness_random_diagrams():
    from tests.test_diagrams import _random_diagram

    rng = np.random.default_rng(17)
    for d in (2, 3):
        ring = RINGS[d]
        for _ in range(25):
            a = _random_diagram(d, rng)
            b = _random_diagram(d, rng)
            if a.in_points == b.out_points:
                got = ev(ring, compose(a, b))
                want = ev(ring, a) @ ev(ring, b)
                assert mx(got - want) < 1e-9


def test_tensor_soundness_neutral_right_factor():
    from tests.test_diagrams import _random_diagram

    rng = np.random.default_rng(23)
    ring = RINGS[2]
    for _ in range(25):
        a = _random_diagram(2, rng)
        b = _random_diagram(2, rng)
        neutral_a = all(not isinstance(g, Charge) for g in a.gens)
        if not neutral_a:
            continue
        got = ev(ring, tensor(a, b))
        want = np.kron(ev(ring, a), ev(ring, b))
        assert mx(got - want) < 1e-9


def test_measurement_dictionary_one():
    """cup_{-l} on qudit j equals d**0.25 <l|_j with Z**-l on later qudits."""
    for d in (2, 3):
        ring = RINGS[d]
        n = 3
        j = 0
        for l in range(d):
            dia = Diagram.identity(d, 2 * n).then(Charge(2 * j + 1, -l, 0)).then(
                Cup(2 * j)
            )
            got = ev(ring, dia)
            bra = np.zeros((1, d))
            bra[0, l] = 1.0
            want = d**0.25 * kron_all(
                [bra] + [gate_power(ring, "Z", -l)] * (n - 1)
            )
            assert mx(got - want) < 1e-12


def test_cz_conjugation_exchanges_cap_heights():
    """C_Z on two charged caps equals the same caps with heights exchanged."""
    for d in (2, 3):
        ring = RINGS[d]
        cz = gates.cz_gate(ring, 2)
        for k1 in range(d):
            for k2 in range(d):
                caps = (
                    Diagram.identity(d, 0)
                    .then(Cap(0))
                    .then(Cap(2))
                    .then(Charge(1, k1, 1))
                    .then(Charge(3, k2, 0))
                )
                swapped = (
                    Diagram.identity(d, 0)
                    .then(Cap(0))
                    .then(Cap(2))
                    .then(Charge(1, k1, 0))
                    .then(Charge(3, k2, 1))
                )
                boxed = compose(Diagram.single(d, 4, Box("CZ", 0, 4)), caps)
                assert mx(ev(ring, boxed, {"CZ": cz}) - ev(ring, swapped)) < 1e-12


def test_local_conjugation_neutral_embedding():
    ring = RINGS[3]
    rng = np.random.default_rng(2)
    t = gates._random_unitary(3, rng)
    got = local_conjugation_op(ring, 2, (0, 1), t).matrix
    assert mx(got - kron_all([np.eye(3), t])) < 1e-12


def test_local_conjugation_charged_tail():
    """A charge-k one-qudit operator with a qudit to its right gains Z**k."""
    for d in (2, 3):
        ring = RINGS[d]
        for k in range(d):
            t = gate_power(ring, "X", k)  # charge k transformation
            got = local_conjugation_op(ring, 2, (1, 0), t, charge=k).matrix
            want = kron_all([t, gate_power(ring, "Z", k)])
            assert mx(got - want) < 1e-12
            # and the C_Z conjugation identity produces the same embedding
            cz = gates.cz_gate(ring, 2)
            conj = cz @ kron_all([t, np.eye(d)]) @ np.linalg.inv(cz)
            assert mx(conj - want) < 1e-12


def test_local_conjugation_routing_nonadjacent():
    """Masked qudits are routed to adjacency with b_0 and back."""
    ring = RINGS[2]
    rng = np.random.default_rng(8)
    t = gates._random_unitary(4, rng)
    got = local_conjugation_op(ring, 3, (1, 0, 1), t).matrix
    swap = gates.kron_all([np.eye(2), gates.sym_gate_matrix(ring, 0)])
    want = swap @ kron_all([t, np.eye(2)]) @ swap
    assert mx(got - want) < 1e-12


def test_local_conjugation_mask_mismatch():
    with pytest.raises(ValueError):
        local_conjugation_op(RINGS[2], 2, (1, 0), np.eye(4))
    with pytest.raises(ValueError, match="no qudit"):
        local_conjugation_op(RINGS[2], 2, (0, 0), np.eye(1))


def test_jordan_wigner_form_box_tails():
    """A charge-k box acquires Z**k strings on every later qudit."""
    ring = RINGS[3]
    rng = np.random.default_rng(5)
    t = gates._random_unitary(3, rng)
    dia = Diagram.identity(3, 6).then(Box("T", 2, 2, charge=2))
    got = ev(ring, dia, {"T": t})
    want = kron_all([np.eye(3), t, gate_power(ring, "Z", 2)])
    assert mx(got - want) < 1e-12


def test_qoperator_shape_validation():
    with pytest.raises(ValueError):
        QOperator(2, 1, 1, np.eye(3))


def test_evaluate_refuses_a_ring_of_another_degree():
    dia = Diagram.identity(2, 2).then(Charge(1, 1))
    with pytest.raises(ValueError, match="ring degree 3 and diagram degree 2 differ"):
        evaluate(RINGS[3], dia)
