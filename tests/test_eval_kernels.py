"""The matrix-free generator kernels of ``evaluate`` against the dense oracle.

Every kernel is applied to a random accumulator with a batch axis and
compared with the dense matrix of ``tests/dense_eval.py`` times that
accumulator; seeded random diagrams compare ``evaluate`` with the dense
``evaluate`` as a whole.
"""

from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pappa import evaluator, gates
from pappa.diagrams import Box, BraidNeg, BraidPos, Cap, Charge, Cup, Diagram, Sym, adjoint, compose
from pappa.phases import make_phase_ring
from tests import dense_eval

RINGS = {d: make_phase_ring(d) for d in (2, 3, 5)}
TOL = 1e-12


def batch(d, n, rng, cols=3):
    return rng.normal(size=(d**n, cols)) + 1j * rng.normal(size=(d**n, cols))


def mx(a):
    return float(np.abs(a).max())


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_cap_kernel_matches_dense(d, n):
    ring, rng = RINGS[d], np.random.default_rng(10 * d + n)
    x = batch(d, n, rng)
    for strand in range(2 * n + 1):
        dense = dense_eval.cap_matrix(ring, n, strand)
        assert mx(evaluator._cap(ring, n, strand, x) - dense @ x) < TOL
        assert np.array_equal(evaluator._cap_matrix(ring, n, strand), dense)
    with pytest.raises(ValueError):
        evaluator._cap(ring, n, 2 * n + 1, x)


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_cup_kernel_matches_dense(d, n):
    ring, rng = RINGS[d], np.random.default_rng(20 * d + n)
    x = batch(d, n, rng)
    for strand in range(2 * n - 1):
        dense = dense_eval.cup_matrix(ring, n, strand)
        assert mx(evaluator._cup(ring, n, strand, x) - dense @ x) < TOL
        assert np.array_equal(evaluator._cup_matrix(ring, n, strand), dense)
    with pytest.raises(ValueError):
        evaluator._cup(ring, n, 2 * n - 1, x)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_z_tail_is_the_kron_string(d):
    """The Z**k string on every qudit after ``site``, as a Weyl word, applied to a batch."""
    ring, rng = RINGS[d], np.random.default_rng(d)
    n = 3
    x = batch(d, n, rng)
    for site in range(n):
        for k in (-d - 1, -1, 0, 1, 2, d, 2 * d + 1):
            z = [np.eye(d)] * (site + 1) + [gates.gate_power(ring, "Z", k)] * (n - site - 1)
            word = gates.Weyl.of_paulis(ring, n, [(i, "Z", k) for i in range(site + 1, n)])
            assert mx(word.apply(ring, x) - gates.kron_all(z) @ x) < TOL


@pytest.mark.parametrize("d", [2, 3, 5])
def test_charge_runs_with_mixed_tiers_match_dense(d):
    ring, rng = RINGS[d], np.random.default_rng(30 + d)
    n = 3
    x = batch(d, n, rng)
    for _ in range(20):
        charges = [
            Charge(int(rng.integers(2 * n)), int(rng.integers(-d, d + 1)), int(rng.integers(3)))
            for _ in range(int(rng.integers(1, 6)))
        ]
        dense = dense_eval.charge_run_matrix(ring, n, charges)
        assert mx(evaluator._charge_run(ring, n, charges, x) - dense @ x) < TOL
        assert mx(evaluator._charge_run_matrix(ring, n, charges) - dense) < TOL


BOX_CASES = [
    Box("A", 0, 2),
    Box("A", 2, 2, charge=1),
    Box("A", 0, 2, charge=2, dagger=True),
    Box("B", 0, 4, charge=1),
    Box("B", 2, 4, dagger=True),
    Box("A", 1, 2),
    Box("A", 3, 2, dagger=True),
    Box("A", 1, 2, charge=1),
]


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("box", BOX_CASES, ids=repr)
def test_box_kernel_matches_dense(d, box):
    ring, rng = RINGS[d], np.random.default_rng(40 + d)
    n = 3
    boxes = {"A": batch(d, 1, rng, d), "B": batch(d, 2, rng, d * d)}
    x = batch(d, n, rng)
    dense = dense_eval.box_matrix(ring, n, box, boxes)
    assert mx(evaluator._box(ring, n, box, x, boxes) - dense @ x) < TOL


def test_box_binding_errors():
    ring = RINGS[2]
    x = np.eye(4, dtype=complex)
    with pytest.raises(ValueError, match="no matrix bound"):
        evaluator._box(ring, 2, Box("U", 0, 2), x, None)
    with pytest.raises(ValueError, match="expects a 2 x 2"):
        evaluator._box(ring, 2, Box("U", 0, 2), x, {"U": np.eye(4)})
    with pytest.raises(ValueError, match="straddling"):
        evaluator._box(ring, 3, Box("U", 1, 4), np.eye(8, dtype=complex), {"U": np.eye(4)})
    # a box covers whole qudits: 2w strands for some w >= 1
    x_gate = gates.gate_block(ring, "X", 1)
    for strands, m in ((0, np.array([[2.0]])), (1, np.array([[2.0]])), (3, x_gate)):
        with pytest.raises(ValueError, match="not a positive even number"):
            evaluator.evaluate(ring, Diagram.single(2, 4, Box("T", 0, strands)), {"T": m})


# ---------------------------------------------------------------------------
# whole diagrams
# ---------------------------------------------------------------------------


def _unitary(d, w, seed):
    return gates._random_unitary(d**w, np.random.default_rng(seed))


BOXES = {d: {"A": _unitary(d, 1, d), "B": _unitary(d, 2, d + 1)} for d in (2, 3, 5)}


@st.composite
def diagrams(draw, boxes=True, d=None, out=None):
    """A diagram at d in {2, 3, 5} of every generator kind; boxes too unless ``boxes`` is false.

    ``d`` fixes the degree; ``out`` closes the diagram with caps or cups to that many points.
    """
    d = draw(st.sampled_from([2, 3, 5])) if d is None else d
    pick = lambda lo, hi: draw(st.integers(lo, hi))  # noqa: E731
    widest = 6 if d == 5 else 8
    w = 2 * pick(0, 2)
    dia = Diagram.identity(d, w)
    for _ in range(pick(1, 8)):
        kinds = (["cap"] if w < widest else []) + (["cup", "charge", "braid", "box"] if w else [])
        kinds += ["sym", "straddle"] if w >= 4 else []
        kinds += ["wide"] if w >= 6 else []
        if not boxes:
            kinds = [k for k in kinds if k not in ("box", "straddle", "wide")]
        kind = draw(st.sampled_from(kinds))
        if kind == "cap":
            gen = Cap(pick(0, w))
        elif kind == "cup":
            gen = Cup(pick(0, w - 2))
        elif kind == "charge":
            gen = Charge(pick(0, w - 1), pick(-d, d), pick(0, 2))
        elif kind == "braid":
            gen = draw(st.sampled_from([BraidPos, BraidNeg]))(pick(0, w - 2))
        elif kind == "sym":
            gen = Sym(2 * pick(0, w // 2 - 2) + 1, pick(0, d - 1))
        elif kind == "box":
            gen = Box("A", 2 * pick(0, w // 2 - 1), 2, pick(0, d), draw(st.booleans()))
        elif kind == "wide":
            gen = Box("B", 2 * pick(0, w // 2 - 2), 4, pick(0, d), draw(st.booleans()))
        else:
            gen = Box("A", 2 * pick(0, w // 2 - 2) + 1, 2, 0, draw(st.booleans()))
        dia = dia.then(gen)
        w = dia.out_points
    while out is not None and w != out:
        dia = dia.then(Cap(pick(0, w)) if w < out else Cup(pick(0, w - 2)))
        w = dia.out_points
    return dia


@settings(derandomize=True, deadline=None, max_examples=80)
@given(diagrams())
def test_evaluate_matches_dense_evaluate(dia):
    ring = RINGS[dia.d]
    got = evaluator.evaluate(ring, dia, BOXES[dia.d]).matrix
    want = dense_eval.evaluate(ring, dia, BOXES[dia.d]).matrix
    assert got.shape == want.shape
    assert mx(got - want) < TOL


@settings(derandomize=True, deadline=None, max_examples=80)
@given(st.data())
def test_evaluate_of_compose_is_the_product(data):
    """Boxes, straddles and charge seams meet at the join of ``b`` below ``a``:
    up to three charges end ``b`` and up to three start ``a``."""
    a = data.draw(diagrams())
    d, w = a.d, a.in_points
    charge = st.builds(Charge, st.integers(0, max(w - 1, 0)), st.integers(-d, d), st.integers(0, 2))
    run = lambda: data.draw(st.lists(charge, max_size=3 if w else 0))  # noqa: E731
    b = reduce(Diagram.then, run(), data.draw(diagrams(d=d, out=w)))
    a = reduce(Diagram.then, run() + list(a.gens), Diagram.identity(d, w))
    ring, boxes = RINGS[d], BOXES[d]
    want = evaluator.evaluate(ring, a, boxes).matrix @ evaluator.evaluate(ring, b, boxes).matrix
    assert mx(evaluator.evaluate(ring, compose(a, b), boxes).matrix - want) < TOL


@settings(derandomize=True, deadline=None, max_examples=80)
@given(diagrams())
def test_evaluate_of_adjoint_is_the_conjugate_transpose(dia):
    ring, boxes = RINGS[dia.d], BOXES[dia.d]
    want = evaluator.evaluate(ring, dia, boxes).matrix.conj().T
    assert mx(evaluator.evaluate(ring, adjoint(dia), boxes).matrix - want) < TOL
