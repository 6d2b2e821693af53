"""Diagram IR: composition, tensoring, adjoint, normalization, rewrites."""

import numpy as np
import pytest

from pappa.diagrams import (
    Box,
    BraidNeg,
    BraidPos,
    Cap,
    Charge,
    Cup,
    DiagScalar,
    Diagram,
    Sym,
    adjoint,
    compose,
    normalize,
    tensor,
    twisted_tensor_scalar,
)
from pappa.evaluator import evaluate
from pappa.phases import make_phase_ring

import normalize_loop

RINGS = {d: make_phase_ring(d) for d in (2, 3, 5)}


def ev(ring, dia, boxes=None):
    return evaluate(ring, dia, boxes).matrix


def mx(a):
    return float(np.abs(a).max())


def test_compose_loop_gives_quantum_dimension():
    for d in (2, 3, 4, 5):
        ring = make_phase_ring(d)
        cap = Diagram.single(d, 0, Cap(0))
        cup = Diagram.single(d, 2, Cup(0))
        loop = compose(cup, cap)
        assert loop.in_points == 0 and loop.out_points == 0
        assert abs(ev(ring, loop)[0, 0] - d**0.5) < 1e-12


def test_compose_identity_neutral():
    d = 3
    dia = Diagram.identity(d, 2).then(BraidPos(0)).then(Charge(0, 1))
    assert compose(Diagram.identity(d, 2), dia).gens == dia.gens
    assert compose(dia, Diagram.identity(d, 2)).gens == dia.gens


def test_compose_width_mismatch():
    d = 2
    with pytest.raises(ValueError):
        compose(Diagram.identity(d, 2), Diagram.identity(d, 4))


def test_compose_charges_merge_under_normalize():
    d = 5
    ring = RINGS[5]
    upper = Diagram.identity(d, 2).then(Charge(0, 2, 1))
    lower = Diagram.identity(d, 2).then(Charge(0, 4, 0))
    merged = normalize(compose(lower, upper))
    assert merged.gens == (Charge(0, 1, 0),)
    assert mx(ev(ring, merged) - ev(ring, compose(lower, upper))) < 1e-12


def test_compose_charge_seam_keeps_operator_order():
    """Charges across a seam apply in composition order, whatever their tiers."""
    ring = RINGS[3]
    a = Diagram.identity(3, 2).then(Charge(1, 1, 1))
    b = Diagram.identity(3, 2).then(Charge(0, 1, 0))
    assert mx(ev(ring, compose(a, b)) - ev(ring, a) @ ev(ring, b)) < 1e-12


def test_compose_charge_seam_fuzz():
    rng = np.random.default_rng(17)
    for d in (2, 3, 5):
        ring = RINGS[d]
        for _ in range(20):
            parts = []
            for _ in range(2):
                dia = Diagram.identity(d, 4)
                for _ in range(int(rng.integers(1, 4))):
                    strand, k, tier = (int(x) for x in rng.integers(0, [4, d, 3]))
                    dia = dia.then(Charge(strand, k, tier))
                parts.append(dia)
            a, b = parts
            assert mx(ev(ring, compose(a, b)) - ev(ring, a) @ ev(ring, b)) < 1e-12


def test_tensor_identity_strands():
    d = 2
    two = tensor(Diagram.identity(d, 1), Diagram.identity(d, 1))
    assert two.in_points == two.out_points == 2
    assert two.gens == ()


def test_tensor_two_charged_caps_is_product_basis():
    # side-by-side charged caps evaluate to d |k1,k2> (the 2-qudit picture)
    for d in (2, 3):
        ring = RINGS[d]
        for k1 in range(d):
            for k2 in range(d):
                capk = Diagram.single(d, 0, Cap(0)).then(Charge(1, k1, 1))
                capl = Diagram.single(d, 0, Cap(0)).then(Charge(1, k2, 0))
                pic = tensor(capk, capl)
                vec = ev(ring, pic)[:, 0]
                expect = np.zeros(d * d)
                expect[k1 * d + k2] = d**0.5
                assert mx(vec - expect) < 1e-12


def test_tensor_tier_swap_costs_twisting_scalar():
    # same diagrams, charge heights exchanged: evaluations differ by q**(k*l)
    for d in (2, 3):
        ring = RINGS[d]
        for k in range(1, d):
            for l in range(1, d):
                lo_hi = tensor(
                    Diagram.identity(d, 2).then(Charge(0, k, 0)),
                    Diagram.identity(d, 2).then(Charge(0, l, 1)),
                )
                hi_lo = tensor(
                    Diagram.identity(d, 2).then(Charge(0, k, 1)),
                    Diagram.identity(d, 2).then(Charge(0, l, 0)),
                )
                assert (
                    mx(ev(ring, lo_hi) - ring.q_pow(k * l) * ev(ring, hi_lo)) < 1e-12
                )


def test_adjoint_structure():
    d = 3
    assert adjoint(Diagram.single(d, 0, Cap(0)).then(Charge(1, 1))).gens == (
        Charge(1, -1, 0),
        Cup(0),
    )
    assert adjoint(Diagram.single(d, 2, BraidPos(0))).gens == (BraidNeg(0),)
    dia = (
        Diagram.identity(d, 2)
        .then(Charge(0, 2, 1))
        .then(BraidPos(0))
        .then(Cap(1))
        .then(Sym(1, 1))
        .then(Cup(2))
    )
    assert adjoint(adjoint(dia)) == dia


def test_adjoint_is_dagger_under_evaluation():
    rng = np.random.default_rng(4)
    for d in (2, 3):
        ring = RINGS[d]
        for _ in range(20):
            dia = _random_diagram(d, rng)
            assert mx(ev(ring, adjoint(dia)) - ev(ring, dia).conj().T) < 1e-9


def _random_diagram(d, rng, width=4, depth=5):
    dia = Diagram.identity(d, width)
    w = width
    for _ in range(depth):
        kind = rng.integers(6)
        if kind == 0 and w >= 2:
            dia = dia.then(Cup(int(rng.integers(w - 1))))
            w -= 2
        elif kind == 1 and w <= 6:
            dia = dia.then(Cap(int(rng.integers(w + 1))))
            w += 2
        elif kind == 2 and w >= 2:
            dia = dia.then(BraidPos(int(rng.integers(w - 1))))
        elif kind == 3 and w >= 2:
            dia = dia.then(BraidNeg(int(rng.integers(w - 1))))
        elif kind == 4 and w >= 4:
            odd = [s for s in range(1, w - 2) if s % 2 == 1]
            if odd:
                dia = dia.then(Sym(int(rng.choice(odd)), int(rng.integers(d))))
        elif w >= 1:
            dia = dia.then(
                Charge(int(rng.integers(w)), int(rng.integers(1, d)), int(rng.integers(4)))
            )
    return dia


def test_width_bookkeeping_fuzz():
    rng = np.random.default_rng(11)
    for d in (2, 3):
        for _ in range(50):
            dia = _random_diagram(d, rng)
            other = _random_diagram(d, rng)
            t = tensor(dia, other)
            assert t.in_points == dia.in_points + other.in_points
            assert t.out_points == dia.out_points + other.out_points
            adj = adjoint(dia)
            assert (adj.in_points, adj.out_points) == (dia.out_points, dia.in_points)
            if dia.out_points == other.in_points:
                c = compose(other, dia)
                assert (c.in_points, c.out_points) == (dia.in_points, other.out_points)


def test_out_of_range_generator_rejected():
    with pytest.raises(ValueError):
        Diagram.identity(2, 2).then(Charge(2, 1))
    with pytest.raises(ValueError):
        Diagram.identity(2, 2).then(Cup(1))
    with pytest.raises(ValueError):
        Diagram(2, 2, 2, (BraidPos(1),))


def _range_ok_with_special_cases(gen, w):
    """The range check ``Diagram`` made before it used each generator's ``span()`` alone."""
    if isinstance(gen, Cap):
        return 0 <= gen.strand <= w
    if isinstance(gen, Sym):
        return 0 <= gen.strand - 1 and gen.strand + 2 < w
    if isinstance(gen, Charge):
        lo, hi = gen.strand, gen.strand
    elif isinstance(gen, (Cup, BraidPos, BraidNeg)):
        lo, hi = gen.strand, gen.strand + 1
    else:
        lo, hi = gen.first, gen.first + gen.strands - 1
    return 0 <= lo and hi < w


def test_range_check_accepts_what_the_special_cases_did():
    for w in range(10):
        for s in range(-4, w + 5):
            gens = [Charge(s, 1), Cap(s), Cup(s), BraidPos(s), BraidNeg(s), Sym(s, 1)]
            gens += [Box("U", s, strands) for strands in (1, 2, 4)]
            for gen in gens:
                delta = {Cap: 2, Cup: -2}.get(type(gen), 0)
                try:
                    Diagram(2, w, w + delta, (gen,))
                    accepted = True
                except ValueError:
                    accepted = False
                assert accepted == _range_ok_with_special_cases(gen, w), (gen, w)


def _same_tier_run(dia, rng):
    """``dia`` followed by 2-4 charges of one tier on distinct strands (a twisted product)."""
    size = min(dia.out_points, int(rng.integers(2, 5)))
    strands = rng.choice(dia.out_points, size=size, replace=False)
    tier = int(rng.integers(-1, 3))
    for s in strands:
        dia = dia.then(Charge(int(s), int(rng.integers(1, dia.d)), tier))
    return dia


def test_normalize_idempotent_fuzz():
    rng = np.random.default_rng(7)
    twist = np.random.default_rng(8)
    for d in (2, 3, 5):
        ring = RINGS[d]
        for _ in range(40):
            dia = _random_diagram(d, rng)
            cases = [dia, _same_tier_run(dia, twist)] if dia.out_points >= 2 else [dia]
            for case in cases:
                n1 = normalize(case)
                assert normalize(n1) == n1
                if not n1.is_zero:
                    assert mx(ev(ring, n1) - ev(ring, case)) < 1e-9


def _dense_word(d, rng, depth=16):
    """A random word on at most 6 strands: caps, cups, braids, ``sym`` and charges of mixed tiers."""
    w = int(rng.integers(7))
    dia = Diagram.identity(d, w)
    for _ in range(depth):
        kind = int(rng.integers(6))
        if kind == 0 and w <= 4:
            dia, w = dia.then(Cap(int(rng.integers(w + 1)))), w + 2
        elif kind == 1 and w >= 2:
            dia, w = dia.then(Cup(int(rng.integers(w - 1)))), w - 2
        elif kind == 2 and w >= 2:
            braid = BraidPos if rng.integers(2) else BraidNeg
            dia = dia.then(braid(int(rng.integers(w - 1))))
        elif kind == 3 and w >= 4:
            dia = dia.then(Sym(int(rng.choice(range(1, w - 2, 2))), int(rng.integers(-d, d))))
        elif w >= 1:
            k, tier = int(rng.integers(-d, 2 * d)), int(rng.integers(-2, 3))
            dia = dia.then(Charge(int(rng.integers(w)), k, tier))
    return dia


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_normalize_matches_the_fixpoint_loop_oracle(d):
    """The three-pass loop gives the old fixpoint loop's normal form, scalar and all."""
    rng = np.random.default_rng(100 + d)
    for _ in range(300):
        dia = _dense_word(d, rng)
        assert repr(normalize(dia)) == repr(normalize_loop.normalize(dia)), dia


def test_normalize_charged_loop_is_zero():
    d = 3
    dia = Diagram.identity(d, 0).then(Cap(0)).then(Charge(1, 1)).then(Cup(0))
    out = normalize(dia)
    assert out.is_zero
    assert ev(RINGS[d], out)[0, 0] == 0


def test_normalize_neutral_loop_scalar():
    d = 4
    ring = make_phase_ring(d)
    dia = Diagram.identity(d, 0).then(Cap(0)).then(Cup(0))
    out = normalize(dia)
    assert out.gens == ()
    assert abs(out.scalar_value(ring) - 2.0) < 1e-12


def test_normalize_slide_charge_across_cap():
    for d in (2, 3):
        ring = RINGS[d]
        for k in range(1, d):
            dia = Diagram.identity(d, 0).then(Cap(0)).then(Charge(0, k))
            out = normalize(dia)
            # the canonical form carries the charge on the right leg
            assert all(
                not (isinstance(g, Charge) and g.strand == 0) for g in out.gens
            )
            assert mx(ev(ring, out) - ev(ring, dia)) < 1e-12
            # and the emitted scalar is zeta**(k*k)
            right = Diagram.identity(d, 0).then(Cap(0)).then(Charge(1, k))
            assert mx(ev(ring, dia) - ring.zeta_pow(k * k) * ev(ring, right)) < 1e-12


def test_normalize_zigzags():
    d = 2
    for s, cup in ((0, 1), (1, 0), (1, 2), (2, 1)):
        dia = Diagram.identity(d, 2).then(Cap(s)).then(Cup(cup))
        out = normalize(dia)
        assert out.gens == ()
        assert out.scalar == DiagScalar()


def test_zero_diagram_absorbs():
    d = 2
    zero = Diagram.zero(d, 2, 2)
    dia = Diagram.identity(d, 2).then(BraidPos(0))
    assert compose(zero, dia).is_zero
    assert compose(dia, zero).is_zero
    assert tensor(zero, dia).is_zero
    assert adjoint(zero).is_zero
    assert ev(RINGS[2], Diagram.zero(d, 2, 2)).max() == 0


def test_twisted_tensor_scalar_values():
    ring = RINGS[2]
    assert abs(twisted_tensor_scalar(ring, 1, 0) - 1) < 1e-12
    assert abs(twisted_tensor_scalar(ring, 1, 1) - (-1j)) < 1e-12
    ring3 = RINGS[3]
    for k in range(3):
        for l in range(3):
            got = twisted_tensor_scalar(ring3, k, l)
            assert abs(got - ring3.zeta ** ((-k * l) % 6)) < 1e-12


def test_box_round_trip():
    d = 2
    ring = RINGS[d]
    rng = np.random.default_rng(1)
    t = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    dia = Diagram.identity(d, 2).then(Box("T", 0, 2))
    assert mx(ev(ring, dia, {"T": t}) - t) < 1e-12
    dag = adjoint(dia)
    assert mx(ev(ring, dag, {"T": t}) - t.conj().T) < 1e-12
