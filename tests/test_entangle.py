"""Resource states, bases, partial trace, and entanglement entropy."""

import math
import time
import tracemalloc

import numpy as np
import pytest

from pappa.entangle import (
    DensityMatrix,
    entanglement_entropy,
    entropy,
    ghz_basis,
    ghz_state,
    max_basis,
    max_state,
    partial_trace,
)
from pappa.gates import (
    QState,
    all_digit_tuples,
    basis_index,
    fourier_gate,
    kron_all,
    sft_matrix,
)
from pappa.phases import make_phase_ring

RINGS = {d: make_phase_ring(d) for d in (2, 3, 4, 5, 7)}


def mx(a):
    return float(np.abs(a).max())


@pytest.mark.parametrize("d", [2, 3, 5])
def test_max2_closed_form(d):
    v = max_state(RINGS[d], 2).vector
    for l in range(d):
        assert abs(v[basis_index((l, (-l) % d), d)] - d**-0.5) < 1e-12
    assert abs(np.linalg.norm(v) - 1) < 1e-12


def test_max2_d2_is_bell():
    v = max_state(RINGS[2], 2).vector
    assert mx(v - np.array([2**-0.5, 0, 0, 2**-0.5])) < 1e-12


def test_max3_d3_nine_uniform_terms():
    # enumerate the zero-charge triples: 9 of them, amplitude 1/3 each
    v = max_state(RINGS[3], 3).vector
    triples = [ks for ks in all_digit_tuples(3, 3) if sum(ks) % 3 == 0]
    assert len(triples) == 9
    for ks in triples:
        assert abs(v[basis_index(ks, 3)] - 1 / 3) < 1e-12
    assert abs(np.count_nonzero(np.abs(v) > 1e-14) - 9) < 1


@pytest.mark.parametrize("d,n", [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2)])
def test_max_equals_sft_of_zero(d, n):
    ring = RINGS[d]
    assert mx(max_state(ring, n).vector - sft_matrix(ring, n)[:, 0]) < 1e-9


def test_ghz_states():
    assert mx(ghz_state(RINGS[2], 2).vector - max_state(RINGS[2], 2).vector) < 1e-12
    v = ghz_state(RINGS[2], 3).vector
    expect = np.zeros(8)
    expect[0] = expect[7] = 2**-0.5
    assert mx(v - expect) < 1e-12


@pytest.mark.parametrize("d,n", [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2)])
def test_ghz_max_fourier_duality_both_signs(d, n):
    ring = RINGS[d]
    f = fourier_gate(ring)
    fn = kron_all([f] * n)
    maxv = max_state(ring, n).vector
    ghz = ghz_state(ring, n).vector
    assert mx(fn @ maxv - ghz) < 1e-9
    assert mx(np.linalg.inv(fn) @ maxv - ghz) < 1e-9


@pytest.mark.parametrize("d,n", [(2, 2), (3, 2), (3, 3), (5, 2)])
def test_max_basis_equals_sft_columns(d, n):
    ring = RINGS[d]
    s = sft_matrix(ring, n)
    for ks in all_digit_tuples(d, n):
        got = max_basis(ring, ks).vector
        assert mx(got - s[:, basis_index(ks, d)]) < 1e-9


def test_max_basis_zero_charge_is_max():
    for d in (2, 3):
        for n in (2, 3):
            assert (
                mx(max_basis(RINGS[d], (0,) * n).vector - max_state(RINGS[d], n).vector)
                < 1e-12
            )


@pytest.mark.parametrize("d", [2, 3, 5])
def test_generalized_bell_family(d):
    """Max basis on (k, -k) is the q**(k l) weighted Bell family."""
    ring = RINGS[d]
    for k in range(d):
        got = max_basis(ring, (k, (-k) % d)).vector
        want = np.zeros(d * d, dtype=complex)
        for l in range(d):
            want[basis_index((l, (-l) % d), d)] = ring.q_pow(k * l) / d**0.5
        # the closed form carries zeta**(-|k|**2) with |k| the 0..d-1 sum
        ktot = k + (-k) % d
        want = ring.zeta_pow(-ktot * ktot) * want
        assert mx(got - want) < 1e-12


def test_max_basis_d3_example_coefficients():
    """Substituted closed form at d=3, k=(1,0), cross-checked against the gate."""
    ring = RINGS[3]
    got = max_basis(ring, (1, 0)).vector
    s = sft_matrix(ring, 2)
    assert mx(got - s[:, basis_index((1, 0), 3)]) < 1e-12
    amp = ring.zeta_pow(-1) * 3**-0.5
    for ls in all_digit_tuples(3, 2):
        want = amp * ring.q_pow(ls[0] + ls[1]) if sum(ls) % 3 == 1 else 0.0
        assert abs(got[basis_index(ls, 3)] - want) < 1e-12


@pytest.mark.parametrize("d,n", [(2, 2), (3, 2), (3, 3)])
def test_ghz_basis_duality(d, n):
    ring = RINGS[d]
    fn = kron_all([fourier_gate(ring)] * n)
    for ks in all_digit_tuples(d, n):
        got = ghz_basis(ring, ks).vector
        want = np.linalg.inv(fn) @ max_basis(ring, ks).vector
        assert mx(got - want) < 1e-9


def test_max_basis_orthonormal():
    for d in (2, 3):
        ring = RINGS[d]
        cols = [max_basis(ring, ks).vector for ks in all_digit_tuples(d, 2)]
        g = np.array([[np.vdot(a, b) for b in cols] for a in cols])
        assert mx(g - np.eye(d * d)) < 1e-9


def test_max_basis_charge_range():
    with pytest.raises(ValueError):
        max_basis(RINGS[2], (0, 2))
    with pytest.raises(ValueError):
        ghz_basis(RINGS[2], (-1, 0))


@pytest.mark.parametrize("d", [2, 3, 5])
def test_zero_qudit_states_are_refused(d):
    """An n = 0 amplitude d**(-(n-1)/2) would be the one entry sqrt(d), not a unit state."""
    ring = RINGS[d]
    for build, arg in ((max_state, 0), (max_basis, ()), (ghz_state, 0), (ghz_basis, ())):
        with pytest.raises(ValueError, match="at least one qudit"):
            build(ring, arg)


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(2, 1, np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(ValueError):
        DensityMatrix(2, 1, np.eye(2))  # trace 2
    DensityMatrix(2, 1, np.eye(2) / 2)


def test_partial_trace_product_state_pure():
    psi = QState.basis(3, 2, (1, 2))
    rho = partial_trace(DensityMatrix.from_state(psi), (0,))
    expect = np.zeros((3, 3))
    expect[1, 1] = 1.0
    assert mx(rho.matrix - expect) < 1e-12
    assert entropy(rho) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 5])
def test_partial_trace_max2_is_uniform(d):
    rho = DensityMatrix.from_state(max_state(RINGS[d], 2))
    for site in (0, 1):
        red = partial_trace(rho, (site,))
        assert mx(red.matrix - np.eye(d) / d) < 1e-12
        assert abs(np.trace(red.matrix) - 1) < 1e-12


def test_partial_trace_keep_order_and_errors():
    psi = QState.basis(2, 3, (1, 0, 1))
    rho = DensityMatrix.from_state(psi)
    red = partial_trace(rho, (2, 0))
    assert red.n == 2
    with pytest.raises(ValueError):
        partial_trace(rho, ())
    with pytest.raises(ValueError):
        partial_trace(rho, (5,))


def test_entropy_uniform_is_ln_d():
    for d in (2, 3, 5):
        rho = DensityMatrix(d, 1, np.eye(d) / d)
        assert abs(entropy(rho) - math.log(d)) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("n", [2, 3])
def test_sft_images_have_maximal_singleton_entropy(d, n):
    """Every singleton cut of SFT|k> has entropy ln d for neutral |k>."""
    ring = RINGS[d]
    s = sft_matrix(ring, n)
    target = math.log(d)
    for ks in all_digit_tuples(d, n):
        if sum(ks) % d:
            continue
        state = QState(d, n, s[:, basis_index(ks, d)])
        for site in range(n):
            assert abs(entanglement_entropy(state, site) - target) < 1e-8


def test_larger_cuts_reported_not_asserted():
    # behavior beyond singleton cuts is observable but carries no claim
    ring = RINGS[2]
    state = QState(2, 3, sft_matrix(ring, 3)[:, 0])
    value = entanglement_entropy(state, (0, 1))
    assert 0.0 <= value <= math.log(4) + 1e-12


# ---------------------------------------------------------------------------
# the loop forms the array expressions replaced, kept as bit-for-bit oracles
# ---------------------------------------------------------------------------


def max_state_loop(ring, n):
    d = ring.d
    v = np.zeros(d**n, dtype=complex)
    amp = float(d) ** (-(n - 1) / 2)
    for ks in all_digit_tuples(d, n):
        if sum(ks) % d == 0:
            v[basis_index(ks, d)] = amp
    return v


def ghz_state_loop(ring, n):
    d = ring.d
    v = np.zeros(d**n, dtype=complex)
    for k in range(d):
        v[basis_index((k,) * n, d)] = d**-0.5
    return v


def max_basis_loop(ring, ks):
    d, n = ring.d, len(ks)
    ktot = sum(ks)
    v = np.zeros(d**n, dtype=complex)
    amp = float(d) ** (-(n - 1) / 2)
    prefix = np.cumsum(ks)
    for ls in all_digit_tuples(d, n):
        if (sum(ls) - ktot) % d != 0:
            continue
        expo = int(sum(int(p) * l for p, l in zip(prefix, ls)))
        v[basis_index(ls, d)] = amp * ring.q_pow(expo)
    return ring.zeta_pow(-ktot * ktot) * v


def _sizes(d, limit=3000):
    n = 1
    while d**n <= limit:
        yield n
        n += 1


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7])
def test_max_and_ghz_states_bit_identical_to_loops(d):
    ring = RINGS[d]
    for n in _sizes(d):
        assert np.array_equal(max_state(ring, n).vector, max_state_loop(ring, n)), n
        assert np.array_equal(ghz_state(ring, n).vector, ghz_state_loop(ring, n)), n


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7])
def test_max_basis_bit_identical_to_loop(d):
    """Every ks while d**n <= 256, three seeded draws per size up to d**n <= 3000."""
    ring = RINGS[d]
    rng = np.random.default_rng(d)
    for n in _sizes(d):
        if d**n <= 256:
            draws = all_digit_tuples(d, n)
        else:
            draws = [tuple(int(k) for k in rng.integers(d, size=n)) for _ in range(3)]
        for ks in draws:
            assert np.array_equal(max_basis(ring, ks).vector, max_basis_loop(ring, ks)), ks


def _entropy_oracle(state, cut):
    sites = (cut,) if isinstance(cut, int) else tuple(cut)
    return entropy(partial_trace(DensityMatrix.from_state(state), sites))


@pytest.mark.parametrize("d,n", [(2, 2), (2, 5), (3, 3), (3, 4), (5, 2), (5, 3)])
def test_entanglement_entropy_matches_density_matrix_oracle(d, n):
    rng = np.random.default_rng(100 * d + n)
    cuts = [0, n - 1, (0, n - 1), tuple(range(n - 1, -1, -1)), (n - 1, 0, n - 1), tuple(range(n))]
    for _ in range(3):
        state = QState(d, n, rng.normal(size=d**n) + 1j * rng.normal(size=d**n))
        for cut in cuts:
            assert abs(entanglement_entropy(state, cut) - _entropy_oracle(state, cut)) < 1e-12
    # an unnormalised vector: both sides normalise it
    state = QState(d, n, 7.5 * max_basis(RINGS[d], (1,) + (0,) * (n - 1)).vector)
    for cut in cuts:
        assert abs(entanglement_entropy(state, cut) - _entropy_oracle(state, cut)) < 1e-12


def test_entanglement_entropy_takes_any_integer_site():
    state = QState(3, 3, max_basis(RINGS[3], (1, 2, 0)).vector)
    want = entanglement_entropy(state, 1)
    assert entanglement_entropy(state, np.int64(1)) == want
    assert entanglement_entropy(state, (np.int32(1),)) == want
    assert abs(want - math.log(3)) < 1e-12


def test_entanglement_entropy_deduplicates_repeated_sites():
    state = QState(2, 3, sft_matrix(RINGS[2], 3)[:, 5])
    assert entanglement_entropy(state, (1, 1)) == entanglement_entropy(state, 1)
    assert entanglement_entropy(state, (2, 0, 2)) == entanglement_entropy(state, (0, 2))


@pytest.mark.parametrize("cut", [(), [], 3, (0, 3), -1, (-1, 0)])
def test_entanglement_entropy_rejects_empty_or_out_of_range_cuts(cut):
    state = QState(2, 3, max_state(RINGS[2], 3).vector)
    with pytest.raises(ValueError):
        entanglement_entropy(state, cut)


def test_entanglement_entropy_at_twenty_qubits(monkeypatch):
    """Schmidt values of a d=2, n=20 state: no d**n x d**n matrix, each cut well under 1 s."""
    from pappa import entangle

    def refuse(*args, **kwargs):
        raise AssertionError("a d**n x d**n matrix was built")

    monkeypatch.setattr(entangle.np, "outer", refuse)
    monkeypatch.setattr(entangle.DensityMatrix, "from_state", classmethod(refuse))
    n = 20
    rng = np.random.default_rng(20)
    state = QState(2, n, rng.normal(size=2**n) + 1j * rng.normal(size=2**n))
    for cut in (0, n - 1, (3, 11)):
        start = time.perf_counter()
        value = entanglement_entropy(state, cut)
        assert time.perf_counter() - start < 1.0, cut
        k = 1 if isinstance(cut, int) else len(cut)
        assert 0.0 < value <= k * math.log(2) + 1e-12


def test_max_basis_keeps_no_digit_table_cached():
    """At d=2, n=16 the state is 1 MiB; a cached digit table would be 8 MiB more."""
    from pappa import gates

    gates.digit_table.cache_clear()
    tracemalloc.start()
    try:
        vector = max_basis(RINGS[2], (1, 0) * 8).vector
        assert vector.nbytes == 2**20
        del vector
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 2**21


def test_zero_state_has_no_entropy_or_density_matrix():
    zero = QState(2, 2, np.zeros(4, dtype=complex))
    with pytest.raises(ValueError, match="zero state"):
        entanglement_entropy(zero, 0)
    with pytest.raises(ValueError, match="zero state"):
        DensityMatrix.from_state(zero)
