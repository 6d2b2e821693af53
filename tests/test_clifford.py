"""Clifford identities, group generation by BFS, and membership testing."""

import tracemalloc
from collections import deque

import numpy as np
import pytest

from pappa import clifford, gates
from pappa.clifford import (
    GroupReport,
    PhaselessUnitary,
    generate_group,
    is_clifford,
    tableau,
    verify_braid_gaussian_dressing,
    verify_cz_from_sft,
    verify_sft_factorizations,
)
from pappa.gates import (
    Local,
    Weyl,
    cz_gate,
    fourier_gate,
    gaussian_gate,
    pauli_gate,
    sft_matrix,
)
from pappa.phases import make_phase_ring

from dense_eval import index_digits

RINGS = {d: make_phase_ring(d) for d in (2, 3, 5)}


@pytest.mark.parametrize("d", [2, 3, 5])
def test_cz_from_sft_identity(d):
    rep = verify_cz_from_sft(RINGS[d])
    assert rep.residual < 1e-9
    # the rejected variant dressing is recorded and indeed fails
    assert rep.alternate_residual > 1e-3


@pytest.mark.parametrize("d", [2, 3, 5])
def test_sft_factorization_identities(d):
    rep = verify_sft_factorizations(RINGS[d])
    assert rep.residual < 1e-9
    assert rep.extras["factorization1"] < 1e-9
    assert rep.extras["factorization2"] < 1e-9
    assert rep.extras["bell_corollary"] < 1e-9


def test_bell_corollary_reproduces_bell_state_d2():
    ring = RINGS[2]
    x = pauli_gate(ring, "X")
    c1x = gates.controlled_gate(ring, 2, 0, 1, x)
    zero = np.zeros(4)
    zero[0] = 1.0
    got = np.linalg.inv(c1x) @ gates.kron_all([fourier_gate(ring), np.eye(2)]) @ zero
    bell = np.array([2**-0.5, 0, 0, 2**-0.5])
    assert np.abs(got - bell).max() < 1e-12


@pytest.mark.parametrize("d", [2, 3, 5])
def test_braid_clifford_identity(d):
    rep = verify_braid_gaussian_dressing(RINGS[d])
    assert rep.residual < 1e-9
    assert rep.extras["inverse_pair"] < 1e-9
    assert rep.alternate_residual > 1e-3


def test_canonicalization_kills_global_phase():
    rng = np.random.default_rng(3)
    u = gates._random_unitary(4, rng)
    for theta in rng.uniform(0, 2 * np.pi, size=8):
        a = PhaselessUnitary.of(u)
        b = PhaselessUnitary.of(np.exp(1j * theta) * u)
        assert np.abs(a.matrix - b.matrix).max() < 1e-9
        assert a.key() == b.key()
    # idempotent
    again = PhaselessUnitary.of(PhaselessUnitary.of(u).matrix)
    assert np.abs(again.matrix - PhaselessUnitary.of(u).matrix).max() < 1e-12


def of_oracle(m, tol=1e-9):
    """The scalar canonical form: ``PhaselessUnitary.of``'s bits, one matrix at a time."""
    flat = m.reshape(-1, order="F")
    idx = np.argmax(np.abs(flat) > tol)
    pivot = flat[idx]
    if abs(pivot) <= tol:
        raise ValueError("zero matrix cannot be canonicalized")
    return m * (pivot.conjugate() / abs(pivot))


def key_oracle(m):
    """The scalar hash key: ``PhaselessUnitary.key``'s bytes, one matrix at a time."""
    re = np.round(m.real / clifford._HASH_GRID).astype(np.int64)
    im = np.round(m.imag / clifford._HASH_GRID).astype(np.int64)
    return re.tobytes() + im.tobytes()


def _canonical_corpus():
    """Named gates at every power, the two-qudit SFT, their phase turns, and
    random, sparse, real and Fortran-ordered matrices."""
    rng = np.random.default_rng(11)
    for d in range(2, 6):
        ring = make_phase_ring(d)
        for name in "XYZFG":
            for p in range(-4 * d, 4 * d + 1):
                yield gates.gate_power(ring, name, p)
        s = sft_matrix(ring, 2)
        for turn in (1, -1, 1j, -1j, np.exp(1j * rng.uniform(-np.pi, np.pi))):
            yield turn * s
    for dim in (1, 2, 3, 4, 9, 16):
        for _ in range(80):
            m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            yield m
            yield np.asfortranarray(m)
            sparse = m * (rng.random((dim, dim)) < 0.2)
            sparse[rng.random((dim, dim)) < 0.3] = 1e-10  # below tol: never a pivot
            if (np.abs(sparse) > 1e-9).any():  # the zero case has its own check
                yield sparse
                yield sparse.real.copy()
    yield -np.eye(3) + 0j
    yield np.array([[complex(-1.0, -0.0), 0], [0, 1]])


def test_canonical_form_and_key_match_the_scalar_oracle_bit_for_bit():
    count = 0
    for m in _canonical_corpus():
        want = of_oracle(m)
        got = PhaselessUnitary.of(m)
        assert got.matrix.dtype == want.dtype and got.matrix.shape == want.shape
        assert got.matrix.tobytes() == want.tobytes(), m
        assert got.key() == key_oracle(want)
        count += 1
    assert count > 2000
    for zero in (np.zeros((2, 2)), np.full((3, 3), 1e-10 + 0j)):
        with pytest.raises(ValueError, match="zero matrix"):
            of_oracle(zero)
        with pytest.raises(ValueError, match="zero matrix"):
            PhaselessUnitary.of(zero)


def _single_qudit_generators(ring, n):
    gens = {}
    for site in range(n):
        for name in "XYZFG":
            gens[f"{name}{site}"] = Local((site,), gates.gate_power(ring, name, 1)).to_matrix(
                ring.d, n
            )
    return gens


def test_group_order_self_consistent_under_permutation():
    """BFS order for the 1-qubit group is its own oracle: rerun permuted."""
    ring = RINGS[2]
    gens = _single_qudit_generators(ring, 1)
    rep1 = generate_group(ring, 1, gens, cap=10_000)
    permuted = dict(reversed(list(gens.items())))
    rep2 = generate_group(ring, 1, permuted, cap=10_000)
    assert not rep1.cap_hit and not rep2.cap_hit
    assert rep1.order == rep2.order
    # F and G are themselves reachable (they are generators), SFT = G
    probe = generate_group(
        ring,
        1,
        gens,
        cap=10_000,
        probes={"sft": sft_matrix(ring, 1), "fourier": fourier_gate(ring)},
    )
    assert probe.membership["sft"] and probe.membership["fourier"]


def test_closure_is_a_group_spot_check():
    """Products of random closure elements stay in the closure."""
    ring = RINGS[2]
    gens = _single_qudit_generators(ring, 1)
    rep = generate_group(ring, 1, gens, cap=10_000)
    # regenerate the set to sample elements
    keys = set()
    frontier = [np.eye(2, dtype=complex)]
    seen = [np.eye(2, dtype=complex)]
    keys.add(PhaselessUnitary.of(np.eye(2, dtype=complex)).key())
    while frontier:
        cur = frontier.pop()
        for g in gens.values():
            nxt = PhaselessUnitary.of(g @ cur)
            if nxt.key() not in keys:
                keys.add(nxt.key())
                seen.append(nxt.matrix)
                frontier.append(nxt.matrix)
    assert len(keys) == rep.order
    rng = np.random.default_rng(0)
    for _ in range(25):
        a = seen[rng.integers(len(seen))]
        b = seen[rng.integers(len(seen))]
        assert PhaselessUnitary.of(a @ b).key() in keys
        assert PhaselessUnitary.of(np.linalg.inv(a)).key() in keys


def test_cz_in_two_qudit_closure_d2():
    """X,Y,Z,F,G on both qubits plus the SFT generate C_Z."""
    ring = RINGS[2]
    gens = _single_qudit_generators(ring, 2)
    gens["sft"] = sft_matrix(ring, 2)
    rep = generate_group(
        ring,
        2,
        gens,
        cap=30_000,
        probes={
            "cz": cz_gate(ring, 2),
            "cnot": gates.controlled_gate(ring, 2, 0, 1, pauli_gate(ring, "X")),
        },
    )
    assert rep.membership["cz"]
    assert rep.membership["cnot"]


def generate_group_loop(ring, n, generators, cap=200_000, probes=None, trail=None):
    """The FIFO BFS ``generate_group`` batched by level, one product at a time: its oracle.

    It canonicalizes and keys with the scalar oracles, not with ``PhaselessUnitary``.

    A ``trail`` list receives every element in discovery order, the identity first.
    """
    if ring.d**n > 81:
        raise ValueError("group generation is desk-scale only (d**n <= 81)")
    gens = list(generators.values())
    probes = probes or {}
    dim = ring.d**n
    start = of_oracle(np.eye(dim, dtype=complex))
    seen = {key_oracle(start)}
    frontier = deque([start])
    found = {name: False for name in probes}
    probe_canon = {name: of_oracle(m) for name, m in probes.items()}
    count = 1
    cap_hit = False
    if trail is not None:
        trail.append(start)
    while frontier:
        cur = frontier.popleft()
        for gen in gens:
            nxt = of_oracle(gen @ cur)
            key = key_oracle(nxt)
            if key in seen:
                continue
            seen.add(key)
            count += 1
            if trail is not None:
                trail.append(nxt)
            for name, canon in probe_canon.items():
                if not found[name] and np.abs(canon - of_oracle(nxt)).max() < 1e-8:
                    found[name] = True
            if count >= cap:
                cap_hit = True
                frontier.clear()
                break
            frontier.append(nxt)
    return GroupReport(
        order=count, cap_hit=cap_hit, membership=found, generator_count=len(gens)
    )


def _probes(ring, n):
    """Members (SFT, F, and C_Z on two qudits) and non-members (pi/8 at d=2, a random unitary)."""
    dim = ring.d**n
    out = {
        "sft": sft_matrix(ring, n),
        "fourier": Local((0,), fourier_gate(ring)).to_matrix(ring.d, n),
        "random": gates._random_unitary(dim, np.random.default_rng(dim)),
    }
    if n == 2:
        out["cz"] = cz_gate(ring, 2)
    if ring.d == 2:
        out["pi8"] = Local((0,), np.diag([1.0, np.exp(1j * np.pi / 4)])).to_matrix(2, n)
    return out


def _assert_matches_loop_at(ring, n, gens, probes, cap, trail):
    """Compare at ``cap``, probing also the elements found just before and after the cut.

    The report shows the discovery order only through the probes; the
    elements straddling the cut pin it where ``cap`` truncates a level.
    """
    near = range(max(cap - 3, 1), min(cap + 3, len(trail)))
    cut = {**probes, **{f"#{i}": trail[i] for i in near}}
    want = generate_group_loop(ring, n, gens, cap=cap, probes=cut)
    assert generate_group(ring, n, gens, cap=cap, probes=cut) == want, cap
    assert [want.membership[f"#{i}"] for i in near] == [i < want.order for i in near]
    return want


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("permute", [False, True])
def test_generate_group_matches_loop_oracle(d, permute):
    ring = make_phase_ring(d)
    gens = _single_qudit_generators(ring, 1)
    if permute:
        names = list(gens)
        np.random.default_rng(d).shuffle(names)
        gens = {name: gens[name] for name in names}
    probes = _probes(ring, 1)
    trail = []
    full = generate_group_loop(ring, 1, gens, probes=probes, trail=trail)
    assert generate_group(ring, 1, gens, probes=probes) == full
    assert not full.cap_hit and full.order == len(trail)
    assert full.membership["sft"] and full.membership["fourier"] and not full.membership["random"]
    for cap in (1, 2, 7, 100, full.order - 1, full.order):
        want = _assert_matches_loop_at(ring, 1, gens, probes, cap, trail)
        assert want.cap_hit is (cap <= full.order)
        assert want.order == min(max(cap, 2), full.order)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_generate_group_matches_the_loop_trail_at_every_cap(d):
    """Every cap from 0 to one past the order (at d=5 every cap to 500, then
    every 11th), against the loop oracle's discovery order: the order, ``cap_hit``
    and the flags of the elements on either side of the cut."""
    ring = make_phase_ring(d)
    gens = _single_qudit_generators(ring, 1)
    trail = []
    full = generate_group_loop(ring, 1, gens, trail=trail)
    caps = range(full.order + 2) if d < 5 else [*range(500), *range(500, full.order + 2, 11), full.order]
    for cap in caps:
        near = range(max(cap - 2, 1), min(cap + 2, len(trail)))
        order = min(max(cap, 2), full.order)
        want = GroupReport(order, cap <= full.order, {f"#{i}": i < order for i in near}, len(gens))
        assert generate_group(ring, 1, gens, cap=cap, probes={f"#{i}": trail[i] for i in near}) == want, cap


@pytest.mark.parametrize("batch_entries", [None, 11 * 20 * 7])
def test_generate_group_matches_loop_oracle_two_qubits(monkeypatch, batch_entries):
    """The second case splits each level into batches of 7 frontier elements:
    11 generators times the 20 entries of a two-qudit tableau, 7 times."""
    if batch_entries:
        monkeypatch.setattr(clifford, "_BATCH_ENTRIES", batch_entries)
    ring = RINGS[2]
    gens = _single_qudit_generators(ring, 2)
    gens["sft"] = sft_matrix(ring, 2)
    trail = []
    generate_group_loop(ring, 2, gens, cap=2003, trail=trail)
    want = _assert_matches_loop_at(ring, 2, gens, _probes(ring, 2), 2000, trail)
    assert want.cap_hit and want.order == 2000


def test_generate_group_edge_cases_match_loop_oracle():
    """No generators, the identity alone, and X, at caps 0 to 3; and no qudits,
    where every 1 x 1 unitary is the identity modulo phase."""
    ring = RINGS[2]
    x = pauli_gate(ring, "X")
    for n, gens in ((1, {}), (1, {"one": np.eye(2)}), (1, {"x": x}), (0, {}), (0, {"i": np.array([[1j]])})):
        for cap in (0, 1, 2, 3):
            probes = {"one": np.eye(2**n)}
            want = generate_group_loop(ring, n, gens, cap=cap, probes=probes)
            assert generate_group(ring, n, gens, cap=cap, probes=probes) == want, (n, gens, cap)


@pytest.mark.parametrize("n, cap", [(2, 2000), (3, 300)])
def test_generate_group_matches_loop_oracle_at_a_cap(n, cap):
    """d=3 on two and three qudits."""
    ring = RINGS[3]
    gens = _single_qudit_generators(ring, n)
    gens["sft"] = sft_matrix(ring, n)
    trail = []
    generate_group_loop(ring, n, gens, cap=cap + 3, trail=trail)
    want = _assert_matches_loop_at(ring, n, gens, _probes(ring, n), cap, trail)
    assert want.cap_hit and want.order == cap


def test_generate_group_refuses_what_is_no_clifford_generator():
    """Each refusal is one ValueError that names the generator, the probe or n,
    at every cap, so a wrongly sized generator is never cut into blocks."""
    ring = RINGS[2]
    x = pauli_gate(ring, "X")
    pi8 = np.diag([1.0, np.exp(1j * np.pi / 4)])
    for cap in (0, 1, 2, 3, 1000):
        for gens, probes, match in (
            ({"x": x, "zero": np.zeros((2, 2))}, {}, "generator 'zero' is not a Clifford unitary"),
            ({"x": x, "pi8": pi8}, {}, "generator 'pi8' is not a Clifford unitary"),
            ({"x": x, "twice": 2 * x}, {}, "generator 'twice' is not a Clifford unitary"),
            ({"sft2": sft_matrix(ring, 2)}, {}, r"generator 'sft2' has shape \(4, 4\), not \(2, 2\)"),
            ({"x": x, "three": np.eye(3)}, {}, r"generator 'three' has shape \(3, 3\)"),
            ({"x": x}, {"sft2": sft_matrix(ring, 2)}, r"probe 'sft2' has shape \(4, 4\)"),
            ({"x": x}, {"nil": np.zeros((2, 2))}, "probe 'nil' is the zero matrix"),
        ):
            with pytest.raises(ValueError, match=match) as err:
                generate_group(ring, 1, gens, cap=cap, probes=probes)
            assert "\n" not in str(err.value)
    with pytest.raises(ValueError, match="n=-1 is negative"):
        generate_group(ring, -1, {"x": x})
    with pytest.raises(TypeError, match="n 1.0 is not an integer"):
        generate_group(ring, 1.0, {"x": x})


def test_generate_group_probes_that_are_not_clifford_are_non_members():
    """A non-Clifford unitary, a scaled Clifford and a phased member, at d=2."""
    ring = RINGS[2]
    gens = _single_qudit_generators(ring, 1)
    probes = {
        "pi8": np.diag([1.0, np.exp(1j * np.pi / 4)]),
        "twice_f": 2 * fourier_gate(ring),
        "turned_f": np.exp(0.3j) * fourier_gate(ring),
    }
    got = generate_group(ring, 1, gens, probes=probes)
    assert got == generate_group_loop(ring, 1, gens, probes=probes)
    assert got.membership == {"pi8": False, "twice_f": False, "turned_f": True}


def _sl2_order(d):
    """|SL(2, Z_d)|, counted over all 2x2 matrices mod d."""
    a, b, c, e = np.meshgrid(*[np.arange(d)] * 4, indexing="ij")
    return int(((a * e - b * c) % d == 1).sum())


def _sp4_z2_order():
    """|Sp(4, Z_2)|, counted over all 2**16 binary 4x4 matrices."""
    m = (np.arange(2**16)[:, None] >> np.arange(16) & 1).reshape(-1, 4, 4)
    j = np.kron(np.array([[0, 1], [1, 0]]), np.eye(2, dtype=int))
    form = m.transpose(0, 2, 1) @ j @ m % 2
    return int((form == j).all(axis=(1, 2)).sum())


@pytest.mark.parametrize("d", range(2, 8))
def test_single_qudit_clifford_order_is_d2_times_sl2(d):
    ring = make_phase_ring(d)
    rep = generate_group(ring, 1, _single_qudit_generators(ring, 1))
    assert not rep.cap_hit
    assert rep.order == d * d * _sl2_order(d)


def test_two_qubit_clifford_order_is_16_times_sp4():
    ring = RINGS[2]
    gens = _single_qudit_generators(ring, 2)
    gens["sft"] = sft_matrix(ring, 2)
    rep = generate_group(ring, 2, gens, cap=30_000)
    assert not rep.cap_hit
    assert rep.order == 16 * _sp4_z2_order()


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [1, 2])
def test_sft_is_clifford(d, n):
    ring = RINGS[d]
    assert is_clifford(ring, sft_matrix(ring, n))


def test_pi8_gate_is_not_clifford():
    ring = RINGS[2]
    t = np.diag([1.0, np.exp(1j * np.pi / 4)])
    assert not is_clifford(ring, t)


def test_identity_is_clifford():
    for d in (2, 3):
        for n in (1, 2):
            assert is_clifford(RINGS[d], np.eye(d**n, dtype=complex))


def test_is_clifford_rejects_non_unitary():
    with pytest.raises(ValueError):
        is_clifford(RINGS[2], np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))


def test_named_gates_are_clifford():
    for d in range(2, 8):
        ring = make_phase_ring(d)
        for name in "XYZFG":
            assert is_clifford(ring, gates.gate_power(ring, name, 1)), (d, name)
        assert is_clifford(ring, cz_gate(ring, 2)), d
        for name in "XZ":
            assert is_clifford(ring, gates.ctrl_block(ring, name)), (d, name)


def _word_row(word):
    return [*word.a, *word.b, word.c]


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("n", [1, 2])
def test_tableau_rows_are_the_words_of_the_images(d, n):
    """Row j is u X_j u**-1 and row n + j is u Z_j u**-1, read by ``of_matrix``."""
    ring = RINGS[d]
    f, g = fourier_gate(ring), gaussian_gate(ring)
    for u in (sft_matrix(ring, n), Local((n - 1,), f @ g).to_matrix(d, n), np.eye(d**n)):
        tab = tableau(ring, u)
        assert tab.shape == (2 * n, 2 * n + 1) and tab.dtype == np.int64
        for row, (p, site) in enumerate((p, site) for p in "XZ" for site in range(n)):
            image = u @ Local((site,), pauli_gate(ring, p)).to_matrix(d, n) @ u.conj().T
            assert tab[row].tolist() == _word_row(Weyl.of_matrix(ring, n, image, 1e-8)), (p, site)
    assert np.array_equal(tableau(ring, np.eye(d**n)), np.eye(2 * n, 2 * n + 1, dtype=np.int64))


def test_tableau_refusals():
    """Not square, not d**n, not unitary: ValueError; unitary but not Clifford: None."""
    ring = RINGS[2]
    assert tableau(ring, np.diag([1.0, np.exp(1j * np.pi / 4)])) is None
    assert tableau(ring, gates._random_unitary(4, np.random.default_rng(0))) is None
    for bad, match in (
        (np.eye(2)[:1], "not square"),
        (np.eye(3), "not a power of d"),
        (np.zeros((2, 2)), "expect a unitary"),
        (2 * pauli_gate(ring, "X"), "expect a unitary"),
    ):
        with pytest.raises(ValueError, match=match):
            tableau(ring, bad)
        with pytest.raises(ValueError, match=match):
            is_clifford(ring, bad)


def test_tableau_reads_one_pauli_at_a_time_on_a_large_register(monkeypatch):
    """On d=2, n=7 each read holds one Pauli's images: the peak stays under 8
    matrices (reading all 14 images at once takes about 51), and a pi/8 gate on
    qudit 0 stops after its first image, X_0's.  Split reads give the same tableaux."""
    ring, n = RINGS[2], 7
    sft = sft_matrix(ring, n)
    tracemalloc.start()
    assert is_clifford(ring, sft)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 8 * sft.nbytes
    calls = []
    reader = gates.pauli_words
    monkeypatch.setattr(gates, "pauli_words", lambda *args: calls.append(1) or reader(*args))
    assert not is_clifford(ring, Local((0,), np.diag([1.0, np.exp(1j * np.pi / 4)])).to_matrix(2, n))
    assert len(calls) == 1
    mats = [sft_matrix(ring, 2), cz_gate(ring, 2), Local((1,), fourier_gate(ring)).to_matrix(2, 2)]
    whole = [tableau(ring, m) for m in mats]
    gens = {**_single_qudit_generators(ring, 2), "sft": sft_matrix(ring, 2)}
    probes = _probes(ring, 2)
    want = generate_group(ring, 2, gens, cap=500, probes=probes)
    monkeypatch.setattr(clifford, "_READ_ENTRIES", 1)
    assert all(np.array_equal(tableau(ring, m), w) for m, w in zip(mats, whole))
    assert generate_group(ring, 2, gens, cap=500, probes=probes) == want


@pytest.mark.parametrize("d", range(2, 8))
def test_batched_products_match_the_word_fold_and_the_dense_product(d):
    """``_composer`` against two oracles: the fold eps**c times g's rows raised
    to (a, b) in row order, by ``Weyl.power`` and ``Weyl.compose``, and the
    tableau of the dense product g @ u, for random Cliffords g and u."""
    ring, rng = RINGS.get(d) or make_phase_ring(d), np.random.default_rng(400 + d)
    for n in (1, 2):
        gens = list(_single_qudit_generators(ring, n).values()) + [sft_matrix(ring, n)]

        def clifford_word():
            u = np.eye(d**n, dtype=complex)
            for k in rng.integers(len(gens), size=6):
                u = gens[k] @ u
            return u

        us, gs = [clifford_word() for _ in range(3)], [clifford_word() for _ in range(3)]
        u_tabs = np.array([tableau(ring, u) for u in us])
        g_tabs = np.array([tableau(ring, g) for g in gs])
        got = clifford._composer(g_tabs, d)(u_tabs).reshape(len(us), len(gs), 2 * n, 2 * n + 1)
        for i, u in enumerate(us):
            for j, g in enumerate(gs):
                assert np.array_equal(got[i, j], tableau(ring, g @ u)), (n, i, j)
                rows = [Weyl(d, tuple(t[:n]), tuple(t[n : 2 * n]), t[2 * n]) for t in g_tabs[j].tolist()]
                for k, (*v, c) in enumerate(u_tabs[i].tolist()):
                    word = Weyl(d, (0,) * n, (0,) * n, c)
                    for row, e in zip(rows, v):
                        word = word.compose(row.power(e))
                    assert got[i, j, k].tolist() == _word_row(word), (n, i, j, k)


def pauli_word_match_loop(ring, n, w, tol):
    """The column loops of the float matcher ``Weyl.of_matrix`` replaced, kept as its oracle."""
    d = ring.d
    dim = d**n
    for col in range(dim):
        mags = np.abs(w[:, col])
        top = np.argmax(mags)
        if abs(mags[top] - 1.0) > tol or mags.sum() - mags[top] > tol:
            return False
    shift0 = index_digits(int(np.argmax(np.abs(w[:, 0]))), d, n)
    for col in range(dim):
        ks = index_digits(col, d, n)
        ls = index_digits(int(np.argmax(np.abs(w[:, col]))), d, n)
        if any((l - k - s) % d for k, l, s in zip(ks, ls, shift0)):
            return False
    base = w[int(np.argmax(np.abs(w[:, 0]))), 0]
    zs = []
    for site in range(n):
        col = d ** (n - 1 - site)
        val = w[int(np.argmax(np.abs(w[:, col]))), col] / base
        match = [z for z in range(d) if abs(val - ring.q_pow(z)) < 10 * tol]
        if not match:
            return False
        zs.append(match[0])
    for col in range(dim):
        ks = index_digits(col, d, n)
        expect = base * ring.q_pow(sum(z * k for z, k in zip(zs, ks)))
        if abs(w[int(np.argmax(np.abs(w[:, col]))), col] - expect) > 10 * tol:
            return False
    return True


def _word_corpus(ring):
    """(n, w) pairs: conjugated Pauli generators of Cliffords and non-Cliffords, and odd words."""
    d = ring.d
    rng = np.random.default_rng(d)
    f, g = fourier_gate(ring), gaussian_gate(ring)
    z = np.linalg.qr(rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d)))[0]
    unitaries = [
        (1, sft_matrix(ring, 1)),
        (2, sft_matrix(ring, 2)),
        (2, cz_gate(ring, 2)),
        (2, gates.kron_all([f, g]) @ cz_gate(ring, 2) @ gates.kron_all([g, f]).conj().T),
        (1, f @ g @ f.conj().T),
        (2, z),
    ]
    if d == 2:
        unitaries.append((1, np.diag([1.0, np.exp(1j * np.pi / 4)])))
    out = []
    for n, u in unitaries:
        for site in range(n):
            for p in ("X", "Z"):
                word = Local((site,), pauli_gate(ring, p)).to_matrix(d, n)
                out.append((n, u @ word @ u.conj().T))
    word = gates.kron_all([pauli_gate(ring, "X"), pauli_gate(ring, "Z")]) * ring.zeta
    out.append((2, word))
    out.append((2, 1.01 * word))  # one entry per column, none of unit modulus
    leak = word.copy()
    leak[0, 0] = 1e-3  # a second, small entry in column 0
    out.append((2, leak))
    off = word.copy()
    off[:, d + 1] *= ring.q  # the column of |1,1>, not a unit column
    out.append((2, off))
    out.append((2, gates.sym_gate_matrix(ring, 0)))  # SWAP: digit shift (k2 - k1, k1 - k2)
    return out


@pytest.mark.parametrize("d", range(2, 8))
def test_pauli_word_match_agrees_with_loop_oracle(d):
    """``Weyl.of_matrix`` finds a word exactly where the loop oracle does.  From
    d = 3 on, some images of the random unitary read an odd step."""
    ring = make_phase_ring(d)
    flags = []
    for n, w in _word_corpus(ring):
        got = Weyl.of_matrix(ring, n, w, 1e-8) is not None
        assert got is pauli_word_match_loop(ring, n, w, 1e-8), n
        flags.append(got)
    assert True in flags and False in flags


@pytest.mark.parametrize("d", range(2, 8))
def test_of_matrix_reads_back_every_word(d):
    """of_matrix(W.apply(eye)) == W for random words on up to three qudits.  One
    unit column turned by eps is an odd step, which no word has: None even at tol 1."""
    ring, rng = make_phase_ring(d), np.random.default_rng(100 + d)
    for _ in range(60):
        n = int(rng.integers(1, 4))
        a, b = (tuple(rng.integers(d, size=n).tolist()) for _ in "ab")
        word = Weyl(d, a, b, int(rng.integers(2 * d)))
        m = word.apply(ring, np.eye(d**n, dtype=complex))
        assert Weyl.of_matrix(ring, n, m, 1e-12) == word
        m[:, d ** int(rng.integers(n))] *= ring.eps
        assert Weyl.of_matrix(ring, n, m, 1.0) is None
