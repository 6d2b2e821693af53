"""``Local`` and ``apply_local``, the one kernel for local operations, against
dense builders that share no code with it."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pappa import dsl, evaluator, gates, protocols, verify
from pappa.diagrams import BraidNeg, BraidPos, Charge, Diagram, Sym
from pappa.evaluator import local_conjugation_op
from pappa.gates import Local, QState, apply_local, controlled_gate
from pappa.phases import make_phase_ring

from dense_eval import index_digits

RINGS = {d: make_phase_ring(d) for d in (2, 3, 5)}
EPS = np.finfo(float).eps


def dense_local(d, n, sites, block):
    """The d**n x d**n matrix of ``block`` on ``sites``, entry by entry."""
    dim = d**n
    out = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        ks = index_digits(col, d, n)
        for row in range(dim):
            ls = index_digits(row, d, n)
            if any(ks[j] != ls[j] for j in range(n) if j not in sites):
                continue
            r = c = 0
            for s in sites:
                r, c = r * d + ls[s], c * d + ks[s]
            out[row, col] = block[r, c]
    return out


def _random(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


LOCAL_CASES = [
    (d, n, w, seed)
    for d, n in ((2, 5), (3, 4), (5, 3))
    for w in (1, 2, 3)
    for seed in range(3)
]


@pytest.mark.parametrize("d,n,w,seed", LOCAL_CASES)
def test_apply_local_matches_index_loop(d, n, w, seed):
    rng = np.random.default_rng(100 * d + 10 * w + seed)
    sites = tuple(int(s) for s in rng.permutation(n)[:w])
    local = Local(sites, _random(rng, d**w, d**w))
    dense = dense_local(d, n, sites, local.block)
    x = _random(rng, d**n)
    assert np.abs(apply_local(x, d, n, local) - dense @ x).max() < 1e-12
    batch = _random(rng, d**n, 3)
    got = apply_local(batch, d, n, local)
    assert got.shape == batch.shape
    assert np.abs(got - dense @ batch).max() < 1e-12
    assert np.array_equal(local.to_matrix(d, n), dense)


@pytest.mark.parametrize("sites", [(0, 2), (2, 0), (3, 1), (1, 3, 0), (2, 0, 3)])
def test_apply_local_nonadjacent_sites_in_any_order(sites):
    d, n = 2, 4
    rng = np.random.default_rng(len(sites))
    local = Local(sites, _random(rng, d ** len(sites), d ** len(sites)))
    x = _random(rng, d**n)
    want = dense_local(d, n, sites, local.block) @ x
    assert np.abs(apply_local(x, d, n, local) - want).max() < 1e-12


def test_apply_local_rejects_bad_sites():
    x = np.zeros(8, dtype=complex)
    for sites in ((3,), (-1,), (0, 3)):
        with pytest.raises(ValueError, match="outside register"):
            apply_local(x, 2, 3, Local(sites, np.eye(2 ** len(sites))))


@pytest.mark.parametrize("sites", [(1, 1), (0, 2, 0), (2, 2, 2)])
def test_apply_local_rejects_repeated_sites(sites):
    x = np.zeros(8, dtype=complex)
    with pytest.raises(ValueError, match="repeat a qudit"):
        apply_local(x, 2, 3, Local(sites, np.eye(2 ** len(sites))))


@pytest.mark.parametrize("d,sites,size", [(2, (0,), 4), (2, (0, 1), 2), (3, (1,), 2), (3, (2,), 9)])
def test_apply_local_rejects_wrong_block_shape(d, sites, size):
    """A reshape would take a block of the wrong size on a few sites as one on more."""
    x = np.ones(d**3, dtype=complex)
    with pytest.raises(ValueError, match="block of shape"):
        apply_local(x, d, 3, Local(sites, np.eye(size)))
    with pytest.raises(ValueError, match="block of shape"):
        apply_local(x, d, 3, Local(sites, np.ones((d ** len(sites), 1))))


# ---------------------------------------------------------------------------
# the tensordot kernel and the copy-then-divide collapse, kept as oracles
# ---------------------------------------------------------------------------


def apply_local_tensordot(x, d, n, local):
    """The kernel ``apply_local`` used: ``tensordot`` over the sites, then ``moveaxis``."""
    sites, w = local.sites, len(local.sites)
    t = x.reshape([d] * n + list(x.shape[1:]))
    op = local.block.reshape([d] * (2 * w))
    t = np.tensordot(op, t, axes=(list(range(w, 2 * w)), list(sites)))
    return np.moveaxis(t, list(range(w)), list(sites)).reshape(x.shape)


def collapse_site_copy_then_divide(state, site, outcome, p):
    """The ``collapse_site`` body that copied the kept slice, then divided the whole vector."""
    d, n = state.d, state.n
    t = state.vector.reshape([d] * n)
    out = np.zeros_like(t)
    kept = (slice(None),) * site + (outcome,)
    out[kept] = t[kept]
    v = out.reshape(-1)
    if p > 0:
        v = v / np.sqrt(p)
    return v


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


TENSORDOT_CASES = [(d, w, seed) for d in (2, 3, 5) for w in (1, 2, 3) for seed in range(4)]


@pytest.mark.parametrize("d,w,seed", TENSORDOT_CASES)
def test_apply_local_is_bit_identical_to_tensordot(d, w, seed):
    rng = np.random.default_rng(1000 * d + 10 * w + seed)
    n = {2: 6, 3: 5, 5: 5}[d]
    random_sites = tuple(int(s) for s in rng.permutation(n)[:w])
    spread_reversed = tuple(range(0, 2 * w, 2))[::-1]
    last_reversed = tuple(range(n - w, n))[::-1]
    for sites in (random_sites, spread_reversed, last_reversed):
        block = _random(rng, d**w, d**w)
        for local in (Local(sites, block), Local(sites, block.T)):
            x = _random(rng, d**n)
            assert np.array_equal(apply_local(x, d, n, local), apply_local_tensordot(x, d, n, local))
            batch = _random(rng, d**n, 1 + seed)
            assert np.array_equal(apply_local(batch, d, n, local), apply_local_tensordot(batch, d, n, local))


@pytest.mark.parametrize("d,n", [(2, 1), (2, 5), (3, 3), (5, 2), (2, 16), (3, 10)])
def test_collapse_site_is_bit_identical_to_copy_then_divide(d, n):
    """Same values and the same signs of zeros, including p = 0 and negative
    zeros, on narrow and wide plans (the last sites of d=2, n=16 and d=3, n=10)."""
    rng = np.random.default_rng(10 * d + n)
    for trial in range(10):
        v = _random(rng, d**n)
        v[rng.random(d**n) < 0.3] = complex(-0.0, -0.0) if trial % 2 else 0j
        v[rng.random(d**n) < 0.1] = complex(-0.0, 1.0) if trial % 2 else complex(2.0, -0.0)
        psi = QState(d, n, v)
        site = int(rng.integers(n - 3, n)) if n > 6 else int(rng.integers(n))
        outcome = int(rng.integers(d))
        for p in (0.0, float(gates.site_probabilities(psi, site)[outcome]), 0.37):
            got = gates.collapse_site(psi, site, outcome, p).vector
            assert _same_bits(got, collapse_site_copy_then_divide(psi, site, outcome, p))


def _peak(run):
    """The most memory ``run()`` holds at once, above what was held before it."""
    run()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("sites", [(0,), (5,), (17,), (3, 4), (9, 2), (15,), (16,), (17, 0)])
def test_apply_local_allocates_at_most_two_states(sites):
    """The identity (diagonal), X and F, or ctrl-X and ctrl-F on two sites
    (d=2, n=18): the transposed copy is freed before the copy back, so at
    most the product and the result are alive at once."""
    d, n, ring = 2, 18, RINGS[2]
    x = np.ones(d**n, dtype=complex)
    named = gates.gate_block if len(sites) == 1 else gates.ctrl_block
    for block in (np.eye(d ** len(sites), dtype=complex), named(ring, "X"), named(ring, "F")):
        peak = _peak(lambda: apply_local(x, d, n, Local(sites, block)))
        assert peak <= 2 * x.nbytes + 64 * 1024, (block, peak / x.nbytes)


@pytest.mark.parametrize("site", [0, 15, 16, 17])
def test_meters_allocate_at_most_two_states(site):
    d, n = 2, 18
    psi = gates._random_state(RINGS[d], n, np.random.default_rng(site))
    p = float(gates.site_probabilities(psi, site)[1])
    for meter in (lambda: gates.site_probabilities(psi, site), lambda: gates.collapse_site(psi, site, 1, p)):
        peak = _peak(meter)
        assert peak <= 2 * psi.vector.nbytes + 64 * 1024, peak / psi.vector.nbytes


# ---------------------------------------------------------------------------
# the kernel follows the block's structure
# ---------------------------------------------------------------------------


def gate_class(d, name, k):
    """The structure of gate_power(name, k): Z, G diagonal; X**k, Y**k
    diagonal at k = 0 mod d; F**k dense at odd k, diagonal at k = 0 mod 4
    (and every even k at d = 2, where -m = m), else the monomial m -> -m.
    ctrl-A**k has the class of A**k: its block c is A**(k c), the worst at c = 1."""
    if name in "ZG":
        return "diagonal"
    if name in "XY":
        return "diagonal" if k % d == 0 else "monomial"
    if k % 2:
        return "dense"
    return "diagonal" if k % 4 == 0 or d == 2 else "monomial"


@pytest.mark.parametrize("d", range(2, 8))
def test_every_cached_block_has_its_structure(d):
    ring = make_phase_ring(d)
    cached = []
    for name in "XYZFG":
        for k in range(-4 * d, 4 * d + 1):
            block = gates.gate_block(ring, name, k)
            assert gates.block_structure(block) == gate_class(d, name, k), (name, k)
            cached.append(block)
        for e in range(-2 * d, 2 * d + 1):
            block = gates.ctrl_block(ring, name, e)
            assert gates.block_structure(block) == gate_class(d, name, e), (name, e)
            cached.append(block)
    for sign in (1, -1):
        even, odd = evaluator.braid_block(ring, 0, sign), evaluator.braid_block(ring, 1, sign)
        assert gates.block_structure(even) == "diagonal"
        assert gates.block_structure(odd) == "dense" and np.count_nonzero(odd) == d**3
        cached += [even, odd]
    for m in range(-d, d + 1):
        block = gates.sym_block(ring, m)
        assert gates.block_structure(block) == "monomial"
        assert gates.block_structure(gates.sym_gate_matrix(ring, m)) == "monomial"
        cached.append(block)
    # every cached block is frozen, so apply_local memoises its kernel
    assert all(gates._FROZEN.get(id(b)) is b and not b.flags.writeable for b in cached)


@pytest.mark.parametrize("d", range(2, 8))
def test_ctrl_f_even_powers_are_monomial(d):
    """ctrl-F**e at even e holds exact zeros off its d**2 entries: F**(e c)
    is the identity or m -> -m, so the block is monomial, and diagonal when
    4 divides e or d = 2."""
    ring = make_phase_ring(d)
    for e in range(-4 * d, 4 * d + 1, 2):
        block = gates.ctrl_block(ring, "F", e)
        assert np.count_nonzero(block) == d * d, e
        want = "diagonal" if e % 4 == 0 or d == 2 else "monomial"
        assert gates.block_structure(block) == want, e


def _unit(rng, size):
    return np.exp(2j * np.pi * rng.random(size))


@st.composite
def structured_locals(draw):
    """A random diagonal or monomial block, or a near miss (a monomial block
    with extra nonzeros), on random sites, and a unit-norm input."""
    d = draw(st.sampled_from([2, 3, 4, 5, 7]))
    w = draw(st.integers(1, 2))
    n = draw(st.integers(w, max(w, int(np.log(2401) / np.log(d)))))
    sites = tuple(draw(st.permutations(range(n)))[:w])
    batch = draw(st.sampled_from([(), (1,), (3,)]))
    kind, unit = draw(st.sampled_from(["diagonal", "monomial", "dense"])), draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dw = d**w
    phase = np.ones(dw, dtype=complex) if unit else _unit(rng, dw)
    src = np.arange(dw) if kind == "diagonal" else rng.permutation(dw)
    if kind == "diagonal" and not unit:
        phase[rng.random(dw) < 0.2] = 0
    block = np.zeros((dw, dw), dtype=complex)
    block[np.arange(dw), src] = phase
    if kind == "dense":
        zeros = np.flatnonzero(block == 0)
        block.flat[rng.choice(zeros, draw(st.integers(1, dw)), replace=False)] = _unit(rng, 1)
    elif np.array_equal(src, np.arange(dw)):
        kind = "diagonal"  # the permutation drawn was the identity
    x = rng.normal(size=(d**n, *batch)) + 1j * rng.normal(size=(d**n, *batch))
    return d, n, Local(sites, block), x / np.linalg.norm(x), kind


# (_WIDE, _SPAN): the narrow gather; a wide plan whose monomial takes over its
# span; the same with slot-by-slot run copies
LAYOUTS = [(2**62, gates._SPAN), (0, 2**62), (0, 0)]


@settings(max_examples=300, deadline=None)
@given(structured_locals())
def test_structured_kernels_match_tensordot(case):
    """Every layout of the monomial kernel (gather, span take, run copies)
    and of the diagonal kernel (view, rows), on writable and frozen blocks,
    gives the same bits, within 1e-15 per entry of ``tensordot``; a near
    miss takes the dense kernel, bit for bit."""
    d, n, local, x, kind = case
    assert gates.block_structure(local.block) == kind
    want = apply_local_tensordot(x, d, n, local)
    defaults, bits = (gates._WIDE, gates._SPAN), set()
    try:
        for gates._WIDE, gates._SPAN in LAYOUTS:
            gates._local_axes.cache_clear()
            frozen = Local(local.sites, gates.frozen(local.block.copy()))
            got = apply_local(x, d, n, local)
            assert got.shape == x.shape and got.dtype == want.dtype
            if kind == "dense":
                assert np.array_equal(got, want)
            assert np.abs(got - want).max() <= 1e-15
            assert _same_bits(apply_local(x, d, n, frozen), got)
            bits.add(got.tobytes())
    finally:
        gates._WIDE, gates._SPAN = defaults
        gates._local_axes.cache_clear()
    assert len(bits) == 1


# ---------------------------------------------------------------------------
# the kernels Local replaced, kept as oracles
# ---------------------------------------------------------------------------


def controlled_gate_columns(ring, n, control, target, a):
    """The column loop ``controlled_gate`` used: each basis column through
    ``apply_site_gate`` with A**k_control on the target."""
    d = ring.d
    dim = d**n
    m = np.zeros((dim, dim), dtype=complex)
    powers = [np.linalg.matrix_power(a, c) for c in range(d)]
    for idx in range(dim):
        col = np.zeros(dim, dtype=complex)
        col[idx] = 1.0
        c = index_digits(idx, d, n)[control]
        m[:, idx] = gates.apply_site_gate(QState(d, n, col), powers[c], target).vector
    return m


def apply_controlled_stacked(state, a, control, target, exponent=1):
    """The kernel ``apply_controlled`` used: one sub-state per control value."""
    d, n = state.d, state.n
    t = np.moveaxis(state.vector.reshape([d] * n), control, 0)
    tgt = target if target < control else target - 1
    pieces = []
    for c in range(d):
        sub = QState(d, n - 1, t[c].reshape(-1))
        if exponent * c != 0:
            sub = gates.apply_site_gate(sub, np.linalg.matrix_power(a, exponent * c), tgt)
        pieces.append(sub.vector.reshape([d] * (n - 1)))
    return np.moveaxis(np.stack(pieces, axis=0), 0, control).reshape(-1)


def local_conjugation_swaps(ring, n, mask, t, charge=0):
    """The swap network ``local_conjugation_op`` used: route the masked qudits
    to adjacency with b_0, apply ``t`` with a Z**charge tail, route back."""
    d = ring.d
    sites = [i for i, b in enumerate(mask) if b]
    first, w = sites[0], len(sites)
    perm, swaps = list(range(n)), []
    for idx, site in enumerate(sites):
        cur = perm.index(site)
        while cur > first + idx:
            swaps.append(cur - 1)
            perm[cur - 1], perm[cur] = perm[cur], perm[cur - 1]
            cur -= 1
    eye = np.eye(d, dtype=complex)
    route = np.eye(d**n, dtype=complex)
    for pos in swaps:
        swap = gates.sym_gate_matrix(ring, 0)
        route = gates.kron_all([eye] * pos + [swap] + [eye] * (n - pos - 2)) @ route
    tail = [gates.gate_power(ring, "Z", charge)] * (n - first - w)
    core = gates.kron_all([eye] * first + [t] + tail)
    return route.conj().T @ core @ route


def _gates(ring, rng):
    named = [gates.gate_power(ring, name, 1) for name in "XYZFG"]
    return named + [gates._random_unitary(ring.d, rng)]


@pytest.mark.parametrize("d,n", [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2), (5, 3)])
def test_controlled_gate_matches_column_loop(d, n):
    ring = RINGS[d]
    rng = np.random.default_rng(d + n)
    for a in _gates(ring, rng):
        for control in range(n):
            for target in range(n):
                if control == target:
                    continue
                want = controlled_gate_columns(ring, n, control, target, a)
                assert np.array_equal(controlled_gate(ring, n, control, target, a), want)
                flipped = controlled_gate(ring, n, target, control, a, flavor="second-controls")
                assert np.array_equal(flipped, want)


@pytest.mark.parametrize("d,n", [(2, 3), (2, 12), (3, 4), (5, 3)])
def test_apply_controlled_matches_stacked_substates(d, n):
    ring = RINGS[d]
    rng = np.random.default_rng(7 * d + n)
    pairs = [(0, n - 1), (n - 1, 0), (1, 0), (0, 1)]
    for a in _gates(ring, rng):
        for control, target in pairs:
            for exponent in (1, -1, 2):
                psi = gates._random_state(ring, n, rng)
                got = gates.apply_controlled(psi, a, control, target, exponent).vector
                want = apply_controlled_stacked(psi, a, control, target, exponent)
                assert np.abs(got - want).max() <= 4 * EPS, (control, target, exponent)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_cz_gate_is_its_diagonal(d):
    ring = RINGS[d]
    for n, a, b in ((2, 0, 1), (3, 2, 0)):
        cz = gates.cz_gate(ring, n, a, b)
        diag = [ring.q_pow(ks[a] * ks[b]) for ks in gates.all_digit_tuples(d, n)]
        assert np.array_equal(cz, np.diag(diag))


MASKS = [(1, 0), (0, 1), (1, 1), (1, 0, 1), (0, 1, 1), (1, 1, 0), (1, 0, 0), (0, 1, 0, 1)]


@pytest.mark.parametrize("d,mask", [(d, m) for d in (2, 3, 5) for m in MASKS if d ** len(m) <= 125])
def test_local_conjugation_matches_swap_network(d, mask):
    n, w = len(mask), sum(mask)
    ring = RINGS[d]
    rng = np.random.default_rng(sum(mask) + 3 * n + d)
    t = _random(rng, d**w, d**w)
    for charge in range(d):
        got = local_conjugation_op(ring, n, mask, t, charge).matrix
        want = local_conjugation_swaps(ring, n, mask, t, charge)
        # a charged tail multiplies t by q**k in BLAS, which may fuse the product
        assert np.abs(got - want).max() <= 4 * EPS * np.abs(t).max(), charge


# ---------------------------------------------------------------------------
# the walker resolves steps once
# ---------------------------------------------------------------------------


def _counting(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("d", [2, 3, 5])
def test_walker_builds_each_gate_once(monkeypatch, d):
    """Teleportation visits each cond step on all d**2 branches, but builds
    each gate once: the ctrl-X block's X**c, c < d, which its X cond step
    reads too, F**-1, and Z once per nonzero register value; a second walk
    builds nothing."""
    ring = RINGS[d]
    script = protocols.teleportation_script(ring)
    psi = gates._random_state(ring, 1, np.random.default_rng(d))
    gates._gate_block.cache_clear()
    gates._ctrl_block.cache_clear()
    built = _counting(monkeypatch, gates, "gate_power")
    branches = protocols.run_branches(ring, script, psi)
    assert len(branches) == d * d
    assert len(built) == d + 1 + (d - 1)
    protocols.run_branches(ring, script, psi)
    protocols.run(ring, script, psi, seed=d)
    assert len(built) == d + 1 + (d - 1)


def test_walker_ctrl_powers_per_step_not_per_visit():
    """build_max at n=4 runs its later merges once per earlier outcome; the
    ctrl blocks are built once per distinct (gate, exponent), not per step."""
    ring = RINGS[3]
    script = protocols.build_max_script(ring, 4)
    ctrl_blocks = {(s.name, s.exponent) for s in script.steps if isinstance(s, protocols.CtrlStep)}
    assert len(ctrl_blocks) == 2
    gates._ctrl_block.cache_clear()
    assert len(protocols.run_branches(ring, script)) == 27
    assert gates._ctrl_block.cache_info().misses == len(ctrl_blocks)
    protocols.run_branches(ring, script)
    assert gates._ctrl_block.cache_info().misses == len(ctrl_blocks)


@pytest.mark.parametrize("d", range(2, 8))
def test_ctrl_sweep_keeps_at_most_5_times_4d_blocks_per_ring(d):
    """Exponents reach every residue mod 4d, and the cache holds no more."""
    ring = make_phase_ring(d)
    gates._ctrl_block.cache_clear()
    for name in "XYZFG":
        for e in range(-12 * d, 12 * d + 1):
            block = gates.ctrl_block(ring, name, e)
            assert block is gates.ctrl_block(ring, name, e % (4 * d))
    assert gates._ctrl_block.cache_info().currsize == 5 * 4 * d


def _refuse(*args, **kwargs):
    raise AssertionError("a named block took a numerical power or inverse")


def test_named_blocks_take_no_numerical_power_or_inverse(monkeypatch):
    """Every protocol builder, a circuit with every ctrl kind, a diagram
    with braids, ``sym`` and charges and the Clifford suite run from cold
    caches with ``np.linalg.matrix_power`` and ``np.linalg.inv`` refusing."""
    for cache in (gates._gate_block, gates._ctrl_block, gates._sym_block, evaluator.braid_block):
        cache.cache_clear()
    monkeypatch.setattr(np.linalg, "matrix_power", _refuse)
    monkeypatch.setattr(np.linalg, "inv", _refuse)
    for d in (2, 3, 5):
        ring = RINGS[d]
        scripts = [
            protocols.teleportation_script(ring),
            protocols.build_max_script(ring, 2),
            protocols.build_max_script(ring, 3),
            protocols.bvk_merge_script(ring, (2, 1)),
        ]
        scripts += [protocols.phase_space_measurement(ring, v, s) for v in (1, 2) for s in (True, False)]
        for script in scripts:
            psi = QState.zero(d, len(script.input_sites)) if script.input_sites else None
            assert protocols.run_branches(ring, script, psi)
        ctrls = [f"ctrl {g}^{e} c={c} t={t}" for g in "XYZFG" for e in (1, -1, 2, -3) for c, t in ((1, 2), (2, 1))]
        text = "\n".join([f"circuit d={d} n=2", "gate F@1", "gate F^-1@2", *ctrls, "measure@1 -> m1"])
        dsl.run_circuit(ring, dsl.parse_circuit(text))
        gens = (Charge(0, 1), BraidPos(1), Sym(1, 1), BraidNeg(0), Charge(3, -1), BraidNeg(2))
        assert evaluator.evaluate(ring, Diagram(d, 4, 4, gens)).matrix.shape == (d * d, d * d)
        assert verify.suite_clifford(d).passed
