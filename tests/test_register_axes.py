"""One register layout: every site tuple goes through ``gates._local_axes``.

The dense kernel, the meters, ``state_on_sites``, ``_initial_state`` and
the entropy cut are held bit for bit to the n-axis formulas of
``register_axes`` for d = 2..7 and every site tuple on up to 5 qudits.
The dense kernel runs every tuple whose work d**(n + w), w the tuple's
width, is at most 4**9 (all of them at d = 2, 3), with and without a batch
axis.  On wide registers (d=2, n=16 and 18; d=3, n=10 and 11), where
every plan merges the last qudits into rows, all three kernels and both
meters are held to the same formulas at early, middle and late sites; a
plan is wide exactly when it holds ``gates._WIDE`` entries or more.  The
refusals at the end are what the plan and the register layer now reject.
"""

import math
from itertools import combinations, permutations

import numpy as np
import pytest

from pappa import entangle, gates, protocols
from pappa.gates import Local, QState
from pappa.phases import make_phase_ring
from pappa.protocols import ProtocolScript, Resource

import register_axes as oracle

DS = range(2, 8)
RINGS = {d: make_phase_ring(d) for d in DS}


def site_tuples(n):
    """Every ordered tuple of distinct sites of an n-qudit register, the empty one first."""
    return [t for w in range(n + 1) for t in permutations(range(n), w)]


def rand_vector(shape, rng):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def rand_state(d, n, rng):
    v = rand_vector(d**n, rng)
    return QState(d, n, v / np.linalg.norm(v))


@pytest.mark.parametrize("d", DS)
def test_dense_branch_matches_n_axis_formula(d):
    rng = np.random.default_rng(d)
    blocks = {}
    for n in range(1, 6):
        for batch in ((), (2,)):
            x = rand_vector((d**n,) + batch, rng)
            for sites in site_tuples(n)[1:]:
                w = len(sites)
                if d ** (n + w) > 4**9:
                    continue
                if w not in blocks:
                    blocks[w] = rand_vector((d**w, d**w), rng)
                    assert gates.block_structure(blocks[w]) == "dense"
                got = gates.apply_local(x, d, n, Local(sites, blocks[w]))
                assert np.array_equal(got, oracle.apply_dense(x, d, n, sites, blocks[w])), sites


@pytest.mark.parametrize("d", DS)
def test_meters_match_n_axis_formula(d):
    rng = np.random.default_rng(10 + d)
    for n in range(1, 6):
        state = rand_state(d, n, rng)
        for site in range(n):
            probs = gates.site_probabilities(state, site)
            assert np.array_equal(probs, oracle.site_probabilities(state, site))
            for outcome, p in [*enumerate(probs.tolist()), (0, 0.0)]:
                got = gates.collapse_site(state, site, outcome, p).vector
                assert np.array_equal(got, oracle.collapse_site(state, site, outcome, p).vector)


@pytest.mark.parametrize("d", DS)
def test_state_on_sites_matches_n_axis_formula(d):
    rng = np.random.default_rng(20 + d)
    for n in range(1, 6):
        for sites in site_tuples(n):
            # collapse every other qudit onto a random value
            state = rand_state(d, n, rng)
            for site in set(range(n)) - set(sites):
                state = oracle.collapse_site(state, site, int(rng.integers(d)), 1.0)
            got = protocols.state_on_sites(state, sites)
            want = oracle.state_on_sites(state, sites)
            assert (got.d, got.n) == (want.d, want.n)
            assert np.array_equal(got.vector, want.vector), sites


@pytest.mark.parametrize("d", DS)
def test_initial_state_matches_n_axis_formula(d):
    """The input on a prefix of each site order, a resource on the next two, |0> on the rest."""
    ring, rng = RINGS[d], np.random.default_rng(30 + d)
    for n in range(1, 6):
        for perm in permutations(range(n)):
            for cut in range(n + 1):
                inputs, shared = perm[:cut], perm[cut : cut + 2]
                resources = [Resource(shared)] if shared else []
                script = ProtocolScript(d, n, {"a": tuple(range(n))}, resources, [], inputs)
                psi = rand_state(d, cut, rng) if cut else None
                got = protocols._initial_state(ring, script, psi)
                assert np.array_equal(got.vector, oracle.initial_state(ring, script, psi).vector)


@pytest.mark.parametrize("d", DS)
def test_entropy_cut_matches_n_axis_formula(d):
    rng = np.random.default_rng(40 + d)
    for n in range(1, 6):
        state = QState(d, n, rand_vector(d**n, rng))
        for w in range(1, n + 1):
            for keep in combinations(range(n), w):
                got = entangle.entanglement_entropy(state, keep[::-1])
                assert got == oracle.entanglement_entropy(state, keep), keep


# ---------------------------------------------------------------------------
# wide registers: the row and run layouts of a wide plan
# ---------------------------------------------------------------------------

WIDE = [(2, 16), (2, 18), (3, 10), (3, 11)]


def wide_sites(n):
    """Sites 0, n//2 and the last three alone, then an adjacent, a reversed and two far-apart pairs."""
    return [(s,) for s in (0, n // 2, n - 3, n - 2, n - 1)] + [
        (n - 2, n - 1),
        (n - 1, n - 3),
        (n // 2, 0),
        (0, n - 1),
    ]


def signed_zeros(v, rng):
    """``v`` with a fifth of its real parts and a fifth of its imaginary parts zeros of either sign."""
    v = v.copy()
    parts = v.view(float).reshape(-1, 2)
    for col in (0, 1):
        hit = rng.random(len(v)) < 0.2
        parts[hit, col] = np.where(rng.random(hit.sum()) < 0.5, 0.0, -0.0)
    return v


def structured_blocks(d, w, rng):
    """A diagonal, a phased and a phase-free monomial, and a dense block on w qudits."""
    dw = d**w
    unit = np.exp(2j * np.pi * rng.random(dw))
    cycle = rng.permutation(dw)  # one cycle through every digit string: no fixed point
    perm = np.zeros((dw, dw), dtype=complex)
    perm[cycle, np.roll(cycle, 1)] = 1
    return [
        ("diagonal", np.diag(unit), oracle.apply_diagonal),
        ("monomial", perm * unit[:, None], oracle.apply_monomial),
        ("permutation", perm, oracle.apply_monomial),
        ("dense", rand_vector((dw, dw), rng), oracle.apply_dense),
    ]


@pytest.mark.parametrize("d,n", WIDE)
def test_wide_kernels_match_n_axis_formulas(d, n):
    rng = np.random.default_rng(50 + 10 * d + n)
    x = signed_zeros(rand_vector(d**n, rng), rng)
    blocks = {w: structured_blocks(d, w, rng) for w in (1, 2)}
    for sites in wide_sites(n):
        assert gates._local_axes(d, n, sites, ()).rows is not None  # every plan of a wide register
        for kind, block, formula in blocks[len(sites)]:
            assert gates.block_structure(block) == kind.replace("permutation", "monomial")
            got = gates.apply_local(x, d, n, Local(sites, block))
            assert _same_bits(got, formula(x, d, n, sites, block)), (kind, sites)


def test_a_plan_is_wide_exactly_when_it_holds_wide_entries():
    """The one rule: the entry count of state and batch alone, wherever the sites lie."""
    rng = np.random.default_rng(80)
    narrow = set()
    for _ in range(400):
        d = int(rng.integers(2, 8))
        n = int(rng.integers(1, 15))
        sites = tuple(rng.permutation(n)[: rng.integers(1, min(n, 3) + 1)].tolist())
        batch = tuple(rng.integers(1, 40, size=rng.integers(0, 2)).tolist())
        plan = gates._local_axes(d, n, sites, batch)
        assert (plan.rows is None) == (d**n * math.prod(batch) < gates._WIDE), (d, n, sites, batch)
        narrow.add(plan.rows is None)
    assert narrow == {True, False}


@pytest.mark.parametrize("d,n", WIDE)
def test_wide_meters_match_n_axis_formulas(d, n):
    """A dense state, and one on its last 64 entries, where the sum of a run
    reaches a probability without being rounded away."""
    rng = np.random.default_rng(60 + 10 * d + n)
    v, tail = rand_vector(d**n, rng), np.zeros(d**n, dtype=complex)
    tail[-64:] = v[-64:]
    for w in (v, tail):
        state = QState(d, n, signed_zeros(w / np.linalg.norm(w), rng))
        for site in (0, n // 2, n - 3, n - 2, n - 1):
            probs = gates.site_probabilities(state, site)
            assert _same_bits(probs, oracle.site_probabilities(state, site)), site
            for outcome, p in ((0, float(probs[0])), (d - 1, float(probs[d - 1])), (1, 0.0)):
                got = gates.collapse_site(state, site, outcome, p).vector
                assert _same_bits(got, oracle.collapse_site(state, site, outcome, p).vector), (site, p)


def test_wide_tables_of_one_block_differ_between_layouts():
    """A frozen block's wide tables are shared only by plans that lay it out
    alike: at d=5, sites (1, 2) of 3 qudits and (2, 3) of 4 qudits, with a
    batch of d**n, have the same tile, row length and span, but the first
    merges one site into its rows and the second none."""
    d, ring, rng = 5, RINGS[5], np.random.default_rng(70)
    blocks = [gates.ctrl_block(ring, "Z"), gates.sym_block(ring, 1)]
    formulas = [oracle.apply_diagonal, oracle.apply_monomial]
    for n, sites in ((3, (1, 2)), (4, (2, 3)), (3, (1, 2))):
        x = rand_vector((d**n, d**n), rng)
        for block, formula in zip(blocks, formulas):
            got = gates.apply_local(x, d, n, Local(sites, block))
            assert _same_bits(got, formula(x, d, n, sites, block)), (n, sites)


@pytest.mark.parametrize("site", [13, 14, 15])
def test_wide_meter_on_a_non_finite_state_matches_n_axis_formula(site):
    """A NaN leaves the column sums to numpy's own sum, from the unchanged state."""
    d, n = 2, 16
    v = rand_vector(d**n, np.random.default_rng(site))
    v[5] = complex(np.nan, 1.0)
    state = QState(d, n, v / np.linalg.norm(v[6:]))
    want = oracle.site_probabilities(state, site)
    assert np.isnan(want).any()
    assert np.array_equal(gates.site_probabilities(state, site), want, equal_nan=True)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# refusals
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("digit", [5, 3, -1])
def test_basis_refuses_digits_outside_the_degree(digit):
    with pytest.raises(ValueError, match="outside 0..2"):
        QState.basis(3, 1, (digit,))


@pytest.mark.parametrize("outcome", [-1, 3])
def test_collapse_refuses_outcomes_outside_the_degree(outcome):
    state = entangle.max_state(RINGS[3], 2)
    with pytest.raises(ValueError, match="outside 0..2"):
        gates.collapse_site(state, 0, outcome, 1 / 3)


@pytest.mark.parametrize("outcome", [-1, 3])
def test_project_refuses_outcomes_outside_the_degree(outcome):
    """The outcome is checked before the probability read, as in ``collapse_site``."""
    with pytest.raises(ValueError, match="outside 0..2"):
        gates.project_site(QState.basis(3, 2, (1, 2)), 1, outcome)


@pytest.mark.parametrize("site", [2, 5, -1])
def test_meter_refuses_a_site_outside_the_register(site):
    state = entangle.max_state(RINGS[3], 2)
    with pytest.raises(ValueError, match="outside register"):
        gates.site_probabilities(state, site)


@pytest.mark.parametrize(
    "sites, match", [((0, 0), "repeat a qudit"), ((0, 3), "outside register"), ((-1,), "outside register")]
)
def test_state_on_sites_refuses_bad_sites(sites, match):
    state = QState.basis(2, 3, (1, 0, 1))
    with pytest.raises(ValueError, match=match):
        protocols.state_on_sites(state, sites)


@pytest.mark.parametrize("sites", [(0,), (2, 0, 1)])
def test_state_on_sites_refuses_a_state_with_no_weight(sites):
    with pytest.raises(ValueError, match="the state has no weight"):
        protocols.state_on_sites(QState(2, 3, np.zeros(8)), sites)


@pytest.mark.parametrize("execute", [protocols.run, protocols.run_branches])
def test_executors_refuse_an_input_of_another_degree(execute):
    ring = RINGS[3]
    psi = QState.basis(2, 1, (1,))
    with pytest.raises(ValueError, match="input state of degree 2, script of degree 3"):
        execute(ring, protocols.teleportation_script(ring), psi)
