"""Named verification suites with machine-readable reports.

Each suite returns an ordered list of (key, value) report lines plus a
pass flag; the CLI prints them as ``key=value`` and a final PASS/FAIL.
Suites: relations, sft, entropy, clifford, tricks, protocols.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import clifford as cliffordmod
from . import entangle, evaluator, gates, protocols
from .diagrams import (
    BraidNeg,
    BraidPos,
    Cap,
    Charge,
    Cup,
    Diagram,
    compose,
    sft_rotate,
)
from .evaluator import evaluate
from .phases import PhaseRing, make_phase_ring


@dataclass
class SuiteResult:
    name: str
    lines: list[tuple[str, str]] = field(default_factory=list)
    worst: float = 0.0
    tol: float = 1e-9

    def add(self, key: str, value: float) -> None:
        self.lines.append((key, f"{value:.6e}"))
        self.worst = max(self.worst, value)

    def note(self, key: str, value) -> None:
        self.lines.append((key, str(value)))

    @property
    def passed(self) -> bool:
        return self.worst < self.tol


def _mx(a) -> float:
    return float(np.abs(np.asarray(a)).max())


# ---------------------------------------------------------------------------


def suite_relations(d: int, tol: float = 1e-9) -> SuiteResult:
    """Planar relations, Reidemeister moves, particle-braid, braid-Fourier."""
    ring = make_phase_ring(d)
    res = SuiteResult("relations", tol=tol)
    ev = lambda dia: evaluate(ring, dia).matrix

    loop = Diagram.identity(d, 0).then(Cap(0)).then(Cup(0))
    res.add("quantum_dimension", abs(ev(loop)[0, 0] - d**0.5))

    worst = 0.0
    for k in range(1, d):
        dia = Diagram.identity(d, 0).then(Cap(0)).then(Charge(1, k)).then(Cup(0))
        worst = max(worst, abs(ev(dia)[0, 0]))
    res.add("neutrality", worst)

    worst = 0.0
    for k in range(d):
        for l in range(d):
            lo = ev(
                Diagram.identity(d, 4).then(Charge(0, k, 0)).then(Charge(3, l, 1))
            )
            hi = ev(
                Diagram.identity(d, 4).then(Charge(0, k, 1)).then(Charge(3, l, 0))
            )
            worst = max(worst, _mx(lo - ring.q_pow(k * l) * hi))
            same = ev(
                Diagram.identity(d, 4).then(Charge(0, k, 0)).then(Charge(3, l, 0))
            )
            worst = max(worst, _mx(same - ring.zeta_pow(-k * l) * lo))
    res.add("para_isotopy_twisted_product", worst)

    worst = 0.0
    for k in range(d):
        left = ev(Diagram.identity(d, 0).then(Cap(0)).then(Charge(0, k)))
        right = ev(Diagram.identity(d, 0).then(Cap(0)).then(Charge(1, k)))
        worst = max(worst, _mx(left - ring.zeta_pow(k * k) * right))
        upleft = ev(
            Diagram.identity(d, 2).then(Charge(0, k)).then(Cup(0))
        )
        upright = ev(
            Diagram.identity(d, 2).then(Charge(1, k)).then(Cup(0))
        )
        worst = max(worst, _mx(upleft - ring.zeta_pow(-k * k) * upright))
    res.add("string_fourier_slides", worst)

    worst = 0.0
    for base in (1, 2):
        for s in range(2 * base):
            zig = Diagram.identity(d, 2 * base).then(Cap(s)).then(Cup(s + 1))
            worst = max(worst, _mx(ev(zig) - np.eye(d**base)))
            if s >= 1:
                zag = Diagram.identity(d, 2 * base).then(Cap(s)).then(Cup(s - 1))
                worst = max(worst, _mx(ev(zag) - np.eye(d**base)))
    res.add("temperley_lieb", worst)

    res.add("resolution_of_identity", evaluator.resolution_of_identity_check(ring))
    res.add("parafermion_algebra_n2", evaluator.parafermion_relations_check(ring, 2))

    closure_pos = Diagram.identity(d, 2).then(Cap(2)).then(BraidPos(1)).then(Cup(2))
    closure_neg = Diagram.identity(d, 2).then(Cap(2)).then(BraidNeg(1)).then(Cup(2))
    r1 = max(
        _mx(ev(closure_pos) - np.eye(d) / ring.omega_sqrt),
        _mx(ev(closure_neg) - np.eye(d) * ring.omega_sqrt),
    )
    res.add("reidemeister_1", r1)

    bpos = Diagram.identity(d, 2).then(BraidPos(0))
    bneg = Diagram.identity(d, 2).then(BraidNeg(0))
    res.add("reidemeister_2", _mx(ev(compose(bneg, bpos)) - np.eye(d)))

    b0p = Diagram.identity(d, 4).then(BraidPos(0))
    b1p = Diagram.identity(d, 4).then(BraidPos(1))
    lhs = ev(compose(compose(b0p, b1p), b0p))
    rhs = ev(compose(compose(b1p, b0p), b1p))
    res.add("reidemeister_3", _mx(lhs - rhs))

    worst = 0.0
    for k in range(d):
        under = ev(Diagram.identity(d, 2).then(Charge(0, k)).then(BraidPos(0)))
        over = ev(Diagram.identity(d, 2).then(BraidPos(0)).then(Charge(1, k)))
        worst = max(worst, _mx(under - over))
    res.add("particle_braid", worst)

    res.add(
        "braid_fourier",
        max(
            _mx(ev(sft_rotate(bpos)) - ev(bneg)),
            _mx(ev(sft_rotate(bneg)) - ev(bpos)),
        ),
    )
    return res


def suite_sft(d: int, n_max: int = 3, tol: float = 1e-9) -> SuiteResult:
    """Braid-product vs closed-form SFT, rotation order, Max/GHZ forms, for n = 1..n_max."""
    if n_max < 1:
        raise ValueError(f"n must be at least 1, got {n_max}")
    ring = make_phase_ring(d)
    res = SuiteResult("sft", tol=tol)
    sfts = {n: gates.sft_matrix(ring, n) for n in {*range(1, n_max + 1), 2, 3}}
    for n in range(1, n_max + 1):
        s = sfts[n]
        res.add(f"cross_oracle_n{n}", _mx(s - evaluator.sft_via_braids(ring, n)))
        res.add(f"unitary_n{n}", _mx(s @ s.conj().T - np.eye(d**n)))
        sums = gates.digit_sums(d, n)
        rotation = np.diag(gates._q_table(ring)[sums**2 % d])
        res.add(f"full_rotation_n{n}", _mx(np.linalg.matrix_power(s, 2 * n) - rotation))
        # charge sector preservation
        off_sector = (sums[:, None] - sums[None, :]) % d != 0
        res.add(f"charge_sectors_n{n}", float(np.abs(s[off_sector]).max(initial=0.0)))
    for n in (2, 3):
        s = sfts[n]
        maxv = entangle.max_state(ring, n).vector
        res.add(f"max_state_n{n}", _mx(s[:, 0] - maxv))
        fs = gates.kron_all([gates.fourier_gate(ring)] * n)
        fs_inv = gates.kron_all([gates.gate_block(ring, "F", -1)] * n)
        ghz = entangle.ghz_state(ring, n).vector
        res.add(f"ghz_duality_n{n}", _mx(fs @ maxv - ghz))
        res.add(f"ghz_duality_inv_n{n}", _mx(fs_inv @ maxv - ghz))
        worst = 0.0
        for idx, ks in enumerate(gates.digit_table(d, n).tolist()):
            closed = entangle.max_basis(ring, ks).vector
            worst = max(worst, _mx(closed - s[:, idx]))
            ghzk = entangle.ghz_basis(ring, ks).vector
            worst = max(worst, _mx(ghzk - fs_inv @ closed))
        res.add(f"basis_closed_forms_n{n}", worst)
    return res


def suite_entropy(d: int, tol: float = 1e-8) -> SuiteResult:
    """Maximal entanglement of SFT images of neutral product states."""
    ring = make_phase_ring(d)
    res = SuiteResult("entropy", tol=tol)
    target = math.log(d)
    for n in (2, 3):
        s = gates.sft_matrix(ring, n)
        worst = 0.0
        for idx, ks in enumerate(gates.digit_table(d, n).tolist()):
            if sum(ks) % d != 0:
                continue
            vec = gates.QState(d, n, s[:, idx])
            for site in range(n):
                worst = max(
                    worst, abs(entangle.entanglement_entropy(vec, site) - target)
                )
        res.add(f"singleton_cut_entropy_n{n}", worst)
    rho = entangle.partial_trace(
        entangle.DensityMatrix.from_state(entangle.max_state(ring, 2)), (0,)
    )
    res.add("max2_reduction_uniform", _mx(rho.matrix - np.eye(d) / d))
    return res


def suite_clifford(d: int, tol: float = 1e-9) -> SuiteResult:
    ring = make_phase_ring(d)
    res = SuiteResult("clifford", tol=tol)
    r1 = cliffordmod.verify_cz_from_sft(ring)
    res.add("cz_from_sft", r1.residual)
    res.note("cz_from_sft_variant", f"{r1.alternate_residual:.6e}")
    r2 = cliffordmod.verify_sft_factorizations(ring)
    res.add("sft_factorizations", r2.residual)
    r3 = cliffordmod.verify_braid_gaussian_dressing(ring)
    res.add("braid_gaussian_dressing", r3.residual)
    res.note("braid_dressing_variant", f"{r3.alternate_residual:.6e}")
    sft1 = gates.sft_matrix(ring, 1)
    res.note("sft_is_clifford_n1", cliffordmod.is_clifford(ring, sft1))
    sft2_clifford = cliffordmod.is_clifford(ring, gates.sft_matrix(ring, 2))
    res.note("sft_is_clifford_n2", sft2_clifford)
    if not sft2_clifford:
        res.add("sft_clifford_flag", 1.0)
    if d == 2:
        pi8_clifford = cliffordmod.is_clifford(ring, np.diag([1.0, np.exp(1j * np.pi / 4)]))
        res.note("pi8_is_clifford", pi8_clifford)
        if pi8_clifford:
            res.add("pi8_flag", 1.0)
    # single-qudit group report: BFS closure of {X,Y,Z,F,G} modulo phase
    gens = {name: gates.gate_power(ring, name, 1) for name in "XYZFG"}
    group = cliffordmod.generate_group(
        ring,
        1,
        gens,
        cap=50_000,
        probes={"sft": sft1, "fourier": gates.fourier_gate(ring)},
    )
    res.note("group_n1_order", group.order)
    res.note("group_n1_generators", group.generator_count)
    res.note("group_n1_cap_hit", group.cap_hit)
    for name, flag in sorted(group.membership.items()):
        res.note(f"group_n1_contains_{name}", flag)
        if not flag:
            res.add(f"group_n1_missing_{name}", 1.0)
    return res


def tricks_residuals(ring: PhaseRing, rng: np.random.Generator) -> dict[str, float]:
    """Residuals of the four protocol-simplification tricks, by key.

    Trick 1 is an exact operator identity; tricks 2-4 are branch-wise
    statements (distributions exact, post states up to a phase per branch).
    ``rng`` draws, in order, A, a 2-qudit state, T and a 3-qudit state.
    """
    d, out = ring.d, {}

    def on(state, sites, block):
        local = gates.Local(sites, block)
        return gates.QState(d, state.n, gates.apply_local(state.vector, d, state.n, local))

    # Trick 1: the control wire commutes with the Gaussian on the control.
    c1a = gates.ctrl_local(gates._random_unitary(d, rng), 0, 1).to_matrix(d, 2)
    for sgn in (1, -1):
        g = gates.Local((0,), gates.gate_block(ring, "G", sgn)).to_matrix(d, 2)
        out[f"trick1_g{sgn:+d}"] = _mx(g @ c1a - c1a @ g)

    # Trick 2: a Gaussian before a meter changes nothing observable.
    psi = gates._random_state(ring, 2, rng)
    plain = gates.site_probabilities(psi, 0)
    for sgn in (1, -1):
        work = on(psi, (0,), gates.gate_block(ring, "G", sgn))
        probs, worst = gates.site_probabilities(work, 0), 0.0
        for k in range(d):
            worst = max(worst, abs(plain[k] - probs[k]))
            if plain[k] > 1e-12:
                s0 = gates.collapse_site(psi, 0, k, plain[k])
                s1 = gates.collapse_site(work, 0, k, probs[k])
                worst = max(worst, abs(1.0 - s0.fidelity(s1)))
        out[f"trick2_g{sgn:+d}"] = worst

    # Trick 3: remove the controlled X^-1 before double meters by reindexing
    # the classically controlled correction.  The correction exponent is a
    # mod-d dit, so the identity needs T**d = 1; draw a random order-d T.
    v = gates._random_unitary(d, rng)
    t = v @ np.diag([ring.q_pow(int(rng.integers(d))) for _ in range(d)]) @ v.conj().T
    tp = {m: np.linalg.matrix_power(t, m) for m in range(1 - d, d)}
    psi = gates._random_state(ring, 3, rng)
    pre = on(psi, (0, 1), gates.ctrl_block(ring, "X", -1))
    worst = 0.0
    for m1 in range(d):
        p1, q1 = (float(gates.site_probabilities(x, 0)[m1]) for x in (pre, psi))
        l1, r1 = gates.collapse_site(pre, 0, m1, p1), gates.collapse_site(psi, 0, m1, q1)
        worst = max(worst, abs(p1 - q1))
        for m2 in range(d):
            # the rhs meters the untouched state; the outcome of meter 2 shifts by m1
            m2r = (m2 + m1) % d
            p2 = float(gates.site_probabilities(l1, 1)[m2])
            q2 = float(gates.site_probabilities(r1, 1)[m2r])
            lhs = on(gates.collapse_site(l1, 1, m2, p2), (2,), tp[m2])
            rhs = on(gates.collapse_site(r1, 1, m2r, q2), (2,), tp[m2r])
            rhs = on(rhs, (2,), tp[-m1])
            worst = max(worst, abs(p2 - q2))
            if p1 * p2 > 1e-12:
                # compare the wire-3 branch states up to phase
                lv, rv = lhs.vector.reshape(d, d, d)[m1, m2], rhs.vector.reshape(d, d, d)[m1, m2r]
                worst = max(worst, abs(1.0 - abs(np.vdot(lv, rv))))
    out["trick3"] = worst

    # Trick 4: meter-controlled Y^-m X^-m equals Z^m up to the phase
    # zeta**(-m*m) per branch.
    worst = 0.0
    for m in range(d):
        lhs = gates.gate_power(ring, "Y", -m) @ gates.gate_power(ring, "X", -m)
        worst = max(worst, _mx(lhs - ring.zeta_pow(-m * m) * gates.gate_power(ring, "Z", m)))
    out["trick4"] = worst
    return out


def suite_tricks(d: int, tol: float = 1e-9) -> SuiteResult:
    res = SuiteResult("tricks", tol=tol)
    residuals = tricks_residuals(make_phase_ring(d), np.random.default_rng(7))
    for key in sorted(residuals):
        res.add(key, residuals[key])
    return res


def suite_protocols(d: int, tol: float = 1e-9) -> SuiteResult:
    ring = make_phase_ring(d)
    res = SuiteResult("protocols", tol=tol)

    script = protocols.teleportation_script(ring)
    rng = np.random.default_rng(11)
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi = gates.QState(d, 1, v / np.linalg.norm(v))
    worst = 0.0
    total_p = 0.0
    for tr in protocols.run_branches(ring, script, psi):
        out = protocols.state_on_sites(tr.final_state, script.output_sites)
        worst = max(worst, abs(1.0 - protocols.phase_free_fidelity(out, psi)))
        total_p += tr.probability
    res.add("teleport_branch_fidelity", worst)
    res.add("teleport_probability_sum", abs(1.0 - total_p))
    tr3 = protocols.run(ring, script, psi, seed=3)
    res.note("teleport_edits", tr3.edits)
    res.note("teleport_cdits", tr3.cdits)
    if (tr3.edits, tr3.cdits) != (1, 2):
        res.add("teleport_resource_counts", 1.0)

    n = 3
    script = protocols.build_max_script(ring, n)
    target = entangle.max_state(ring, n)
    worst = 0.0
    for tr in protocols.run_branches(ring, script):
        out = protocols.state_on_sites(tr.final_state, script.output_sites)
        worst = max(worst, abs(1.0 - protocols.phase_free_fidelity(out, target)))
    res.add("build_max3_branch_fidelity", worst)
    tr = protocols.run(ring, script, seed=5)
    res.note("build_max3_edits", tr.edits)
    res.note("build_max3_cdits", tr.cdits)
    if (tr.edits, tr.cdits) != (n - 1, n - 1):
        res.add("build_max3_resource_counts", 1.0)

    script = protocols.bvk_merge_script(ring, (1, 1))
    target = entangle.max_state(ring, 2)
    worst = 0.0
    for tr in protocols.run_branches(ring, script):
        out = protocols.state_on_sites(tr.final_state, script.output_sites)
        worst = max(worst, abs(1.0 - protocols.phase_free_fidelity(out, target)))
    res.add("bvk_11_branch_fidelity", worst)
    return res


SUITES = {
    "relations": suite_relations,
    "sft": suite_sft,
    "entropy": suite_entropy,
    "clifford": suite_clifford,
    "tricks": suite_tricks,
    "protocols": suite_protocols,
}

# The widest dense array each suite builds holds d**DENSE_WIDTH[suite]
# entries: relations a 3-qudit by 2-qudit evaluate accumulator, sft and
# entropy the 3-qudit SFT matrix (sft: 2 * max(n, 3) for its n), clifford
# the single-qudit group of about d**5 elements of d x d entries, tricks its
# 2-qudit matrices, protocols the d**2 five-qudit leaves of build_max.
DENSE_WIDTH = {"relations": 5, "sft": 6, "entropy": 6, "clifford": 7, "tricks": 4, "protocols": 7}


def run_suite(name: str, d: int, tol: float, n: int | None = None) -> SuiteResult:
    if name not in SUITES:
        raise KeyError(name)
    if name == "sft":
        return suite_sft(d, n_max=3 if n is None else n, tol=tol)
    if name == "entropy":
        return suite_entropy(d, tol=max(tol, 1e-8))
    return SUITES[name](d, tol=tol)
