"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single ``ACCEPTANCE <k> <name>: PASS`` line once its
assertions hold (run with ``pytest -s`` to see them inline).
"""

import io
import math
import sys

import numpy as np
import pytest

from pappa import gates, protocols
from pappa.clifford import (
    is_clifford,
    verify_braid_gaussian_dressing,
    verify_cz_from_sft,
    verify_sft_factorizations,
)
from pappa.cli import main as cli_main
from pappa.entangle import (
    entanglement_entropy,
    ghz_basis,
    ghz_state,
    max_basis,
    max_state,
)
from pappa.evaluator import parafermion_relations_check, sft_via_braids
from pappa.gates import QState, all_digit_tuples, basis_index, kron_all, sft_matrix
from pappa.phases import make_phase_ring
from pappa.verify import suite_relations, tricks_residuals

RINGS = {d: make_phase_ring(d) for d in (2, 3, 4, 5)}
TOL = 1e-9


def report(k, name):
    print(f"ACCEPTANCE {k} {name}: PASS")


def test_criterion_1_relation_suite():
    for d in (2, 3, 4, 5):
        res = suite_relations(d, tol=TOL)
        assert res.passed, f"d={d}: worst={res.worst:.3e} {res.lines}"
    report(1, "planar+braided relations d=2..5")


def test_criterion_2_parafermion_suite():
    for d in (2, 3, 5):
        for n in (1, 2, 3):
            residual = parafermion_relations_check(RINGS[d], n)
            assert residual < TOL, (d, n, residual)
    report(2, "parafermion algebra d in {2,3,5}, n<=3")


def test_criterion_3_sft_cross_oracle():
    for d in (2, 3, 5):
        ring = RINGS[d]
        for n in (1, 2, 3):
            s = sft_matrix(ring, n)
            assert np.abs(s - sft_via_braids(ring, n)).max() < TOL, (d, n)
            power = np.linalg.matrix_power(s, 2 * n)
            for ks in all_digit_tuples(d, n):
                idx = basis_index(ks, d)
                col = power[:, idx].copy()
                col[idx] -= ring.q_pow(sum(ks) ** 2)
                assert np.abs(col).max() < TOL, (d, n, ks)
    report(3, "braid-product SFT equals closed form; 2n-fold rotation phase")


def test_criterion_4_max_ghz_forms():
    for d in (2, 3, 5):
        ring = RINGS[d]
        for n in (2, 3):
            s = sft_matrix(ring, n)
            maxv = max_state(ring, n).vector
            assert np.abs(s[:, 0] - maxv).max() < TOL
            fn = kron_all([gates.fourier_gate(ring)] * n)
            ghz = ghz_state(ring, n).vector
            assert np.abs(fn @ maxv - ghz).max() < TOL
            assert np.abs(np.linalg.inv(fn) @ maxv - ghz).max() < TOL
            for ks in all_digit_tuples(d, n):
                built = s[:, basis_index(ks, d)]
                assert np.abs(max_basis(ring, ks).vector - built).max() < TOL
                dual = np.linalg.inv(fn) @ built
                assert np.abs(ghz_basis(ring, ks).vector - dual).max() < TOL
    report(4, "Max/GHZ states and bases match gate-built forms")


def test_criterion_5_entropy():
    for d in (2, 3, 5):
        ring = RINGS[d]
        target = math.log(d)
        for n in (2, 3):
            s = sft_matrix(ring, n)
            for ks in all_digit_tuples(d, n):
                if sum(ks) % d:
                    continue
                state = QState(d, n, s[:, basis_index(ks, d)])
                for site in range(n):
                    assert abs(entanglement_entropy(state, site) - target) < 1e-8
    report(5, "singleton-cut entropy equals ln d")


def test_criterion_6_clifford_identities():
    for d in (2, 3, 5):
        ring = RINGS[d]
        assert verify_cz_from_sft(ring).residual < TOL, d
        rep = verify_sft_factorizations(ring)
        assert rep.extras["factorization1"] < TOL
        assert rep.extras["factorization2"] < TOL
        assert rep.extras["bell_corollary"] < TOL
        assert verify_braid_gaussian_dressing(ring).residual < TOL, d
        assert is_clifford(ring, sft_matrix(ring, 2))
    assert is_clifford(RINGS[2], sft_matrix(RINGS[2], 1))
    t_gate = np.diag([1.0, np.exp(1j * np.pi / 4)])
    assert not is_clifford(RINGS[2], t_gate)
    report(6, "Clifford identities, SFT membership, pi/8 exclusion")


def test_criterion_7_tricks():
    for d in (2, 3):
        residuals = tricks_residuals(RINGS[d], np.random.default_rng(17))
        assert max(residuals.values()) < TOL, (d, residuals)
    report(7, "simplifying tricks 1-4")


def test_criterion_8_teleportation():
    for d in (2, 3, 5):
        ring = RINGS[d]
        script = protocols.teleportation_script(ring)
        rng = np.random.default_rng(d)
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        psi = QState(d, 1, v / np.linalg.norm(v))
        branches = protocols.run_branches(ring, script, psi)
        assert len(branches) == d * d
        for tr in branches:
            out = protocols.state_on_sites(tr.final_state, script.output_sites)
            assert abs(1 - protocols.phase_free_fidelity(out, psi)) < TOL
        tr = protocols.run(ring, script, psi, seed=0)
        assert (tr.edits, tr.cdits) == (1, 2)
    report(8, "teleportation exact on every branch; 1 edit, 2 cdits")


def test_criterion_9_max_construction_and_merge():
    for d, n in ((2, 3), (3, 3), (2, 4)):
        ring = RINGS[d]
        script = protocols.build_max_script(ring, n)
        target = max_state(ring, n)
        for tr in protocols.run_branches(ring, script):
            out = protocols.state_on_sites(tr.final_state, script.output_sites)
            assert abs(1 - protocols.phase_free_fidelity(out, target)) < TOL
        tr = protocols.run(ring, script, seed=0)
        assert (tr.edits, tr.cdits) == (n - 1, n - 1), (d, n)
    for d, sizes in ((2, (1, 1)), (2, (2, 2)), (3, (1, 2)), (2, (1, 1, 2))):
        ring = RINGS[d]
        script = protocols.bvk_merge_script(ring, sizes)
        target = max_state(ring, sum(sizes))
        for tr in protocols.run_branches(ring, script):
            out = protocols.state_on_sites(tr.final_state, script.output_sites)
            assert abs(1 - protocols.phase_free_fidelity(out, target)) < TOL
        assert protocols.run(ring, script, seed=0).cdits == len(sizes)
    report(9, "Max distillation and multipartite merge, exact counts")


def _cli_capture(argv):
    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        code = cli_main(argv)
    finally:
        sys.stdout = old
    return code, buf.getvalue()


def test_criterion_10_cli_determinism(tmp_path):
    pd = tmp_path / "loop.pd"
    pd.write_text("diagram d=3 in=0 out=0\ncap@0\nchg@1:1:1\nchg@1:2:0\ncup@0\n")
    pp = tmp_path / "tele.pp"
    pp.write_text(
        "party a: q1 q2\nparty b: q3\ninput: q1\nresource max2: q2 q3\n"
        "ctrl X c=q1 t=q2\ngate F^-1 @q1\nmeter q1 -> m1\nmeter q2 -> m2\n"
        "send a->b m1\nsend a->b m2\ncond m2 apply X^m2 @q3\n"
        "cond m1 apply Z^m1 @q3\noutput: q3\n"
    )
    invocations = [
        ["diagram", "eval", str(pd), "--emit", "matrix"],
        ["protocol", "run", str(pp), "--d", "5", "--seed", "71"],
        ["verify", "sft", "--d", "3", "--n", "2"],
        ["verify", "all", "--d", "2", "--jobs", "2"],
    ]
    for argv in invocations:
        code1, out1 = _cli_capture(argv)
        code2, out2 = _cli_capture(argv)
        assert code1 == code2 == 0, argv
        assert out1.encode() == out2.encode(), argv
    report(10, "CLI reports byte-identical under fixed seeds")
