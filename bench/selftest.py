"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Runs a few small ops of each workload, shows that every check passes on
the program's real output, then perturbs the output once per check and
shows that the check reports it.  Exits 1 if any check misses its
perturbation or fails on a real output.
"""

from __future__ import annotations

import os
import sys
from dataclasses import replace
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import random  # noqa: E402

import numpy as np  # noqa: E402

import workloads as W  # noqa: E402
from pappa.evaluator import QOperator  # noqa: E402
from pappa.gates import QState  # noqa: E402


def diagram_cases():
    rng = random.Random("selftest/diagrams")
    text = W.diagram_text(rng, 3, 2, False)
    partner = W.diagram_text(rng, 3, 2, True)
    out = W.run_diagram(text)
    check = lambda o: W.check_diagram(o, partner, capcup=False)  # noqa: E731
    diagram, op = out
    skewed = (diagram, QOperator(op.d, op.n_in, op.n_out, op.matrix * 1.001))
    return check, out, [(name, skewed) for name in ("adjoint", "normalize", "unitary", "compose")]


def _with_state(out, vector):
    circ, state, regs = out
    return circ, QState(state.d, state.n, vector), regs


def circuit_cases():
    rng = random.Random("selftest/circuits")
    text, measured = W.circuit_text(rng, 2, 5, 4, 2, 2, 2, True)
    out = W.run_circuit(text, 7)
    circ, state, regs = out
    site, reg = measured[0]
    rolled = np.roll(state.vector.reshape([2] * 5), 1, axis=site).reshape(-1)
    cases = [
        ("norm", _with_state(out, state.vector * 1.01)),
        ("collapse", _with_state(out, rolled)),
    ]
    prep = W.run_circuit(W.sft_prep_text(rng, 3, 3), 0)
    flat = QState.zero(3, 3).vector
    checks = {
        "main": lambda o: W.check_circuit(o, measured, sft_prep=False),
        "prep": lambda o: W.check_circuit(o, [], sft_prep=True),
    }
    return checks, out, prep, cases + [("entropy", _with_state(prep, flat))]


def protocol_cases():
    rng = random.Random("selftest/protocols")
    d = 3
    psi = np.array([0.6, 0.0, 0.8j])
    text, expect = W.teleport_text(rng)
    tele = W.run_protocol(text, d, 5, QState(d, 1, psi))
    script, sampled, branches = tele
    x = np.roll(np.eye(d), 1, axis=0)
    bob = [s for s in range(3) if s in script.output_sites][0]
    wrong = []
    for tr in branches:
        t = np.moveaxis(tr.final_state.vector.reshape([d] * 3), bob, 0)
        t = np.moveaxis(np.tensordot(x, t, axes=1), 0, bob)
        wrong.append(replace(tr, final_state=QState(d, 3, t.reshape(-1))))
    tele_check = lambda o: W.check_protocol(o, d, expect, psi)  # noqa: E731
    ps_text, ps_expect = W.phase_space_text(2)
    a, b = 1, 2
    ps = W.run_protocol(ps_text, d, 5, QState.basis(d, 2, (a, b)))
    reg = ps_expect["sum_register"]
    moved = [replace(tr, outcomes={**tr.outcomes, reg: tr.outcomes[reg] + 1}) for tr in ps[2]]
    ps_check = lambda o: W.check_protocol(o, d, ps_expect, None, (a, b))  # noqa: E731
    return [
        (tele_check, tele, "resources", (script, replace(sampled, edits=sampled.edits + 1), branches)),
        (tele_check, tele, "probability", (script, sampled, [replace(t, probability=0.9 * t.probability) for t in branches])),
        (tele_check, tele, "outputs", (script, sampled, wrong)),
        (ps_check, ps, "outcomes", (ps[0], ps[1], moved)),
    ]


def verify_cases():
    res = W.run_verify("clifford", 3)
    failing = replace(res, worst=1.0)
    lines = [(k, "215" if k == "group_n1_order" else v) for k, v in res.lines]
    check = lambda o: W.check_verify(o, 3)  # noqa: E731
    return check, res, [("suite", failing), ("group", replace(res, lines=lines))]


def main() -> int:
    bad = 0

    def expect(workload, name, check, real, perturbed):
        nonlocal bad
        clean = check(real)
        caught = [m for m in check(perturbed) if m.startswith(name + ":")]
        ok = not clean and bool(caught)
        bad += not ok
        status = "ok" if ok else "MISSED" if clean == [] else "FAILS ON REAL OUTPUT"
        print(f"{workload:9s} {name:11s} {status}: {caught[0] if caught else clean}")

    check, real, cases = diagram_cases()
    for name, perturbed in cases:
        expect("diagrams", name, check, real, perturbed)
    checks, out, prep, cases = circuit_cases()
    for name, perturbed in cases:
        which, real = ("prep", prep) if name == "entropy" else ("main", out)
        expect("circuits", name, checks[which], real, perturbed)
    for check, real, name, perturbed in protocol_cases():
        expect("protocols", name, check, real, perturbed)
    check, real, cases = verify_cases()
    for name, perturbed in cases:
        expect("verify", name, check, real, perturbed)
    print("PASS" if not bad else f"FAIL: {bad} check(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
