"""Parsers for the .pd / .pc / .pp text formats."""

import random

import numpy as np
import pytest

from pappa import dsl, gates, protocols
from pappa.diagrams import BraidNeg, BraidPos, Cap, Charge, Cup, Sym
from pappa.dsl import ParseError, parse_circuit, parse_diagram, parse_protocol, run_circuit
from pappa.evaluator import evaluate
from pappa.gates import QState
from pappa.phases import make_phase_ring

from gatespec import GateSpec, apply_gate_spec

LOOP_PD = """\
# a neutral loop
diagram d=4 in=0 out=0
cap@0
cup@0
"""

MIXED_PD = """\
diagram d=3 in=2 out=2
chg@0:1:2
b+@0
cap@1
chg@2:2:0 # a comment after a generator
sym@1:1
cup@1 b-@0
"""


def test_parse_loop():
    dia = parse_diagram(LOOP_PD, "loop.pd")
    assert dia.d == 4 and dia.in_points == 0 and dia.out_points == 0
    assert dia.flat() == [Cap(0), Cup(0)]
    ring = make_phase_ring(4)
    assert abs(evaluate(ring, dia).matrix[0, 0] - 2.0) < 1e-12


def test_parse_mixed_generators():
    dia = parse_diagram(MIXED_PD, "mixed.pd")
    assert dia.flat() == [
        Charge(0, 1, 2),
        BraidPos(0),
        Cap(1),
        Charge(2, 2, 0),
        Sym(1, 1),
        Cup(1),
        BraidNeg(0),
    ]


def test_diagram_round_trip():
    dia = parse_diagram(MIXED_PD, "mixed.pd")
    again = parse_diagram(dsl.format_diagram(dia), "again.pd")
    assert again == dia


def test_parse_diagram_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_diagram("diagram d=2 in=0 out=0\nzap@0\n", "bad.pd")
    assert "bad.pd:2" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_diagram("digram d=2 in=0 out=0\n", "bad.pd")
    assert "bad.pd:1" in str(err.value)
    with pytest.raises(ParseError):
        parse_diagram("diagram d=2 in=0 out=2\ncap@0\ncup@0\n", "bad.pd")


def test_parse_box():
    dia = parse_diagram("diagram d=2 in=2 out=2\nbox T@0:2:1\n", "box.pd")
    from pappa.diagrams import Box

    assert dia.flat() == [Box("T", 0, 2, 1)]


TELEPORT_PC = """\
circuit d=2 n=3
# prepare the shared pair on wires 2,3 by hand
gate F@2
ctrl X c=2 t=3
# teleport wire 1
ctrl X c=1 t=2
gate F^-1@1
measure@1 -> m1
measure@2 -> m2
cond m2 apply X^m2 @3
cond m1 apply Z^m1 @3
"""


def test_parse_and_run_circuit():
    circ = parse_circuit(TELEPORT_PC, "tele.pc")
    assert circ.d == 2 and circ.n == 3
    ring = make_phase_ring(2)
    state, regs = run_circuit(ring, circ, seed=5)
    assert set(regs) == {"m1", "m2"}
    # wire 3 ends in |0> whatever the outcomes (teleporting |0>)
    t = state.vector.reshape(2, 2, 2)
    assert abs(abs(t[regs["m1"], regs["m2"], 0]) - 1) < 1e-9


def test_circuit_sft_statement():
    circ = parse_circuit("circuit d=2 n=2\nsft\n", "s.pc")
    ring = make_phase_ring(2)
    state, _ = run_circuit(ring, circ, seed=0)
    bell = np.array([2**-0.5, 0, 0, 2**-0.5])
    assert np.abs(state.vector - bell).max() < 1e-9


def test_circuit_errors():
    with pytest.raises(ParseError):
        parse_circuit("circuit d=2 n=1\ngate Q@1\n", "x.pc")
    with pytest.raises(ParseError):
        parse_circuit("circuit d=2 n=1\ngate X@2\n", "x.pc")
    with pytest.raises(ParseError) as err:
        parse_circuit("circuit d=2 n=2\ncond m1 apply Z^-m2 @1\n", "x.pc")
    assert "x.pc:2" in str(err.value)


def _step_loop_run_circuit(ring, circ, seed):
    """The loop that ran .pc circuits before they ran as one-party protocols:
    each step through ``apply_gate_spec``, each meter sampled with ``rng``."""
    rng = np.random.default_rng(seed)
    st = QState.zero(circ.d, circ.n)
    regs = {}
    for op in circ.ops:
        if isinstance(op, protocols.GateStep):
            st = apply_gate_spec(ring, st, GateSpec(op.name, (op.site,), op.power))
        elif isinstance(op, protocols.CtrlStep):
            spec = GateSpec("ctrl", (op.control, op.target), op.exponent, base=op.name)
            st = apply_gate_spec(ring, st, spec)
        elif isinstance(op, protocols.SftStep):
            st = apply_gate_spec(ring, st, GateSpec("sft"))
        elif isinstance(op, protocols.MeasureStep):
            probs = gates.site_probabilities(st, op.site)
            outcome = int(rng.choice(circ.d, p=probs / probs.sum()))
            st, _ = gates.project_site(st, op.site, outcome)
            regs[op.register] = outcome
        elif isinstance(op, protocols.CondStep):
            power = op.coeff * regs[op.register]
            if power:
                st = apply_gate_spec(ring, st, GateSpec(op.name, (op.site,), power))
        else:
            raise TypeError(f"unexpected circuit step {op!r}")
    return st, regs


def _random_pc(rng, d, n):
    """A .pc text mixing gate, ctrl, sft, measure and cond lines."""
    def gate():
        return rng.choice("XYZFG") + rng.choice(["", f"^{rng.randint(-3, 3)}"])

    lines, regs = [f"circuit d={d} n={n}"], []
    for _ in range(rng.randint(6, 14)):
        kind = rng.choice(["gate", "gate", "ctrl", "sft", "measure", "cond"])
        if kind == "cond" and not regs:
            kind = "measure"
        if kind == "gate":
            lines.append(f"gate {gate()}@{rng.randint(1, n)}")
        elif kind == "ctrl":
            c, t = rng.sample(range(1, n + 1), 2)
            lines.append(f"ctrl {gate()} c={c} t={t}")
        elif kind == "sft":
            lines.append("sft")
        elif kind == "measure":
            regs.append(f"m{len(regs) + 1}")
            lines.append(f"measure@{rng.randint(1, n)} -> {regs[-1]}")
        else:
            reg = rng.choice(regs)
            coeff = rng.choice(["", "-", "2*", "-2*"])
            gate_tok = f"{rng.choice('XYZFG')}^{coeff}{reg}"
            lines.append(f"cond {reg} apply {gate_tok} @{rng.randint(1, n)}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("d,n", [(2, 4), (3, 3), (5, 3)])
def test_run_circuit_matches_the_step_loop(d, n):
    ring = make_phase_ring(d)
    for seed in range(10):
        circ = parse_circuit(_random_pc(random.Random(f"{d}/{seed}"), d, n), "r.pc")
        state, regs = run_circuit(ring, circ, seed=seed)
        want, want_regs = _step_loop_run_circuit(ring, circ, seed)
        assert state.vector.dtype == complex
        assert np.array_equal(state.vector, want.vector)
        assert list(regs.items()) == list(want_regs.items())


def test_run_circuit_refuses_a_ring_of_another_degree():
    circ = parse_circuit("circuit d=2 n=1\ngate X@1\n", "x.pc")
    with pytest.raises(ValueError, match="degree"):
        run_circuit(make_phase_ring(3), circ)


def test_protocol_run_refuses_a_ring_of_another_degree():
    script = protocols.build_max_script(make_phase_ring(2), 3)
    with pytest.raises(ValueError, match="degree"):
        protocols.run(make_phase_ring(3), script)


TELEPORT_PP = """\
party alice: q1 q2
party bob: q3
input: q1
resource max2: q2 q3
ctrl X c=q1 t=q2
gate F^-1 @q1
meter q1 -> m1
meter q2 -> m2
send alice->bob m1
send alice->bob m2
cond m2 apply X^m2 @q3
cond m1 apply Z^m1 @q3
output: q3
"""


def test_parse_and_run_protocol():
    ring = make_phase_ring(2)
    script = parse_protocol(TELEPORT_PP, 2, "tele.pp")
    assert script.parties == {"alice": (0, 1), "bob": (2,)}
    assert script.resources == [protocols.Resource((1, 2))]
    rng = np.random.default_rng(1)
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    psi = QState(2, 1, v / np.linalg.norm(v))
    tr = protocols.run(ring, script, psi, seed=7)
    assert tr.edits == 1 and tr.cdits == 2
    out = protocols.state_on_sites(tr.final_state, script.output_sites)
    assert abs(1 - protocols.phase_free_fidelity(out, psi)) < 1e-9


def test_protocol_parse_errors():
    with pytest.raises(ParseError):
        parse_protocol("party a: q1\nmeter q2 -> m\n", 2, "p.pp")
    with pytest.raises(ParseError):
        parse_protocol("party a: q1 q3\n", 2, "p.pp")  # gap at q2
    with pytest.raises(ParseError):
        parse_protocol("party a: q1\nresource max2: q1\n", 2, "p.pp")
