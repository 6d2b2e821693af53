"""Parsers for the .pd / .pc / .pp text formats."""

import random
import re

import numpy as np
import pytest

from pappa import cli, dsl, gates, protocols
from hypothesis import given, settings

from pappa.diagrams import (
    Box,
    BraidNeg,
    BraidPos,
    Cap,
    Charge,
    Cup,
    Diagram,
    DiagScalar,
    Sym,
    adjoint,
)
from pappa.dsl import ParseError, parse_circuit, parse_diagram, parse_protocol, run_circuit
from pappa.evaluator import evaluate
from pappa.gates import QState
from pappa.phases import make_phase_ring

from branch_walk import WALK_TOL
from gatespec import GateSpec, apply_gate_spec
from test_eval_kernels import diagrams

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
    assert dia.gens == (Cap(0), Cup(0))
    ring = make_phase_ring(4)
    assert abs(evaluate(ring, dia).matrix[0, 0] - 2.0) < 1e-12


def test_parse_mixed_generators():
    dia = parse_diagram(MIXED_PD, "mixed.pd")
    assert dia.gens == (
        Charge(0, 1, 2),
        BraidPos(0),
        Cap(1),
        Charge(2, 2, 0),
        Sym(1, 1),
        Cup(1),
        BraidNeg(0),
    )


def test_line_breaks_do_not_change_the_diagram():
    """A .pd line only groups generators: the same word on one line, or one
    generator per line, parses to the same Diagram."""
    header, *lines = [line.split("#")[0] for line in MIXED_PD.splitlines()]
    tokens = [tok for line in lines for tok in line.split()]
    one_line = "\n".join([header, " ".join(tokens)])
    one_each = "\n".join([header, *tokens])
    dia = parse_diagram(MIXED_PD, "mixed.pd")
    assert parse_diagram(one_line, "one_line.pd") == dia
    assert parse_diagram(one_each, "one_each.pd") == dia


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
    assert dia.gens == (Box("T", 0, 2, 1),)


def test_box_round_trips_beside_other_generators():
    dia = parse_diagram("diagram d=2 in=4 out=4\nb+@0 box T@2:2:1 chg@1:1\n", "box.pd")
    assert dia.gens == (BraidPos(0), Box("T", 2, 2, 1), Charge(1, 1))
    assert parse_diagram(dsl.format_diagram(dia), "again.pd") == dia


@pytest.mark.parametrize(
    "token, message",
    [
        ("b+@0:7:9", "b+ needs @i in 'b+@0:7:9'"),
        ("cap@0:1", "cap needs @i in 'cap@0:1'"),
        ("chg@0:1:0:2", "chg needs @i:k[:tier] in 'chg@0:1:0:2'"),
        ("chg@0", "chg needs @i:k[:tier] in 'chg@0'"),
        ("sym@1", "sym needs @i:m in 'sym@1'"),
        ("sym@1:1:1", "sym needs @i:m in 'sym@1:1:1'"),
        ("zap@0", "bad generator 'zap@0'"),
        ("box T@0:2", "bad box 'box T@0:2'"),
        ("box T@0:2:1:5", "bad box 'box T@0:2:1:5'"),
    ],
)
def test_generator_arity_errors_carry_path_and_line(token, message):
    with pytest.raises(ParseError) as err:
        parse_diagram(f"diagram d=2 in=4 out=4\n\n{token}\n", "bad.pd")
    assert str(err.value) == f"bad.pd:3: {message}"


def test_format_refuses_what_pd_cannot_hold():
    boxed = Diagram.identity(2, 2).then(Box("U", 0, 2, 1))
    with pytest.raises(ValueError, match="daggered box 'U'"):
        dsl.format_diagram(adjoint(boxed))
    with pytest.raises(ValueError, match="scalar"):
        dsl.format_diagram(boxed.with_scalar(DiagScalar(omega_half=1)))
    with pytest.raises(ValueError, match="scalar"):
        dsl.format_diagram(Diagram.zero(2, 2, 2))


@settings(derandomize=True, deadline=None, max_examples=80)
@given(diagrams(boxes=False))
def test_parse_of_format_is_identity(dia):
    assert parse_diagram(dsl.format_diagram(dia), "again.pd") == dia


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
        assert state.vector.dtype == complex and state.vector.shape == want.vector.shape
        assert np.array_equal(state.vector == 0, want.vector == 0)
        assert np.abs(state.vector - want.vector).max() <= WALK_TOL
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
    assert script.resources == (protocols.Resource((1, 2)),)
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


PP_PARTIES = "party alice: q1 q2\nparty bob: q3 q4\n"


@pytest.mark.parametrize(
    "lines, message",
    [
        ("resource max2: q1 q1", "3: resource names site 0 twice"),
        ("resource max2: q1 q3\nresource max2: q3 q4", "4: resource site 2 already holds"),
        ("resource max2: q1 q5", "3: resource site 4 outside 0..3"),
        ("input: q7", "3: input site 6 outside 0..3"),
        ("input: q2 q2", "3: input names site 1 twice"),
        ("resource max2: q1 q3\ninput: q3", "4: input site 2 already holds"),
        ("output: q9", "3: output site 8 outside 0..3"),
        ("output: q4 q4", "3: output names site 3 twice"),
        ("party alice: q5", "3: party alice declared twice"),
        ("party carol: q5 q2", "3: site q2 already owned by alice"),
        ("party carol: q5 q5", "3: site q5 already owned by carol"),
        ("input: q1\ninput: q2", "4: input declared twice"),
        ("output: q3\noutput: q4", "4: output declared twice"),
    ],
)
def test_protocol_site_sets_are_checked_with_line_numbers(lines, message):
    with pytest.raises(ParseError) as err:
        parse_protocol(PP_PARTIES + lines + "\n", 2, "p.pp")
    assert str(err.value).startswith(f"p.pp:{message}")


def test_protocol_output_may_reuse_resource_and_input_sites():
    text = PP_PARTIES + "input: q1\nresource max2: q2 q3\noutput: q1 q3\n"
    script = parse_protocol(text, 2, "p.pp")
    assert script.output_sites == (0, 2)


@pytest.fixture
def validations(monkeypatch):
    """Count ``ProtocolScript.validate`` calls."""
    calls = []
    validate = protocols.ProtocolScript.validate

    def counting(script):
        calls.append(script)
        return validate(script)

    monkeypatch.setattr(protocols.ProtocolScript, "validate", counting)
    return calls


def test_a_parsed_protocol_is_validated_once(validations):
    ring = make_phase_ring(2)
    script = parse_protocol(TELEPORT_PP, 2, "tele.pp")
    protocols.run(ring, script, QState.zero(2, 1), seed=1)
    protocols.run_branches(ring, script, QState.zero(2, 1))
    assert len(validations) == 1


def test_protocol_run_validates_once(validations, tmp_path, capsys):
    pp = tmp_path / "tele.pp"
    pp.write_text(TELEPORT_PP)
    assert cli.main(["protocol", "run", str(pp), "--d", "2"]) == 0
    assert len(validations) == 1


def test_a_parsed_circuit_is_validated_once(validations):
    circ = parse_circuit(TELEPORT_PC, "tele.pc")
    run_circuit(make_phase_ring(2), circ, seed=3)
    assert len(validations) == 1


def test_a_built_script_is_validated_once(validations):
    ring = make_phase_ring(3)
    script = protocols.teleportation_script(ring)
    protocols.run_branches(ring, script, QState.zero(3, 1))
    assert len(validations) == 1


def _pc_as_pp(text):
    """A .pc text without ``sft`` as a .pp text: one party ``circuit`` owning q1..qN."""
    header, *body = text.splitlines()
    n = int(header.split("n=")[1])
    out = [f"party {dsl.CIRCUIT_PARTY}: " + " ".join(f"q{s}" for s in range(1, n + 1))]
    for line in body:
        line = re.sub(r"^measure@(\d+)", r"meter q\1", line)
        line = re.sub(r"([@=])(\d+)", r"\1q\2", line)
        out.append(re.sub(r"^gate (\S+)@", r"gate \1 @", line))
    return "\n".join(out) + "\n"


@pytest.mark.parametrize("d,n", [(2, 4), (3, 3)])
def test_a_circuit_is_a_one_party_protocol(d, n):
    """Each .pc text parses to the steps of its .pp translation, and both run to the same bits."""
    ring = make_phase_ring(d)
    for seed in range(12):
        pc = _random_pc(random.Random(f"pp/{d}/{seed}"), d, n)
        pc = "".join(line for line in pc.splitlines(keepends=True) if line != "sft\n")
        circ = parse_circuit(pc, "r.pc")
        script = parse_protocol(_pc_as_pp(pc), d, "r.pp")
        assert circ.steps == script.steps and circ.n_sites == script.n_sites
        assert len(circ.steps) == len(pc.splitlines()) - 1
        a, b = protocols.run(ring, circ, seed=seed), protocols.run(ring, script, seed=seed)
        assert list(a.outcomes.items()) == list(b.outcomes.items())
        assert (a.edits, a.cdits, a.probability) == (b.edits, b.cdits, b.probability)
        assert a.final_state.vector.tobytes() == b.final_state.vector.tobytes()
