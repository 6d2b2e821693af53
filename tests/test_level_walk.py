"""The level walk of ``protocols._run`` against the depth-first walk it replaced.

``branch_walk`` keeps the depth-first walker.  Both executors must give its
transcripts: the same branches in the same order, outcomes, edits, cdits
and zero patterns, with probabilities and entries within ``WALK_TOL``.
"""

import importlib.util
import random
import sys
import tracemalloc
from pathlib import Path

import pytest

import branch_walk
from branch_walk import assert_same_walk
from pappa import dsl, protocols
from pappa.gates import QState
from pappa.protocols import (
    CondStep,
    CtrlStep,
    GateStep,
    MeasureStep,
    ProtocolScript,
    SftStep,
    build_max_script,
    bvk_merge_script,
    phase_space_measurement,
    teleportation_script,
)

from test_dsl import _random_pc
from test_protocols import RINGS, rand_state


def assert_walks_as_the_oracle(ring, script, psi=None, seeds=range(3)):
    got = protocols.run_branches(ring, script, psi)
    assert got
    assert_same_walk(got, branch_walk.run_branches(ring, script, psi))
    for seed in seeds:
        assert_same_walk([protocols.run(ring, script, psi, seed)], [branch_walk.run(ring, script, psi, seed)])


def _builder_cases(d):
    """Every protocol builder at d, on registers whose leaves stay small."""
    ring = RINGS[d]
    yield teleportation_script(ring), rand_state(d, 1, d)
    for n in (2, 3, 4) if d <= 3 else (2, 3):
        yield build_max_script(ring, n), None
    for sizes in ((1, 1), (2, 1), (1, 1, 1)) if d <= 3 else ((1, 1), (1, 2)):
        yield bvk_merge_script(ring, sizes), None
    for variant in (1, 2):
        for simplified in (True, False):
            script = phase_space_measurement(ring, variant, simplified)
            yield script, rand_state(d, 2, 10 * d + variant)
            yield script, QState.basis(d, 2, (1, d - 1))


@pytest.mark.parametrize("d", range(2, 8))
def test_every_builder_walks_as_the_depth_first_oracle(d):
    for script, psi in _builder_cases(d):
        assert_walks_as_the_oracle(RINGS[d], script, psi)


def _bench_texts(seed, monkeypatch):
    """(text, d, run seed, branch input) of each .pp text the ``protocols`` benchmark workload builds."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look themselves up there
    spec.loader.exec_module(workloads)
    texts = []
    workloads.run_protocol = lambda *args: texts.append(args)
    for op in workloads.protocol_ops(seed):
        op.run()
    return texts


def test_the_benchmark_texts_walk_as_the_depth_first_oracle(monkeypatch):
    texts = _bench_texts(1, monkeypatch)
    assert len(texts) == 105
    for text, d, seed, branch_input in texts:
        ring, script = RINGS[d], dsl.parse_protocol(text, d, "<bench>")
        psi = QState.zero(d, len(script.input_sites)) if script.input_sites else None
        assert_same_walk([protocols.run(ring, script, psi, seed)], [branch_walk.run(ring, script, psi, seed)])
        got = protocols.run_branches(ring, script, branch_input)
        assert_same_walk(got, branch_walk.run_branches(ring, script, branch_input))


# each after a meter of site 0 (and a fresh F there), on a register of three qudits
TOUCHES = {
    "gate": [GateStep("a", "X", 0, 2), GateStep("a", "F", 0)],
    "ctrl-control": [CtrlStep("a", "X", 0, 2)],
    "ctrl-target": [CtrlStep("a", "F", 1, 0, -1)],
    "cond": [CondStep("a", "Y", 0, "m", -1), CondStep("a", "F", 2, "m")],
    "re-meter": [MeasureStep("a", 0, "again")],
    "re-meter-after-F": [GateStep("a", "F", 0), MeasureStep("a", 0, "m")],
    "sft": [SftStep("a")],
    "sft-after-two": [MeasureStep("a", 2, "k"), SftStep("a"), MeasureStep("a", 1, "l")],
}


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("touch", TOUCHES.values(), ids=TOUCHES.keys())
def test_a_step_on_a_measured_qudit_walks_as_the_depth_first_oracle(touch, d):
    head = [GateStep("a", "F", 0), CtrlStep("a", "X", 1, 2), MeasureStep("a", 0, "m")]
    script = ProtocolScript(d, 3, {"a": (0, 1, 2)}, [], head + touch + [MeasureStep("a", 2, "z")], input_sites=(1, 2))
    assert_walks_as_the_oracle(RINGS[d], script, rand_state(d, 2, d))


@pytest.mark.parametrize("d,n", [(2, 4), (3, 3), (5, 2)])
def test_random_circuits_walk_as_the_depth_first_oracle(d, n):
    """Circuits with sft, ctrl, gate and cond lines on any qudit, measured or not, and repeated meters."""
    for seed in range(12):
        circ = dsl.parse_circuit(_random_pc(random.Random(f"walk/{d}/{seed}"), d, n), "r.pc")
        assert_walks_as_the_oracle(RINGS[d], circ, seeds=(seed,))


def test_run_branches_holds_under_three_states_besides_its_leaves(monkeypatch):
    """Four meters at d=2, n=14 leave 16 leaves.  Besides them the walk holds
    under three states; until they are made, the batch and the children being
    made, two states and change, as each meter scales its children in place
    (a scaled copy reads 2.5)."""
    n = 14
    steps = []
    for site in range(4):
        steps += [GateStep("a", "F", site), MeasureStep("a", site, f"m{site}")]
    script = ProtocolScript(2, n, {"a": tuple(range(n))}, [], steps)
    ring = RINGS[2]
    protocols.run_branches(ring, script)
    walked = []
    put_back = protocols._put_back

    def before_the_leaves(*args):
        walked.append(tracemalloc.get_traced_memory()[1])
        return put_back(*args)

    monkeypatch.setattr(protocols, "_put_back", before_the_leaves)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        leaves = protocols.run_branches(ring, script)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(leaves) == 16 and len(walked) == 1
    state = 16 * 2**n
    assert walked[0] - base < 2.25 * state
    assert peak - sum(tr.final_state.vector.nbytes for tr in leaves) < 3 * state
