"""Protocols: teleportation, resource distillation, multipartite merging."""

import ast
import dataclasses
import inspect
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pappa import gates, protocols
from pappa.diagrams import Charge, Cup, Diagram
from pappa.entangle import entanglement_entropy, max_state
from pappa.evaluator import apply_sft, evaluate
from pappa.gates import QState
from pappa.phases import make_phase_ring
from pappa.protocols import (
    CondStep,
    CtrlStep,
    GateStep,
    LocalityError,
    MeasureStep,
    ProtocolScript,
    Resource,
    SendStep,
    SftStep,
    build_max_script,
    bvk_merge_script,
    phase_free_fidelity,
    phase_space_measurement,
    run,
    run_branches,
    state_on_sites,
    teleportation_script,
)

from branch_walk import assert_same_walk
from gatespec import ctrl_power_block

RINGS = {d: make_phase_ring(d) for d in range(2, 8)}


def rand_state(d, n, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=d**n) + 1j * rng.normal(size=d**n)
    return QState(d, n, v / np.linalg.norm(v))


def test_empty_script_passthrough():
    ring = RINGS[2]
    script = ProtocolScript(
        d=2,
        n_sites=1,
        parties={"a": (0,)},
        resources=[],
        steps=[],
        input_sites=(0,),
        output_sites=(0,),
    )
    psi = rand_state(2, 1, 0)
    tr = run(ring, script, psi, seed=1)
    assert tr.edits == 0 and tr.cdits == 0
    assert np.abs(tr.final_state.vector - psi.vector).max() < 1e-12


def test_teleport_plus_state_all_branches_d2():
    ring = RINGS[2]
    script = teleportation_script(ring)
    plus = QState(2, 1, np.array([1, 1]) / 2**0.5)
    branches = run_branches(ring, script, plus)
    assert len(branches) == 4
    for tr in branches:
        assert abs(tr.probability - 0.25) < 1e-12
        out = state_on_sites(tr.final_state, script.output_sites)
        assert abs(1 - phase_free_fidelity(out, plus)) < 1e-9


@pytest.mark.parametrize("d", [2, 3, 5])
def test_teleport_every_branch_every_d(d):
    ring = RINGS[d]
    script = teleportation_script(ring)
    psi = rand_state(d, 1, 42)
    total = 0.0
    for tr in run_branches(ring, script, psi):
        out = state_on_sites(tr.final_state, script.output_sites)
        assert abs(1 - phase_free_fidelity(out, psi)) < 1e-9
        total += tr.probability
    assert abs(total - 1) < 1e-12


def test_teleport_seeded_runs_d3():
    ring = RINGS[3]
    script = teleportation_script(ring)
    for seed in range(100):
        psi = rand_state(3, 1, seed + 1000)
        tr = run(ring, script, psi, seed=seed)
        out = state_on_sites(tr.final_state, script.output_sites)
        assert abs(1 - phase_free_fidelity(out, psi)) < 1e-9
        assert tr.edits == 1 and tr.cdits == 2


def test_teleport_transcript_replay():
    ring = RINGS[3]
    script = teleportation_script(ring)
    psi = rand_state(3, 1, 7)
    a = run(ring, script, psi, seed=99)
    b = run(ring, script, psi, seed=99)
    assert a.outcomes == b.outcomes
    assert np.abs(a.final_state.vector - b.final_state.vector).max() == 0.0


def test_build_max_degenerate_two_parties():
    ring = RINGS[3]
    script = build_max_script(ring, 2)
    tr = run(ring, script, seed=0)
    assert tr.edits == 1 and tr.cdits == 0
    out = state_on_sites(tr.final_state, script.output_sites)
    assert abs(1 - phase_free_fidelity(out, max_state(ring, 2))) < 1e-12


@pytest.mark.parametrize("d,n", [(2, 3), (3, 3), (2, 4)])
def test_build_max_branch_exhaustive(d, n):
    ring = RINGS[d]
    script = build_max_script(ring, n)
    target = max_state(ring, n)
    total = 0.0
    for tr in run_branches(ring, script):
        out = state_on_sites(tr.final_state, script.output_sites)
        assert abs(1 - phase_free_fidelity(out, target)) < 1e-9
        total += tr.probability
    assert abs(total - 1) < 1e-10
    tr = run(ring, script, seed=1)
    assert tr.edits == n - 1
    assert tr.cdits == n - 1


def test_build_max_n4_d3_counts():
    ring = RINGS[3]
    script = build_max_script(ring, 4)
    tr = run(ring, script, seed=2)
    assert (tr.edits, tr.cdits) == (3, 3)
    out = state_on_sites(tr.final_state, script.output_sites)
    assert abs(1 - phase_free_fidelity(out, max_state(ring, 4))) < 1e-9


def test_bvk_smallest_instance():
    for d in (2, 3):
        ring = RINGS[d]
        script = bvk_merge_script(ring, (1, 1))
        target = max_state(ring, 2)
        for tr in run_branches(ring, script):
            out = state_on_sites(tr.final_state, script.output_sites)
            assert abs(1 - phase_free_fidelity(out, target)) < 1e-9
        assert run(ring, script, seed=0).cdits == 2


@pytest.mark.parametrize("d,sizes", [(2, (2, 2)), (2, (1, 2)), (3, (2, 1)), (2, (1, 1, 1))])
def test_bvk_merge_branch_exhaustive(d, sizes):
    ring = RINGS[d]
    script = bvk_merge_script(ring, sizes)
    target = max_state(ring, sum(sizes))
    total = 0.0
    for tr in run_branches(ring, script):
        out = state_on_sites(tr.final_state, script.output_sites)
        assert abs(1 - phase_free_fidelity(out, target)) < 1e-9, (d, sizes)
        total += tr.probability
    assert abs(total - 1) < 1e-10
    assert run(ring, script, seed=0).cdits == len(sizes)


def test_bvk_global_phase_factor_is_global_per_branch():
    """Each branch equals Max up to one overall phase (not per-component)."""
    ring = RINGS[3]
    script = bvk_merge_script(ring, (2, 1))
    target = max_state(ring, 3)
    for tr in run_branches(ring, script):
        out = state_on_sites(tr.final_state, script.output_sites)
        v = out.vector / np.linalg.norm(out.vector)
        overlap = np.vdot(target.vector, v)
        assert np.abs(v - overlap * target.vector).max() < 1e-9


def test_bvk_rejects_bad_sizes():
    with pytest.raises(ValueError):
        bvk_merge_script(RINGS[2], (2,))
    with pytest.raises(ValueError):
        bvk_merge_script(RINGS[2], (0, 2))


def test_locality_enforced_on_gates():
    with pytest.raises(LocalityError):
        ProtocolScript(
            d=2,
            n_sites=2,
            parties={"a": (0,), "b": (1,)},
            resources=[],
            steps=[CtrlStep("a", "X", control=0, target=1)],
            input_sites=(0, 1),
        )


def test_locality_enforced_on_conditions():
    ring = RINGS[2]
    steps = [
        MeasureStep("a", 0, "m"),
        CondStep("b", "X", site=1, register="m"),  # never sent to b
    ]

    def script():
        return ProtocolScript(
            d=2,
            n_sites=2,
            parties={"a": (0,), "b": (1,)},
            resources=[],
            steps=steps,
            input_sites=(0, 1),
        )

    with pytest.raises(LocalityError):
        script()
    # inserting the send step makes it legal; a built script keeps its own steps
    steps.insert(1, SendStep("a", "b", "m"))
    legal = script()
    steps.pop(1)
    assert len(legal.steps) == 3
    tr = run(ring, legal, rand_state(2, 2, 1), seed=0)
    assert tr.cdits == 1


def test_a_built_script_is_immutable():
    script = teleportation_script(RINGS[2])
    assert isinstance(script.steps, tuple) and isinstance(script.resources, tuple)
    with pytest.raises(TypeError):
        script.parties["bob"] = (0, 1, 2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        script.steps = ()


def test_send_requires_known_register():
    with pytest.raises(LocalityError):
        ProtocolScript(
            d=2,
            n_sites=2,
            parties={"a": (0,), "b": (1,)},
            resources=[],
            steps=[SendStep("a", "b", "nope")],
            input_sites=(0, 1),
        )


def test_same_party_send_is_free():
    ring = RINGS[2]
    script = ProtocolScript(
        d=2,
        n_sites=1,
        parties={"a": (0,)},
        resources=[],
        steps=[MeasureStep("a", 0, "m"), SendStep("a", "a", "m")],
        input_sites=(0,),
    )
    assert run(ring, script, rand_state(2, 1, 3), seed=0).cdits == 0


@pytest.mark.parametrize("d", [2, 3, 5])
def test_phase_space_measurement_matches_dual_diagram(d):
    """Branch probabilities equal the charged double-cup evaluations."""
    ring = RINGS[d]
    psi = rand_state(d, 2, 31)
    probs = {}
    for tr in run_branches(ring, phase_space_measurement(ring, 1), psi):
        probs[(tr.outcomes["l1"], tr.outcomes["l2"])] = tr.probability
    for l1 in range(d):
        for l2 in range(d):
            dia = (
                Diagram.identity(d, 4)
                .then(Charge(3, -(l1 + l2), 1))
                .then(Charge(2, l1, 0))
                .then(Cup(1))
                .then(Cup(0))
            )
            bra = evaluate(ring, dia).matrix
            p = float(abs((bra @ psi.vector)[0]) ** 2) / d
            assert abs(p - probs.get((l1, l2), 0.0)) < 1e-10


def test_phase_space_measurement_first_marginal_uniform():
    """On a product basis state the first meter is uniformly distributed."""
    for d in (2, 3):
        ring = RINGS[d]
        for k1 in range(d):
            for k2 in range(d):
                psi = QState.basis(d, 2, (k1, k2))
                marg = {}
                for tr in run_branches(ring, phase_space_measurement(ring, 1), psi):
                    l1 = tr.outcomes["l1"]
                    marg[l1] = marg.get(l1, 0.0) + tr.probability
                for l1 in range(d):
                    assert abs(marg.get(l1, 0.0) - 1 / d) < 1e-10


def test_phase_space_variants_same_measurement():
    """Variant 2 realizes the same outcome family (labels transposed)."""
    for d in (2, 3):
        ring = RINGS[d]
        psi = rand_state(d, 2, 5)
        p1, p2 = {}, {}
        for variant, store in ((1, p1), (2, p2)):
            for tr in run_branches(ring, phase_space_measurement(ring, variant), psi):
                store[(tr.outcomes["l1"], tr.outcomes["l2"])] = tr.probability
        for a in range(d):
            for b in range(d):
                assert abs(p2.get((a, b), 0.0) - p1.get((b, a), 0.0)) < 1e-10


def test_phase_space_applied_to_max2():
    """On Max_2 the outcomes have the l-structure of the charged double cup."""
    for d in (2, 3):
        ring = RINGS[d]
        psi = max_state(ring, 2)
        for tr in run_branches(ring, phase_space_measurement(ring, 1), psi):
            l1, l2 = tr.outcomes["l1"], tr.outcomes["l2"]
            dia = (
                Diagram.identity(d, 4)
                .then(Charge(3, -(l1 + l2), 1))
                .then(Charge(2, l1, 0))
                .then(Cup(1))
                .then(Cup(0))
            )
            bra = evaluate(ring, dia).matrix
            p = float(abs((bra @ psi.vector)[0]) ** 2) / d
            assert abs(p - tr.probability) < 1e-10


def test_branch_probabilities_match_sampling_frequencies():
    ring = RINGS[2]
    script = teleportation_script(ring)
    psi = rand_state(2, 1, 8)
    expect = {}
    for tr in run_branches(ring, script, psi):
        expect[tuple(sorted(tr.outcomes.items()))] = tr.probability
    counts = {}
    for seed in range(400):
        tr = run(ring, script, psi, seed=seed)
        key = tuple(sorted(tr.outcomes.items()))
        counts[key] = counts.get(key, 0) + 1
    for key, p in expect.items():
        assert abs(counts.get(key, 0) / 400 - p) < 0.1


def test_validate_rejects_overlapping_parties():
    with pytest.raises(ValueError):
        ProtocolScript(
            d=2,
            n_sites=2,
            parties={"a": (0, 1), "b": (1,)},
            resources=[],
            steps=[],
        ).validate()


@pytest.mark.parametrize(
    "resources, input_sites, output_sites, where",
    [
        ([(0, 0)], (), (), ("resource", 0)),
        ([(0, 1), ()], (), (), ("resource", 1)),  # an empty resource would scale the state by sqrt(d)
        ([(0, 1), (1, 2)], (), (), ("resource", 1)),
        ([(0, 3)], (), (), ("resource", 0)),
        ([(0, 1)], (1,), (), ("input", 0)),
        ([], (-1,), (), ("input", 0)),
        ([], (), (2, 2), ("output", 0)),
    ],
)
def test_validate_checks_site_sets(resources, input_sites, output_sites, where):
    with pytest.raises(LocalityError) as err:
        ProtocolScript(
            d=2,
            n_sites=3,
            parties={"a": (0, 1, 2)},
            resources=[Resource(sites) for sites in resources],
            steps=[],
            input_sites=input_sites,
            output_sites=output_sites,
        )
    assert err.value.where == where


AB = {"a": (0,), "b": (1,)}
MEASURED = [MeasureStep("a", 0, "m")]

# one broken script per rule, in the order ``validate`` checks them: (n_sites,
# parties, resources, steps, input_sites, output_sites), the text and ``where``
BROKEN = {
    "party-overlap": ((2, {"a": (0,), "b": (0, 1)}, [], [], (), ()), "site 0 owned by a and b", ("party", 1)),
    "party-gap": ((3, AB, [], [], (), ()), "party sites must partition the register", ("party", 1)),
    "party-outside": ((2, {"a": (0,), "b": (2,)}, [], [], (), ()), "party sites must partition the register", ("party", 1)),
    "resource-empty": ((2, AB, [(0, 1), ()], [], (), ()), "a resource needs at least one site", ("resource", 1)),
    "resource-outside": ((2, AB, [(0, 2)], [], (), ()), "resource site 2 outside 0..1", ("resource", 0)),
    "resource-twice": ((2, AB, [(1, 1)], [], (), ()), "resource names site 1 twice", ("resource", 0)),
    "resource-taken": ((2, AB, [(0, 1), (1,)], [], (), ()), "resource site 1 already holds a resource or the input", ("resource", 1)),
    "input-outside": ((2, AB, [], [], (-1,), ()), "input site -1 outside 0..1", ("input", 0)),
    "input-twice": ((2, AB, [], [], (0, 0), ()), "input names site 0 twice", ("input", 0)),
    "input-taken": ((2, AB, [(0, 1)], [], (0,), ()), "input site 0 already holds a resource or the input", ("input", 0)),
    "output-outside": ((2, AB, [], [], (), (2,)), "output site 2 outside 0..1", ("output", 0)),
    "output-twice": ((2, AB, [], [], (), (1, 1)), "output names site 1 twice", ("output", 0)),
    "gate-party": ((2, AB, [], [GateStep("c", "X", 0)], (), ()), "unknown party c", ("step", 0)),
    "ctrl-party-first": ((2, AB, [], [CtrlStep("c", "X", 0, 0)], (), ()), "unknown party c", ("step", 0)),
    "meter-party": ((2, AB, [], [MeasureStep("c", 0, "m")], (), ()), "unknown party c", ("step", 0)),
    "cond-party": ((2, AB, [], [*MEASURED, CondStep("c", "X", 0, "m")], (), ()), "unknown party c", ("step", 1)),
    "sft-party": ((2, AB, [], [SftStep("c")], (), ()), "unknown party c", ("step", 0)),
    "send-src": ((2, AB, [], [SendStep("c", "b", "m")], (), ()), "unknown party c", ("step", 0)),
    "send-dst": ((2, AB, [], [*MEASURED, SendStep("a", "c", "m")], (), ()), "unknown party c", ("step", 1)),
    "send-register": ((2, AB, [], [SendStep("a", "b", "m")], (), ()), "a cannot send unknown register m", ("step", 0)),
    "send-unmeasured": ((2, AB, [], [*MEASURED, SendStep("b", "a", "m")], (), ()), "b cannot send unknown register m", ("step", 1)),
    "ctrl-same": ((2, AB, [], [CtrlStep("a", "X", 1, 1)], (), ()), "control and target must differ", ("step", 0)),
    "gate-site": ((2, AB, [], [GateStep("a", "X", 1)], (), ()), "site 1 is not local to party a", ("step", 0)),
    "gate-outside": ((2, AB, [], [GateStep("a", "X", 2)], (), ()), "site 2 is not local to party a", ("step", 0)),
    "ctrl-control": ((2, AB, [], [CtrlStep("b", "X", 0, 1)], (), ()), "site 0 is not local to party b", ("step", 0)),
    "ctrl-target": ((2, AB, [], [CtrlStep("a", "X", 0, 1)], (), ()), "site 1 is not local to party a", ("step", 0)),
    "meter-site": ((2, AB, [], [MeasureStep("b", 0, "m")], (), ()), "site 0 is not local to party b", ("step", 0)),
    "cond-site-first": ((2, AB, [], [CondStep("a", "X", 1, "m")], (), ()), "site 1 is not local to party a", ("step", 0)),
    "sft-site": ((2, AB, [], [SftStep("a")], (), ()), "site 1 is not local to party a", ("step", 0)),
    "cond-register": ((2, AB, [], [*MEASURED, CondStep("b", "X", 1, "m")], (), ()), "b conditions on unreceived register m", ("step", 1)),
    "gate-power": ((2, AB, [], [GateStep("a", "X", 0, 1.5)], (), ()), "power 1.5 is not an integer", ("step", 0)),
    "ctrl-exponent": ((2, {"a": (0, 1)}, [], [CtrlStep("a", "X", 0, 1, 2.0)], (), ()), "exponent 2.0 is not an integer", ("step", 0)),
    "cond-coefficient": ((2, AB, [], [*MEASURED, CondStep("a", "X", 0, "m", 0.5)], (), ()), "coefficient 0.5 is not an integer", ("step", 1)),
}


@pytest.mark.parametrize("fields, message, where", BROKEN.values(), ids=BROKEN.keys())
def test_every_locality_error_names_its_rule_and_offender(fields, message, where):
    n_sites, parties, resources, steps, input_sites, output_sites = fields
    with pytest.raises(LocalityError) as err:
        ProtocolScript(2, n_sites, parties, [Resource(s) for s in resources], steps, input_sites, output_sites)
    assert (str(err.value), err.value.where) == (message, where)


def test_phase_space_full_forms_match_simplified():
    """The dressed long forms equal the simplified ones up to relabeling.

    The Gaussians commute through the controls and drop at the meters;
    the trailing inverse controlled gate shifts the second outcome by the
    first: p_full(l1, l2) == p_simple(l1, l2 + l1).
    """
    for d in (2, 3):
        ring = RINGS[d]
        psi = rand_state(d, 2, 77)
        for variant in (1, 2):
            p_simple, p_full = {}, {}
            for simplified, store in ((True, p_simple), (False, p_full)):
                script = phase_space_measurement(ring, variant, simplified=simplified)
                for tr in run_branches(ring, script, psi):
                    store[(tr.outcomes["l1"], tr.outcomes["l2"])] = tr.probability
            for l1 in range(d):
                for l2 in range(d):
                    if variant == 1:
                        simple_key = (l1, (l2 + l1) % d)
                    else:
                        simple_key = ((l1 + l2) % d, l2)
                    assert (
                        abs(p_full.get((l1, l2), 0.0) - p_simple.get(simple_key, 0.0))
                        < 1e-10
                    ), (d, variant, l1, l2)


PHASE_SPACE_STEPS = {
    (1, True): [
        CtrlStep("a", "X", control=0, target=1),
        GateStep("a", "F", site=0, power=-1),
    ],
    (1, False): [
        GateStep("a", "G", site=0, power=-1),
        CtrlStep("a", "X", control=0, target=1),
        GateStep("a", "G", site=0, power=1),
        GateStep("a", "F", site=0, power=-1),
        GateStep("a", "G", site=0, power=1),
        CtrlStep("a", "X", control=0, target=1, exponent=-1),
    ],
    (2, True): [
        CtrlStep("a", "X", control=1, target=0),
        GateStep("a", "F", site=1, power=1),
    ],
    (2, False): [
        GateStep("a", "G", site=1, power=1),
        CtrlStep("a", "X", control=1, target=0),
        GateStep("a", "G", site=1, power=-1),
        GateStep("a", "F", site=1, power=1),
        GateStep("a", "G", site=1, power=-1),
        CtrlStep("a", "X", control=1, target=0, exponent=-1),
    ],
}


@pytest.mark.parametrize("variant,simplified", list(PHASE_SPACE_STEPS))
def test_phase_space_steps_are_the_drawn_circuits(variant, simplified):
    script = phase_space_measurement(RINGS[3], variant, simplified)
    meters = [MeasureStep("a", 0, "l1"), MeasureStep("a", 1, "l2")]
    assert list(script.steps) == PHASE_SPACE_STEPS[variant, simplified] + meters
    with pytest.raises(ValueError, match="variant must be 1 or 2"):
        phase_space_measurement(RINGS[3], 3, simplified)


def test_state_on_sites_rejects_uncollapsed_qudit():
    with pytest.raises(ValueError, match="qudit 1 .* weight 5.000e-01"):
        state_on_sites(max_state(RINGS[2], 2), (0,))


FLOAT_SITE_READERS = {
    "state_on_sites": lambda psi: protocols.state_on_sites(psi, (1.0,)),
    "entanglement_entropy": lambda psi: entanglement_entropy(psi, (1.0,)),
}


@pytest.mark.parametrize("call", FLOAT_SITE_READERS.values(), ids=FLOAT_SITE_READERS.keys())
def test_a_float_site_is_refused_by_the_plan_readers_on_a_warm_cache(call):
    """``state_on_sites`` and the entanglement cut read a plan of their sites too:
    after a call at site 1, ``1.0`` once read the site-1 state and ``-0.0``."""
    psi = QState.basis(2, 2, (1, 0))
    protocols.state_on_sites(psi, (1,))
    entanglement_entropy(psi, (1,))
    with pytest.raises(TypeError, match=r"^site 1\.0 is not an integer$"):
        call(psi)


@pytest.mark.parametrize("execute", [run, run_branches])
@pytest.mark.parametrize(
    "vector, reason",
    [([0, 0, 0], "has no weight"), ([np.nan, 0, 0], "non-finite"), ([1, np.inf, 0], "non-finite")],
)
def test_executors_refuse_an_input_with_no_weight_or_a_non_finite_entry(execute, vector, reason):
    """Such an input has no branch probabilities: ``run_branches`` would return no
    transcript and ``run`` would fail inside the sampler."""
    ring = RINGS[3]
    psi = QState(3, 1, np.array(vector, dtype=complex))
    with pytest.raises(ValueError, match=reason):
        execute(ring, teleportation_script(ring), psi)


@pytest.mark.parametrize("execute", [run, run_branches])
@pytest.mark.parametrize("scale", [2.0, 0.5, 1 + 1e-6])
def test_executors_refuse_an_input_off_unit_norm(execute, scale):
    """An unnormalized input would give branch probabilities that sum to its
    squared norm: ``run_branches`` returned 9 branches summing to 4 for |2,0,0>."""
    ring = RINGS[3]
    psi = QState(3, 1, np.array([scale, 0, 0], dtype=complex))
    with pytest.raises(ValueError, match="squared norm .*, not 1"):
        execute(ring, teleportation_script(ring), psi)


@pytest.mark.parametrize("execute", [run, run_branches])
def test_executors_read_a_plain_list_or_integer_input(execute):
    """``QState`` keeps its vector as given: a list once failed the input checks
    (``'list' object has no attribute 'any'``) and integers the first meter."""
    ring = RINGS[3]
    with pytest.raises(ValueError, match="^input state has squared norm 4, not 1$"):
        execute(ring, teleportation_script(ring), QState(3, 1, [2, 0, 0]))
    meter = ProtocolScript(3, 1, {"a": (0,)}, [], [MeasureStep("a", 0, "m")], input_sites=(0,))
    for vector in ([0, 1, 0], np.array([0, 1, 0])):
        out = execute(ring, meter, QState(3, 1, vector))
        (tr,) = out if execute is run_branches else [out]
        assert tr.outcomes == {"m": 1} and tr.probability == 1.0
        assert np.array_equal(tr.final_state.vector, [0, 1, 0])


def test_executors_take_an_input_within_the_tolerance_of_unit_norm():
    ring = RINGS[3]
    psi = QState(3, 1, np.array([1 + 1e-12, 0, 0], dtype=complex))
    branches = run_branches(ring, teleportation_script(ring), psi)
    assert abs(sum(tr.probability for tr in branches) - 1) < 1e-9


# ---------------------------------------------------------------------------
# the tree walk against the per-tuple replay it replaced
# ---------------------------------------------------------------------------


def _replay(ring, script, input_state, seed=None, forced=None):
    """One full run of the script: sampled with ``seed``, or with the
    ``forced`` outcome of each measurement, stopping once the running
    probability is 0."""
    script.validate()
    rng = np.random.default_rng(seed)
    state = protocols._initial_state(ring, script, input_state)
    outcomes, cdits, prob, measured = {}, 0, 1.0, 0
    for step in script.steps:
        if isinstance(step, GateStep):
            state = gates.apply_site_gate(
                state, gates.gate_power(ring, step.name, step.power), step.site
            )
        elif isinstance(step, CtrlStep):
            block = ctrl_power_block(ring, step.name, step.exponent)
            local = gates.Local((step.control, step.target), block)
            state = QState(state.d, state.n, gates.apply_local(state.vector, state.d, state.n, local))
        elif isinstance(step, MeasureStep):
            if forced is not None:
                outcome = forced[measured]
                state, p = gates.project_site(state, step.site, outcome)
            else:
                outcome, state, p = gates.measure(state, step.site, rng)
            outcomes[step.register] = int(outcome)
            prob *= p
            measured += 1
            if prob == 0.0:
                break
        elif isinstance(step, SendStep):
            cdits += step.src != step.dst
        elif isinstance(step, CondStep):
            power = step.coeff * outcomes[step.register]
            if power:
                m = gates.gate_power(ring, step.name, power)
                state = gates.apply_site_gate(state, m, step.site)
    return protocols.Transcript(seed, outcomes, state, len(script.resources), cdits, prob)


def _replay_branches(ring, script, input_state=None):
    """Replay the whole script once per outcome tuple, keeping p > 1e-15."""
    n_meas = sum(isinstance(s, MeasureStep) for s in script.steps)
    out = []
    for combo in gates.all_digit_tuples(ring.d, n_meas):
        tr = _replay(ring, script, input_state, forced=dict(enumerate(combo)))
        if tr.probability > 1e-15:
            out.append(tr)
    return out


def _oracle_cases():
    cases = []
    for d in range(2, 8):
        cases.append((f"teleport-d{d}", d, teleportation_script, rand_state(d, 1, 100 + d)))
    for d, n in [(2, 3), (2, 6), (3, 4), (5, 3)]:
        cases.append((f"build_max-d{d}-n{n}", d, lambda ring, n=n: build_max_script(ring, n), None))
    for d, sizes in [(2, (2, 2, 1)), (3, (1, 2))]:
        tag = "".join(map(str, sizes))
        cases.append((f"bvk-d{d}-{tag}", d, lambda ring, s=sizes: bvk_merge_script(ring, s), None))
    for d in (2, 3, 5):
        for variant in (1, 2):
            for simplified in (True, False):
                for a, b in [(0, 0), (1, d - 1), (d - 1, 1)]:
                    cases.append((
                        f"phase_space-v{variant}-{'short' if simplified else 'long'}-d{d}-{a}{b}",
                        d,
                        lambda ring, v=variant, s=simplified: phase_space_measurement(ring, v, s),
                        QState.basis(d, 2, (a, b)),
                    ))
    return [pytest.param(d, build, psi, id=name) for name, d, build, psi in cases]


@pytest.mark.parametrize("d,build,psi", _oracle_cases())
def test_run_branches_matches_replay_oracle(d, build, psi):
    ring = RINGS[d]
    script = build(ring)
    assert_same_walk(run_branches(ring, script, psi), _replay_branches(ring, script, psi))


@pytest.mark.parametrize("d", [2, 3, 5])
def test_run_matches_replay_oracle(d):
    ring = RINGS[d]
    for seed in range(10):
        for script, psi in (
            (teleportation_script(ring), rand_state(d, 1, seed)),
            (build_max_script(ring, 4), None),
            (bvk_merge_script(ring, (1, 2)), None),
        ):
            assert_same_walk(
                [run(ring, script, psi, seed=seed)], [_replay(ring, script, psi, seed=seed)]
            )


def test_run_branches_builds_the_initial_state_once(monkeypatch):
    calls = []
    build = protocols._initial_state

    def counted(*args):
        calls.append(1)
        return build(*args)

    monkeypatch.setattr(protocols, "_initial_state", counted)
    ring = RINGS[3]
    for script in (build_max_script(ring, 4), bvk_merge_script(ring, (2, 1))):
        calls.clear()
        assert len(run_branches(ring, script)) > 1
        assert len(calls) == 1


@pytest.mark.parametrize("d", [2, 3, 5])
def test_run_branches_never_expands_a_zero_probability_child(monkeypatch, d):
    """On |a,b> the first meter is uniform and the second reads a + b for
    certain, so the batch holds d columns after each meter, never d*d: each
    meter makes only the children it keeps, one column each."""
    widths = []
    children = protocols._children

    def counted(v, parents, outcomes):
        widths.append(len(parents))
        return children(v, parents, outcomes)

    monkeypatch.setattr(protocols, "_children", counted)
    ring = RINGS[d]
    psi = QState.basis(d, 2, (1, d - 1))
    branches = run_branches(ring, phase_space_measurement(ring, 1), psi)
    assert len(branches) == d
    assert widths == [d, d]


def test_sampled_run_holds_a_constant_number_of_states():
    """Eight meters at d=2, n=16: a sampled run keeps no pre-measurement state."""
    n = 16
    steps = []
    for site in range(8):
        steps += [GateStep("a", "F", site), MeasureStep("a", site, f"m{site}")]
    script = ProtocolScript(2, n, {"a": tuple(range(n))}, [], steps)
    run(RINGS[2], script, seed=1)
    tracemalloc.start()
    try:
        run(RINGS[2], script, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 16 * 2**n


def test_sft_step_needs_a_party_owning_every_site():
    ring = RINGS[3]
    psi = rand_state(3, 2, 0)
    whole = ProtocolScript(3, 2, {"a": (0, 1)}, [], [SftStep("a")], input_sites=(0, 1))
    out = run(ring, whole, psi).final_state
    assert np.array_equal(out.vector, apply_sft(ring, psi).vector)
    with pytest.raises(LocalityError):
        ProtocolScript(3, 2, {"a": (0,), "b": (1,)}, [], [SftStep("a")], input_sites=(0, 1))


# ---------------------------------------------------------------------------
# the walker's process-wide block cache
# ---------------------------------------------------------------------------


def _transcript_key(tr):
    v = tr.final_state.vector
    return (tr.seed, list(tr.outcomes.items()), v.dtype, v.shape, tr.edits, tr.cdits, tr.probability)


def _same_transcripts(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert _transcript_key(x) == _transcript_key(y)
        assert np.array_equal(x.final_state.vector, y.final_state.vector)


def _cache_cases():
    for d in range(2, 8):
        yield f"teleport-d{d}", RINGS[d], teleportation_script(RINGS[d]), rand_state(d, 1, d)
    for d in (2, 3, 5):
        ring = RINGS[d]
        yield f"build_max-d{d}", ring, build_max_script(ring, 3 if d == 5 else 4), None
        yield f"bvk-d{d}", ring, bvk_merge_script(ring, (2, 1)), None
        for variant in (1, 2):
            for simplified in (True, False):
                script = phase_space_measurement(ring, variant, simplified)
                yield f"phase_space-v{variant}-{simplified}-d{d}", ring, script, rand_state(d, 2, d)


CACHE_CASES = list(_cache_cases())


@pytest.mark.parametrize("ring,script,psi", [c[1:] for c in CACHE_CASES], ids=[c[0] for c in CACHE_CASES])
def test_cold_and_warm_block_cache_give_equal_walks(ring, script, psi):
    gates._gate_block.cache_clear()
    gates._ctrl_block.cache_clear()
    cold = [run(ring, script, psi, seed=7)], run_branches(ring, script, psi)
    assert gates._gate_block.cache_info().currsize + gates._ctrl_block.cache_info().currsize > 0
    warm = [run(ring, script, psi, seed=7)], run_branches(ring, script, psi)
    for a, b in zip(cold, warm):
        _same_transcripts(a, b)


def test_cached_blocks_are_read_only():
    ring = RINGS[3]
    steps = [GateStep("a", "F", 0, -1), CtrlStep("a", "X", 0, 1, 2), CondStep("a", "Y", 1, "m", 2)]
    for step in steps:
        (local,) = step.locals(ring, 1)
        with pytest.raises(ValueError):
            local.block[0, 0] = 1.0
    # the public builders still hand out fresh, writable arrays
    fresh = gates.gate_power(ring, "F", -1)
    fresh[0, 0] = 1.0
    assert not np.array_equal(fresh, steps[0].locals(ring)[0].block)


@pytest.mark.parametrize("d", range(2, 8))
def test_gate_power_mod_4d_is_bit_exact(d):
    ring = RINGS[d]
    for name in "XYZFG":
        for p in range(-8 * d, 8 * d + 1):
            a, b = gates.gate_power(ring, name, p), gates.gate_power(ring, name, p % (4 * d))
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (name, p)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_walker_blocks_are_the_public_builders_bit_for_bit(d):
    """Each cached block has the bits the public builder gives for that step."""
    ring = RINGS[d]
    for name in "XYZFG":
        for p in range(-8 * d, 8 * d + 1):
            (local,) = GateStep("a", name, 0, p).locals(ring)
            assert local.block.tobytes() == gates.gate_power(ring, name, p).tobytes(), (name, p)
        for e in range(-2 * d, 2 * d + 1):
            (local,) = CtrlStep("a", name, 1, 0, e).locals(ring)
            assert local.sites == (1, 0)
            assert local.block.tobytes() == ctrl_power_block(ring, name, e).tobytes(), (name, e)
    with pytest.raises(ValueError, match="control and target must differ"):
        ProtocolScript(d, 2, {"a": (0, 1)}, [], [CtrlStep("a", "X", 1, 1)])


def test_cond_sweep_keeps_at_most_5_times_4d_blocks_per_ring():
    """Register values times wide coefficients reach every residue mod 4d, and no more."""
    d = 3
    ring = RINGS[d]
    steps = [GateStep("a", "F", 0), MeasureStep("a", 0, "m")]
    for coeff in range(-12 * d, 12 * d + 1):
        steps += [CondStep("a", name, 1, "m", coeff) for name in "XYZFG"]
    script = ProtocolScript(d, 2, {"a": (0, 1)}, [], steps)
    gates._gate_block.cache_clear()
    branches = run_branches(ring, script)
    assert [tr.outcomes["m"] for tr in branches] == list(range(d))
    # the gate step's F**1 shares its entry with the cond steps' F**1
    assert gates._gate_block.cache_info().currsize == 5 * 4 * d


@pytest.mark.parametrize(
    "step, message",
    [
        (GateStep("a", "X", 1, 1.5), "power 1.5 is not an integer"),
        (CtrlStep("a", "X", 0, 1, 1.5), "exponent 1.5 is not an integer"),
        (CondStep("a", "X", 1, "m", 0.5), "power 0.5 is not an integer"),  # value 0 gives power 0.0, no block
    ],
    ids=["gate", "ctrl", "cond"],
)
def test_a_non_integer_power_stops_the_walk(step, message):
    """``validate`` refuses such a step (see ``BROKEN``); the walk does too, past a bypassed ``validate``."""
    script = ProtocolScript(2, 2, {"a": (0, 1)}, [], [GateStep("a", "F", 0), MeasureStep("a", 0, "m")])
    object.__setattr__(script, "steps", (*script.steps, step))
    with pytest.raises(TypeError, match=f"^{message}$"):
        run_branches(RINGS[2], script)


# ---------------------------------------------------------------------------
# each step kind carries its rules and its action
# ---------------------------------------------------------------------------

# one step of every class, on a register of three qudits that party a owns
STEP_EXAMPLES = {
    GateStep: GateStep("a", "F", 2, -1),
    CtrlStep: CtrlStep("a", "X", 2, 0, 2),
    MeasureStep: MeasureStep("a", 1, "m"),
    SendStep: SendStep("a", "b", "m"),
    CondStep: CondStep("a", "Y", 1, "m", 2),
    SftStep: SftStep("a"),
}


def _walker_kinds() -> set[str]:
    """The step kinds that ``_run`` compares ``kind`` against, read from its source."""
    kinds = set()
    for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(protocols._run)))):
        if isinstance(node, ast.Compare) and isinstance(node.ops[0], ast.Eq):
            left = node.left
            if getattr(left, "attr", getattr(left, "id", None)) == "kind":
                kinds |= {c.value for c in node.comparators if isinstance(c, ast.Constant)}
    return kinds


def test_every_step_kind_is_one_the_walker_handles():
    assert set(STEP_EXAMPLES) == set(protocols.Step.__subclasses__())
    kinds = _walker_kinds()
    assert kinds == {"local", "cond", "meter", "send", "sft"}
    for cls, step in STEP_EXAMPLES.items():
        assert type(step) is cls and step.kind in kinds
        assert "kind" not in {f.name for f in dataclasses.fields(step)}


@pytest.mark.parametrize("d", [2, 3])
def test_each_step_acts_on_exactly_the_sites_it_checks(d):
    ring, n = RINGS[d], 3
    for step in STEP_EXAMPLES.values():
        if step.kind in ("local", "cond"):
            touched = tuple(s for local in step.locals(ring, 1) for s in local.sites)
            assert touched == step.sites(n), step
        # handing any one of its sites to another party breaks the step's locality
        for s in step.sites(n):
            owner = {t: "b" if t == s else "a" for t in range(n)}
            with pytest.raises(LocalityError, match=f"^site {s} is not local to party a$"):
                step.check(owner, {"a": {"m"}, "b": set()})
    assert [STEP_EXAMPLES[cls].sites(n) for cls in (SendStep, MeasureStep, SftStep)] == [(), (1,), (0, 1, 2)]


def test_no_module_asks_a_step_for_its_class():
    """Each step carries its own rules and action, so nothing in the package
    calls ``isinstance`` or ``issubclass`` with a step class."""
    names = {name for name, obj in vars(protocols).items() if isinstance(obj, type) and name.endswith("Step")}
    assert names >= {cls.__name__ for cls in STEP_EXAMPLES}
    offenders = []
    for path in sorted(Path(protocols.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", None) in ("isinstance", "issubclass")
                and len(node.args) == 2
                and {getattr(x, "attr", getattr(x, "id", None)) for x in ast.walk(node.args[1])} & names
            ):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
