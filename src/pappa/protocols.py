"""Multi-party protocols: teleportation, resource-state merging, and the
generalized multipartite merge, with edit/cdit accounting.

A script owns a global register of qudit sites partitioned among named
parties.  Every quantum step must stay inside one party's sites, and a
classically controlled correction may only key on a register its party
has measured itself or received over a classical channel.  The rules are
checked once, by ``ProtocolScript.validate`` when a script is built, and a
built script is immutable.  One pre-shared entangled resource costs one
edit; one cross-party classical message costs one cdit.

The walker reads every block from the read-only caches of ``gates``: a
gate's from ``gate_block``, which it shares with ``evaluator.evaluate``, a
ctrl step's from ``ctrl_block`` (exact, from the same phase table), and the
SFT's braids from ``sft_locals``.  It builds and caches no block itself.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from . import entangle, gates
from .gates import QState
from .phases import DEFAULT_TOL, PhaseRing


class LocalityError(ValueError):
    """A script breaks a rule; raised when a ``ProtocolScript`` is built.

    ``validate`` sets ``where`` to the offender: ("party", i), ("resource", i),
    ("input", 0), ("output", 0) or ("step", i), i counting in declaration order.
    """

    where: tuple[str, int] | None = None


# ---------------------------------------------------------------------------
# script structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GateStep:
    party: str
    name: str  # X, Y, Z, F, G
    site: int
    power: int = 1


@dataclass(frozen=True)
class CtrlStep:
    """Apply gate**(exponent * value(control)) to target (both quantum)."""

    party: str
    name: str
    control: int
    target: int
    exponent: int = 1


@dataclass(frozen=True)
class MeasureStep:
    party: str
    site: int
    register: str


@dataclass(frozen=True)
class SendStep:
    src: str
    dst: str
    register: str


@dataclass(frozen=True)
class CondStep:
    """Apply gate**(coeff * registers value) to one site."""

    party: str
    name: str
    site: int
    register: str
    coeff: int = 1


@dataclass(frozen=True)
class SftStep:
    """The string Fourier transform on the whole register; the party must own every site."""

    party: str


Step = GateStep | CtrlStep | MeasureStep | SendStep | CondStep | SftStep


@dataclass(frozen=True)
class Resource:
    """A pre-shared |Max>_k resource on the given (global) sites."""

    sites: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.sites)


@dataclass(frozen=True)
class ProtocolScript:
    """Parties owning register sites, pre-shared resources, and the steps.

    Checked once, when built: ``parties`` is stored read-only, the sequences
    as tuples, and ``validate`` runs; the executors do not check it again.
    """

    d: int
    n_sites: int
    parties: Mapping[str, tuple[int, ...]]
    resources: tuple[Resource, ...]
    steps: tuple[Step, ...]
    input_sites: tuple[int, ...] = ()
    # sites that remain unmeasured protocol carriers at the end
    output_sites: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        parties = MappingProxyType({p: tuple(s) for p, s in self.parties.items()})
        object.__setattr__(self, "parties", parties)
        for name in ("resources", "steps", "input_sites", "output_sites"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        self.validate()

    def validate(self) -> None:
        """Check every rule of a script; raises ``LocalityError`` with ``where`` set.

        Parties partition the register; resource, input and output sites are
        distinct and in range, and resources and the input do not overlap.
        """
        owner: dict[int, str] = {}
        shared: set[int] = set()  # resource and input sites, which must not overlap
        known: dict[str, set[str]] = {p: set() for p in self.parties}
        where = None
        try:
            for i, (name, sites) in enumerate(self.parties.items()):
                where = ("party", i)
                for s in sites:
                    if s in owner:
                        raise LocalityError(f"site {s} owned by {owner[s]} and {name}")
                    owner[s] = name
            # a gap is reported at the last party
            if len(owner) != self.n_sites or not all(0 <= s < self.n_sites for s in owner):
                raise LocalityError("party sites must partition the register")
            for i, res in enumerate(self.resources):
                where = ("resource", i)
                self._check_site_set("resource", res.sites, shared)
            where = ("input", 0)
            self._check_site_set("input", self.input_sites, shared)
            where = ("output", 0)
            self._check_site_set("output", self.output_sites, set())
            for i, step in enumerate(self.steps):
                where = ("step", i)
                self._check_step(step, owner, known)
        except LocalityError as exc:
            exc.where = where
            raise

    def _check_site_set(self, label: str, sites: tuple[int, ...], taken: set[int]) -> None:
        """``sites`` lie in the register, are distinct, and miss ``taken``, which they join."""
        for i, s in enumerate(sites):
            if not 0 <= s < self.n_sites:
                raise LocalityError(f"{label} site {s} outside 0..{self.n_sites - 1}")
            if s in sites[:i]:
                raise LocalityError(f"{label} names site {s} twice")
            if s in taken:
                raise LocalityError(f"{label} site {s} already holds a resource or the input")
        taken.update(sites)

    def _check_step(self, step: Step, owner: dict[int, str], known: dict[str, set[str]]) -> None:
        """``known`` maps each party to the registers it has measured or received."""
        for party in (step.src, step.dst) if isinstance(step, SendStep) else (step.party,):
            if party not in known:
                raise LocalityError(f"unknown party {party}")
        if isinstance(step, SendStep):
            if step.register not in known[step.src]:
                raise LocalityError(f"{step.src} cannot send unknown register {step.register}")
            known[step.dst].add(step.register)
            return
        if isinstance(step, CtrlStep):
            if step.control == step.target:
                raise LocalityError("control and target must differ")
            sites = (step.control, step.target)
        else:
            sites = range(self.n_sites) if isinstance(step, SftStep) else (step.site,)
        for s in sites:
            if owner.get(s) != step.party:
                raise LocalityError(f"site {s} is not local to party {step.party}")
        if isinstance(step, MeasureStep):
            known[step.party].add(step.register)
        elif isinstance(step, CondStep) and step.register not in known[step.party]:
            raise LocalityError(f"{step.party} conditions on unreceived register {step.register}")


@dataclass
class Transcript:
    seed: int | None
    outcomes: dict[str, int]
    final_state: QState
    edits: int
    cdits: int
    probability: float = 1.0


# ---------------------------------------------------------------------------
# executor
# ---------------------------------------------------------------------------


def _initial_state(
    ring: PhaseRing, script: ProtocolScript, input_state: QState | None
) -> QState:
    d, total = ring.d, script.n_sites
    blocks: list[tuple[tuple[int, ...], np.ndarray]] = []
    used: set[int] = set()
    if script.input_sites:
        if input_state is None:
            raise ValueError("script expects an input state")
        if input_state.n != len(script.input_sites):
            raise ValueError("input state size mismatch")
        blocks.append((script.input_sites, input_state.vector))
        used.update(script.input_sites)
    elif input_state is not None:
        raise ValueError("script takes no input state")
    for res in script.resources:
        blocks.append((res.sites, entangle.max_state(ring, res.k).vector))
        used.update(res.sites)
    rest = tuple(s for s in range(total) if s not in used)
    if rest or not blocks:
        zero = np.zeros(d ** len(rest), dtype=complex)
        zero[0] = 1.0
        blocks.append((rest, zero))
    order = [s for sites, _ in blocks for s in sites]
    vec = blocks[0][1]
    for _, block_vec in blocks[1:]:
        vec = np.multiply.outer(vec, block_vec).reshape(-1)  # np.kron's bits, less overhead
    t = vec.reshape([d] * total)
    axes = [order.index(site) for site in range(total)]
    return QState(d, total, np.transpose(t, axes).reshape(-1))


def _locals(ring: PhaseRing, n: int, step: Step, value: int | None = None):
    """What the walk applies at ``step``: (scale or None, Locals).

    A cond step needs its register ``value``; measure and send steps give
    None.  The SFT's omega**0.5 stays a scale, as in ``gates.apply_sft``.
    """
    if isinstance(step, GateStep):
        return None, [gates.Local((step.site,), gates.gate_block(ring, step.name, step.power))]
    if isinstance(step, CtrlStep):
        block = gates.ctrl_block(ring, step.name, step.exponent)
        return None, [gates.Local((step.control, step.target), block)]
    if isinstance(step, CondStep):
        power = step.coeff * value
        if not power:
            return None, []
        return None, [gates.Local((step.site,), gates.gate_block(ring, step.name, power))]
    if isinstance(step, SftStep):
        return ring.omega_sqrt, gates.sft_locals(ring, n)
    return None


def _run(ring: PhaseRing, script: ProtocolScript, input_state: QState | None, seed, fork):
    """Walk the outcome tree of ``script`` depth first; return its leaves.

    Each gate block is built once per process, read-only, by
    ``gates.gate_block`` or, for a ctrl step, ``gates.ctrl_block``.  Each
    gate, ctrl and SFT step is wrapped in its ``Local``s once per walk,
    before it; a cond step once per visit, from its register's value.
    ``fork(state, site)`` lists the children taken at a measurement as
    (outcome, p) pairs in outcome order, ``p`` being the child's own
    probability.  A child's state is collapsed from its parent
    only when the walk reaches it, and a fork is dropped with its parent
    state when its last child is taken.  So only the parents of forks with
    children left and the state being advanced are alive: at most m+1
    states for m measurements, and O(1) when every fork has one child, as
    in ``run``.
    """
    if ring.d != script.d:
        raise ValueError(f"ring degree {ring.d} and script degree {script.d} differ")
    d, n, steps = ring.d, script.n_sites, script.steps
    ops = [None if isinstance(step, CondStep) else _locals(ring, n, step) for step in steps]
    leaves: list[Transcript] = []
    pending: list[tuple] = []  # (children, parent, measure step, resume at, outcomes, cdits, prob)
    state = _initial_state(ring, script, input_state)
    start, outcomes, cdits, prob = 0, {}, 0, 1.0
    while True:
        for i in range(start, len(steps)):
            step, op = steps[i], ops[i]
            if isinstance(step, MeasureStep):
                children = fork(state, step.site)
                if children:
                    pending.append((children, state, step, i + 1, outcomes, cdits, prob))
                break
            if isinstance(step, SendStep):
                if step.src != step.dst:
                    cdits += 1
                continue
            if isinstance(step, CondStep):
                op = _locals(ring, n, step, outcomes[step.register])
            scale, locs = op
            v = state.vector if scale is None else state.vector * scale
            for local in locs:
                v = gates.apply_local(v, d, n, local)
            state = QState(d, n, v)
        else:
            leaves.append(Transcript(seed, outcomes, state, len(script.resources), cdits, prob))
        # resume at the next child of the deepest fork that has one left
        if not pending:
            return leaves
        children, parent, step, start, outcomes, cdits, prob = pending[-1]
        outcome, p = children.pop(0)
        if not children:
            pending.pop()
        state = gates.collapse_site(parent, step.site, outcome, p)
        del parent  # a fork's parent state lives only as long as its fork
        outcomes = {**outcomes, step.register: outcome}
        prob *= p


def run(
    ring: PhaseRing,
    script: ProtocolScript,
    input_state: QState | None = None,
    seed: int | None = 0,
) -> Transcript:
    """Sample one transcript; deterministic for a fixed seed."""
    rng = np.random.default_rng(seed)

    def sample(state, site):
        return [gates.draw(state, site, rng)]

    (tr,) = _run(ring, script, input_state, seed, sample)
    return tr


def run_branches(
    ring: PhaseRing, script: ProtocolScript, input_state: QState | None = None
) -> list[Transcript]:
    """Execute every measurement branch; probabilities sum to one.

    One depth-first walk of the outcome tree: the initial state is built
    once, the steps before each measurement run once per surviving prefix,
    and each measurement forks into outcomes 0..d-1 from one
    ``site_probabilities`` call.  An outcome of
    probability exactly 0 is dropped unexpanded, and a leaf is kept when
    its probability exceeds 1e-15.  Transcripts come back in the order of
    ``gates.all_digit_tuples`` over the outcomes.  The cost is one pass
    over the steps per surviving prefix, not d**m full replays, and at
    most m+1 states are alive at once for m measurements.
    """

    def every(state, site):
        probs = gates.site_probabilities(state, site)
        return [(k, float(p)) for k, p in enumerate(probs) if p != 0.0]

    leaves = _run(ring, script, input_state, None, every)
    return [tr for tr in leaves if tr.probability > 1e-15]


def state_on_sites(state: QState, sites) -> QState:
    """Restrict to ``sites``; all other qudits must be collapsed to a basis value.

    Used to read off the surviving carriers after measurements collapse
    the rest of the register.  Raises ``ValueError`` when another qudit
    holds more than ``DEFAULT_TOL`` of the weight off its likeliest value.
    """
    sites = tuple(sites)
    d, n = state.d, state.n
    t = state.vector.reshape([d] * n)
    others = [i for i in range(n) if i not in sites]
    # find the (unique) basis values of the collapsed qudits
    for site in sorted(others, reverse=True):
        probs = (np.abs(np.moveaxis(t, site, 0)) ** 2).reshape(d, -1).sum(axis=1)
        val = int(np.argmax(probs))
        stray = float((probs.sum() - probs[val]) / probs.sum())
        if stray > DEFAULT_TOL:
            raise ValueError(
                f"qudit {site} is not collapsed: weight {stray:.3e} off its value {val}"
            )
        t = np.take(t, val, axis=site)
    v = t.reshape(-1)
    order = list(np.argsort(sites))
    nk = len(sites)
    t = v.reshape([d] * nk)
    t = np.transpose(t, [order.index(i) for i in range(nk)])
    return QState(d, nk, t.reshape(-1))


def phase_free_fidelity(a: QState, b: QState) -> float:
    """|<a|b>| over the product of norms; 1 means equal up to global phase."""
    na, nb = np.linalg.norm(a.vector), np.linalg.norm(b.vector)
    return float(abs(np.vdot(a.vector, b.vector)) / (na * nb))


# ---------------------------------------------------------------------------
# concrete protocols
# ---------------------------------------------------------------------------


def teleportation_script(ring: PhaseRing) -> ProtocolScript:
    """One-qudit teleportation from Alice to Bob over a shared |Max>_2.

    Alice holds the input (site 0) and one resource half (site 1); Bob
    holds site 2.  Outcome corrections are X**m2 then Z**m1, and the
    output equals the input exactly on every branch.
    """
    steps: list[Step] = [
        CtrlStep("alice", "X", control=0, target=1),
        GateStep("alice", "F", site=0, power=-1),
        MeasureStep("alice", 0, "m1"),
        MeasureStep("alice", 1, "m2"),
        SendStep("alice", "bob", "m1"),
        SendStep("alice", "bob", "m2"),
        CondStep("bob", "X", site=2, register="m2", coeff=1),
        CondStep("bob", "Z", site=2, register="m1", coeff=1),
    ]
    return ProtocolScript(
        d=ring.d,
        n_sites=3,
        parties={"alice": (0, 1), "bob": (2,)},
        resources=[Resource((1, 2))],
        steps=steps,
        input_sites=(0,),
        output_sites=(2,),
    )


def _merge_steps(
    party: str, next_party: str, chain_end: int, res_a: int, res_b: int, tag: str
) -> list[Step]:
    """Fuse the chain end with a fresh pair (res_a local, res_b remote)."""
    return [
        CtrlStep(party, "X", control=res_a, target=chain_end),
        GateStep(party, "F", site=res_a),
        CtrlStep(party, "X", control=res_a, target=chain_end, exponent=-1),
        MeasureStep(party, res_a, tag),
        SendStep(party, next_party, tag),
        CondStep(next_party, "Y", site=res_b, register=tag, coeff=-1),
    ]


def build_max_script(ring: PhaseRing, n: int) -> ProtocolScript:
    """Distill |Max>_n across n parties from two-qudit resources.

    For n == 2 the shared resource is the answer (one edit, no cdits).
    For n >= 3 the chain starts from the first party's trivial one-qudit
    resource |Max>_1 = |0> and attaches each of the n-1 pairs by one
    measured merge, so the transcript reports n-1 edits and n-1 cdits.
    """
    if n < 2:
        raise ValueError("need at least two parties")
    if n == 2:
        return ProtocolScript(
            d=ring.d,
            n_sites=2,
            parties={"p1": (0,), "p2": (1,)},
            resources=[Resource((0, 1))],
            steps=[],
            output_sites=(0, 1),
        )
    parties = {"p1": (0, 1)}
    for j in range(2, n):
        parties[f"p{j}"] = (2 * (j - 1), 2 * j - 1)
    parties[f"p{n}"] = (2 * (n - 1),)
    resources = [Resource((2 * j - 1, 2 * j)) for j in range(1, n)]
    steps: list[Step] = []
    chain_end = 0
    for j in range(1, n):
        steps.extend(
            _merge_steps(
                f"p{j}", f"p{j + 1}", chain_end, 2 * j - 1, 2 * j, f"m{j}"
            )
        )
        chain_end = 2 * j
    return ProtocolScript(
        d=ring.d,
        n_sites=2 * n - 1,
        parties=parties,
        resources=resources,
        steps=steps,
        output_sites=tuple([0] + [2 * j for j in range(1, n)]),
    )


def bvk_merge_script(ring: PhaseRing, party_sizes) -> ProtocolScript:
    """Merge per-party |Max> blocks into one |Max> over all members.

    Party j brings |Max>_{n_j} on its member qudits; its leader also holds
    one qudit of a shared |Max>_p.  Each leader fuses its share into the
    party block, measures it, and sends the outcome to the next party
    cyclically (p cdits).  Corrections: each party applies Z**-m to every
    member qudit using its own outcome and X**m_prev to its first member,
    which restores |Max>_N exactly up to a global phase on every branch.
    """
    sizes = list(party_sizes)
    p = len(sizes)
    if p < 2 or any(s < 1 for s in sizes):
        raise ValueError("need at least two parties of size >= 1")
    parties: dict[str, tuple[int, ...]] = {}
    members: list[tuple[int, ...]] = []
    leaders: list[int] = []
    base = 0
    for j, size in enumerate(sizes):
        block = tuple(range(base, base + size))
        leader = base + size
        parties[f"p{j + 1}"] = block + (leader,)
        members.append(block)
        leaders.append(leader)
        base += size + 1
    resources = [Resource(block) for block in members]
    resources.append(Resource(tuple(leaders)))
    steps: list[Step] = []
    for j in range(p):
        name = f"p{j + 1}"
        steps.extend(
            [
                CtrlStep(name, "X", control=leaders[j], target=members[j][0]),
                GateStep(name, "F", site=leaders[j]),
                CtrlStep(name, "X", control=leaders[j], target=members[j][0], exponent=-1),
                MeasureStep(name, leaders[j], f"m{j + 1}"),
                SendStep(name, f"p{(j + 1) % p + 1}", f"m{j + 1}"),
            ]
        )
    for j in range(p):
        name = f"p{j + 1}"
        for site in members[j]:
            steps.append(CondStep(name, "Z", site=site, register=f"m{j + 1}", coeff=-1))
        prev = f"m{(j - 1) % p + 1}"
        steps.append(CondStep(name, "X", site=members[j][0], register=prev, coeff=1))
    return ProtocolScript(
        d=ring.d,
        n_sites=base,
        parties=parties,
        resources=resources,
        steps=steps,
        output_sites=tuple(s for block in members for s in block),
    )


def phase_space_measurement(
    ring: PhaseRing, variant: int = 1, simplified: bool = True
) -> ProtocolScript:
    """Two-qudit joint measurement fragment (both qudits one party).

    Variant 1: controlled-X then F**-1 on the first qudit, both metered.
    Variant 2: the mirrored circuit with the second qudit controlling.
    Both realize the same outcome family (the phase-space / Bell
    measurement); outcomes land in registers l1, l2.

    ``simplified=False`` keeps the Gaussian dressing and the trailing
    inverse controlled gate exactly as drawn in the long forms (variant 1
    dresses wire 1 with G**-1 ... G F**-1 G, variant 2 dresses wire 2
    with G ... G**-1 F G**-1); the Gaussians drop by the commuting and
    metering tricks and the trailing gate only relabels outcomes.
    """
    if variant not in (1, 2):
        raise ValueError("variant must be 1 or 2")
    # variant 2 mirrors variant 1: control and target swap, G and F powers negate
    a, b, s = (0, 1, 1) if variant == 1 else (1, 0, -1)
    steps: list[Step] = [
        GateStep("a", "G", site=a, power=-s),
        CtrlStep("a", "X", control=a, target=b),
        GateStep("a", "G", site=a, power=s),
        GateStep("a", "F", site=a, power=-s),
        GateStep("a", "G", site=a, power=s),
        CtrlStep("a", "X", control=a, target=b, exponent=-1),
    ]
    if simplified:
        steps = [steps[1], steps[3]]
    steps += [MeasureStep("a", 0, "l1"), MeasureStep("a", 1, "l2")]
    return ProtocolScript(
        d=ring.d,
        n_sites=2,
        parties={"a": (0, 1)},
        resources=[],
        steps=steps,
        input_sites=(0, 1),
        output_sites=(),
    )
