"""Multi-party protocols: teleportation, resource-state merging, and the
generalized multipartite merge, with edit/cdit accounting.

A script owns a global register of qudit sites partitioned among named
parties.  Every quantum step must stay inside one party's sites, and a
classically controlled correction may only key on a register its party
has measured itself or received over a classical channel.  The rules are
checked once, by ``ProtocolScript.validate`` when a script is built, and a
built script is immutable.  One pre-shared entangled resource costs one
edit; one cross-party classical message costs one cdit.

Each step kind is a subclass of ``Step`` that carries its own rules and
action: ``sites(n)``, the register sites it acts on; ``check(owner,
known)``, its party, the locality of those sites, its register bookkeeping
and an integer power, which ``validate`` calls; ``kind``, which the walker
dispatches on; and for gate, ctrl and cond steps ``locals(ring, value)``,
the ``Local``s it applies.  No code asks a step for its class.

Both executors are one walker, ``_run``, which walks the outcome tree one
level at a time: the live branches are the columns of one batch, each
step is one kernel call over all of them, and a measured qudit leaves the
register until a later step acts on it or the walk ends.  ``run`` is the
walk with one column.  The walker reads every block from the read-only
caches of ``gates``: a gate's from ``gate_block``, which ``clifford`` and
``verify`` read too, a ctrl step's from ``ctrl_block`` (exact, from the
same phase table); an SFT step is ``evaluator.apply_sft``.  It builds and
caches no block itself (only each ``Local`` renumbered to the live axes),
and lays out qudits only through the plan of ``gates._local_axes``.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from . import entangle, evaluator, gates
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


class Step:
    """One move of a script: the sites it acts on, its rules and its action.

    ``kind`` tells the walker what to do: "local" applies ``locals(ring)``,
    built once per walk; "cond" applies ``locals(ring, value)`` of its
    register's value; "meter" forks on its site, "send" counts a cdit
    between two parties and "sft" is the whole-register SFT.
    """

    kind: str

    def sites(self, n: int) -> tuple[int, ...]:
        """The sites of an n-qudit register that the step acts on."""
        return (self.site,)

    def check(self, owner: dict[int, str], known: dict[str, set[str]]) -> None:
        """Check the party and that it owns ``sites``; ``owner`` maps each site to
        its party and ``known`` each party to the registers it has measured or received."""
        if self.party not in known:
            raise LocalityError(f"unknown party {self.party}")
        for s in self.sites(len(owner)):
            if owner.get(s) != self.party:
                raise LocalityError(f"site {s} is not local to party {self.party}")


def _check_integer(what: str, value) -> None:
    """A gate, ctrl or cond step's last rule: ``operator.index`` takes its power, exponent or coefficient."""
    try:
        gates._integer(value, what)
    except TypeError as exc:
        raise LocalityError(str(exc)) from None


@dataclass(frozen=True)
class GateStep(Step):
    party: str
    name: str  # X, Y, Z, F, G
    site: int
    power: int = 1

    kind = "local"

    def check(self, owner: dict[int, str], known: dict[str, set[str]]) -> None:
        super().check(owner, known)
        _check_integer("power", self.power)

    def locals(self, ring: PhaseRing, value: int | None = None) -> list[gates.Local]:
        return [gates.Local((self.site,), gates.gate_block(ring, self.name, self.power))]


@dataclass(frozen=True)
class CtrlStep(Step):
    """Apply gate**(exponent * value(control)) to target (both quantum)."""

    party: str
    name: str
    control: int
    target: int
    exponent: int = 1

    kind = "local"

    def sites(self, n: int) -> tuple[int, ...]:
        return (self.control, self.target)

    def check(self, owner: dict[int, str], known: dict[str, set[str]]) -> None:
        # after the party rule, before locality
        if self.control == self.target and self.party in known:
            raise LocalityError("control and target must differ")
        super().check(owner, known)
        _check_integer("exponent", self.exponent)

    def locals(self, ring: PhaseRing, value: int | None = None) -> list[gates.Local]:
        block = gates.ctrl_block(ring, self.name, self.exponent)
        return [gates.Local((self.control, self.target), block)]


@dataclass(frozen=True)
class MeasureStep(Step):
    party: str
    site: int
    register: str

    kind = "meter"

    def check(self, owner: dict[int, str], known: dict[str, set[str]]) -> None:
        super().check(owner, known)
        known[self.party].add(self.register)


@dataclass(frozen=True)
class SendStep(Step):
    src: str
    dst: str
    register: str

    kind = "send"

    def sites(self, n: int) -> tuple[int, ...]:
        return ()

    def check(self, owner: dict[int, str], known: dict[str, set[str]]) -> None:
        for party in (self.src, self.dst):
            if party not in known:
                raise LocalityError(f"unknown party {party}")
        if self.register not in known[self.src]:
            raise LocalityError(f"{self.src} cannot send unknown register {self.register}")
        known[self.dst].add(self.register)


@dataclass(frozen=True)
class CondStep(Step):
    """Apply gate**(coeff * registers value) to one site."""

    party: str
    name: str
    site: int
    register: str
    coeff: int = 1

    kind = "cond"

    def check(self, owner: dict[int, str], known: dict[str, set[str]]) -> None:
        super().check(owner, known)
        if self.register not in known[self.party]:
            raise LocalityError(f"{self.party} conditions on unreceived register {self.register}")
        _check_integer("coefficient", self.coeff)

    def locals(self, ring: PhaseRing, value: int | None = None) -> list[gates.Local]:
        """No Local when ``coeff * value`` is 0, else one."""
        power = self.coeff * value
        if not power:
            return []
        return [gates.Local((self.site,), gates.gate_block(ring, self.name, power))]


@dataclass(frozen=True)
class SftStep(Step):
    """The string Fourier transform on the whole register; the party must own every site."""

    party: str

    kind = "sft"

    def sites(self, n: int) -> tuple[int, ...]:
        return tuple(range(n))


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

        Parties partition the register; every resource holds a site;
        resource, input and output sites are distinct and in range, and
        resources and the input do not overlap; each step, in order, passes
        its own ``check``.
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
                if not res.sites:
                    raise LocalityError("a resource needs at least one site")
                self._check_site_set("resource", res.sites, shared)
            where = ("input", 0)
            self._check_site_set("input", self.input_sites, shared)
            where = ("output", 0)
            self._check_site_set("output", self.output_sites, set())
            for i, step in enumerate(self.steps):
                where = ("step", i)
                step.check(owner, known)
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
    if script.input_sites:
        if input_state is None:
            raise ValueError("script expects an input state")
        if input_state.d != d:
            raise ValueError(f"input state of degree {input_state.d}, script of degree {d}")
        if input_state.n != len(script.input_sites):
            raise ValueError("input state size mismatch")
        # ``QState`` keeps a list, or integers, as given: the meters need an inexact array
        vector = np.asarray(input_state.vector)
        if vector.dtype.kind not in "fc":
            vector = vector.astype(float)
        if not np.isfinite(vector).all():
            raise ValueError("input state holds a non-finite entry")
        if not vector.any():
            raise ValueError("input state has no weight")
        norm2 = float(np.vdot(vector, vector).real)
        if abs(norm2 - 1.0) > DEFAULT_TOL:
            raise ValueError(f"input state has squared norm {norm2:.6g}, not 1")
        blocks.append((script.input_sites, vector))
    elif input_state is not None:
        raise ValueError("script takes no input state")
    for res in script.resources:
        blocks.append((res.sites, entangle.max_state(ring, res.k).vector))
    used = {s for sites, _ in blocks for s in sites}
    rest = tuple(s for s in range(total) if s not in used)
    if rest or not blocks:
        zero = np.zeros(d ** len(rest), dtype=complex)
        zero[0] = 1.0
        blocks.append((rest, zero))
    order = tuple(s for sites, _ in blocks for s in sites)
    vec = blocks[0][1]
    for _, block_vec in blocks[1:]:
        vec = np.multiply.outer(vec, block_vec).reshape(-1)  # np.kron's bits, less overhead
    # vec lists its qudits in ``order``: the plan's front, which ``inverse`` puts in site order
    plan = gates._local_axes(d, total, order, ())
    return QState(d, total, vec.reshape(plan.front).transpose(plan.inverse).reshape(-1))


def _run(ring: PhaseRing, script: ProtocolScript, input_state: QState | None, seed, fork):
    """Walk the outcome tree of ``script`` one level at a time; return its leaves.

    The live branches are the columns of one (d**k, B) array, k the number
    of unmeasured qudits, in increasing site order, and the columns in
    depth-first outcome order: parent-major, outcome-minor.  The walk
    dispatches on each step's ``kind``.  A "local" step (gate, ctrl) gives
    its ``locals(ring)`` once per walk, and each is one ``apply_local`` over
    every column; a "cond" step gives ``locals(ring, value)`` for each value
    its register holds, applied to the columns that hold it: one call when
    they all agree, at most d.  Their blocks are built once per process,
    read-only, by ``gates.gate_block`` or ``gates.ctrl_block``.  A "send"
    step between two parties costs a cdit, and an "sft" step is
    ``evaluator.apply_sft``.

    A "meter" step reads every column's outcome probabilities in one
    ``site_probabilities`` call, a (d, B) table; ``fork(probs)`` picks the
    children, as (parent column, outcome) index arrays in column order and
    each child's probability p.  A child is its parent's d**(k-1) slice at
    its outcome: one gather of the kept slices, a row each, divided in place
    by sqrt(p) with ``gates._divide`` and turned into columns once the
    parent is gone.  So the measured qudit leaves the register and a child
    of p exactly 0 is never made.  A step that acts on a measured qudit
    puts it back first, as a basis axis at each column's outcome; an "sft"
    step puts back all of them.  Once a qudit is measured, each ``Local``
    is renumbered to the live axes (see :func:`_on_axes`).  The leaves are
    put back on n qudits in one scatter into a (B, d**n) buffer.  So a walk
    holds the batch and the children being made, each about d**n entries
    per live branch divided by d per measured qudit, and at the end the
    batch and the leaves.
    """
    if ring.d != script.d:
        raise ValueError(f"ring degree {ring.d} and script degree {script.d} differ")
    d, n, steps = ring.d, script.n_sites, script.steps
    ops = [step.locals(ring) if step.kind == "local" else None for step in steps]
    x = _initial_state(ring, script, input_state).vector[:, None]
    live = tuple(range(n))  # the unmeasured sites, in order: the axes of x, before its columns
    # each column's outcome at the j-th meter in column j of ``digits``, and the meter
    # of each register and of each site measured and not put back since
    digits = np.zeros((1, len(steps)), np.intp)
    register_meter: dict[str, int] = {}
    measured: dict[int, int] = {}
    prob, cdits, meter = np.ones(1), 0, 0  # prob: each column's branch probability
    for i, step in enumerate(steps):
        kind = step.kind
        if kind == "send":
            if step.src != step.dst:
                cdits += 1
            continue
        if measured and not measured.keys().isdisjoint(step.sites(n)):
            back = {s: digits[:, measured.pop(s)] for s in step.sites(n) if s in measured}
            rows, live = _put_back(x, d, live, back)
            x = np.ascontiguousarray(rows.T)
        if kind == "local":
            x = _apply(x, d, n, live, ops[i])
        elif kind == "cond":
            values = digits[:, register_meter[step.register]]
            groups = sorted(set(values.tolist()))
            if len(groups) == 1:
                x = _apply(x, d, n, live, step.locals(ring, groups[0]))
                continue
            # x is the walk's own: the meter of the register made it, or a kernel since
            for value in groups:
                op = step.locals(ring, value)
                if op:
                    cols = values == value
                    part = _apply(x[:, cols], d, n, live, op)
                    x = x.astype(part.dtype, copy=False)
                    x[:, cols] = part
        elif kind == "sft":
            x = evaluator.apply_sft(ring, QState(d, n, x)).vector
        elif kind == "meter":
            k, axis = len(live), live.index(step.site)
            probs = gates.site_probabilities(QState(d, k, x), axis)
            parents, outcomes, p = fork(probs)
            x = _children(x.reshape(gates._local_axes(d, k, (axis,), ()).view + x.shape[1:]), parents, outcomes)
            gates._divide(x, p[:, None], x)
            x = np.ascontiguousarray(x.T)  # the children as columns, the parent gone
            live = live[:axis] + live[axis + 1 :]
            digits, prob = digits[parents], prob[parents]
            digits[:, meter] = outcomes
            prob = prob * p
            register_meter[step.register] = measured[step.site] = meter
            meter += 1
    if measured:
        rows, _ = _put_back(x, d, live, {s: digits[:, j] for s, j in measured.items()})
    else:
        rows = np.ascontiguousarray(x.T)
    edits, columns = len(script.resources), register_meter.items()
    return [
        Transcript(seed, {r: v[j] for r, j in columns}, QState(d, n, row), edits, cdits, p)
        for v, row, p in zip(digits.tolist(), rows, prob.tolist())
    ]


def _apply(x: np.ndarray, d: int, n: int, live: tuple[int, ...], op: list[gates.Local]) -> np.ndarray:
    """Each ``Local`` of ``op`` over every column of ``x``, on the axes of the ``live`` sites."""
    k = len(live)
    for local in op:
        if k < n:
            local = _on_axes(local, live)
        x = gates.apply_local(x, d, k, local)
    return x


# ``Local``s renumbered to live axes, by block, sites and live sites: a pure
# function of the key, kept for the process as the kernels of ``gates`` are.
# An entry holds its block, so no other block can take the block's id.
_ON_AXES: dict[tuple, gates.Local] = {}


def _on_axes(local: gates.Local, live: tuple[int, ...]) -> gates.Local:
    """``local`` on the axes of the ``live`` sites: each site renumbered by its rank."""
    key = (id(local.block), local.sites, live)
    hit = _ON_AXES.get(key)
    if hit is None:
        hit = _ON_AXES[key] = gates.Local(tuple(live.index(s) for s in local.sites), local.block)
    return hit


def _children(v: np.ndarray, parents: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
    """Child c of the one-site view ``v`` (before, value, after, column): a fresh
    copy of ``v[:, outcomes[c], :, parents[c]]``, as row c.  One gather of
    every kept slice.
    """
    return v[:, outcomes, :, parents].reshape(len(parents), -1)


def _put_back(
    x: np.ndarray, d: int, live: tuple[int, ...], measured: dict[int, np.ndarray]
) -> tuple[np.ndarray, tuple[int, ...]]:
    """``x`` (an axis per ``live`` site, then one column per branch) with each
    measured site put back as a basis axis at its outcome in each column, in one
    scatter into zeros.  Returns the columns as rows, and the new live sites."""
    sites = tuple(sorted((*live, *measured)))
    back = sorted(measured)
    view = gates._local_axes(d, len(sites), tuple(map(sites.index, back)), ()).view
    columns = x.shape[1]
    rows = np.zeros((columns, *view), x.dtype)
    # a slice stands between any two index arrays, so the indexed axes lead, in order
    index = (np.arange(columns), *(i for s in back for i in (slice(None), measured[s])), slice(None))
    rows[index] = x.T.reshape(columns, *view[::2])
    return rows.reshape(columns, -1), sites


def run(
    ring: PhaseRing,
    script: ProtocolScript,
    input_state: QState | None = None,
    seed: int | None = 0,
) -> Transcript:
    """Sample one transcript; deterministic for a fixed seed.

    The level walk with one column: each meter draws its outcome with one
    ``rng.choice`` over the column's probabilities, and the measured qudit
    leaves the register until a later step acts on it or the walk ends.
    """
    rng = np.random.default_rng(seed)
    parent = np.zeros(1, np.intp)

    def sample(probs):
        column = probs[:, 0]
        outcome = rng.choice(ring.d, p=column / column.sum())
        return parent, np.array([outcome]), column[outcome : outcome + 1]

    (tr,) = _run(ring, script, input_state, seed, sample)
    return tr


def run_branches(
    ring: PhaseRing, script: ProtocolScript, input_state: QState | None = None
) -> list[Transcript]:
    """Execute every measurement branch; for a unit input (the only kind
    accepted) the probabilities sum to one.

    One level walk of the outcome tree: the initial state is built once,
    every step runs once over the batch of the branches live at its level,
    and each measurement forks every branch into outcomes 0..d-1 from one
    ``site_probabilities`` table.  An outcome of probability exactly 0 is
    dropped unexpanded, and a leaf is kept when its probability exceeds
    1e-15.  Transcripts come back in the order of ``gates.all_digit_tuples``
    over the outcomes.  The cost is one kernel call per step (at most d for
    a cond step), not one per branch, and a measured qudit leaves the
    batch, so a batch holds about one state per live branch, divided by d
    per measurement.  Each leaf's ``final_state.vector`` is a row of one
    (B, d**n) buffer, B the number of leaves before the 1e-15 cut: a caller
    that keeps one leaf keeps all B states (copy a row to keep it alone).
    """

    def every(probs):
        kept = probs.T != 0
        return (*np.nonzero(kept), probs.T[kept])

    leaves = _run(ring, script, input_state, None, every)
    return [tr for tr in leaves if tr.probability > 1e-15]


def state_on_sites(state: QState, sites) -> QState:
    """Restrict to ``sites``; all other qudits must be collapsed to a basis value.

    Used to read off the surviving carriers after measurements collapse
    the rest of the register.  Raises ``ValueError`` when ``sites`` are out
    of range or repeat a qudit, when the state is zero, or when another
    qudit holds more than ``DEFAULT_TOL`` of the weight off its likeliest
    value.
    """
    sites = tuple(gates._integer(s, "site") for s in sites)  # 1.0 would hit a plan cached for 1
    d = state.d
    gates._local_axes(d, state.n, sites, ())
    if not state.vector.any():
        raise ValueError("the state has no weight")
    # read each collapsed qudit, the last first, and drop it at its likeliest value
    for site in sorted(set(range(state.n)) - set(sites), reverse=True):
        probs = gates.site_probabilities(state, site)
        val = int(np.argmax(probs))
        stray = float((probs.sum() - probs[val]) / probs.sum())
        if stray > DEFAULT_TOL:
            raise ValueError(
                f"qudit {site} is not collapsed: weight {stray:.3e} off its value {val}"
            )
        view = gates._local_axes(d, state.n, (site,), ()).view
        state = QState(d, state.n - 1, state.vector.reshape(view)[:, val].reshape(-1))
    # the kept qudits are in increasing order: the plan of their ranks lists them
    rank = sorted(sites).index
    plan = gates._local_axes(d, state.n, tuple(rank(s) for s in sites), ())
    return QState(d, state.n, state.vector.reshape(plan.view).transpose(plan.axes).reshape(-1))


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


def _merge_steps(party: str, next_party: str, target: int, share: int, tag: str) -> list[Step]:
    """Fuse ``share`` into ``target`` (ctrl-X, F, ctrl-X**-1), meter it and send the outcome."""
    return [
        CtrlStep(party, "X", control=share, target=target),
        GateStep(party, "F", site=share),
        CtrlStep(party, "X", control=share, target=target, exponent=-1),
        MeasureStep(party, share, tag),
        SendStep(party, next_party, tag),
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
        steps.extend(_merge_steps(f"p{j}", f"p{j + 1}", chain_end, 2 * j - 1, f"m{j}"))
        steps.append(CondStep(f"p{j + 1}", "Y", site=2 * j, register=f"m{j}", coeff=-1))
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
        steps.extend(
            _merge_steps(f"p{j + 1}", f"p{(j + 1) % p + 1}", members[j][0], leaders[j], f"m{j + 1}")
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
