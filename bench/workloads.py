"""Seeded inputs, ops and output checks for the four benchmark workloads.

Every op does the work of one ``pappa`` CLI command through the functions
that command calls, on a text input generated here from the seed:

* ``diagrams``  -- ``pappa diagram eval``: parse a ``.pd`` text, evaluate it;
* ``circuits``  -- ``pappa circuit run``: parse a ``.pc`` text, run it;
* ``protocols`` -- ``pappa protocol run``: parse a ``.pp`` text, run it once
  sampled, then enumerate every branch with ``run_branches``;
* ``verify``    -- ``pappa verify all``: one suite at one degree.

The make-up of each batch (degrees, widths, line mix, op count) is fixed;
the seed picks the content (strands, charges, gates, sites, site labels,
input states, sampling seeds and op order).  That keeps the cost of a
batch nearly the same from seed to seed, so run-to-run spread measures
the machine, not the draw.

Each op carries a check: a list of failure messages for its output, empty
when the output is right.  Checks test properties the method must have
or compare with values computed here with plain numpy, never with the
program's own helpers for the same quantity.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from pappa import cli, dsl, evaluator, protocols, verify
from pappa.diagrams import adjoint, compose, normalize
from pappa.evaluator import evaluate
from pappa.gates import QState
from pappa.phases import make_phase_ring

TOL = 1e-9


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]


# ---------------------------------------------------------------------------
# shared numpy references
# ---------------------------------------------------------------------------


def max_vector(d: int, n: int) -> np.ndarray:
    """|Max_n>: amplitude d**((1-n)/2) on every digit string of total 0 mod d."""
    digits = np.indices([d] * n).reshape(n, -1).sum(axis=0)
    return np.where(digits % d == 0, float(d) ** ((1 - n) / 2), 0.0).astype(complex)


def phase_free_distance(a: np.ndarray, b: np.ndarray) -> float:
    """1 - |<a|b>| for unit vectors a, b: zero iff equal up to a global phase."""
    return abs(1.0 - abs(np.vdot(a, b)))


def cut_entropy(vec: np.ndarray, d: int, n: int, site: int) -> float:
    """Von Neumann entropy (nats) of one qudit, from the Schmidt values."""
    t = np.moveaxis(vec.reshape([d] * n), site, 0).reshape(d, -1)
    s = np.linalg.svd(t, compute_uv=False) ** 2
    s = s[s > 1e-15]
    return float(-(s * np.log(s)).sum())


def sl2_order(d: int) -> int:
    """|SL(2, Z_d)| by counting 2x2 matrices of determinant 1 mod d."""
    return sum(
        1
        for a in range(d)
        for b in range(d)
        for c in range(d)
        for e in range(d)
        if (a * e - b * c) % d == 1
    )


# ---------------------------------------------------------------------------
# diagrams: pappa diagram eval
# ---------------------------------------------------------------------------

# (d, boundary qudits, diagrams, with a cap/cup pair); 120 diagrams a batch
DIAGRAM_MIX = [
    (2, 2, 12, False), (2, 2, 12, True),
    (2, 3, 10, False), (2, 3, 10, True),
    (2, 4, 8, False), (2, 4, 8, True),
    (3, 2, 10, False), (3, 2, 10, True),
    (3, 3, 8, False), (3, 3, 8, True),
    (3, 4, 4, False), (3, 4, 4, True),
    (5, 2, 8, False), (5, 2, 8, True),
]
# every COMPOSE_EVERY-th diagram is checked composed with one more diagram
COMPOSE_EVERY = 6


def _charge_line(rng: random.Random, d: int, w: int) -> str:
    """Three charges; two share a tier, so the run has a twisted product."""
    tiers = [0, 0, 1]
    rng.shuffle(tiers)
    toks = []
    for tier in tiers:
        k = rng.choice([k for k in range(-(d - 1), d) if k])
        toks.append(f"chg@{rng.randrange(w)}:{k}:{tier}")
    return " ".join(toks)


def _line(rng: random.Random, kind: str, d: int, w: int) -> str:
    if kind == "braid":
        return f"b{rng.choice('+-')}@{rng.randrange(w - 1)}"
    if kind == "charge":
        return _charge_line(rng, d, w)
    return f"sym@{rng.randrange(1, w - 2, 2)}:{rng.randrange(d)}"


# the kinds of line, in order; the seed picks what each line holds
BOUNDARY_LINES = ["braid", "charge", "braid", "sym", "braid", "charge", "braid"]
INNER_LINES = ["braid", "charge", "sym", "braid"]


def diagram_text(rng: random.Random, d: int, n: int, capcup: bool) -> str:
    """A .pd text on n boundary qudits.

    The kinds of line are fixed (``BOUNDARY_LINES``), so every diagram of
    one (d, n) costs about the same.  With ``capcup``, a cap after the
    ``sym`` raises the width by one qudit for ``INNER_LINES`` before a
    cup lowers it again.
    """
    w = 2 * n
    lines = [_line(rng, kind, d, w) for kind in BOUNDARY_LINES]
    if capcup:
        inner = [f"cap@{rng.randrange(w + 1)}"]
        inner += [_line(rng, kind, d, w + 2) for kind in INNER_LINES]
        inner.append(f"cup@{rng.randrange(w + 1)}")
        lines[4:4] = inner
    return "\n".join([f"diagram d={d} in={w} out={w}"] + lines) + "\n"


def run_diagram(text: str):
    """The work of ``pappa diagram eval``: parse, check dimensions, evaluate."""
    diagram = dsl.parse_diagram(text, "<bench>")
    ring = make_phase_ring(diagram.d)
    cli._check_dims(diagram.d, max(diagram.in_points, diagram.out_points) // 2)
    return diagram, evaluator.evaluate(ring, diagram)


def check_diagram(output, partner: str | None, capcup: bool) -> list[str]:
    diagram, op = output
    ring = make_phase_ring(diagram.d)
    m = op.matrix
    fails = []
    adj = evaluate(ring, adjoint(diagram)).matrix
    if np.abs(adj - m.conj().T).max() > TOL:
        fails.append(f"adjoint: off by {np.abs(adj - m.conj().T).max():.3e}")
    nrm = evaluate(ring, normalize(diagram)).matrix
    if np.abs(nrm - m).max() > TOL:
        fails.append(f"normalize: value moved by {np.abs(nrm - m).max():.3e}")
    if not capcup:
        dev = np.abs(m @ m.conj().T - np.eye(m.shape[0])).max()
        if dev > TOL:
            fails.append(f"unitary: U U^+ - 1 is {dev:.3e}")
    if partner is not None:
        b_diagram, b_op = run_diagram(partner)
        both = evaluate(ring, compose(diagram, b_diagram)).matrix
        dev = np.abs(both - m @ b_op.matrix).max()
        if dev > TOL:
            fails.append(f"compose: eval(a.b) - eval(a) eval(b) is {dev:.3e}")
    return fails


def _charge_seam(below: str, above: str) -> bool:
    """True when composing would put two charge lines against each other.

    ``evaluate`` reads consecutive charges as one run ordered by tier, so
    ``compose`` of such a pair does not evaluate to the matrix product;
    the compose check leaves these pairs out (see CHANGES.md, FOUND).
    """
    return below.splitlines()[1].startswith("chg") and above.splitlines()[-1].startswith("chg")


def diagram_ops(seed: int) -> list[Op]:
    rng = random.Random(f"diagrams/{seed}")
    specs = []
    for d, n, count, capcup in DIAGRAM_MIX:
        for _ in range(count):
            specs.append((d, n, capcup, diagram_text(rng, d, n, capcup)))
    rng.shuffle(specs)
    ops = []
    for i, (d, n, capcup, text) in enumerate(specs):
        partner = None
        while i % COMPOSE_EVERY == 0 and partner is None:
            partner = diagram_text(rng, d, n, rng.random() < 0.5)
            if _charge_seam(text, partner):
                partner = None
        ops.append(
            Op(
                f"pd d={d} n={n}{' capcup' if capcup else ''} #{i}",
                lambda text=text: run_diagram(text),
                lambda out, p=partner, c=capcup: check_diagram(out, p, c),
            )
        )
    return ops


# ---------------------------------------------------------------------------
# circuits: pappa circuit run
# ---------------------------------------------------------------------------

# state-kernel circuits on wide registers: (d, n) for each, two circuits each
WIDE_SIZES = [(2, n) for n in range(10, 19)] + [(3, n) for n in range(7, 12)]
# a charge-neutral basis state prepared with X gates, then sft (d**n <= 256)
SFT_PREP_SIZES = [(2, n) for n in range(2, 9)] + [(3, n) for n in range(2, 6)]
# small circuits with an sft line among the other lines
SFT_MIXED_SIZES = [(2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (3, 4), (3, 4)]
# narrow circuits of every line kind: (d, n, count)
NARROW_MIX = [(2, n, 5) for n in range(2, 8)] + [(3, n, 5) for n in range(2, 7)]


def _gate_tok(rng: random.Random) -> str:
    name = rng.choice("XYZFG")
    power = rng.choice([1, 1, 2, -1, -2])
    return name if power == 1 else f"{name}^{power}"


def circuit_text(rng: random.Random, d: int, n: int, gates: int, ctrls: int,
                 measures: int, conds: int, sft: bool) -> tuple[str, list[tuple[int, str]]]:
    """A .pc text and the (0-based site, register) of each measurement.

    A measured qudit is never the target of a later line, so it holds its
    outcome to the end.  ``cond`` lines key on an already measured register.
    """
    free = list(range(n))
    measured: list[tuple[int, str]] = []
    measures = min(measures, n - 1)
    kinds = ["gate"] * gates + ["ctrl"] * ctrls + ["measure"] * measures + ["cond"] * conds
    rng.shuffle(kinds)
    if conds:
        # the first cond needs a register measured before it
        kinds.remove("measure")
        kinds.insert(kinds.index("cond"), "measure")
    if sft:
        # sft acts on every qudit, so it comes before the first measurement
        kinds.insert(rng.randrange(kinds.index("measure") + 1), "sft")
    lines = [f"circuit d={d} n={n}"]
    for kind in kinds:
        if kind == "sft":
            lines.append("sft")
        elif kind == "gate":
            lines.append(f"gate {_gate_tok(rng)}@{rng.choice(free) + 1}")
        elif kind == "ctrl":
            t = rng.choice(free)
            c = rng.choice([s for s in range(n) if s != t])
            lines.append(f"ctrl {rng.choice('XZ')}{rng.choice(['', '^-1', '^2'])} c={c + 1} t={t + 1}")
        elif kind == "measure":
            site = rng.choice(free)
            free.remove(site)
            reg = f"m{len(measured) + 1}"
            measured.append((site, reg))
            lines.append(f"measure@{site + 1} -> {reg}")
        elif kind == "cond":
            _, reg = rng.choice(measured)
            coeff = rng.choice(["", "-", "2*", "-2*"])
            lines.append(f"cond {reg} apply {rng.choice('XYZFG')}^{coeff}{reg} @{rng.choice(free) + 1}")
    return "\n".join(lines) + "\n", measured


def sft_prep_text(rng: random.Random, d: int, n: int) -> str:
    digits = [rng.randrange(d) for _ in range(n - 1)]
    digits.append(-sum(digits) % d)
    lines = [f"circuit d={d} n={n}"]
    for site, k in enumerate(digits):
        if k:
            lines.append(f"gate X^{k}@{site + 1}")
    lines.append("sft")
    return "\n".join(lines) + "\n"


def run_circuit(text: str, seed: int):
    """The work of ``pappa circuit run``: parse, check dimensions, run."""
    circ = dsl.parse_circuit(text, "<bench>")
    cli._check_dims(circ.d, circ.n)
    ring = make_phase_ring(circ.d)
    state, regs = dsl.run_circuit(ring, circ, seed=seed)
    return circ, state, regs


def check_circuit(output, measured, sft_prep: bool) -> list[str]:
    circ, state, regs = output
    d, n = circ.d, circ.n
    v = state.vector
    fails = []
    if abs(np.linalg.norm(v) - 1.0) > TOL:
        fails.append(f"norm: final state norm is {np.linalg.norm(v):.12f}")
    t = v.reshape([d] * n)
    for site, reg in measured:
        if reg not in regs:
            fails.append(f"collapse: register {reg} was not reported")
            continue
        probs = (np.abs(np.moveaxis(t, site, 0)) ** 2).reshape(d, -1).sum(axis=1)
        stray = probs.sum() - probs[regs[reg]]
        if stray > TOL:
            fails.append(f"collapse: site {site + 1} holds weight {stray:.3e} off outcome {regs[reg]}")
    if sft_prep:
        worst = max(abs(cut_entropy(v, d, n, s) - math.log(d)) for s in range(n))
        if worst > 1e-8:
            fails.append(f"entropy: a single-qudit cut is {worst:.3e} off log d")
    return fails


def circuit_ops(seed: int) -> list[Op]:
    rng = random.Random(f"circuits/{seed}")
    specs = []
    for d, n in WIDE_SIZES:
        for _ in range(2):
            specs.append((d, n, "wide", *circuit_text(rng, d, n, 6, 3, 2, 2, False)))
    for d, n in SFT_PREP_SIZES:
        specs.append((d, n, "sft-prep", sft_prep_text(rng, d, n), []))
    for d, n in SFT_MIXED_SIZES:
        specs.append((d, n, "sft-mixed", *circuit_text(rng, d, n, 3, 2, 2, 1, True)))
    for d, n, count in NARROW_MIX:
        for _ in range(count):
            specs.append((d, n, "narrow", *circuit_text(rng, d, n, 4, 2, 2, 2, False)))
    rng.shuffle(specs)
    ops = []
    for i, (d, n, kind, text, measured) in enumerate(specs):
        run_seed = rng.randrange(2**31)
        ops.append(
            Op(
                f"pc d={d} n={n} {kind} #{i}",
                lambda text=text, s=run_seed: run_circuit(text, s),
                lambda out, m=measured, p=(kind == "sft-prep"): check_circuit(out, m, p),
            )
        )
    return ops


# ---------------------------------------------------------------------------
# protocols: pappa protocol run
# ---------------------------------------------------------------------------

TELEPORT_DEGREES = [2, 3, 4, 5, 6, 7]  # four teleportations each
BUILD_MAX_SIZES = [(2, 3), (2, 4), (2, 5), (2, 6), (3, 3), (3, 4), (5, 3)]  # two each
BVK_SIZES = [
    (2, (1, 1)), (2, (2, 1)), (2, (1, 1, 1)), (2, (2, 2)), (2, (2, 2, 1)),
    (3, (1, 1)), (3, (1, 2)), (3, (2, 2)), (5, (1, 1)),
]  # three each
PHASE_SPACE_DEGREES = [2, 3, 4, 5]  # both variants, five basis inputs each


class _Labels:
    """A seeded relabelling of the sites q1..qN."""

    def __init__(self, rng: random.Random, n: int):
        self.perm = list(range(n))
        rng.shuffle(self.perm)

    def __call__(self, site: int) -> str:
        return f"q{self.perm[site] + 1}"

    def many(self, sites) -> str:
        return " ".join(self(s) for s in sites)


def teleport_text(rng: random.Random) -> tuple[str, dict]:
    q = _Labels(rng, 3)
    text = f"""party alice: {q.many((0, 1))}
party bob: {q(2)}
input: {q(0)}
resource max2: {q.many((1, 2))}
ctrl X c={q(0)} t={q(1)}
gate F^-1 @{q(0)}
meter {q(0)} -> m1
meter {q(1)} -> m2
send alice->bob m1
send alice->bob m2
cond m2 apply X^m2 @{q(2)}
cond m1 apply Z^m1 @{q(2)}
output: {q(2)}
"""
    return text, {"edits": 1, "cdits": 2}


def _fuse_lines(party: str, nxt: str, leader: str, end: str, reg: str) -> list[str]:
    """Fuse a chain end with a fresh pair through its local half ``leader``."""
    return [
        f"ctrl X c={leader} t={end}",
        f"gate F @{leader}",
        f"ctrl X^-1 c={leader} t={end}",
        f"meter {leader} -> {reg}",
        f"send {party}->{nxt} {reg}",
    ]


def build_max_text(rng: random.Random, n: int) -> tuple[str, dict]:
    """|Max_n> over n parties from n-1 two-qudit resources (n >= 3)."""
    q = _Labels(rng, 2 * n - 1)
    lines = [f"party p1: {q.many((0, 1))}"]
    lines += [f"party p{j}: {q.many((2 * j - 2, 2 * j - 1))}" for j in range(2, n)]
    lines.append(f"party p{n}: {q(2 * n - 2)}")
    lines += [f"resource max2: {q.many((2 * j - 1, 2 * j))}" for j in range(1, n)]
    end = 0
    for j in range(1, n):
        lines += _fuse_lines(f"p{j}", f"p{j + 1}", q(2 * j - 1), q(end), f"m{j}")
        lines.append(f"cond m{j} apply Y^-m{j} @{q(2 * j)}")
        end = 2 * j
    lines.append(f"output: {q.many(range(0, 2 * n - 1, 2))}")
    return "\n".join(lines) + "\n", {"edits": n - 1, "cdits": n - 1, "max": n}


def bvk_text(rng: random.Random, sizes) -> tuple[str, dict]:
    """Merge per-party |Max> blocks through a shared |Max_p> on the leaders."""
    p = len(sizes)
    total = sum(sizes) + p
    q = _Labels(rng, total)
    blocks, leaders, base = [], [], 0
    for size in sizes:
        blocks.append(tuple(range(base, base + size)))
        leaders.append(base + size)
        base += size + 1
    lines = [f"party p{j + 1}: {q.many(blocks[j] + (leaders[j],))}" for j in range(p)]
    lines += [f"resource max{len(b)}: {q.many(b)}" for b in blocks]
    lines.append(f"resource max{p}: {q.many(leaders)}")
    for j in range(p):
        lines += _fuse_lines(f"p{j + 1}", f"p{(j + 1) % p + 1}", q(leaders[j]), q(blocks[j][0]), f"m{j + 1}")
    for j in range(p):
        lines += [f"cond m{j + 1} apply Z^-m{j + 1} @{q(s)}" for s in blocks[j]]
        prev = f"m{(j - 1) % p + 1}"
        lines.append(f"cond {prev} apply X^{prev} @{q(blocks[j][0])}")
    lines.append(f"output: {q.many(s for b in blocks for s in b)}")
    return "\n".join(lines) + "\n", {"edits": p + 1, "cdits": p, "max": sum(sizes)}


def phase_space_text(variant: int) -> tuple[str, dict]:
    """Joint measurement of two qudits held by one party (no output).

    On a basis input |a, b> one register is uniform and the other reads
    a + b mod d: l2 for variant 1, l1 for variant 2.
    """
    body = ("ctrl X c=q1 t=q2\ngate F^-1 @q1" if variant == 1 else "ctrl X c=q2 t=q1\ngate F @q2")
    text = f"party a: q1 q2\ninput: q1 q2\n{body}\nmeter q1 -> l1\nmeter q2 -> l2\n"
    return text, {"edits": 0, "cdits": 0, "sum_register": "l2" if variant == 1 else "l1"}


def run_protocol(text: str, d: int, seed: int, branch_input: QState | None):
    """The work of ``pappa protocol run`` (one sampled run), then every branch."""
    script = dsl.parse_protocol(text, d, "<bench>")
    cli._check_dims(d, script.n_sites)
    ring = make_phase_ring(d)
    psi = QState.zero(d, len(script.input_sites)) if script.input_sites else None
    sampled = protocols.run(ring, script, psi, seed=seed)
    branches = protocols.run_branches(ring, script, branch_input)
    return script, sampled, branches


def _output_vector(script, tr) -> np.ndarray:
    """Index every measured qudit at its recorded outcome; the rest remain."""
    d, n = script.d, script.n_sites
    where: list[Any] = [slice(None)] * n
    for step in script.steps:
        if isinstance(step, protocols.MeasureStep):
            where[step.site] = tr.outcomes[step.register]
    kept = [s for s in range(n) if isinstance(where[s], slice)]
    if sorted(script.output_sites) != kept:
        raise ValueError(f"unmeasured sites {kept} are not the outputs {script.output_sites}")
    return tr.final_state.vector.reshape([d] * n)[tuple(where)].reshape(-1)


def check_protocol(output, d: int, expect: dict, target: np.ndarray | None, basis=None) -> list[str]:
    script, sampled, branches = output
    fails = []
    for tr in [sampled] + branches:
        if (tr.edits, tr.cdits) != (expect["edits"], expect["cdits"]):
            fails.append(f"resources: edits, cdits = {tr.edits}, {tr.cdits}, want {expect['edits']}, {expect['cdits']}")
            break
    total = sum(tr.probability for tr in branches)
    if abs(total - 1.0) > TOL:
        fails.append(f"probability: branches sum to {total:.12f}")
    if target is not None:
        worst = 0.0
        for tr in branches:
            out = _output_vector(script, tr)
            worst = max(worst, abs(np.linalg.norm(out) - 1.0), phase_free_distance(out, target))
        if worst > TOL:
            fails.append(f"outputs: a branch is {worst:.3e} off the target state")
    if basis is not None:
        a, b = basis
        reg = expect["sum_register"]
        if len(branches) != d or any(abs(tr.probability - 1 / d) > TOL for tr in branches):
            fails.append(f"outcomes: want {d} branches of probability 1/d, got {len(branches)}")
        if any(tr.outcomes[reg] != (a + b) % d for tr in branches):
            fails.append(f"outcomes: register {reg} is not a + b mod d on every branch")
    return fails


def _random_qudit(rng: random.Random, d: int) -> np.ndarray:
    v = np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(d)])
    return v / np.linalg.norm(v)


def protocol_ops(seed: int) -> list[Op]:
    rng = random.Random(f"protocols/{seed}")
    specs = []  # (name, d, text, expect, branch_input, target, basis)
    for d in TELEPORT_DEGREES:
        for _ in range(4):
            text, expect = teleport_text(rng)
            psi = _random_qudit(rng, d)
            specs.append((f"teleport d={d}", d, text, expect, QState(d, 1, psi), psi, None))
    for d, n in BUILD_MAX_SIZES:
        for _ in range(2):
            text, expect = build_max_text(rng, n)
            specs.append((f"build_max d={d} n={n}", d, text, expect, None, max_vector(d, n), None))
    for d, sizes in BVK_SIZES:
        for _ in range(3):
            text, expect = bvk_text(rng, sizes)
            target = max_vector(d, expect["max"])
            specs.append((f"bvk_merge d={d} sizes={sizes}", d, text, expect, None, target, None))
    for d in PHASE_SPACE_DEGREES:
        for variant in (1, 2):
            for _ in range(5):
                text, expect = phase_space_text(variant)
                a, b = rng.randrange(d), rng.randrange(d)
                inp = QState.basis(d, 2, (a, b))
                specs.append((f"phase_space v{variant} d={d}", d, text, expect, inp, None, (a, b)))
    rng.shuffle(specs)
    ops = []
    for i, (name, d, text, expect, inp, target, basis) in enumerate(specs):
        run_seed = rng.randrange(2**31)
        ops.append(
            Op(
                f"pp {name} #{i}",
                lambda text=text, d=d, s=run_seed, inp=inp: run_protocol(text, d, s, inp),
                lambda out, d=d, e=expect, t=target, b=basis: check_protocol(out, d, e, t, b),
            )
        )
    return ops


# ---------------------------------------------------------------------------
# verify: pappa verify all
# ---------------------------------------------------------------------------

VERIFY_DEGREES = [2, 3, 5]


def run_verify(name: str, d: int):
    """The work of one suite of ``pappa verify all --d D``."""
    return verify.run_suite(name, d, cli._default_tol(), n=None)


def check_verify(res, d: int) -> list[str]:
    fails = []
    if not res.passed:
        fails.append(f"suite: {res.name} at d={d} has residual {res.worst:.3e} over {res.tol:.1e}")
    if res.name == "clifford":
        order = dict(res.lines).get("group_n1_order")
        want = d * d * sl2_order(d)
        if order != str(want):
            fails.append(f"group: group_n1_order is {order}, want d^2 |SL(2,Z_d)| = {want}")
    return fails


def verify_ops(seed: int) -> list[Op]:
    rng = random.Random(f"verify/{seed}")
    pairs = [(name, d) for d in VERIFY_DEGREES for name in verify.SUITES]
    rng.shuffle(pairs)
    return [
        Op(
            f"verify {name} d={d}",
            lambda name=name, d=d: run_verify(name, d),
            lambda res, d=d: check_verify(res, d),
        )
        for name, d in pairs
    ]


# ---------------------------------------------------------------------------
# warm-up: a few small ops of each kind, the same for every seed
# ---------------------------------------------------------------------------


def warmup_ops(workload: str) -> list[Op]:
    rng = random.Random(f"warmup/{workload}")
    if workload == "diagrams":
        texts = [diagram_text(rng, d, 2, c) for d in (2, 3, 5) for c in (False, True)]
        return [Op("warm", lambda t=t: run_diagram(t), lambda out: []) for t in texts]
    if workload == "circuits":
        texts = [circuit_text(rng, d, 4, 2, 1, 1, 1, True)[0] for d in (2, 3)]
        texts += [sft_prep_text(rng, 2, 3)]
        return [Op("warm", lambda t=t: run_circuit(t, 0), lambda out: []) for t in texts]
    if workload == "protocols":
        cases = [
            (2, teleport_text(rng)[0], QState.zero(2, 1)),
            (2, build_max_text(rng, 3)[0], None),
            (2, bvk_text(rng, (1, 1))[0], None),
            (2, phase_space_text(1)[0], QState.zero(2, 2)),
        ]
        return [Op("warm", lambda c=c: run_protocol(c[1], c[0], 0, c[2]), lambda out: []) for c in cases]
    if workload == "verify":
        return [Op("warm", lambda nm=nm: run_verify(nm, 2), lambda out: []) for nm in verify.SUITES]
    raise KeyError(workload)


WORKLOADS = {
    "diagrams": diagram_ops,
    "circuits": circuit_ops,
    "protocols": protocol_ops,
    "verify": verify_ops,
}
