"""The depth-first walk ``protocols._run`` made before its level walk, kept as an oracle.

It advanced one state at a time: one ``apply_local`` per step per branch,
and at each meter one ``site_probabilities`` call and, per child, one
``collapse_site`` on the full n-qudit register, so a measured qudit stayed
in the register at its outcome.  A fork kept its parent state until its
last child was taken.  The level walk runs every live branch as a column of
one batch and drops measured qudits; the tests hold its transcripts to
this walk's.
"""

import numpy as np

from pappa import evaluator, gates, protocols
from pappa.gates import QState

# The level walk sums each probability table over a batch and runs np.dot at
# other widths: probabilities and entries may move by a few units in the last
# place of numbers of at most 1, never more than this.
WALK_TOL = 1e-15


def walk(ring, script, input_state, seed, fork):
    """Walk the outcome tree of ``script`` depth first; return its leaves.

    ``fork(state, site)`` lists the children taken at a measurement as
    (outcome, p) pairs in outcome order, ``p`` being the child's own
    probability.
    """
    if ring.d != script.d:
        raise ValueError(f"ring degree {ring.d} and script degree {script.d} differ")
    d, n, steps = ring.d, script.n_sites, script.steps
    ops = [step.locals(ring) if step.kind == "local" else None for step in steps]
    leaves = []
    pending = []  # (children, parent, measure step, resume at, outcomes, cdits, prob)
    state = protocols._initial_state(ring, script, input_state)
    start, outcomes, cdits, prob = 0, {}, 0, 1.0
    while True:
        for i in range(start, len(steps)):
            step, op = steps[i], ops[i]
            kind = step.kind
            if kind == "meter":
                children = fork(state, step.site)
                if children:
                    pending.append((children, state, step, i + 1, outcomes, cdits, prob))
                break
            if kind == "send":
                if step.src != step.dst:
                    cdits += 1
                continue
            if kind == "sft":
                state = evaluator.apply_sft(ring, state)
                continue
            if kind == "cond":
                op = step.locals(ring, outcomes[step.register])
            v = state.vector
            for local in op:
                v = gates.apply_local(v, d, n, local)
            state = QState(d, n, v)
        else:
            leaves.append(protocols.Transcript(seed, outcomes, state, len(script.resources), cdits, prob))
        # resume at the next child of the deepest fork that has one left
        if not pending:
            return leaves
        children, parent, step, start, outcomes, cdits, prob = pending[-1]
        outcome, p = children.pop(0)
        if not children:
            pending.pop()
        state = gates.collapse_site(parent, step.site, outcome, p)
        del parent
        outcomes = {**outcomes, step.register: outcome}
        prob *= p


def run(ring, script, input_state=None, seed=0):
    """One sampled transcript, as ``protocols.run`` gave it."""
    rng = np.random.default_rng(seed)
    (tr,) = walk(ring, script, input_state, seed, lambda state, site: [gates.draw(state, site, rng)])
    return tr


def run_branches(ring, script, input_state=None):
    """Every branch of probability above 1e-15, as ``protocols.run_branches`` gave them."""

    def every(state, site):
        probs = gates.site_probabilities(state, site)
        return [(k, float(p)) for k, p in enumerate(probs) if p != 0.0]

    return [tr for tr in walk(ring, script, input_state, None, every) if tr.probability > 1e-15]


def assert_same_walk(got, want):
    """Transcripts of one walk: the same branches in the same order, the same
    outcomes, edits and cdits and zero pattern, and probabilities and entries
    within ``WALK_TOL``."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert list(a.outcomes.items()) == list(b.outcomes.items())
        assert (a.seed, a.edits, a.cdits) == (b.seed, b.edits, b.cdits)
        assert abs(a.probability - b.probability) <= WALK_TOL
        u, v = a.final_state.vector, b.final_state.vector
        assert (a.final_state.d, a.final_state.n, u.dtype, u.shape) == (b.final_state.d, b.final_state.n, v.dtype, v.shape)
        assert np.array_equal(u == 0, v == 0)
        assert np.abs(u - v).max() <= WALK_TOL
