"""The fixpoint loop ``diagrams.normalize`` ran before its three passes, kept as an oracle.

It kept a ``changed`` flag through an inline charge fold, one slide and
one contraction per round, and read each generator's width change, span
and strand shift from ``isinstance`` ladders.  ``normalize`` now runs
``_fold_pass``, ``_slide_pass`` and ``_contract_pass`` and asks each
generator for its geometry; the tests hold its normal forms to this loop's.
"""

from dataclasses import replace
from itertools import groupby

from pappa.diagrams import (
    Box,
    BraidNeg,
    BraidPos,
    Cap,
    Charge,
    Cup,
    DiagScalar,
    Diagram,
    Sym,
    _join_runs,
    staircase,
)
from pappa.phases import make_phase_ring


def _gen_width_delta(gen):
    if isinstance(gen, Cap):
        return 2
    if isinstance(gen, Cup):
        return -2
    return 0


def _gen_span(gen):
    """Inclusive strand range a generator touches, in its input frame."""
    if isinstance(gen, Charge):
        return gen.strand, gen.strand
    if isinstance(gen, Cap):
        return gen.strand, gen.strand - 1  # occupies output-side strands only
    if isinstance(gen, Cup):
        return gen.strand, gen.strand + 1
    if isinstance(gen, (BraidPos, BraidNeg)):
        return gen.strand, gen.strand + 1
    if isinstance(gen, Sym):
        return gen.strand - 1, gen.strand + 2
    if isinstance(gen, Box):
        return gen.first, gen.first + gen.strands - 1
    raise TypeError(gen)


def _touches(gen, lo, hi):
    a, b = _gen_span(gen)
    return not (b < lo or a > hi)


def normalize(diagram):
    """Rewrite to a canonical form without changing the evaluation.

    Applies, to a fixpoint: same-tier twisted products folded to the
    staircase order, charge merging and mod-d reduction per strand,
    charges slid off cap/cup left legs (zeta**(+-k*k) scalars), zigzag
    straightening, and loop removal (sqrt(d) when neutral, the zero
    diagram otherwise).
    """
    if diagram.is_zero:
        return Diagram.zero(diagram.d, diagram.in_points, diagram.out_points)
    d = diagram.d
    ring = make_phase_ring(d)
    gens = diagram.gens
    scalar = diagram.scalar

    changed = True
    guard = 0
    while changed:
        guard += 1
        if guard > 10_000:
            raise RuntimeError("normalize failed to reach a fixpoint")
        changed = False

        # fold each charge run into the staircase order, merge same-strand
        # neighbours, reduce mod d and drop zeros
        out = []
        for is_charge, group in groupby(gens, lambda g: isinstance(g, Charge)):
            if not is_charge:
                out.extend(group)
                continue
            run = list(group)
            if any(a.tier <= b.tier for a, b in zip(run, run[1:])):
                changed = True
            ordered, zexp = staircase(run)
            scalar = scalar.times_eps(ring.zeta_exp * zexp)
            merged = []
            for c in ordered:
                if merged and merged[-1].strand == c.strand:
                    merged[-1] = Charge(c.strand, (merged[-1].k + c.k) % d)
                    changed = True
                else:
                    merged.append(Charge(c.strand, c.k % d))
            kept = [c for c in merged if c.k != 0]
            if len(kept) != len(run) or any(
                (a.strand, a.k) != (b.strand, b.k) for a, b in zip(kept, run)
            ):
                changed = True
            out.extend(
                Charge(c.strand, c.k, len(kept) - 1 - pos)
                for pos, c in enumerate(kept)
            )
        gens = out

        slid = _slide_pass(ring, gens, scalar)
        if slid is not None:
            gens, scalar = slid
            changed = True
            continue

        result = _contract_pass(d, gens, scalar)
        if result is not None:
            gens, scalar = result
            if scalar.is_zero:
                return Diagram.zero(d, diagram.in_points, diagram.out_points)
            changed = True

    return Diagram(
        d, diagram.in_points, diagram.out_points, tuple(gens), scalar.normalized(d)
    )


def _slide_pass(ring, gens, scalar):
    """Move one charge off a cap/cup left leg onto the right leg, or None.

    A cap scans forward and a cup backward, and the phase zeta**(k*k) of the
    slide takes its sign from the direction.
    """
    for i, g in enumerate(gens):
        if not isinstance(g, (Cap, Cup)):
            continue
        step = 1 if isinstance(g, Cap) else -1
        for j in range(i + step, len(gens) if step > 0 else -1, step):
            h = gens[j]
            if _gen_width_delta(h) != 0:
                break
            if isinstance(h, Charge) and h.strand == g.strand:
                out = list(gens)
                out[j] = Charge(g.strand + 1, h.k, h.tier)
                return out, scalar.times_eps(step * ring.zeta_exp * h.k * h.k)
            if _touches(h, g.strand, g.strand + 1):
                break
    return None


def _contract_pass(d, gens, scalar):
    """Remove one loop or zigzag; returns (gens, scalar) or None.

    Patterns handled, with no width-changing generator in between and
    nothing else touching the cap's neighbourhood:

      Cap(s) ... Cup(s)     closed loop: sqrt(d) if the charge riding the
                            right leg is neutral, the zero diagram if not
      Cap(s) ... Cup(s+1)   zigzag, straightens with no scalar
      Cap(s) ... Cup(s-1)   the mirror zigzag
    """
    for i, g in enumerate(gens):
        if not isinstance(g, Cap):
            continue
        s = g.strand
        charge_idx = []
        loop_charge = 0
        for j in range(i + 1, len(gens)):
            h = gens[j]
            if isinstance(h, Cup) and h.strand in (s - 1, s, s + 1):
                if h.strand == s:
                    # drop cap, cup and the charges absorbed into the loop
                    inner = [
                        _reindex(gen, s, -2)
                        for t, gen in enumerate(gens[i + 1 : j], i + 1)
                        if t not in charge_idx
                    ]
                    keep = _join_runs([gens[:i], inner, gens[j + 1 :]])
                    if loop_charge % d != 0:
                        return keep, DiagScalar.zero()
                    return keep, scalar.times(DiagScalar(quarter_d=2))
                if charge_idx:
                    break  # charged legs block the zigzag rewrites
                lo = s - 1 if h.strand == s - 1 else s
                inner = [_reindex(gen, lo + 2, -2) for gen in gens[i + 1 : j]]
                return _join_runs([gens[:i], inner, gens[j + 1 :]]), scalar
            if _gen_width_delta(h) != 0:
                break
            if isinstance(h, Charge) and h.strand == s + 1:
                charge_idx.append(j)
                loop_charge += h.k
                continue
            if _touches(h, s - 1, s + 2):
                break
    return None


def _reindex(gen, threshold, delta):
    """Shift strand references >= ``threshold`` by delta (after removals)."""
    if isinstance(gen, Box):
        if gen.first >= threshold:
            return replace(gen, first=gen.first + delta)
        return gen
    if gen.strand >= threshold:
        return replace(gen, strand=gen.strand + delta)
    return gen
