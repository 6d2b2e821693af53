"""Charged-string diagrams: the pictorial intermediate representation.

A diagram is one word of generators read top (input side) to bottom
(output side); composition glues input points of the lower factor to
output points of the upper factor, and ``compose(a, b)`` places ``a``
*below* ``b`` so that evaluation satisfies
eval(compose(a, b)) = eval(a) @ eval(b).

Strand positions are 0-based, counted left to right.  Charges carry an
integer ``tier``; larger tier means drawn higher (applied earlier), and
charges sharing a tier are read as the twisted product, which differs
from the low-left/high-right staircase by the scalar zeta**(-k*l).

The accumulated scalar prefactor is kept exactly as
eps**a * d**(b/4) * omega**(h/2) * residual so that rewrites never lose
phase precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import combinations, groupby, takewhile

from .phases import PhaseRing, make_phase_ring

# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


class _Generator:
    """A generator's geometry: ``delta`` its width change, ``span()`` the inclusive
    strands it touches in its input frame, ``mirror()`` its vertical reflection,
    ``moved(threshold, delta)`` it with strand references >= threshold shifted.
    The defaults fit a generator on (strand, strand+1) that keeps the width."""

    delta = 0

    def span(self) -> tuple[int, int]:
        return self.strand, self.strand + 1

    def moved(self, threshold: int, delta: int):
        return replace(self, strand=self.strand + delta) if self.strand >= threshold else self


@dataclass(frozen=True)
class Charge(_Generator):
    strand: int
    k: int
    tier: int = 0

    def span(self) -> tuple[int, int]:
        return self.strand, self.strand

    def mirror(self) -> "Charge":
        return Charge(self.strand, -self.k, -self.tier)


@dataclass(frozen=True)
class Cap(_Generator):
    strand: int  # the new pair occupies (strand, strand+1) on the output side
    delta = 2

    def span(self) -> tuple[int, int]:
        return self.strand, self.strand - 1  # occupies output-side strands only

    def mirror(self) -> "Cup":
        return Cup(self.strand)


@dataclass(frozen=True)
class Cup(_Generator):
    strand: int  # consumes input strands (strand, strand+1)
    delta = -2

    def mirror(self) -> "Cap":
        return Cap(self.strand)


@dataclass(frozen=True)
class BraidPos(_Generator):
    strand: int
    sign = 1

    def mirror(self) -> "BraidNeg":
        return BraidNeg(self.strand)


@dataclass(frozen=True)
class BraidNeg(_Generator):
    strand: int
    sign = -1

    def mirror(self) -> "BraidPos":
        return BraidPos(self.strand)


@dataclass(frozen=True)
class Sym(_Generator):
    strand: int  # odd: the boundary between two adjacent qudits
    m: int = 0

    def span(self) -> tuple[int, int]:
        return self.strand - 1, self.strand + 2

    def mirror(self) -> "Sym":
        return Sym(self.strand, -self.m)


@dataclass(frozen=True)
class Box(_Generator):
    name: str
    first: int
    strands: int
    charge: int = 0
    dagger: bool = False

    def span(self) -> tuple[int, int]:
        return self.first, self.first + self.strands - 1

    def mirror(self) -> "Box":
        return replace(self, charge=-self.charge, dagger=not self.dagger)

    def moved(self, threshold: int, delta: int) -> "Box":
        return replace(self, first=self.first + delta) if self.first >= threshold else self


Generator = Charge | Cap | Cup | BraidPos | BraidNeg | Sym | Box


# ---------------------------------------------------------------------------
# exact scalar prefactor
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiagScalar:
    """eps**eps_exp * d**(quarter_d/4) * omega**(omega_half/2) * residual."""

    eps_exp: int = 0
    quarter_d: int = 0
    omega_half: int = 0
    residual: complex = 1.0 + 0j

    @classmethod
    def zero(cls) -> "DiagScalar":
        return cls(residual=0j)

    @property
    def is_zero(self) -> bool:
        return self.residual == 0

    def times(self, other: "DiagScalar") -> "DiagScalar":
        return DiagScalar(
            self.eps_exp + other.eps_exp,
            self.quarter_d + other.quarter_d,
            self.omega_half + other.omega_half,
            self.residual * other.residual,
        )

    def times_eps(self, e: int) -> "DiagScalar":
        return replace(self, eps_exp=self.eps_exp + e)

    def conj(self) -> "DiagScalar":
        return DiagScalar(
            -self.eps_exp, self.quarter_d, -self.omega_half, self.residual.conjugate()
        )

    def value(self, ring: PhaseRing) -> complex:
        if self.is_zero:
            return 0j
        out = ring.eps_pow(self.eps_exp) * float(ring.d) ** (self.quarter_d / 4)
        if self.omega_half:
            out *= ring.omega_sqrt ** self.omega_half if self.omega_half >= 0 else (
                1 / ring.omega_sqrt ** (-self.omega_half)
            )
        return out * self.residual

    def normalized(self, d: int) -> "DiagScalar":
        if self.is_zero:
            return DiagScalar.zero()
        return replace(self, eps_exp=self.eps_exp % (2 * d))


# ---------------------------------------------------------------------------
# diagrams
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Diagram:
    """A charged-string tangle over qudit degree ``d``.

    ``gens`` run top to bottom; each generator applies in the frame the
    ones above it leave.
    """

    d: int
    in_points: int
    out_points: int
    gens: tuple[Generator, ...] = ()
    scalar: DiagScalar = field(default_factory=DiagScalar)

    def __post_init__(self):
        if self.scalar.is_zero:
            return
        w = self.in_points
        for gen in self.gens:
            lo, hi = gen.span()
            if not (0 <= lo and hi < w):
                raise ValueError(f"{gen!r} out of range at width {w}")
            w += gen.delta
        if w != self.out_points:
            raise ValueError(
                f"generators lead from {self.in_points} to {w} points, "
                f"but out_points={self.out_points}"
            )

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, d: int, points: int) -> "Diagram":
        return cls(d, points, points)

    @classmethod
    def single(cls, d: int, in_points: int, gen: Generator) -> "Diagram":
        return cls(d, in_points, in_points + gen.delta, (gen,))

    @classmethod
    def zero(cls, d: int, in_points: int = 0, out_points: int = 0) -> "Diagram":
        return cls(d, in_points, out_points, (), DiagScalar.zero())

    def with_scalar(self, scalar: DiagScalar) -> "Diagram":
        return replace(self, scalar=self.scalar.times(scalar))

    def then(self, gen: Generator) -> "Diagram":
        """Append one generator below the existing ones."""
        return replace(
            self,
            gens=self.gens + (gen,),
            out_points=self.out_points + gen.delta,
        )

    def scalar_value(self, ring: PhaseRing) -> complex:
        return self.scalar.value(ring)

    @property
    def is_zero(self) -> bool:
        return self.scalar.is_zero


# ---------------------------------------------------------------------------
# structural operations
# ---------------------------------------------------------------------------


def compose(after: Diagram, before: Diagram) -> Diagram:
    """Glue ``after`` below ``before``: eval(compose(a, b)) = eval(a) @ eval(b)."""
    if after.d != before.d:
        raise ValueError("qudit degrees differ")
    if after.in_points != before.out_points:
        raise ValueError(
            f"width mismatch: lower diagram expects {after.in_points} points, "
            f"upper provides {before.out_points}"
        )
    if after.is_zero or before.is_zero:
        return Diagram.zero(after.d, before.in_points, after.out_points)
    return Diagram(
        after.d,
        before.in_points,
        after.out_points,
        _lift_trailing_charges(before.gens, after.gens) + after.gens,
        before.scalar.times(after.scalar),
    )


def _lift_trailing_charges(gens: tuple[Generator, ...], below) -> tuple[Generator, ...]:
    """Keep ``gens``' trailing charges applied before the charges ``below`` starts with.

    Evaluation reads consecutive charges as one run ordered by tier, so a
    seam between two charge runs would interleave them by tier.  When the
    upper run's lowest tier does not clear the lower run's highest, the
    upper run's tiers are all raised by the same amount, which keeps its
    own order and twisted pairs.
    """
    lower = list(takewhile(lambda g: isinstance(g, Charge), below))
    upper = list(takewhile(lambda g: isinstance(g, Charge), reversed(gens)))
    if not lower or not upper:
        return gens
    lift = max(c.tier for c in lower) + 1 - min(c.tier for c in upper)
    if lift <= 0:
        return gens
    first = len(gens) - len(upper)  # index where the upper run starts
    return gens[:first] + tuple(replace(c, tier=c.tier + lift) for c in gens[first:])


def tensor(left: Diagram, right: Diagram) -> Diagram:
    """Side-by-side juxtaposition; the left factor is drawn above the right."""
    if left.d != right.d:
        raise ValueError("qudit degrees differ")
    if left.is_zero or right.is_zero:
        return Diagram.zero(
            left.d, left.in_points + right.in_points, left.out_points + right.out_points
        )
    shifted = tuple(g.moved(0, left.out_points) for g in right.gens)
    return Diagram(
        left.d,
        left.in_points + right.in_points,
        left.out_points + right.out_points,
        left.gens + shifted,
        left.scalar.times(right.scalar),
    )


def adjoint(diagram: Diagram) -> Diagram:
    """Vertical reflection: charges negate, caps and cups swap, scalars conjugate."""
    if diagram.is_zero:
        return Diagram.zero(diagram.d, diagram.out_points, diagram.in_points)
    gens = tuple(g.mirror() for g in reversed(diagram.gens))
    return Diagram(
        diagram.d, diagram.out_points, diagram.in_points, gens, diagram.scalar.conj()
    )


def twisted_tensor_scalar(ring: PhaseRing, k: int, ell: int) -> complex:
    """zeta**(-k*ell): same-height pair relative to the k-low / ell-high order."""
    return ring.zeta_pow(-k * ell)


def staircase(run) -> tuple[list[Charge], int]:
    """A run of charges in application order, and its twisted-product zeta exponent.

    Higher tiers apply first.  Within a tier the right charge is drawn
    higher, so it applies first, and each pair on distinct strands
    contributes the twisted-product scalar zeta**(-k*l).
    """
    ordered: list[Charge] = []
    zexp = 0
    for tier in sorted({c.tier for c in run}, reverse=True):
        group = sorted((c for c in run if c.tier == tier), key=lambda c: c.strand)
        zexp -= sum(a.k * b.k for a, b in combinations(group, 2) if a.strand != b.strand)
        ordered.extend(reversed(group))
    return ordered, zexp


# ---------------------------------------------------------------------------
# the cyclic boundary rotation (diagram-level string Fourier transform)
# ---------------------------------------------------------------------------


def sft_rotate(diagram: Diagram) -> Diagram:
    """Rotate the boundary one position clockwise.

    For a state (no input points) this appends the negative-braid
    staircase together with the omega**0.5 twist of the capped-off braid,
    so that eval(sft_rotate(D)) = SFT @ eval(D).  For a transformation it
    bends the leftmost output around the left side and the rightmost
    input around the right side.
    """
    if diagram.in_points % 2 or diagram.out_points % 2:
        raise ValueError("boundary points must pair into qudits (even counts)")
    if diagram.is_zero:
        return diagram
    if diagram.in_points == 0:
        w = diagram.out_points
        out = diagram
        for s in range(w - 1):
            out = out.then(BraidNeg(s))
        return out.with_scalar(DiagScalar(omega_half=1))
    shifted = tuple(g.moved(0, 1) for g in diagram.gens)
    gens = (Cap(diagram.in_points),) + shifted + (Cup(0),)
    return Diagram(
        diagram.d, diagram.in_points, diagram.out_points, gens, diagram.scalar
    )


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def _touches(gen: Generator, lo: int, hi: int) -> bool:
    a, b = gen.span()
    return not (b < lo or a > hi)


def normalize(diagram: Diagram) -> Diagram:
    """Rewrite to a canonical form without changing the evaluation.

    Each round runs three passes: ``_fold_pass`` folds every charge run
    to the staircase order, merges charges per strand, reduces them mod d
    and drops zeros; then the first slide of ``_slide_pass`` (a charge off
    a cap or cup left leg, a zeta**(+-k*k) scalar) applies, or else the
    first rewrite of ``_contract_pass`` (a zigzag straightened, or a loop
    removed: sqrt(d) when neutral, the zero diagram otherwise).  The word
    is normal when neither rewrite applies and the fold leaves it as is.
    """
    if diagram.is_zero:
        return Diagram.zero(diagram.d, diagram.in_points, diagram.out_points)
    d, gens, scalar = diagram.d, diagram.gens, diagram.scalar
    ring = make_phase_ring(d)
    for _ in range(10_000):
        folded, scalar = _fold_pass(ring, gens, scalar)
        rewrite = _slide_pass(ring, folded, scalar) or _contract_pass(d, folded, scalar)
        if rewrite is None and folded == gens:
            return Diagram(d, diagram.in_points, diagram.out_points, gens, scalar.normalized(d))
        gens, scalar = rewrite or (folded, scalar)
        if scalar.is_zero:
            return Diagram.zero(d, diagram.in_points, diagram.out_points)
    raise RuntimeError("normalize failed to reach a fixpoint")


def _fold_pass(ring: PhaseRing, gens: tuple[Generator, ...], scalar: DiagScalar):
    """Fold each charge run into the staircase order; returns (gens, scalar).

    Same-strand neighbours merge, charges reduce mod d, zeros drop, and
    the kept charges get the tiers len-1, ..., 0 of their order.
    """
    out: list[Generator] = []
    for is_charge, group in groupby(gens, lambda g: isinstance(g, Charge)):
        if not is_charge:
            out.extend(group)
            continue
        ordered, zexp = staircase(list(group))
        scalar = scalar.times_eps(ring.zeta_exp * zexp)
        merged: list[Charge] = []
        for c in ordered:
            if merged and merged[-1].strand == c.strand:
                merged[-1] = Charge(c.strand, (merged[-1].k + c.k) % ring.d)
            else:
                merged.append(Charge(c.strand, c.k % ring.d))
        kept = [c for c in merged if c.k != 0]
        out.extend(Charge(c.strand, c.k, len(kept) - 1 - pos) for pos, c in enumerate(kept))
    return tuple(out), scalar


def _slide_pass(ring: PhaseRing, gens: tuple[Generator, ...], scalar: DiagScalar):
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
            if h.delta:
                break
            if isinstance(h, Charge) and h.strand == g.strand:
                out = gens[:j] + (Charge(g.strand + 1, h.k, h.tier),) + gens[j + 1 :]
                return out, scalar.times_eps(step * ring.zeta_exp * h.k * h.k)
            if _touches(h, g.strand, g.strand + 1):
                break
    return None


def _contract_pass(d: int, gens: tuple[Generator, ...], scalar: DiagScalar):
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
        charge_idx: list[int] = []
        loop_charge = 0
        for j in range(i + 1, len(gens)):
            h = gens[j]
            if isinstance(h, Cup) and h.strand in (s - 1, s, s + 1):
                if h.strand == s:
                    # drop cap, cup and the charges absorbed into the loop
                    inner = [
                        gen.moved(s, -2)
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
                inner = [gen.moved(lo + 2, -2) for gen in gens[i + 1 : j]]
                return _join_runs([gens[:i], inner, gens[j + 1 :]]), scalar
            if h.delta:
                break
            if isinstance(h, Charge) and h.strand == s + 1:
                charge_idx.append(j)
                loop_charge += h.k
                continue
            if _touches(h, s - 1, s + 2):
                break
    return None


def _join_runs(parts) -> tuple[Generator, ...]:
    """Concatenate generator lists; a charge run cut by a removed cap or cup stays in order.

    As in ``compose``, each part's trailing charges keep applying before
    the next part's leading charges when the two runs become one.
    """
    out: tuple[Generator, ...] = ()
    for part in parts:
        out = _lift_trailing_charges(out, part) + tuple(part)
    return out
