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


@dataclass(frozen=True)
class Charge:
    strand: int
    k: int
    tier: int = 0


@dataclass(frozen=True)
class Cap:
    strand: int  # the new pair occupies (strand, strand+1) on the output side


@dataclass(frozen=True)
class Cup:
    strand: int  # consumes input strands (strand, strand+1)


@dataclass(frozen=True)
class BraidPos:
    strand: int


@dataclass(frozen=True)
class BraidNeg:
    strand: int


@dataclass(frozen=True)
class Sym:
    strand: int  # odd: the boundary between two adjacent qudits
    m: int = 0


@dataclass(frozen=True)
class Box:
    name: str
    first: int
    strands: int
    charge: int = 0
    dagger: bool = False


Generator = Charge | Cap | Cup | BraidPos | BraidNeg | Sym | Box


def _gen_width_delta(gen: Generator) -> int:
    if isinstance(gen, Cap):
        return 2
    if isinstance(gen, Cup):
        return -2
    return 0


def _gen_span(gen: Generator) -> tuple[int, int]:
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
            lo, hi = _gen_span(gen)
            if not (0 <= lo and hi < w):
                raise ValueError(f"{gen!r} out of range at width {w}")
            w += _gen_width_delta(gen)
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
        return cls(d, in_points, in_points + _gen_width_delta(gen), (gen,))

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
            out_points=self.out_points + _gen_width_delta(gen),
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
    shifted = tuple(_reindex(g, 0, left.out_points) for g in right.gens)
    return Diagram(
        left.d,
        left.in_points + right.in_points,
        left.out_points + right.out_points,
        left.gens + shifted,
        left.scalar.times(right.scalar),
    )


def _reflect_gen(gen: Generator) -> Generator:
    if isinstance(gen, Charge):
        return Charge(gen.strand, -gen.k, -gen.tier)
    if isinstance(gen, Cap):
        return Cup(gen.strand)
    if isinstance(gen, Cup):
        return Cap(gen.strand)
    if isinstance(gen, BraidPos):
        return BraidNeg(gen.strand)
    if isinstance(gen, BraidNeg):
        return BraidPos(gen.strand)
    if isinstance(gen, Sym):
        return Sym(gen.strand, -gen.m)
    if isinstance(gen, Box):
        return replace(gen, charge=-gen.charge, dagger=not gen.dagger)
    raise TypeError(gen)


def adjoint(diagram: Diagram) -> Diagram:
    """Vertical reflection: charges negate, caps and cups swap, scalars conjugate."""
    if diagram.is_zero:
        return Diagram.zero(diagram.d, diagram.out_points, diagram.in_points)
    gens = tuple(_reflect_gen(g) for g in reversed(diagram.gens))
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
    shifted = tuple(_reindex(g, 0, 1) for g in diagram.gens)
    gens = (Cap(diagram.in_points),) + shifted + (Cup(0),)
    return Diagram(
        diagram.d, diagram.in_points, diagram.out_points, gens, diagram.scalar
    )


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def _touches(gen: Generator, lo: int, hi: int) -> bool:
    a, b = _gen_span(gen)
    return not (b < lo or a > hi)


def normalize(diagram: Diagram) -> Diagram:
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
        out: list[Generator] = []
        for is_charge, group in groupby(gens, lambda g: isinstance(g, Charge)):
            if not is_charge:
                out.extend(group)
                continue
            run = list(group)
            if any(a.tier <= b.tier for a, b in zip(run, run[1:])):
                changed = True
            ordered, zexp = staircase(run)
            scalar = scalar.times_eps(ring.zeta_exp * zexp)
            merged: list[Charge] = []
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


def _slide_pass(ring: PhaseRing, gens: list[Generator], scalar: DiagScalar):
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


def _contract_pass(d: int, gens: list[Generator], scalar: DiagScalar):
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


def _join_runs(parts) -> tuple[Generator, ...]:
    """Concatenate generator lists; a charge run cut by a removed cap or cup stays in order.

    As in ``compose``, each part's trailing charges keep applying before
    the next part's leading charges when the two runs become one.
    """
    out: tuple[Generator, ...] = ()
    for part in parts:
        out = _lift_trailing_charges(out, part) + tuple(part)
    return out


def _reindex(gen: Generator, threshold: int, delta: int) -> Generator:
    """Shift strand references >= ``threshold`` by delta (after removals)."""
    if isinstance(gen, Box):
        if gen.first >= threshold:
            return replace(gen, first=gen.first + delta)
        return gen
    if gen.strand >= threshold:
        return replace(gen, strand=gen.strand + delta)
    return gen
