"""Compilation of charged-string pictures to qudit operators.

Strand layout (0-based everywhere): a boundary with 2n points hosts n
qudits; qudit j owns strands 2j (its left string) and 2j+1 (its right
string), with qudit 0 the leftmost pair and the first tensor factor.

A charge k placed on a single strand compiles to the Jordan-Wigner word

    left string of qudit j:   1 x...x Y**-k x Z**k x...x Z**k
    right string of qudit j:  1 x...x X**k  x Z**k x...x Z**k

with the Z**k string covering every qudit to the right of j.  The unit
charges c_s obtained this way are parafermions: c_s**d = 1 and
c_s c_t = q c_t c_s for s < t.

Vertical order is operator order: of two charges, the higher one is
applied first.  Two charges at the same height form the twisted product,
which inserts the scalar zeta**(-k*l) relative to the left-low/right-high
reading.  ``diagrams.staircase`` is the one definition of this order, for
evaluation and for ``normalize`` alike, and ``_z_tail`` the one Z-string.

Caps and cups at even strand positions create/annihilate a qudit in
d**0.25 |0>; at odd (straddling) positions they split a qudit's charge
into two qudits, resp. fuse two qudits by charge addition, with weight
d**-0.25.  The straddling values are forced by the Temperley-Lieb zigzag
relations and the neutral nested-cap picture of the maximally entangled
state, and are cross-checked against both in the tests.

:func:`evaluate` applies each generator to an accumulator of d**n rows (n
the current width) and d**n_in columns: a braid, ``sym`` or bound box is a
``gates.Local``, a charge its one-qudit head times a Z-tail phase vector,
and a cap or cup inserts, drops, splits or fuses a digit axis by indexing.
A generator on w qudits costs O(d**(n+w) * d**n_in), and no d**n x d**n
generator matrix is built.

The dense forms that remain are the same kernels applied to the identity:
``charge_word``, ``_cap_matrix``, ``_cup_matrix``, ``_charge_run_matrix``,
``_braid_matrix`` and ``braid_op`` (through ``Local.to_matrix``) and
``sft_via_braids`` (through ``gates.apply_sft``).  They exist for test
oracles and for the consistency checks below and in ``clifford.py``;
``diagram eval --emit matrix`` prints ``evaluate``'s own accumulator, which
starts as the identity.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import gates
from .diagrams import Box, BraidNeg, BraidPos, Cap, Charge, Cup, Diagram, Sym, staircase
from .phases import PhaseRing


@dataclass
class QOperator:
    """Dense operator between qudit registers of sizes n_in -> n_out."""

    d: int
    n_in: int
    n_out: int
    matrix: np.ndarray

    def __post_init__(self):
        expected = (self.d**self.n_out, self.d**self.n_in)
        if self.matrix.shape != expected:
            raise ValueError(f"matrix shape {self.matrix.shape} != {expected}")


def charge_word(ring: PhaseRing, n: int, strand: int, k: int) -> np.ndarray:
    """Jordan-Wigner matrix of a charge k on one strand of an n-qudit row (:func:`_charge`)."""
    if not 0 <= strand < 2 * n:
        raise ValueError(f"strand {strand} out of range for n={n}")
    return _charge(ring, n, strand, k, np.eye(ring.d**n, dtype=complex))


def parafermion_relations_check(ring: PhaseRing, n: int) -> float:
    """Max residual of c_s**d == 1 and c_s c_t == q c_t c_s (s < t)."""
    cs = [charge_word(ring, n, s, 1) for s in range(2 * n)]
    worst = 0.0
    eye = np.eye(ring.d**n)
    for c in cs:
        worst = max(worst, float(np.abs(np.linalg.matrix_power(c, ring.d) - eye).max()))
    for s in range(2 * n):
        for t in range(s + 1, 2 * n):
            worst = max(
                worst, float(np.abs(cs[s] @ cs[t] - ring.q * cs[t] @ cs[s]).max())
            )
    return worst


# ---------------------------------------------------------------------------
# caps and cups: insert, drop, split or fuse a digit axis
# ---------------------------------------------------------------------------


def _cap(ring: PhaseRing, n: int, strand: int, x: np.ndarray) -> np.ndarray:
    """Cap whose two new strands appear at (strand, strand+1), applied to ``x``."""
    d = ring.d
    if not 0 <= strand <= 2 * n:
        raise ValueError(f"cap position {strand} out of range for n={n}")
    j = strand // 2
    if strand % 2 == 0:  # a new qudit in d**0.25 |0> at slot j
        t = x.reshape(d**j, 1, d ** (n - j), -1)
        out = np.zeros((d**j, d) + t.shape[2:], dtype=complex)
        out[:, :1] = d**0.25 * t
    else:  # qudit j's digit k splits into (a, k - a)
        sums = np.add.outer(np.arange(d), np.arange(d)) % d
        out = d**-0.25 * np.take(x.reshape(d**j, d, -1), sums, axis=1)
    return out.reshape(d ** (n + 1), -1)


def _cup(ring: PhaseRing, n: int, strand: int, x: np.ndarray) -> np.ndarray:
    """Cup consuming input strands (strand, strand+1), applied to ``x``."""
    d = ring.d
    if n < 1 or not 0 <= strand < 2 * n - 1:
        raise ValueError(f"cup position {strand} out of range for n={n}")
    j = strand // 2
    if strand % 2 == 0:  # qudit j projected onto d**0.25 <0|
        out = d**0.25 * x.reshape(d**j, d, -1)[:, 0]
    else:  # qudits j, j+1 fuse to the sum of their digits
        a = np.arange(d)
        pairs = a * d + (a[:, None] - a) % d  # [k, a]: the index of (a, k - a)
        out = d**-0.25 * np.take(x.reshape(d**j, d * d, -1), pairs, axis=1).sum(axis=2)
    return out.reshape(d ** (n - 1), -1)


def _cap_matrix(ring: PhaseRing, n: int, strand: int) -> np.ndarray:
    """Cap whose two new strands appear at (strand, strand+1); d^(n+1) x d^n."""
    return _cap(ring, n, strand, np.eye(ring.d**n, dtype=complex))


def _cup_matrix(ring: PhaseRing, n: int, strand: int) -> np.ndarray:
    """Cup consuming input strands (strand, strand+1); d^(n-1) x d^n."""
    return _cup(ring, n, strand, np.eye(ring.d**n, dtype=complex))


# ---------------------------------------------------------------------------
# braids
# ---------------------------------------------------------------------------


def _braid_charge_sum(ring: PhaseRing, n: int, strand: int, sign: int) -> np.ndarray:
    """b_+ / b_- on strands (strand, strand+1) of an n-qudit row, densely.

    Charge-sum definitions:

        b_+ = (omega d)**-0.5 * sum_k M_{s+1}(-k) M_s(k)
        b_- = (omega / d)**0.5 * sum_k M_s(k) M_{s+1}(-k)

    (the left charge sits high in b_+, low in b_-).  On a qudit-aligned
    pair these reduce to omega**0.5 G**-1 and omega**-0.5 G.
    """
    d = ring.d
    acc = np.zeros((d**n, d**n), dtype=complex)
    for k in range(d):
        lo = charge_word(ring, n, strand, k)
        hi = charge_word(ring, n, strand + 1, -k)
        if sign > 0:
            acc += hi @ lo
        else:
            acc += lo @ hi
    if sign > 0:
        return acc / (ring.omega_sqrt * d**0.5)
    return acc * ring.omega_sqrt / d**0.5


@functools.lru_cache(maxsize=None)
def braid_block(ring: PhaseRing, parity: int, sign: int) -> np.ndarray:
    """The local factor of every braid whose left strand has ``parity``.

    The Z-strings of a braid's two charges cancel beyond its strands, so
    the braid is this block on qudit j (parity 0: strands 2j, 2j+1) or on
    qudits j, j+1 (parity 1: strands 2j+1, 2j+2), and the identity
    elsewhere.  It is the charge-sum definition at n = 1 resp. n = 2,
    computed once per (ring, parity, sign) and read-only.
    """
    return gates.frozen(_braid_charge_sum(ring, 1 + parity, parity, sign))


def braid_local(ring: PhaseRing, strand: int, sign: int) -> gates.Local:
    """The braid on strands (strand, strand+1) as its block on its one or two qudits."""
    j = strand // 2
    return gates.Local((j, j + 1) if strand % 2 else (j,), braid_block(ring, strand % 2, sign))


def _braid_matrix(ring: PhaseRing, n: int, strand: int, sign: int) -> np.ndarray:
    """b_+ / b_- on strands (strand, strand+1), embedded from :func:`braid_local`."""
    if not 0 <= strand < 2 * n - 1:
        raise ValueError(f"braid strand {strand} out of range for n={n}")
    return braid_local(ring, strand, sign).to_matrix(ring.d, n)


def braid_op(ring: PhaseRing, n: int, strand: int, sign: int) -> QOperator:
    """The braid unitary on strands (strand, strand+1); sign=+1 positive."""
    return QOperator(ring.d, n, n, _braid_matrix(ring, n, strand, sign))


def sft_via_braids(ring: PhaseRing, n: int) -> np.ndarray:
    """String Fourier transform as omega**0.5 b_{2n-2,-} ... b_{1,-} b_{0,-}.

    The last of the 2n braids in the string picture is capped off and
    contributes the twist scalar omega**0.5 (a negative-braid closure).
    This is :func:`gates.apply_sft` on the identity.
    """
    eye = gates.QState(ring.d, n, np.eye(ring.d**n, dtype=complex))
    return gates.apply_sft(ring, eye).vector


# ---------------------------------------------------------------------------
# charges and boxes
# ---------------------------------------------------------------------------


def _z_tail(ring: PhaseRing, x: np.ndarray, n: int, site: int, k: int) -> np.ndarray:
    """Z**k on every qudit after ``site``: one multiply by a q-table phase vector."""
    rest, k = n - site - 1, k % ring.d  # reduced first: k may pass int64
    if rest <= 0 or k == 0:
        return x
    phases = gates._q_table(ring)[k * gates.digit_sums(ring.d, rest) % ring.d]
    return (x.reshape(-1, phases.size, x.shape[-1]) * phases[:, None]).reshape(x.shape)


def _charge(ring: PhaseRing, n: int, strand: int, k: int, x: np.ndarray) -> np.ndarray:
    """A charge's Jordan-Wigner word applied to ``x``: its X**k or Y**-k head, then its Z tail."""
    j = strand // 2
    head = gates.gate_block(ring, "X", k) if strand % 2 else gates.gate_block(ring, "Y", -k)
    return _z_tail(ring, gates.apply_local(x, ring.d, n, gates.Local((j,), head)), n, j, k)


def _charge_run(ring: PhaseRing, n: int, charges, x: np.ndarray) -> np.ndarray:
    """A run of charges with explicit tiers, applied to ``x`` in ``diagrams.staircase`` order."""
    ordered, zexp = staircase(charges)
    for c in ordered:
        x = _charge(ring, n, c.strand, c.k, x)
    return ring.zeta_pow(zexp) * x


def _charge_run_matrix(ring: PhaseRing, n: int, charges) -> np.ndarray:
    """Operator of a run of charges with explicit tiers (see :func:`_charge_run`)."""
    return _charge_run(ring, n, charges, np.eye(ring.d**n, dtype=complex))


def _box(ring: PhaseRing, n: int, box: Box, x: np.ndarray, boxes) -> np.ndarray:
    """A bound box applied to ``x``: a block with a Z tail, or charged matrix units.

    At an odd strand offset (one qudit wide only) the box is
    d**-0.5 sum_ab m[a, b] charge_a cap cup charge_-b, the matrix-unit
    picture |a><b| = d**-0.5 cap_a cup_-b at the straddling position.
    """
    if boxes is None or box.name not in boxes:
        raise ValueError(f"no matrix bound for box {box.name!r}")
    d, m, w = ring.d, boxes[box.name], box.strands // 2
    m = m.conj().T if box.dagger else m
    if m.shape != (d**w, d**w):
        raise ValueError(f"box {box.name!r} expects a {d**w} x {d**w} matrix")
    j, s = box.first // 2, box.first
    if s % 2 == 0:
        x = gates.apply_local(x, d, n, gates.Local(tuple(range(j, j + w)), m))
        return _z_tail(ring, x, n, j + w - 1, box.charge)
    if box.strands != 2:
        raise ValueError("straddling boxes wider than one qudit are not supported")
    units = [_cup(ring, n, s, _charge(ring, n, s + 1, -b, x)) for b in range(d)]
    mixed = np.tensordot(m, np.array([_cap(ring, n - 1, s, u) for u in units]), axes=(1, 0))
    return sum(_charge(ring, n, s + 1, a, mixed[a]) for a in range(d)) / d**0.5


# ---------------------------------------------------------------------------
# diagram evaluation
# ---------------------------------------------------------------------------


def _apply_generator(ring: PhaseRing, n: int, gen, x: np.ndarray, boxes) -> tuple[np.ndarray, int]:
    """One non-charge generator applied to ``x`` (d**n rows); returns (x, new n)."""
    if isinstance(gen, Cap):
        return _cap(ring, n, gen.strand, x), n + 1
    if isinstance(gen, Cup):
        return _cup(ring, n, gen.strand, x), n - 1
    if isinstance(gen, Box):
        return _box(ring, n, gen, x, boxes), n
    if isinstance(gen, (BraidPos, BraidNeg)):
        local = braid_local(ring, gen.strand, +1 if isinstance(gen, BraidPos) else -1)
    elif isinstance(gen, Sym):
        j = gates._sym_pair(n, gen.strand)
        local = gates.Local((j, j + 1), gates.sym_block(ring, gen.m))
    else:
        raise TypeError(f"unknown generator {gen!r}")
    return gates.apply_local(x, ring.d, n, local), n


def evaluate(
    ring: PhaseRing, diagram: Diagram, boxes: dict[str, np.ndarray] | None = None
) -> QOperator:
    """Compile a diagram to the operator it simulates.

    ``boxes`` binds named Box generators to matrices (a box of width 2w
    strands needs a d**w x d**w matrix).  Layers apply top-first to an
    accumulator of d**n rows (n the current width) and d**n_in columns,
    starting from the identity; the diagram scalar multiplies the result.
    """
    if diagram.in_points % 2 or diagram.out_points % 2:
        raise ValueError("diagram boundary must have an even number of points")
    d, n_in, n_out = ring.d, diagram.in_points // 2, diagram.out_points // 2
    scalar = diagram.scalar_value(ring)
    if scalar == 0:
        return QOperator(d, n_in, n_out, np.zeros((d**n_out, d**n_in), complex))
    x, n = np.eye(d**n_in, dtype=complex), n_in
    for is_charge, run in itertools.groupby(diagram.flat(), lambda g: isinstance(g, Charge)):
        if is_charge:
            x = _charge_run(ring, n, list(run), x)
            continue
        for gen in run:
            x, n = _apply_generator(ring, n, gen, x, boxes)
    if n != n_out:
        raise ValueError("layer widths inconsistent with declared out_points")
    return QOperator(d, n_in, n, scalar * x)


def resolution_of_identity_check(ring: PhaseRing) -> float:
    """Residual of d**-0.5 sum_k cap_k cup_{-k} == identity on one qudit."""
    d = ring.d
    acc = np.zeros((d, d), dtype=complex)
    cap = _cap_matrix(ring, 0, 0)
    cup = _cup_matrix(ring, 1, 0)
    for k in range(d):
        capk = charge_word(ring, 1, 1, k) @ cap
        cupk = cup @ charge_word(ring, 1, 1, -k)
        acc += capk @ cupk
    acc /= d**0.5
    return float(np.abs(acc - np.eye(d)).max())


# ---------------------------------------------------------------------------
# local transformations
# ---------------------------------------------------------------------------


def local_conjugation_op(
    ring: PhaseRing,
    n: int,
    owner_mask,
    t: np.ndarray,
    charge: int = 0,
) -> QOperator:
    """Embed a (possibly charged) transformation on one party's qudits.

    ``owner_mask`` flags the qudits the operator acts on (in register
    order).  ``t`` acts on the masked qudits in that order, and a charged
    ``t`` carries a Z**charge string on every unmasked qudit after the
    first masked one.  For a neutral ``t`` on adjacent qudits this is the
    plain tensor embedding.
    """
    mask = [bool(b) for b in owner_mask]
    if len(mask) != n:
        raise ValueError("owner mask length must equal qudit count")
    sites = [i for i, b in enumerate(mask) if b]
    d = ring.d
    z = gates.gate_block(ring, "Z", charge)
    m = gates.Local(tuple(sites), t).to_matrix(d, n)
    for site in range(sites[0] + 1, n):
        if not mask[site]:
            m = gates.apply_local(m, d, n, gates.Local((site,), z))
    return QOperator(d, n, n, m)
