"""Dense qudit gates and the state-vector simulator.

Single-qudit conventions (basis |0..d-1>, index arithmetic mod d):

    X|k> = |k+1>        Y|k> = zeta**(1-2k) |k-1>       Z|k> = q**k |k>
    F|k> = d**-0.5 * sum_l q**(k*l) |l>                 G|k> = zeta**(k*k) |k>

The module reads nothing of the package but ``phases``.  Every phase is
one lookup into ``PhaseRing.eps_table``: the named gates of
:func:`gate_power`, one table row each, the closed forms ``sft_matrix``
and ``sym_gate_matrix``, and every :class:`Weyl` word (each Jordan-Wigner
string of ``evaluator`` is one).  Every named block is cached
read-only once per process: :func:`gate_block` for the gates,
:func:`ctrl_block` for their controlled powers (the block diagonal of
gate blocks, so exact too) and :func:`sym_block` for b_m.  The protocol
walker, ``evaluator.evaluate`` and the dense helpers all read them.

Multi-qudit basis: |k_1,...,k_n> maps to index sum(k_j * d**(n-j)), i.e.
qudit 1 is the first (most significant) tensor factor.  The cached,
read-only :func:`digit_table` holds the digits of every index and
:func:`digit_sums` their sums; closed forms over basis indices (the SFT,
the Max states) are array expressions on them.

A site tuple becomes an index layout only in :func:`_local_axes`, a cached
plan that refuses a site outside the register, a repeated one, or one that
``operator.index`` refuses.  Its ``view`` gives each site an axis and
merges the qudits between them; the kernels, the meters, ``protocols`` and
the entanglement cut all read it.  numpy's innermost loop runs over the
view's last axis, the entries after the last site, which is short unless
the sites lead the register.  So a plan of 4096 entries or more is wide
and adds ``rows``: the early sites keep their axes and the last qudits,
later sites included, merge into rows of at least 256 entries.

Every local operation is a :class:`Local`, a d**w x d**w block on w listed
qudits in any order: a gate, a block-diagonal controlled gate, or a braid's
``evaluator.braid_block``; ``evaluator.apply_sft`` is omega**0.5 times 2n-1
braids.  :func:`apply_local`, the one way a block reaches a state, picks
its kernel from the block's structure (:func:`block_structure`).  A
diagonal block (Z, G, ctrl-Z, the even braids) is one broadcast multiply
of the view, or of a wide plan's rows by its diagonal laid over a row.  A
monomial block (X, Y, even powers of F, their ctrl blocks, b_m) moves each
entry once and scales it by its phase: one gather of the view, or on a
wide plan one ``np.take`` over the span of the sites, copying whole runs,
and the phases as a diagonal over the rows.  A dense block (odd powers of
F and their ctrl blocks, the odd braids, boxes) is a transpose of the view
with its sites first, one ``np.dot`` and the transpose back, whatever the
plan.  Each layout does the same floating-point operations on each entry,
so every output keeps its bits, signs of zeros included; the meters do the
same (see :func:`site_probabilities` and :func:`_divide`).  Each is
O(d**(n+w)) work and at most two states of memory, not the d**(2n) of the
matrix, so an ``sft`` at d=2, n=20 runs.
The cached blocks (:func:`gate_block`, :func:`ctrl_block`,
:func:`sym_block`, ``evaluator.braid_block``) are :func:`frozen`, so each
one's kernel tables are worked out once, per plan for a wide one.

The dense d**n x d**n forms that remain are that kernel on the identity:
``Local.to_matrix``, through which ``sym_gate``, ``cz_gate`` and
``controlled_gate`` embed their blocks (the first two cached, the last
``ctrl_local``'s, for any matrix), and ``evaluator.apply_sft`` on a batch
of basis states (``evaluator.sft_via_braids``); ``sft_matrix`` is the
closed form.  They exist for test oracles and for the checks of ``verify``
and ``clifford.py``, which compare matrices.  The state wrappers
``apply_site_gate``, ``apply_controlled``, ``apply_full_matrix``,
``project_site`` and ``measure`` have no caller in the package; they are
kept because ``bench/tracer.py`` wraps them by name.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .phases import PhaseRing


def _integer(value, what: str) -> int:
    """``value`` through ``operator.index``: a float or another non-integer is a ``TypeError``."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{what} {value!r} is not an integer") from None


# ---------------------------------------------------------------------------
# single-qudit matrices
# ---------------------------------------------------------------------------


def pauli_gate(ring: PhaseRing, which: str) -> np.ndarray:
    """One of the qudit Pauli matrices X, Y, Z."""
    if which not in ("X", "Y", "Z"):
        raise ValueError(f"unknown Pauli {which!r}")
    return gate_power(ring, which, 1)


def fourier_gate(ring: PhaseRing) -> np.ndarray:
    """The Fourier matrix F[l, k] = q**(k*l) / sqrt(d)."""
    return gate_power(ring, "F", 1)


def gaussian_gate(ring: PhaseRing) -> np.ndarray:
    """The Gaussian G = diag(zeta**(k*k))."""
    return gate_power(ring, "G", 1)


def gate_power(ring: PhaseRing, name: str, power: int = 1) -> np.ndarray:
    """Named single-qudit gate raised to an integer power (exact phases).

    Every gate but an odd power of F is monomial: its table row gives the
    row of column m and the exponent e of its phase eps**e.  An odd power
    of F is q**(k*l) / sqrt(d) or its adjoint.  Each gate's order divides
    4d, so the power is reduced mod 4d first, which keeps the bits.  The
    array is fresh and writable.
    """
    if name not in ("X", "Y", "Z", "F", "G"):
        raise ValueError(f"unknown gate {name!r}")
    d, z, eps = ring.d, ring.zeta_exp, ring.eps_table
    k, m = _integer(power, "power") % (4 * d), np.arange(d)
    if name == "F" and k % 2:
        f = eps[2 * np.outer(m, m) % (2 * d)] / d**0.5
        return f if k % 4 == 1 else f.conj().T
    if name in ("X", "Y", "Z"):
        a, b, c = _pauli_row(ring, name, k)
        rows, expo = m + a, c + 2 * b * m
    else:
        rows, expo = (m, z * k * m * m) if name == "G" else (m if k % 4 == 0 else -m, 0)
    out = np.zeros((d, d), dtype=complex)
    out[rows % d, m] = eps[expo % (2 * d)]
    return out


def gate_block(ring: PhaseRing, name: str, power: int = 1) -> np.ndarray:
    """:func:`gate_power`, built once per process and shared read-only.

    The power is reduced mod 4d here, which keeps the bits and bounds the
    cache at 5 * 4d blocks per ring.
    """
    return _gate_block(ring, name, _integer(power, "power") % (4 * ring.d))


@functools.lru_cache(maxsize=None)
def _gate_block(ring: PhaseRing, name: str, power: int) -> np.ndarray:
    return frozen(gate_power(ring, name, power))


# ---------------------------------------------------------------------------
# multi-qudit index helpers
# ---------------------------------------------------------------------------


def basis_index(digits, d: int) -> int:
    """Index of |k_1,...,k_n> with qudit 1 most significant."""
    idx = 0
    for k in digits:
        idx = idx * d + (k % d)
    return idx


def all_digit_tuples(d: int, n: int):
    """All n-tuples over 0..d-1 in basis-index order."""
    return map(tuple, digit_table(d, n).tolist())


@functools.lru_cache(maxsize=None)
def digit_table(d: int, n: int) -> np.ndarray:
    """Row i holds the n digits of index i, qudit 1 first (read-only)."""
    table = np.arange(d**n)[:, None] // d ** np.arange(n - 1, -1, -1) % d
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=None)
def digit_sums(d: int, n: int) -> np.ndarray:
    """``digit_table(d, n).sum(axis=1)`` (read-only), built digit by digit
    so that a wide register does not keep the n times larger table cached."""
    sums = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        sums = np.add.outer(sums, np.arange(d)).reshape(-1)
    sums.flags.writeable = False
    return sums


def kron_all(mats) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def _pauli_row(ring: PhaseRing, name: str, k: int) -> tuple[int, int, int]:
    """(a, b, c) of X**k, Y**k or Z**k: |m> -> eps**(c + 2 b m) |m + a>.  Each is a
    function of k mod d, reduced first so that a large k stays a small int."""
    z, k = ring.zeta_exp, k % ring.d
    return {"X": (k, 0, 0), "Y": (-k, -z * k, z * k * k), "Z": (0, k, 0)}[name]


@functools.lru_cache(maxsize=None)
def _shift_tables(d: int) -> tuple[np.ndarray, np.ndarray]:
    """(t - a) mod d at [a, t], and 2 b (t - a) mod 2d at [b, a, t] (read-only)."""
    shift = (np.arange(d) - np.arange(d)[:, None]) % d
    rows = 2 * np.arange(d)[:, None, None] * shift % (2 * d)
    shift.flags.writeable = rows.flags.writeable = False
    return shift, rows


@dataclass(frozen=True)
class Weyl:
    """W|m> = eps**(c + 2 b.m) |m + a> with ``a`` and ``b`` one digit mod d per
    qudit and ``c`` mod 2d, so equal words are equal operators."""

    d: int
    a: tuple[int, ...]
    b: tuple[int, ...]
    c: int

    @classmethod
    def of_paulis(cls, ring: PhaseRing, n: int, factors, c: int = 0) -> "Weyl":
        """eps**c times powers ``(site, name, k)`` of X, Y and Z, the first applied first."""
        a, b = [0] * n, [0] * n
        for site, name, k in factors:
            da, db, dc = _pauli_row(ring, name, k)
            c += dc + 2 * db * a[site]  # Z**db meets the shift already applied
            a[site], b[site] = a[site] + da, b[site] + db
        d = ring.d
        return cls(d, tuple(v % d for v in a), tuple(v % d for v in b), c % (2 * d))

    @classmethod
    def of_matrix(cls, ring: PhaseRing, n: int, m: np.ndarray, tol: float) -> "Weyl | None":
        """The word whose matrix is within ``tol`` of ``m`` at every entry, or None:
        :func:`pauli_words` of the one matrix."""
        words, read = pauli_words(ring, n, np.asarray(m)[None], tol)
        a, b, c = np.split(words[0], [n, 2 * n])
        return cls(ring.d, tuple(a.tolist()), tuple(b.tolist()), int(c[0])) if read[0] else None

    def compose(self, other: "Weyl") -> "Weyl":
        """The word of self @ other: Z**b1 meets the shift a2 first, so c gains 2 b1.a2."""
        d = self.d
        cross = 2 * sum(b * a for b, a in zip(self.b, other.a))
        return Weyl(
            d,
            tuple((x + y) % d for x, y in zip(self.a, other.a)),
            tuple((x + y) % d for x, y in zip(self.b, other.b)),
            (self.c + other.c + cross) % (2 * d),
        )

    def power(self, k: int) -> "Weyl":
        """The word of self**k for any integer k: each of the k(k-1)/2 ordered pairs
        of factors adds 2 b.a to c."""
        d, k = self.d, operator.index(k)
        ba = sum(b * a for b, a in zip(self.b, self.a))
        return Weyl(
            d,
            tuple(k * a % d for a in self.a),
            tuple(k * b % d for b in self.b),
            (k * self.c + k * (k - 1) * ba) % (2 * d),
        )

    def exponents(self) -> np.ndarray:
        """The exponent c + 2 b.(m - a) mod 2d of each output index m (its entry comes from m - a)."""
        rows, expo = _shift_tables(self.d)[1], self.c
        for a, b in zip(self.a, self.b):
            expo = np.add.outer(expo, rows[b, a])
        return np.ravel(expo) % (2 * self.d)

    def apply(self, ring: PhaseRing, x: np.ndarray) -> np.ndarray:
        """W x for x of d**n rows: one gather (none when a = 0) and one multiply (none for 1)."""
        if not (any(self.a) or any(self.b) or self.c):
            return x
        if any(self.a):
            shift, index = _shift_tables(self.d)[0], 0
            for a in self.a:
                index = np.add.outer(index * self.d, shift[a])
            x = x[np.ravel(index)]
        return x * ring.eps_table[self.exponents()].reshape((-1,) + (1,) * (x.ndim - 1))


def pauli_words(ring: PhaseRing, n: int, m: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The word (a, b, c) of each matrix of a (k, d**n, d**n) stack, one row of
    2n + 1 integers each, and whether each matrix is within ``tol`` of its word
    at every entry.

    Column 0 and the n unit columns |e_j> are read at their largest entry:
    column 0's row is the shift a, and each entry's phase is rounded once to
    the nearest eps**e, c in column 0 and c + 2 b_j in column e_j.  An odd
    step is no word's, and is not read at any ``tol``.  Else the word counts
    only if its own matrix is within ``tol`` of the input at every entry: that
    one bound is the whole test, so a wrong reading can only fail it.
    """
    d, k = ring.d, len(m)
    place = d ** np.arange(n - 1, -1, -1)
    lead = m[:, :, np.concatenate([[0], place])].transpose(0, 2, 1).reshape(k * (n + 1), d**n)
    rows = np.abs(lead).argmax(axis=1)
    e = np.rint(np.angle(lead[np.arange(len(lead)), rows]) * d / np.pi).astype(np.int64).reshape(k, n + 1)
    rows = rows.reshape(k, n + 1)
    step = (e[:, 1:] - e[:, :1]) % (2 * d)
    a, b = rows[:, :1] // place % d, step // 2  # a: the digits of column 0's row
    words = np.concatenate([a, b, e[:, :1] % (2 * d)], axis=1)
    # the word's matrix holds eps**(c + 2 b.x) at row x + a of each column x
    digits = digit_table(d, n)
    target = ((digits + a[:, None]) % d) @ place
    diff = np.array(m, dtype=complex)
    expo = (words[:, -1:] + 2 * b @ digits.T) % (2 * d)
    diff[np.arange(k)[:, None], target, np.arange(d**n)] -= ring.eps_table[expo]
    return words, ~(step % 2).any(axis=1) & (np.abs(diff).max(axis=(1, 2)) <= tol)


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------


@dataclass
class QState:
    """Dense n-qudit state vector in the decreasing product basis."""

    d: int
    n: int
    vector: np.ndarray

    @classmethod
    def basis(cls, d: int, n: int, digits) -> "QState":
        digits = tuple(digits)
        if len(digits) != n:
            raise ValueError("wrong number of digits")
        if any(not 0 <= k < d for k in digits):
            raise ValueError(f"digits {digits} outside 0..{d - 1}")
        v = np.zeros(d**n, dtype=complex)
        v[basis_index(digits, d)] = 1.0
        return cls(d, n, v)

    @classmethod
    def zero(cls, d: int, n: int) -> "QState":
        return cls.basis(d, n, (0,) * n)

    def norm(self) -> float:
        return float(np.linalg.norm(self.vector))

    def fidelity(self, other: "QState") -> float:
        """|<self|other>| (1 for equality up to global phase)."""
        return float(abs(np.vdot(self.vector, other.vector)))


@dataclass(frozen=True, eq=False)
class Local:
    """A d**w x d**w ``block`` acting on the w qudits ``sites`` (0-based).

    The first listed site is the most significant digit of the block's
    index.  Sites may come in any order and need not be adjacent.
    """

    sites: tuple[int, ...]
    block: np.ndarray

    def __post_init__(self) -> None:
        for s in self.sites:  # here, as a cached plan of site 1 would serve 1.0
            _integer(s, "site")

    def to_matrix(self, d: int, n: int) -> np.ndarray:
        """The d**n x d**n operator on an n-qudit register."""
        return apply_local(np.eye(d**n, dtype=complex), d, n, self)


class _Plan(NamedTuple):
    """How to index x for a block on ``sites``; see :func:`_local_axes`."""

    view: tuple[int, ...]  # x with each site its own axis and the qudits between them merged
    axes: tuple[int, ...]  # the axes of ``view``, sites first in listed order
    dw: int  # d**w
    front: tuple[int, ...]  # the shape of ``view`` in ``axes`` order
    inverse: tuple[int, ...]  # the order that undoes ``axes``
    order: tuple[int, ...]  # the block digits in increasing site order
    lay: tuple[int, ...]  # the axes of ``view``, sites first: the monomial gather's layout
    rows: tuple[int, ...] | None  # the wide layout's view of x, None for a narrow plan
    tile: tuple[int, ...] | None  # the site digits' shape inside ``rows``' last axis


# numpy runs a kernel's innermost loop over the last axis of its view: the run
# of entries after the last site, times the batch.  Under 8192 entries (its
# buffer) numpy buffers the loop, at about twice the cost; a run under _SHORT
# entries costs more to start than to do.  So a plan of at least _WIDE entries
# is wide: its ``rows`` keeps each early site an axis and merges the last
# qudits, later sites included, and the batch into rows of at least _RUN
# entries, over which ``tile`` lays the digits of the merged sites.
_SHORT = 32
_RUN = 256
_WIDE = 4096


@functools.lru_cache(maxsize=None)
def _local_axes(d: int, n: int, sites: tuple[int, ...], batch: tuple[int, ...]) -> _Plan:
    """Check ``sites`` against the register and plan every index layout of them.

    A site that ``operator.index`` refuses is a ``TypeError`` before anything
    is built: ``1.0`` hashes and compares as ``1``, so a plan cached from it
    would serve every later call at that site.
    """
    sites = tuple(_integer(s, "site") for s in sites)
    if any(not 0 <= s < n for s in sites):
        raise ValueError(f"sites {sites} outside register of {n}")
    if len(set(sites)) != len(sites):
        raise ValueError(f"sites {sites} repeat a qudit")
    view = _site_axes(d, sorted(sites), n)
    view[-1] *= math.prod(batch)
    w = len(sites)
    rank = sorted(sites).index
    axes = tuple(2 * rank(s) + 1 for s in sites) + tuple(range(0, 2 * w + 1, 2))
    lay = tuple(range(2 * w + 1)) if w < 2 else (*range(1, 2 * w, 2), *range(0, 2 * w + 1, 2))
    rows = tile = None
    size = math.prod(batch) * d**n
    if size >= _WIDE:
        k = 0  # a row holds the last k qudits and the batch
        while k < n and size // d ** (n - k) < _RUN:
            k += 1
        high = [s for s in sorted(sites) if s < n - k]
        rows = (*_site_axes(d, high, n - k), size // d ** (n - k))
        tile = (d,) * len(high) + tuple(d if s in sites else 1 for s in range(n - k, n)) + (1,)
    return _Plan(
        tuple(view),
        axes,
        d**w,
        tuple(view[a] for a in axes),
        tuple(np.argsort(axes).tolist()),
        tuple(sorted(range(w), key=sites.__getitem__)),
        lay,
        rows,
        tile,
    )


def _site_axes(d: int, sites: list[int], n: int) -> list[int]:
    """An axis of d for each of the increasing ``sites`` of n qudits, and one for the qudits around them."""
    axes, prev = [], -1
    for s in sites:
        axes += [d ** (s - prev - 1), d]
        prev = s
    return axes + [d ** (n - 1 - prev)]


# Blocks cached read-only for the life of the process, by id.  Holding them
# keeps their ids from being reused, so their kernels can be memoised by id.
_FROZEN: dict[int, np.ndarray] = {}
_KERNELS: dict[tuple, tuple] = {}
# a wide monomial block gathers over the span of its sites in one ``np.take``
# when the span holds at most this many entries, else it moves slot by slot
_SPAN = 4096


def frozen(block: np.ndarray) -> np.ndarray:
    """Make ``block`` read-only for good, so :func:`apply_local` memoises its kernel."""
    block.flags.writeable = False
    _FROZEN[id(block)] = block
    return block


def block_structure(block: np.ndarray) -> str:
    """``"diagonal"`` (no off-diagonal nonzero), ``"monomial"`` (one nonzero in
    every row and every column) or ``"dense"``: the kernel ``apply_local`` uses."""
    nz = block != 0
    count = np.count_nonzero(nz)
    if count == np.count_nonzero(nz.diagonal()):
        return "diagonal"
    # d**w nonzeros with one in every row and every column
    if count == block.shape[0] and nz.any(axis=0).all() and nz.any(axis=1).all():
        return "monomial"
    return "dense"


def _kernel(block: np.ndarray, d: int, plan: _Plan) -> tuple:
    """(structure, tables) of ``block`` in ``plan``'s layout.

    A pure function of the block's values and the plan, memoised for
    :func:`frozen` blocks: by digit order for a narrow plan, and for a wide
    one also by all that its tables read of the plan (``tile``, the number of
    axes and the length of ``rows``, and the span of the sites), which
    registers of many sizes share.  A dense block has no table.  A diagonal
    one's is its diagonal shaped to broadcast over ``view``, or ``rows``.  In
    increasing site order, a narrow monomial one's are the gather index into
    ``view`` and its phases shaped to the gather, a wide one's the ``np.take``
    index over its span (None past _SPAN entries), the source of each output
    digit string and its phases over ``rows``.  A phase table is None when
    every phase is 1.
    """
    key = (id(block), plan.order)
    if plan.rows is not None:
        key += (plan.tile, len(plan.rows), plan.rows[-1], plan.view[1:-1])
    hit = _KERNELS.get(key)
    if hit is None:
        hit = _tables(block, d, plan)
        if _FROZEN.get(id(block)) is block:
            _KERNELS[key] = hit
    return hit


def _tables(block: np.ndarray, d: int, plan: _Plan) -> tuple:
    kind, order = block_structure(block), plan.order
    w, wide = len(order), plan.rows is not None
    if kind == "dense":
        return kind, None
    axis = (None, slice(None)) * w + (None,)
    if kind == "diagonal":
        diagonal = block.diagonal().reshape((d,) * w).transpose(order)
        return kind, _row_table(diagonal, plan) if wide else diagonal[axis]
    # renumber rows and columns by their digits in increasing site order
    dw = block.shape[0]
    block = block.reshape((d,) * 2 * w).transpose(order + tuple(w + k for k in order)).reshape(dw, dw)
    src = (block != 0).argmax(axis=1)
    phase = block[np.arange(dw), src]
    digits = digit_table(d, w)[src].T.reshape((w,) + (d,) * w)
    unit = (phase == 1).all()
    if wide:
        span, index = plan.view[1:-1], None
        if math.prod(span) <= _SPAN:
            # output (t_1, g_1, ..., t_w) reads (s_1, g_1, ..., s_w): s the sources of t, g the gaps
            axes = range(len(span))
            coords = [
                digits[a // 2].reshape([d if b % 2 == 0 else 1 for b in axes])
                if a % 2 == 0
                else np.arange(span[a]).reshape([span[a] if b == a else 1 for b in axes])
                for a in axes
            ]
            index = np.ravel_multi_index(coords, span).reshape(-1)
        phases = None if unit else _row_table(phase.reshape((d,) * w), plan)
        return kind, (index, src.tolist(), phases)
    index = sum(((slice(None), k) for k in digits), ()) + (slice(None),)
    gathered = phase.reshape((d,) * w + (1,) * (w + 1)) if w > 1 else phase[axis]
    return kind, (index, None if unit else gathered)


def _row_table(values: np.ndarray, plan: _Plan) -> np.ndarray:
    """``values`` (one per site digit string, increasing site order) laid over ``plan.rows``."""
    rows, tile, d = plan.rows, plan.tile, values.shape[0]
    high = (len(rows) - 2) // 2
    k = len(tile) - 1 - high  # the qudits of a row
    if max(tile[high:]) == 1:  # no site in the row: the values broadcast along it
        return values.reshape((1, d) * high + (1, 1))
    spread = np.broadcast_to(values.reshape(tile), (d,) * (high + k) + (rows[-1] // d**k,))
    return spread.reshape((1, d) * high + (1, rows[-1]))


@functools.lru_cache(maxsize=None)
def _view_slots(d: int, w: int) -> list[tuple]:
    """The index of each digit string's slice of a plan's ``view``, in basis order."""
    return [sum(((slice(None), k) for k in ks), ()) + (slice(None),) for ks in digit_table(d, w).tolist()]


def _runs(a: np.ndarray, run: int) -> np.ndarray:
    """``a`` as one opaque item per ``run`` consecutive entries, so a copy moves whole runs."""
    return a.reshape(-1, run).view(np.dtype((np.void, run * a.itemsize)))


def apply_local(x: np.ndarray, d: int, n: int, local: Local) -> np.ndarray:
    """Apply ``local`` to ``x`` (d**n entries, then an optional batch axis).

    The kernel follows the block's structure (:func:`block_structure`) and
    the plan's width (:func:`_local_axes`).  A diagonal block multiplies
    ``view``, or a wide plan's ``rows``.  A monomial block is one gather of
    ``view``, or on a wide plan one ``np.take`` over the sites' span (a copy
    of whole runs per digit string past _SPAN) and the phases as a diagonal.
    A dense block is ``view`` transposed with its sites first, in listed
    order, one ``np.dot`` and the transpose back.  Every layout computes each
    entry with the same operations in the same order, so all give the same
    bits.  None holds more than two states.
    """
    plan = _local_axes(d, n, tuple(local.sites), x.shape[1:])
    if local.block.shape != (plan.dw, plan.dw):
        raise ValueError(f"block of shape {local.block.shape} is not {plan.dw} x {plan.dw}")
    kind, tables = _kernel(local.block, d, plan)
    if kind == "diagonal":
        return (x.reshape(plan.rows or plan.view) * tables).reshape(x.shape)
    if kind == "monomial":
        return _permute(x, d, plan, tables, local.block.dtype)
    # the transposed copy has no name, so it is freed before the copy back
    y = np.dot(local.block, x.reshape(plan.view).transpose(plan.axes).reshape(plan.dw, -1))
    return y.reshape(plan.front).transpose(plan.inverse).reshape(x.shape)


def _permute(x: np.ndarray, d: int, plan: _Plan, tables: tuple, dtype) -> np.ndarray:
    """A d**w x d**w monomial block on ``x``."""
    out = np.empty(x.shape, x.dtype if x.dtype == dtype else np.result_type(x.dtype, dtype))
    view = plan.view
    if plan.rows is None:
        index, gathered = tables
        v, o = x.reshape(view), out.reshape(view).transpose(plan.lay)
        if gathered is None:
            np.copyto(o, v[index])
        else:
            np.multiply(v[index], gathered, out=o)
        return out
    index, sources, phases = tables
    x, run = x.astype(out.dtype, copy=False), view[-1]
    if index is not None:
        shape = (view[0], index.size, run)
        np.take(x.reshape(shape), index, axis=1, out=out.reshape(shape), mode="clip")
    else:
        runs, slots = view[:-1] + (1,), _view_slots(d, len(plan.order))
        v, o = _runs(x, run).reshape(runs), _runs(out, run).reshape(runs)
        for t, src in enumerate(sources):
            o[slots[t]] = v[slots[src]]
    if phases is not None:
        rows = out.reshape(plan.rows)
        np.multiply(rows, phases, out=rows)
    return out


def apply_site_gate(state: QState, m: np.ndarray, site: int) -> QState:
    """Apply a d x d matrix to one qudit (0-based site).  Kept for ``bench/tracer.py``."""
    return QState(state.d, state.n, apply_local(state.vector, state.d, state.n, Local((site,), m)))


def apply_full_matrix(state: QState, m: np.ndarray) -> QState:
    """``m @ state.vector``.  Kept for ``bench/tracer.py``."""
    return QState(state.d, state.n, m @ state.vector)


# ---------------------------------------------------------------------------
# controlled gates
# ---------------------------------------------------------------------------


def _block_diagonal(powers: list[np.ndarray]) -> np.ndarray:
    """The d**2 x d**2 block diagonal of d blocks of d x d: the control digit picks the block."""
    d = len(powers)
    block = np.zeros((d * d, d * d), dtype=complex)
    for c, power in enumerate(powers):
        block[c * d : (c + 1) * d, c * d : (c + 1) * d] = power
    return block


def ctrl_local(a: np.ndarray, control: int, target: int, exponent: int = 1) -> Local:
    """A**(exponent * k) on ``target``, k the value of ``control``, as one block.

    ``a`` is any d x d matrix, raised by ``np.linalg.matrix_power``; a named
    gate's controlled power is :func:`ctrl_block`, exact.
    """
    if control == target:
        raise ValueError("control and target must differ")
    powers = [np.linalg.matrix_power(a, exponent * c) for c in range(a.shape[0])]
    return Local((control, target), _block_diagonal(powers))


def ctrl_block(ring: PhaseRing, name: str, exponent: int = 1) -> np.ndarray:
    """The controlled power ctrl-A**exponent of a named gate, built once per
    process and shared read-only: the block diagonal of
    ``gate_block(ring, name, exponent * c)`` for control values c = 0..d-1.

    The exponent is reduced mod 4d here, which keeps the bits and bounds the
    cache at 5 * 4d blocks per ring.
    """
    return _ctrl_block(ring, name, _integer(exponent, "exponent") % (4 * ring.d))


@functools.lru_cache(maxsize=None)
def _ctrl_block(ring: PhaseRing, name: str, exponent: int) -> np.ndarray:
    return frozen(_block_diagonal([gate_block(ring, name, exponent * c) for c in range(ring.d)]))


def apply_controlled(
    state: QState, a: np.ndarray, control: int, target: int, exponent: int = 1
) -> QState:
    """Apply A**(exponent * k) to ``target``, k the control value.  Kept for ``bench/tracer.py``."""
    local = ctrl_local(a, control, target, exponent)
    return QState(state.d, state.n, apply_local(state.vector, state.d, state.n, local))


def controlled_gate(
    ring: PhaseRing,
    n: int,
    control: int,
    target: int,
    a: np.ndarray,
    flavor: str = "first-controls",
) -> np.ndarray:
    """Dense matrix of the controlled gate on an n-qudit register.

    ``first-controls`` is C_{1,A}: |k_c, k_t> -> |k_c, A**k_c k_t> with the
    listed control site doing the controlling; ``second-controls`` (C_{A,1})
    swaps the roles, i.e. the *target argument* controls powers applied to
    the *control argument*.
    """
    if flavor == "second-controls":
        control, target = target, control
    elif flavor != "first-controls":
        raise ValueError(f"unknown flavor {flavor!r}")
    return ctrl_local(a, control, target).to_matrix(ring.d, n)


def cz_gate(ring: PhaseRing, n: int = 2, site_a: int = 0, site_b: int = 1) -> np.ndarray:
    """C_Z = diag(q**(k_a * k_b)), the cached ctrl-Z; identical for both control flavors."""
    return Local((site_a, site_b), ctrl_block(ring, "Z")).to_matrix(ring.d, n)


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def site_probabilities(state: QState, site: int) -> np.ndarray:
    """The probability of each value 0..d-1 of ``site``: axis 1 of its one-site view.

    ``state.vector`` may carry a batch axis; the result is then one column
    per batch entry.  Many columns are numpy's ``sum(axis=(0, 2))`` of the
    batched view, in one call.  One column's bits are those of numpy's
    ``sum(axis=(0, 2))`` of the view: each
    run of entries after the site summed pairwise (left to right below 8
    entries), then the runs added in order.  On a wide plan with runs of
    fewer than _SHORT entries that sum loops over a few entries at a time,
    so the same additions run on whole columns of the view instead,
    negated, and the runs are added in order by ``np.subtract.reduce``,
    which, unlike an add, keeps its running total in a register.
    """
    plan = _local_axes(state.d, state.n, (_integer(site, "site"),), ())
    x, batch = state.vector, state.vector.shape[1:]
    if math.prod(batch) != 1:
        return (np.abs(x.reshape(plan.view + batch)) ** 2).sum(axis=(0, 2))
    x = x.reshape(plan.view)
    p = np.abs(x) ** 2
    if plan.rows is None or plan.view[-1] >= _SHORT:
        return p.sum(axis=(0, 2)).reshape((-1, *batch))
    sums = _negated_pairwise(p.transpose(2, 1, 0))  # [value, run]; may negate p in place
    np.negative(sums[:, 0], out=sums[:, 0])
    probs = np.array([np.subtract.reduce(row) for row in sums])
    if not np.isfinite(probs).all():
        # NaN carries its sign bit through negation; leave such a state to numpy's sum
        probs = (np.abs(x) ** 2).sum(axis=(0, 2))
    return probs.reshape((-1, *batch))


def _negated_pairwise(cols: np.ndarray) -> np.ndarray:
    """Minus numpy's pairwise sum of ``cols`` (non-negative) along axis 0, for fewer than 128 columns.

    A single column is negated in place, in the caller's array.  Its rows
    are then strided: a 1-D reduction of each row still runs as one long
    loop, a 2-D reduction of them all would not.
    """
    n = len(cols)
    if n == 1:
        return np.negative(cols[0], out=cols[0])
    if n < 8:
        acc = np.negative(cols[0], order="C")
        for col in cols[1:]:
            np.subtract(acc, col, out=acc)
        return acc
    r = np.negative(cols[:8], order="C")
    for i in range(8, n - n % 8, 8):
        np.subtract(r, cols[i : i + 8], out=r)
    acc = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for col in cols[n - n % 8 :]:
        np.subtract(acc, col, out=acc)
    return acc


def project_site(state: QState, site: int, outcome: int) -> tuple[QState, float]:
    """Project one qudit onto |outcome> and renormalize.

    Returns (post_state, branch_probability); the post state keeps all n
    qudits (the measured one collapses to |outcome>).  Kept for
    ``bench/tracer.py``.
    """
    _check_outcome(state.d, outcome)
    p = float(site_probabilities(state, site)[outcome])
    return collapse_site(state, site, outcome, p), p


def collapse_site(state: QState, site: int, outcome: int, p: float) -> QState:
    """The post state of reading ``outcome`` at ``site``, whose probability is ``p``.

    Every other value of the site (axis 1 of its one-site view) is zeroed
    and the rest divided by sqrt(p) (left as is when p is 0).
    """
    _check_outcome(state.d, outcome)
    plan = _local_axes(state.d, state.n, (_integer(site, "site"),), ())
    t = state.vector.reshape(plan.view)
    kept = (slice(None), outcome)
    out = np.zeros(t.shape, t.dtype)
    if p > 0:
        _divide(t[kept], p, out[kept])
    else:
        out[kept] = t[kept]
    return QState(state.d, state.n, out.reshape(-1))


def _divide(a: np.ndarray, p, out: np.ndarray) -> None:
    """``a / sqrt(p)`` into ``out``, which may be ``a``; ``p`` is a number, or
    an array of them that broadcasts against ``a``.

    numpy divides a complex x by c + 0j as ((x.re + x.im*0)*s, (x.im - x.re*0)*s),
    s = 1/c, signs of zeros included.  x times s - 0j, fused or not, gives
    the same bits for every finite x whenever s >= 1, i.e. c <= 1: its
    products with 0 are exact, and no product with s rounds to zero.  Only a
    NaN may come out with another sign bit.  The multiply makes four numpy
    calls more than the divide and takes a sixth of its time per entry, so,
    as the kernels do, an array under _WIDE entries takes the fewer calls.
    """
    root = np.sqrt(p)
    if a.size >= _WIDE and a.dtype == np.complex128 and root.max() <= 1:
        np.multiply(a, (1 / root).astype(complex).conj(), out=out)
    else:
        np.divide(a, root, out=out)


def _check_outcome(d: int, outcome: int) -> None:
    if not 0 <= outcome < d:
        raise ValueError(f"outcome {outcome} outside 0..{d - 1}")


def draw(state: QState, site: int, rng: np.random.Generator) -> tuple[int, float]:
    """Sample one computational-basis outcome of ``site`` with ``rng``; return (outcome, p)."""
    probs = site_probabilities(state, site)
    outcome = int(rng.choice(state.d, p=probs / probs.sum()))
    return outcome, float(probs[outcome])


def measure(state: QState, site: int, rng: np.random.Generator) -> tuple[int, QState, float]:
    """Computational-basis measurement of one site, sampled with ``rng``: :func:`draw`
    then :func:`collapse_site`.  Public, and kept for ``bench/tracer.py``."""
    outcome, p = draw(state, site, rng)
    return outcome, collapse_site(state, site, outcome, p), p


# ---------------------------------------------------------------------------
# symmetry family b_m and the string Fourier transform
# ---------------------------------------------------------------------------


def sym_gate_matrix(ring: PhaseRing, m: int) -> np.ndarray:
    """Two-qudit b_m: |k,l> -> q**(m*k*l) |l,k>; b_0 is SWAP."""
    d = ring.d
    k, l = digit_table(d, 2).T
    out = np.zeros((d * d, d * d), dtype=complex)
    out[l * d + k, k * d + l] = ring.eps_table[2 * (_integer(m, "m") % d) * k * l % (2 * d)]
    return out


def sym_block(ring: PhaseRing, m: int) -> np.ndarray:
    """:func:`sym_gate_matrix`, built once per process and shared read-only.

    m is reduced mod d here, as ``sym_gate_matrix`` does, which keeps the bits.
    """
    return _sym_block(ring, _integer(m, "m") % ring.d)


@functools.lru_cache(maxsize=None)
def _sym_block(ring: PhaseRing, m: int) -> np.ndarray:
    return frozen(sym_gate_matrix(ring, m))


def sym_gate(ring: PhaseRing, n: int, strand: int, m: int) -> np.ndarray:
    """b_m embedded on the adjacent qudit pair at straddling strand ``strand``.

    ``strand`` is 0-based and must be odd (the boundary between qudits
    (strand-1)//2 and (strand+1)//2).
    """
    j = _sym_pair(n, strand)
    return Local((j, j + 1), sym_block(ring, m)).to_matrix(ring.d, n)


def _sym_pair(n: int, strand: int) -> int:
    """First qudit of the adjacent pair that straddling strand ``strand`` joins."""
    if strand % 2 != 1 or not 0 < strand < 2 * n - 1:
        raise ValueError(f"strand {strand} is not a qudit boundary for n={n}")
    return (strand - 1) // 2


def sft_matrix(ring: PhaseRing, n: int) -> np.ndarray:
    """Closed-form string Fourier transform on n qudits.

    <l|SFT|k> = d**((1-n)/2) * zeta**(|l|**2) * prod_{j1<j2} q**(-l_j1 k_j2)
    on the charge-conserving sector |l| == |k| (mod d), zero elsewhere.
    The integer exponents are reduced before one ``ring.eps_table`` lookup per phase.
    Refuses n < 1: on no qudits the formula gives sqrt(d), not a unitary.
    """
    if n < 1:
        raise ValueError(f"the SFT needs at least one qudit, got n={n}")
    d = ring.d
    digits = digit_table(d, n)
    total = digit_sums(d, n)
    before = np.cumsum(digits, axis=1) - digits  # l_1 + ... + l_{j-1}
    expo = -(before @ digits.T)  # [l, k]: -sum_{j1<j2} l_j1 k_j2
    eps, scale = ring.eps_table, float(d) ** ((1 - n) / 2)
    out = scale * eps[ring.zeta_exp * total**2 % (2 * d)][:, None] * eps[2 * expo % (2 * d)]
    out[(total[:, None] - total[None, :]) % d != 0] = 0.0
    return out


# ---------------------------------------------------------------------------
# random draws for the checks of ``verify`` and the tests
# ---------------------------------------------------------------------------


def _random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_state(ring: PhaseRing, n: int, rng: np.random.Generator) -> QState:
    v = rng.normal(size=ring.d**n) + 1j * rng.normal(size=ring.d**n)
    return QState(ring.d, n, v / np.linalg.norm(v))
