"""Dense qudit gates and the state-vector simulator.

Single-qudit conventions (basis |0..d-1>, index arithmetic mod d):

    X|k> = |k+1>        Y|k> = zeta**(1-2k) |k-1>       Z|k> = q**k |k>
    F|k> = d**-0.5 * sum_l q**(k*l) |l>                 G|k> = zeta**(k*k) |k>

Every phase is one lookup into a ring's cached, read-only table of
eps**e, e = 0..2d-1 (:func:`_eps_table`): the named gates of
:func:`gate_power`, one table row each, and the closed forms
``sft_matrix`` and ``sym_gate_matrix``.  Every named block is cached
read-only once per process: :func:`gate_block` for the gates,
:func:`ctrl_block` for their controlled powers (the block diagonal of
gate blocks, so exact too) and :func:`sym_block` for b_m.  The protocol
walker, ``evaluator.evaluate`` and the dense helpers all read them.

Multi-qudit basis: |k_1,...,k_n> maps to index sum(k_j * d**(n-j)), i.e.
qudit 1 is the first (most significant) tensor factor.  The cached,
read-only :func:`digit_table` holds the digits of every index and
:func:`digit_sums` their sums; closed forms over basis indices (the SFT,
the Max states, Pauli-word matching) are array expressions on them.

Every local operation is a :class:`Local`, a d**w x d**w block on w listed
qudits in any order: a gate, a block-diagonal controlled gate, or a braid's
``evaluator.braid_block``; the SFT is omega**0.5 times 2n-1 braids.
:func:`apply_local`, the one way a block reaches a state, picks its kernel
from the block's structure (:func:`block_structure`).  A diagonal block (Z,
G, ctrl-Z, the even braids) is one broadcast multiply.  A monomial block
(X, Y, even powers of F, their ctrl blocks, b_m) moves each entry once and
scales it by its phase.  A dense block (odd powers of F and their ctrl
blocks, the odd braids, boxes) is a transpose, one ``np.dot`` and the
transpose back.  Each is O(d**(n+w)) work and at most two states of
memory, not the d**(2n) of the matrix, so an ``sft`` at d=2, n=20 runs.
The cached blocks (:func:`gate_block`, :func:`ctrl_block`,
:func:`sym_block`, ``evaluator.braid_block``) are :func:`frozen`, so each
one's kernel tables are worked out once.

The dense d**n x d**n forms that remain are that kernel on the identity:
``Local.to_matrix``, through which ``sym_gate``, ``cz_gate`` and
``controlled_gate`` embed their blocks (the first two cached, the last
``ctrl_local``'s, for any matrix), and ``apply_sft`` on a batch of basis
states (``evaluator.sft_via_braids``); ``sft_matrix`` is the closed form.
They exist for test oracles and for the checks of ``verify`` and
``clifford.py``, which compare matrices.  The state wrappers
``apply_site_gate``, ``apply_controlled``, ``apply_full_matrix``,
``project_site`` and ``measure`` have no caller in the package; they are
kept because ``bench/tracer.py`` wraps them by name.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .phases import PhaseRing

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


@functools.lru_cache(maxsize=None)
def _eps_table(ring: PhaseRing) -> np.ndarray:
    """eps**e for e = 0..2d-1 (read-only): q**e sits at 2e, zeta**e at zeta_exp * e, mod 2d."""
    table = np.array([ring.eps_pow(e) for e in range(2 * ring.d)])
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=None)
def _q_table(ring: PhaseRing) -> np.ndarray:
    """q**e for e = 0..d-1: the even entries of :func:`_eps_table` (read-only)."""
    return _eps_table(ring)[::2]


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
    d, z, eps = ring.d, ring.zeta_exp, _eps_table(ring)
    k, m = power % (4 * d), np.arange(d)
    if name == "F" and k % 2:
        f = eps[2 * np.outer(m, m) % (2 * d)] / d**0.5
        return f if k % 4 == 1 else f.conj().T
    rows, expo = {
        "X": (m + k, 0),
        "Y": (m - k, z * (k * k - 2 * k * m)),
        "Z": (m, 2 * k * m),
        "G": (m, z * k * m * m),
        "F": (m if k % 4 == 0 else -m, 0),
    }[name]
    out = np.zeros((d, d), dtype=complex)
    out[rows % d, m] = eps[expo % (2 * d)]
    return out


def gate_block(ring: PhaseRing, name: str, power: int = 1) -> np.ndarray:
    """:func:`gate_power`, built once per process and shared read-only.

    The power is reduced mod 4d here, which keeps the bits and bounds the
    cache at 5 * 4d blocks per ring.
    """
    return _gate_block(ring, name, power % (4 * ring.d))


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
    """``digit_table(d, n).sum(axis=1)`` (read-only).

    Built digit by digit, so wide ``evaluator._z_tail`` calls do not keep
    the n times larger table cached.
    """
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

    def to_matrix(self, d: int, n: int) -> np.ndarray:
        """The d**n x d**n operator on an n-qudit register."""
        return apply_local(np.eye(d**n, dtype=complex), d, n, self)


class _Plan(NamedTuple):
    """How to index x for a block on ``sites``; see :func:`_local_axes`."""

    full: tuple[int, ...]  # x with one axis per qudit, then the batch
    axes: tuple[int, ...]  # that order with the sites first
    dw: int  # d**w
    front: tuple[int, ...]  # the shape of ``full`` in ``axes`` order
    inverse: tuple[int, ...]  # the order that undoes ``axes``
    view: tuple[int, ...]  # x with each site its own axis and the qudits between them merged
    order: tuple[int, ...]  # the block digits in increasing site order
    lay: tuple[int, ...]  # the axes of ``view``, sites first: the monomial gather's layout


@functools.lru_cache(maxsize=None)
def _local_axes(d: int, n: int, sites: tuple[int, ...], batch: tuple[int, ...]) -> _Plan:
    """Check ``sites`` against the register and plan every kernel's indexing."""
    if any(not 0 <= s < n for s in sites):
        raise ValueError(f"sites {sites} outside register of {n}")
    if len(set(sites)) != len(sites):
        raise ValueError(f"sites {sites} repeat a qudit")
    full = (d,) * n + batch
    axes = sites + tuple(a for a in range(len(full)) if a not in sites)
    view, prev = [], -1
    for s in sorted(sites):
        view += [d ** (s - prev - 1), d]
        prev = s
    view.append(d ** (n - 1 - prev) * math.prod(batch))
    w = len(sites)
    lay = tuple(range(2 * w + 1)) if w < 2 else (*range(1, 2 * w, 2), *range(0, 2 * w + 1, 2))
    return _Plan(
        full,
        axes,
        d**w,
        tuple(full[a] for a in axes),
        tuple(np.argsort(axes).tolist()),
        tuple(view),
        tuple(sorted(range(w), key=sites.__getitem__)),
        lay,
    )


# Blocks cached read-only for the life of the process, by id.  Holding them
# keeps their ids from being reused, so their kernels can be memoised by id.
_FROZEN: dict[int, np.ndarray] = {}
_KERNELS: dict[tuple[int, tuple[int, ...]], tuple] = {}
# a monomial block scales one strided slice per output digit string once the
# slices hold this many entries; below, one gather costs less (measured on
# one core for d = 2, 3, 7 and w = 1, 2)
_SLICE_LOOP = 2048


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


def _kernel(block: np.ndarray, d: int, order: tuple[int, ...]) -> tuple:
    """(structure, tables) of ``block`` with its digits taken in ``order``.

    A pure function of the block's values, memoised for :func:`frozen` blocks.
    A diagonal block's table is its diagonal shaped to broadcast over the
    plan's ``view``.  A monomial block's, in increasing site order, are the
    gather index into ``view``, its phases shaped to the gather, and for the
    slice loop the slices of ``view``, the source of each output digit string
    and its phase (both phase tables None when every phase is 1).
    """
    key = (id(block), order)
    hit = _KERNELS.get(key)
    if hit is None:
        hit = _tables(block, d, order)
        if _FROZEN.get(id(block)) is block:
            _KERNELS[key] = hit
    return hit


def _tables(block: np.ndarray, d: int, order: tuple[int, ...]) -> tuple:
    kind, w = block_structure(block), len(order)
    if kind == "dense":
        return kind, None
    axis = (None, slice(None)) * w + (None,)
    if kind == "diagonal":
        return kind, block.diagonal().reshape((d,) * w).transpose(order)[axis]
    # renumber rows and columns by their digits in increasing site order
    dw = block.shape[0]
    block = block.reshape((d,) * 2 * w).transpose(order + tuple(w + k for k in order)).reshape(dw, dw)
    src = (block != 0).argmax(axis=1)
    phase = block[np.arange(dw), src]
    digits = digit_table(d, w)[src].T.reshape((w,) + (d,) * w)
    index = sum(((slice(None), k) for k in digits), ()) + (slice(None),)
    sources, phases = src.tolist(), phase.tolist()
    if all(p == 1 for p in phases):
        return kind, (index, None, _view_slots(d, w), sources, None)
    gathered = phase.reshape((d,) * w + (1,) * (w + 1)) if w > 1 else phase[axis]
    return kind, (index, gathered, _view_slots(d, w), sources, phases)


@functools.lru_cache(maxsize=None)
def _view_slots(d: int, w: int) -> list[tuple]:
    """The index of each digit string's slice of a plan's ``view``, in basis order."""
    return [sum(((slice(None), k) for k in ks), ()) + (slice(None),) for ks in digit_table(d, w).tolist()]


def apply_local(x: np.ndarray, d: int, n: int, local: Local) -> np.ndarray:
    """Apply ``local`` to ``x`` (d**n entries, then an optional batch axis).

    The kernel follows the block's structure (:func:`block_structure`).  A
    diagonal block is one broadcast multiply of a view of ``x``.  A monomial
    block moves each entry once and scales it by its phase: one strided
    multiply per output digit string when those slices are large, else one
    gather.  A dense block transposes its sites to the front, makes one
    ``np.dot`` and transposes back.  None copies more than two states.
    """
    full, axes, dw, front, inverse, view, order, lay = _local_axes(
        d, n, tuple(local.sites), x.shape[1:]
    )
    if local.block.shape != (dw, dw):
        raise ValueError(f"block of shape {local.block.shape} is not {dw} x {dw}")
    kind, tables = _kernel(local.block, d, order)
    if kind == "diagonal":
        return (x.reshape(view) * tables).reshape(x.shape)
    if kind == "monomial":
        return _permute(x.reshape(view), dw, lay, tables, local.block.dtype).reshape(x.shape)
    # the transposed copy has no name, so it is freed before the copy back
    y = np.dot(local.block, x.reshape(full).transpose(axes).reshape(dw, -1))
    return y.reshape(front).transpose(inverse).reshape(x.shape)


def _permute(v: np.ndarray, dw: int, lay: tuple[int, ...], tables: tuple, dtype) -> np.ndarray:
    """A d**w x d**w monomial block on a plan's ``view`` ``v``."""
    index, gathered, slots, sources, phases = tables
    out = np.empty(v.shape, v.dtype if v.dtype == dtype else np.result_type(v.dtype, dtype))
    if v.size >= dw * _SLICE_LOOP:
        for t, src in enumerate(sources):
            if phases is None:
                np.copyto(out[slots[t]], v[slots[src]])
            else:
                np.multiply(v[slots[src]], phases[t], out=out[slots[t]])
    elif gathered is None:
        np.copyto(out.transpose(lay), v[index])
    else:
        np.multiply(v[index], gathered, out=out.transpose(lay))
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
    return _ctrl_block(ring, name, exponent % (4 * ring.d))


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
    d, n = state.d, state.n
    t = np.abs(state.vector.reshape([d] * n)) ** 2
    axes = tuple(i for i in range(n) if i != site)
    return t.sum(axis=axes)


def project_site(state: QState, site: int, outcome: int) -> tuple[QState, float]:
    """Project one qudit onto |outcome> and renormalize.

    Returns (post_state, branch_probability); the post state keeps all n
    qudits (the measured one collapses to |outcome>).  Kept for
    ``bench/tracer.py``.
    """
    p = float(site_probabilities(state, site)[outcome])
    return collapse_site(state, site, outcome, p), p


def collapse_site(state: QState, site: int, outcome: int, p: float) -> QState:
    """The post state of reading ``outcome`` at ``site``, whose probability is ``p``.

    Every other value of the site is zeroed and the rest divided by
    sqrt(p) (left as is when p is 0).
    """
    d, n = state.d, state.n
    t = state.vector.reshape([d] * n)
    out = np.zeros_like(t)
    kept = (slice(None),) * site + (outcome, ...)  # a view even when n is 1
    if p > 0:
        np.divide(t[kept], np.sqrt(p), out=out[kept])
    else:
        out[kept] = t[kept]
    return QState(d, n, out.reshape(-1))


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
    out[l * d + k, k * d + l] = _eps_table(ring)[2 * (m % d) * k * l % (2 * d)]
    return out


def sym_block(ring: PhaseRing, m: int) -> np.ndarray:
    """:func:`sym_gate_matrix`, built once per process and shared read-only.

    m is reduced mod d here, as ``sym_gate_matrix`` does, which keeps the bits.
    """
    return _sym_block(ring, m % ring.d)


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
    The integer exponents are reduced before one ``_eps_table`` lookup per phase.
    """
    d = ring.d
    digits = digit_table(d, n)
    total = digit_sums(d, n)
    before = np.cumsum(digits, axis=1) - digits  # l_1 + ... + l_{j-1}
    expo = -(before @ digits.T)  # [l, k]: -sum_{j1<j2} l_j1 k_j2
    eps, scale = _eps_table(ring), float(d) ** ((1 - n) / 2)
    out = scale * eps[ring.zeta_exp * total**2 % (2 * d)][:, None] * eps[2 * expo % (2 * d)]
    out[(total[:, None] - total[None, :]) % d != 0] = 0.0
    return out


def sft_locals(ring: PhaseRing, n: int) -> list[Local]:
    """b_{0,-}, ..., b_{2n-2,-} in order: the SFT is omega**0.5 times their product."""
    from .evaluator import braid_local

    return [braid_local(ring, s, -1) for s in range(2 * n - 1)]


def apply_sft(ring: PhaseRing, state: QState) -> QState:
    """The string Fourier transform on the whole register, as 2n-1 local braids.

    ``state.vector`` may carry a batch axis; on the identity this is
    ``evaluator.sft_via_braids``.
    """
    d, n = state.d, state.n
    v = state.vector * ring.omega_sqrt
    for local in sft_locals(ring, n):
        v = apply_local(v, d, n, local)
    return QState(d, n, v)


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
