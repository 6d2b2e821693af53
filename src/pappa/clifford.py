"""Clifford-group checks: named identities, BFS generation, membership.

The two dressing identities verified here are

    C_Z       = (F**-1 x F G**-1) S (F G F**-1 x F**-1 G**-1)
    b_{2,3,-} = omega**0.5 (1 x G**-1) S (G**-1 x 1)

with S the two-qudit string Fourier transform.  Each verifier also
records the residual of a nearby variant dressing (one Gaussian factor,
resp. one power of omega, off) that does *not* hold; keeping the failing
variant visible pins the phase conventions against regressions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import evaluator, gates
from .gates import Local, ctrl_block, cz_gate, fourier_gate, gate_block, gaussian_gate, kron_all, sft_matrix
from .phases import PhaseRing

_HASH_GRID = 1e-6
# matrix entries multiplied in one batch of the BFS: about ten arrays of this
# many entries are alive at once, each at most 128 KiB, glibc's default mmap
# threshold; at 2**14 the d=5 batches were mapped and faulted in afresh each time
_BATCH_ENTRIES = 2**13


@dataclass(frozen=True)
class PhaselessUnitary:
    """A unitary with the global phase stripped by a fixed convention.

    The first entry with modulus above tolerance in column-major order is
    rotated to the positive real axis; canonicalization is idempotent.
    """

    matrix: np.ndarray

    @classmethod
    def of(cls, m: np.ndarray, tol: float = 1e-9) -> "PhaselessUnitary":
        canon, zero_at = _canonical_batch(np.asarray(m)[None], tol)
        if zero_at == 0:
            raise ValueError("zero matrix cannot be canonicalized")
        return cls(canon[0])

    def key(self) -> bytes:
        return _keys_batch(self.matrix[None])[0]


# ---------------------------------------------------------------------------
# named identity checks
# ---------------------------------------------------------------------------


@dataclass
class IdentityReport:
    residual: float
    alternate_residual: float | None = None
    extras: dict[str, float] = field(default_factory=dict)

    def ok(self, tol: float = 1e-9) -> bool:
        return self.residual < tol


def verify_cz_from_sft(ring: PhaseRing) -> IdentityReport:
    """C_Z from the 2-qudit SFT dressed by single-qudit Cliffords."""
    d = ring.d
    s = sft_matrix(ring, 2)
    f, g = fourier_gate(ring), gaussian_gate(ring)
    fi, gi = gate_block(ring, "F", -1), gate_block(ring, "G", -1)
    cz = cz_gate(ring, 2)
    dressing = kron_all([fi, f @ gi]) @ s @ kron_all([f @ g @ fi, fi @ gi])
    variant = kron_all([g @ fi, f @ gi]) @ s @ kron_all([np.eye(d), fi @ gi])
    return IdentityReport(
        residual=float(np.abs(cz - dressing).max()),
        alternate_residual=float(np.abs(cz - variant).max()),
    )


def verify_sft_factorizations(ring: PhaseRing) -> IdentityReport:
    """Both controlled-gate factorizations of the SFT plus the Bell corollary.

    C_{1,X} has qudit 1 control X powers on qudit 2, C_{X,1} the reverse.
    """
    d = ring.d
    s = sft_matrix(ring, 2)
    f, g = fourier_gate(ring), gaussian_gate(ring)
    gi = gate_block(ring, "G", -1)
    c1x, c1x_inv, cx1, cx1_inv = (
        Local(sites, ctrl_block(ring, "X", e)).to_matrix(d, 2) for sites in ((0, 1), (1, 0)) for e in (1, -1)
    )
    fact1 = kron_all([gi, g]) @ c1x_inv @ kron_all([f, np.eye(d)]) @ c1x
    fact2 = cx1_inv @ kron_all([np.eye(d), f]) @ cx1 @ kron_all([g, gi])
    zero = np.zeros(d * d)
    zero[0] = 1.0
    bell = c1x_inv @ kron_all([f, np.eye(d)]) @ zero
    extras = {
        "factorization1": float(np.abs(s - fact1).max()),
        "factorization2": float(np.abs(s - fact2).max()),
        "bell_corollary": float(np.abs(s @ zero - bell).max()),
    }
    return IdentityReport(residual=max(extras.values()), extras=extras)


def verify_braid_gaussian_dressing(ring: PhaseRing) -> IdentityReport:
    """b_{2,3,-} as a Gaussian dressing of the SFT (corrected scalar omega**0.5)."""
    d = ring.d
    s = sft_matrix(ring, 2)
    gi = gate_block(ring, "G", -1)
    core = kron_all([np.eye(d), gi]) @ s @ kron_all([gi, np.eye(d)])
    b23 = evaluator.braid_op(ring, 2, 1, -1).matrix
    rep = IdentityReport(
        residual=float(np.abs(b23 - ring.omega_sqrt * core).max()),
        alternate_residual=float(np.abs(b23 - ring.omega * core).max()),
    )
    b23p = evaluator.braid_op(ring, 2, 1, +1).matrix
    rep.extras["inverse_pair"] = float(
        np.abs(b23 @ b23p - np.eye(d * d)).max()
    )
    return rep


# ---------------------------------------------------------------------------
# group generation and membership
# ---------------------------------------------------------------------------


@dataclass
class GroupReport:
    order: int
    cap_hit: bool
    membership: dict[str, bool]
    generator_count: int


def _canonical_batch(m: np.ndarray, tol: float = 1e-9) -> tuple[np.ndarray, int]:
    """The canonical form of each matrix of a (k, D, D) stack; ``PhaselessUnitary.of``
    is the case k = 1.

    Also returns the index of the first matrix with no entry above ``tol``
    (k when there is none); that matrix and the ones after it are not
    canonical.
    """
    rows = np.arange(len(m))
    flat = m.transpose(0, 2, 1).reshape(len(m), m.shape[1] * m.shape[2])  # column-major
    live = np.abs(flat) > tol
    idx = live.argmax(axis=1)
    dead = np.flatnonzero(~live[rows, idx])
    pivot = flat[rows, idx]
    # np.hypot has the bits of a scalar's abs(); the array np.abs can differ in the last bit
    mag = np.hypot(pivot.real, pivot.imag)
    mag[dead] = 1.0
    return m * (pivot.conj() / mag)[:, None, None], int(dead[0]) if len(dead) else len(m)


def _keys_batch(m: np.ndarray) -> list[bytes]:
    """The hash key of each matrix of a (k, D, D) stack; ``PhaselessUnitary.key`` is k = 1."""
    flat = m.reshape(len(m), m.shape[1] * m.shape[2])
    re = np.round(flat.real / _HASH_GRID).astype(np.int64)
    im = np.round(flat.imag / _HASH_GRID).astype(np.int64)
    rows = np.concatenate([re, im], axis=1)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel().tolist()


def generate_group(
    ring: PhaseRing,
    n: int,
    generators: dict[str, np.ndarray],
    cap: int = 200_000,
    probes: dict[str, np.ndarray] | None = None,
) -> GroupReport:
    """Breadth-first closure of the generators modulo global phase.

    Reports the group order (or that the cap was hit) and membership
    flags for each probe matrix.  The closure expands one BFS level per
    batched product: every ``gen @ cur`` of the level is formed at once,
    put in ``PhaselessUnitary.of`` form and keyed as by
    ``PhaselessUnitary.key``, and the first unseen occurrence of each key
    joins the next level in (cur, gen) order.  Discovery order, the stop
    at exactly ``cap`` elements and the probe flags are those of a FIFO
    BFS that multiplies one product at a time.  Orders are never asserted
    from memory; tests compare against such a sequential BFS and against
    counted symplectic groups.
    """
    if ring.d**n > 81:
        raise ValueError("group generation is desk-scale only (d**n <= 81)")
    dim = ring.d**n
    gens = np.asarray(list(generators.values()), dtype=complex).reshape(-1, dim, dim)
    start = PhaselessUnitary.of(np.eye(dim, dtype=complex))
    seen = {start.key()}
    probe_canon = {name: PhaselessUnitary.of(m).matrix for name, m in (probes or {}).items()}
    found = dict.fromkeys(probe_canon, False)
    count = 1
    cap_hit = False
    # frontier elements per batch, so one batch holds about _BATCH_ENTRIES entries
    chunk = max(1, _BATCH_ENTRIES // (max(len(gens), 1) * dim * dim))
    frontier = start.matrix[None]
    while len(frontier) and not cap_hit:
        level = []
        for lo in range(0, len(frontier), chunk):
            batch = (gens[None] @ frontier[lo : lo + chunk, None]).reshape(-1, dim, dim)
            batch, zero_at = _canonical_batch(batch)
            keys = _keys_batch(batch[:zero_at])
            # the first index of each key: zip reversed, so the earliest write wins
            first = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))
            fresh = sorted(i for key, i in first.items() if key not in seen)
            fresh = fresh[: max(cap - count, 1)]  # the element that reaches cap is kept
            seen.update(keys[i] for i in fresh)
            count += len(fresh)
            cap_hit = bool(fresh) and count >= cap
            if not cap_hit and zero_at < len(batch):
                raise ValueError("zero matrix cannot be canonicalized")
            new = batch[fresh]
            for name, canon in probe_canon.items():
                if not found[name]:
                    found[name] = bool((np.abs(new - canon).max(axis=(1, 2)) < 1e-8).any())
            level.append(new)
            if cap_hit:
                break
        frontier = np.concatenate(level)
    return GroupReport(
        order=count,
        cap_hit=cap_hit,
        membership=found,
        generator_count=len(gens),
    )


def _pauli_word_match(ring: PhaseRing, n: int, w: np.ndarray, tol: float) -> bool:
    """True iff w is a phase times X**x Z**z words on the register."""
    d = ring.d
    cols = np.arange(d**n)
    # every column must have exactly one entry of unit modulus
    mags = np.abs(w)
    rows = mags.argmax(axis=0)
    top = mags[rows, cols]
    if (np.abs(top - 1.0) > tol).any() or (mags.sum(axis=0) - top > tol).any():
        return False
    # constant digit offset per site
    digits = gates.digit_table(d, n)
    shift = (digits[rows] - digits) % d
    if (shift != shift[0]).any():
        return False
    # phases must be q**(linear form) relative to column 0; site j's z is
    # the first power of q within 10 tol of the phase of its unit column
    entries = w[rows, cols]
    base, q = entries[0], gates._q_table(ring)
    units = d ** np.arange(n - 1, -1, -1)
    near = np.abs(entries[units, None] / base - q) < 10 * tol
    if not near.any(axis=1).all():
        return False
    expect = base * q[digits @ near.argmax(axis=1) % d]
    return not (np.abs(entries - expect) > 10 * tol).any()


def is_clifford(ring: PhaseRing, u: np.ndarray, tol: float = 1e-8) -> bool:
    """True iff u maps every Pauli generator to a phase times a Pauli word."""
    dim = u.shape[0]
    n = 0
    size = 1
    while size < dim:
        size *= ring.d
        n += 1
    if size != dim:
        raise ValueError("matrix size is not a power of d")
    if np.abs(u @ u.conj().T - np.eye(dim)).max() > 1e-8:
        raise ValueError("is_clifford expects a unitary")
    ui = u.conj().T
    for site in range(n):
        for p in ("X", "Z"):
            word = gates.Local((site,), gates.gate_block(ring, p)).to_matrix(ring.d, n)
            if not _pauli_word_match(ring, n, u @ word @ ui, tol):
                return False
    return True
