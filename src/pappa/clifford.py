"""Clifford-group checks: named identities, an exact BFS closure, membership.

Modulo its global phase a qudit Clifford u is its :func:`tableau`: the
images u X_j u**-1 and u Z_j u**-1 of the Pauli generators, each a
``gates.Weyl`` word eps**c X**a Z**b of 2n + 1 integers, ``c`` mod 2d.  It
is read once from the matrix.  :func:`generate_group` then walks the
closure of Clifford generators in these integers only: the tableau of a
product is a matmul and a quadratic form over Z (``Weyl.compose`` and
``Weyl.power`` give the scalar rules), and each element is keyed by its
exact entries, so no key rounds a float.  It refuses a generator that is
not a Clifford unitary.  :func:`is_clifford` asks whether a matrix has a
tableau.  :class:`PhaselessUnitary` is the float canonical form and grid
key of any unitary, Clifford or not.

The two dressing identities verified here are

    C_Z       = (F**-1 x F G**-1) S (F G F**-1 x F**-1 G**-1)
    b_{2,3,-} = omega**0.5 (1 x G**-1) S (G**-1 x 1)

with S the two-qudit string Fourier transform.  Each verifier also
records the residual of a nearby variant dressing (one Gaussian factor,
resp. one power of omega, off) that does *not* hold; keeping the failing
variant visible pins the phase conventions against regressions.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import evaluator, gates
from .gates import Local, ctrl_block, cz_gate, fourier_gate, gate_block, gaussian_gate, kron_all, sft_matrix
from .phases import PhaseRing

# the grid of ``PhaselessUnitary.key``, for unitaries that have no tableau
_HASH_GRID = 1e-6
# tableau entries composed in one batch of the BFS, so that a level near the
# cap at n = 2..4 is split: the largest arrays of a batch hold about this many
# int64 entries, 64 KiB, under glibc's default mmap threshold of 128 KiB
_BATCH_ENTRIES = 2**13
# complex entries of the Pauli images that one read of tableaux holds, at least
# one Pauli's: every generate_group of the verify suite and the demos is one read,
# and is_clifford on a large register holds one image at a time
_READ_ENTRIES = 2**13


@dataclass(frozen=True)
class PhaselessUnitary:
    """A unitary with the global phase stripped by a fixed convention.

    The first entry with modulus above tolerance in column-major order is
    rotated to the positive real axis; canonicalization is idempotent.
    """

    matrix: np.ndarray

    @classmethod
    def of(cls, m: np.ndarray, tol: float = 1e-9) -> "PhaselessUnitary":
        m = np.asarray(m)
        flat = m.reshape(-1, order="F")
        live = np.abs(flat) > tol
        pivot = flat[live.argmax()]
        if not live.any():
            raise ValueError("zero matrix cannot be canonicalized")
        return cls(m * (pivot.conjugate() / abs(pivot)))

    def key(self) -> bytes:
        """The entries rounded to a grid of ``_HASH_GRID``: real parts, then imaginary."""
        re = np.round(self.matrix.real / _HASH_GRID).astype(np.int64)
        im = np.round(self.matrix.imag / _HASH_GRID).astype(np.int64)
        return re.tobytes() + im.tobytes()


# ---------------------------------------------------------------------------
# named identity checks
# ---------------------------------------------------------------------------


@dataclass
class IdentityReport:
    residual: float
    alternate_residual: float | None = None
    extras: dict[str, float] = field(default_factory=dict)


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


def tableau(ring: PhaseRing, u: np.ndarray, tol: float = 1e-8) -> np.ndarray | None:
    """The images of the Pauli generators under u as integer words, or None.

    Row j of the (2n, 2n + 1) array is the word (a, b, c), eps**c X**a Z**b
    with ``c`` mod 2d, of u X_j u**-1, and row n + j that of u Z_j u**-1, as
    :func:`gates.pauli_words` reads them at ``tol``.  None when some image
    is no word, that is when u is not Clifford, and the read stops at the
    first such image.  Modulo its global phase a Clifford is its tableau.
    On a register of more than ``_READ_ENTRIES`` entries the images are
    read one at a time, so besides u the read holds a few matrices of its
    size.  A matrix that is not square, not of size d**n or not unitary
    is a ``ValueError``.
    """
    u = np.asarray(u)
    tabs, unitary = _tableaux(ring, _qudits(ring, u.shape), u[None], tol)
    if not unitary[0]:
        raise ValueError("tableau and is_clifford expect a unitary")
    return tabs[0]


def _qudits(ring: PhaseRing, shape: tuple[int, ...]) -> int:
    """n for a d**n x d**n shape."""
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"matrix of shape {shape} is not square")
    n, size = 0, 1
    while size < shape[0]:
        size *= ring.d
        n += 1
    if size != shape[0]:
        raise ValueError("matrix size is not a power of d")
    return n


def _tableaux(ring: PhaseRing, n: int, us: np.ndarray, tol: float) -> tuple[list, np.ndarray]:
    """:func:`tableau` of each matrix of a (k, d**n, d**n) stack, None where it
    is not a Clifford unitary, and which of the matrices are unitary.  The k
    images of as many Paulis as fit in ``_READ_ENTRIES`` entries go to one
    :func:`gates.pauli_words` call, one Pauli at least, and the read stops
    once no matrix is left that can be Clifford."""
    k, r, dim = len(us), 2 * n, ring.d**n
    unitary = np.abs(us @ us.conj().transpose(0, 2, 1) - np.eye(dim)).max(axis=(1, 2)) <= 1e-8
    ui = us.conj().transpose(2, 0, 1)  # each u**-1, its rows first
    paulis = [gates.Weyl.of_paulis(ring, n, [(site, p, 1)]) for p in "XZ" for site in range(n)]
    words = np.zeros((k, r, r + 1), dtype=np.int64)
    read = unitary.copy()
    step = max(1, _READ_ENTRIES // max(k * dim * dim, 1))
    for lo in range(0, r, step):
        if not read.any():
            break
        moved = np.stack([p.apply(ring, ui) for p in paulis[lo : lo + step]])  # P u**-1 for each Pauli P
        images = us[:, None] @ moved.transpose(2, 0, 1, 3)
        got, ok = gates.pauli_words(ring, n, images.reshape(-1, dim, dim), tol)
        words[:, lo : lo + len(moved)] = got.reshape(k, len(moved), r + 1)
        read &= ok.reshape(k, len(moved)).all(axis=1)
    return [tab if good else None for tab, good in zip(words, read)], unitary


def _composer(tabs: np.ndarray, d: int) -> Callable[[np.ndarray], np.ndarray]:
    """The products g @ u for each of G generator tableaux (G, 2n, 2n + 1), as a
    map from a (k, 2n, 2n + 1) stack of tableaux u to the (k G, 2n, 2n + 1)
    stack of products in (u, g) order.

    Row (v, c) of u, the word eps**c X**a Z**b with v = (a, b), goes under g
    to eps**c times the product of g's rows raised to v, in row order.  By
    ``Weyl.power`` and ``Weyl.compose`` that is the word
    (v S, c + v.lin + v Q v): S is g's symplectic part, lin_k = c_k - b_k.a_k,
    and Q holds b_k.a_k on its diagonal and 2 b_k.a_l above it (k < l).  So
    every row of every product is one integer matmul by ``lin``, which maps
    (v, c) to (v S, c + v.lin) for all g side by side, and one quadratic form.
    Before the reduction an entry is below 10 n**3 d**4, under 2**29 for any
    d**n <= 81, so int64 never wraps.
    """
    g, r = tabs.shape[:2]
    n = r // 2
    ba = tabs[:, :, n:r] @ tabs[:, :, :n].transpose(0, 2, 1)
    diag = np.einsum("gkk->gk", ba)
    quad = 2 * np.triu(ba, 1) + diag[:, :, None] * np.eye(r, dtype=np.int64)
    quad = quad.transpose(1, 0, 2).reshape(r, g * r)
    lin = np.zeros((g, r + 1, r + 1), dtype=np.int64)
    lin[:, :r, :r] = tabs[:, :, :r]
    lin[:, :r, r] = tabs[:, :, r] - diag
    lin[:, r, r] = 1
    lin = lin.transpose(1, 0, 2).reshape(r + 1, g * (r + 1))
    modulus = np.array([d] * r + [2 * d])

    def products(cur: np.ndarray) -> np.ndarray:
        rows = cur.reshape(-1, r + 1)
        v = rows[:, :r]
        out = (rows @ lin).reshape(len(rows), g, r + 1)
        out[:, :, r] += ((v @ quad).reshape(len(rows), g, r) * v[:, None]).sum(axis=2)
        out %= modulus
        # (u, row, g) -> (u, g) products of r rows each
        return out.reshape(len(cur), r, g, r + 1).transpose(0, 2, 1, 3).reshape(len(cur) * g, r, r + 1)

    return products


def _keys(tabs: np.ndarray) -> np.ndarray:
    """The exact key of each tableau of a (k, 2n, 2n + 1) stack, n > 0: its
    entries as bytes, one byte each, since every entry is below 2d <= 162."""
    k, r, width = tabs.shape
    flat = tabs.astype(np.uint8).reshape(k, r * width)
    return flat.view(np.dtype((np.void, r * width))).ravel()


def _read_inputs(ring: PhaseRing, n: int, generators: dict, probes: dict) -> tuple[np.ndarray, dict]:
    """The generators' tableaux as one (G, 2n, 2n + 1) array, and each probe's
    tableau or None, read as one stack.  A matrix that is not d**n x d**n, a
    zero probe and a generator that is not a Clifford unitary are refused."""
    dim, r = ring.d**n, 2 * n
    named = [("generator", name, m) for name, m in generators.items()]
    named += [("probe", name, m) for name, m in probes.items()]
    mats = np.zeros((len(named), dim, dim), dtype=complex)
    for i, (kind, name, m) in enumerate(named):
        m = np.asarray(m)
        if m.shape != (dim, dim):
            raise ValueError(f"{kind} {name!r} has shape {m.shape}, not ({dim}, {dim}) for n={n}")
        if kind == "probe" and not (np.abs(m) > 1e-9).any():
            raise ValueError(f"probe {name!r} is the zero matrix, which cannot be canonicalized")
        mats[i] = m
    read, _ = _tableaux(ring, n, mats, 1e-8)
    for (kind, name, _), tab in zip(named, read):
        if kind == "generator" and tab is None:
            raise ValueError(f"generator {name!r} is not a Clifford unitary")
    g = len(generators)
    return np.array(read[:g], dtype=np.int64).reshape(g, r, r + 1), dict(zip(probes, read[g:]))


def generate_group(
    ring: PhaseRing,
    n: int,
    generators: dict[str, np.ndarray],
    cap: int = 200_000,
    probes: dict[str, np.ndarray] | None = None,
) -> GroupReport:
    """Breadth-first closure of Clifford generators modulo global phase, in integers.

    Reports the group order (or that the cap was hit) and membership flags
    for each probe matrix.  Every generator is read once as its
    :func:`tableau`, and one that is not a Clifford unitary is refused; so
    is a matrix that is not d**n x d**n.  The closure then walks tableaux
    only: it expands one BFS level per batch, composing ``gen @ cur`` for
    the whole level at once by integer matmuls (:func:`_composer`), and
    keys each product by its exact integers.  Each unseen key, in
    (cur, gen) order, joins the next level.  Discovery order, the stop at
    exactly ``cap`` elements and the probe flags are those of a FIFO BFS
    that multiplies one product at a time.  A probe is a member when its
    tableau is found after the start; a unitary probe that is not
    Clifford is a non-member, and a zero probe is refused.  Orders are
    never asserted from memory; tests compare against such a sequential
    BFS and against counted symplectic groups.
    """
    if gates._integer(n, "n") < 0:
        raise ValueError(f"n={n} is negative")
    if ring.d**n > 81:
        raise ValueError("group generation is desk-scale only (d**n <= 81)")
    probes = probes or {}
    tabs, probe_tabs = _read_inputs(ring, n, generators, probes)
    if n == 0:  # every 1 x 1 unitary is the identity modulo phase, so no product is new
        return GroupReport(order=1, cap_hit=False, membership=dict.fromkeys(probes, False), generator_count=len(tabs))
    r = 2 * n
    products = _composer(tabs, ring.d)
    start = np.eye(r, r + 1, dtype=np.int64)[None]
    start_key = _keys(start).tolist()[0]
    seen = {start_key}
    count = 1
    cap_hit = False
    # frontier elements per batch, so one batch holds about _BATCH_ENTRIES entries
    chunk = max(1, _BATCH_ENTRIES // max(len(tabs) * r * (r + 1), 1))
    frontier = start
    while len(frontier) and not cap_hit:
        level = []
        for lo in range(0, len(frontier), chunk):
            batch = products(frontier[lo : lo + chunk])
            fresh = []
            for i, key in enumerate(_keys(batch).tolist()):
                if key not in seen:
                    seen.add(key)
                    fresh.append(i)
                    if count + len(fresh) >= cap:  # the element that reaches cap is kept
                        break
            count += len(fresh)
            cap_hit = bool(fresh) and count >= cap
            level.append(batch[fresh])
            if cap_hit:
                break
        frontier = np.concatenate(level)
    # a probe is found after the start: a FIFO BFS probes only the products it forms
    found = dict.fromkeys(probes, False)
    for name, tab in probe_tabs.items():
        if tab is not None:
            key = _keys(tab[None]).tolist()[0]
            found[name] = key in seen and key != start_key
    return GroupReport(
        order=count,
        cap_hit=cap_hit,
        membership=found,
        generator_count=len(tabs),
    )


def is_clifford(ring: PhaseRing, u: np.ndarray, tol: float = 1e-8) -> bool:
    """True iff u maps every Pauli generator to one Pauli word: iff it has a
    :func:`tableau`.

    For each site j and P in (X, Z), u P_j u**-1 must be within ``tol`` at
    every entry of one :class:`gates.Weyl` word eps**c X**a Z**b (the word
    :func:`gates.pauli_words` reads from it).
    """
    return tableau(ring, u, tol) is not None
