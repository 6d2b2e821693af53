"""Dense diagram evaluation: every generator as a d**n x d**n matrix.

This is how ``pappa.evaluator.evaluate`` worked before it applied each
generator to its accumulator: caps and cups built entry by entry in loops
over basis indices, charge runs as Kronecker chains of Pauli matrices
(``charge_word``), boxes embedded with ``kron_all`` or expanded through
charged matrix units, and a dense accumulator multiplied by each of them.
The tests use it as the oracle of the matrix-free kernels, so it shares no
charge or tier code with them.
"""

import numpy as np

from pappa import gates

import gate_loops
from pappa.diagrams import Box, BraidNeg, BraidPos, Cap, Charge, Cup, Sym
from pappa.evaluator import QOperator, _braid_matrix


def index_digits(idx, d, n):
    """The n digits of ``idx``, qudit 1 first: the scalar oracle of ``gates.digit_table``."""
    out = []
    for _ in range(n):
        out.append(idx % d)
        idx //= d
    return tuple(reversed(out))


def charge_word(ring, n, strand, k):
    """Jordan-Wigner matrix of a charge k on one strand, as a Kronecker chain.

    Left string of qudit j: 1 x...x Y**-k x Z**k x...x Z**k; right string:
    1 x...x X**k x Z**k x...x Z**k.
    """
    if not 0 <= strand < 2 * n:
        raise ValueError(f"strand {strand} out of range for n={n}")
    j, right = strand // 2, strand % 2 == 1
    head = gate_loops.pauli_x_power(ring, k) if right else gate_loops.pauli_y_power(ring, -k)
    mats = (
        [np.eye(ring.d, dtype=complex)] * j
        + [head]
        + [gate_loops.pauli_z_power(ring, k)] * (n - j - 1)
    )
    return gates.kron_all(mats)


def cap_matrix(ring, n, strand):
    """Cap whose two new strands appear at (strand, strand+1); d^(n+1) x d^n."""
    d = ring.d
    if not 0 <= strand <= 2 * n:
        raise ValueError(f"cap position {strand} out of range for n={n}")
    out = np.zeros((d ** (n + 1), d**n), dtype=complex)
    if strand % 2 == 0:
        slot = strand // 2
        w = d**0.25
        for idx in range(d**n):
            ks = index_digits(idx, d, n)
            new = ks[:slot] + (0,) + ks[slot:]
            out[gates.basis_index(new, d), idx] = w
    else:
        j = (strand - 1) // 2
        w = d**-0.25
        for idx in range(d**n):
            ks = index_digits(idx, d, n)
            for a in range(d):
                b = (ks[j] - a) % d
                new = ks[:j] + (a, b) + ks[j + 1 :]
                out[gates.basis_index(new, d), idx] = w
    return out


def cup_matrix(ring, n, strand):
    """Cup consuming input strands (strand, strand+1); d^(n-1) x d^n."""
    d = ring.d
    if n < 1 or not 0 <= strand < 2 * n - 1:
        raise ValueError(f"cup position {strand} out of range for n={n}")
    out = np.zeros((d ** (n - 1), d**n), dtype=complex)
    if strand % 2 == 0:
        slot = strand // 2
        w = d**0.25
        for idx in range(d**n):
            ks = index_digits(idx, d, n)
            if ks[slot] != 0:
                continue
            rest = ks[:slot] + ks[slot + 1 :]
            out[gates.basis_index(rest, d), idx] = w
    else:
        j = (strand - 1) // 2
        w = d**-0.25
        for idx in range(d**n):
            ks = index_digits(idx, d, n)
            merged = ks[:j] + (((ks[j] + ks[j + 1]) % d),) + ks[j + 2 :]
            out[gates.basis_index(merged, d), idx] = w
    return out


def charge_run_matrix(ring, n, charges):
    """A run of charges: higher tier first, equal tiers as the twisted product."""
    d = ring.d
    out = np.eye(d**n, dtype=complex)
    tiers = sorted({c.tier for c in charges}, reverse=True)
    for tier in tiers:
        group = sorted((c for c in charges if c.tier == tier), key=lambda c: c.strand)
        scalar = 1.0 + 0j
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                if group[i].strand != group[j].strand:
                    scalar *= ring.zeta_pow(-group[i].k * group[j].k)
        word = np.eye(d**n, dtype=complex)
        for c in group:
            word = word @ charge_word(ring, n, c.strand, c.k)
        out = scalar * word @ out
    return out


def box_matrix(ring, n, box, boxes):
    if boxes is None or box.name not in boxes:
        raise ValueError(f"no matrix bound for box {box.name!r}")
    m = boxes[box.name]
    if box.dagger:
        m = m.conj().T
    w = box.strands // 2
    if m.shape != (ring.d**w, ring.d**w):
        raise ValueError(f"box {box.name!r} expects a {ring.d**w} x {ring.d**w} matrix")
    if box.first % 2:
        return straddling_box(ring, n, box, m)
    j = box.first // 2
    charge_tail = [gate_loops.pauli_z_power(ring, box.charge)] * (n - j - w)
    return gates.kron_all([np.eye(ring.d, dtype=complex)] * j + [m] + charge_tail)


def straddling_box(ring, n, box, m):
    """A one-qudit box at an odd strand offset: d**-0.5 sum m[a,b] |a><b| as caps and cups."""
    if box.strands != 2:
        raise ValueError("straddling boxes wider than one qudit are not supported")
    d = ring.d
    s = box.first
    acc = np.zeros((d**n, d**n), dtype=complex)
    cap = cap_matrix(ring, n - 1, s)
    cup = cup_matrix(ring, n, s)
    for a in range(d):
        ca = charge_word(ring, n, s + 1, a) @ cap
        for b in range(d):
            if m[a, b] == 0:
                continue
            cb = cup @ charge_word(ring, n, s + 1, -b)
            acc += m[a, b] * (ca @ cb)
    return acc / d**0.5


def evaluate(ring, diagram, boxes=None):
    """The operator of ``diagram``: a dense accumulator times each generator's matrix."""
    if diagram.in_points % 2 or diagram.out_points % 2:
        raise ValueError("diagram boundary must have an even number of points")
    d = ring.d
    n = diagram.in_points // 2
    acc = np.eye(d**n, dtype=complex)
    scalar = diagram.scalar_value(ring)
    pending = []
    for gen in diagram.gens + (None,):
        if isinstance(gen, Charge):
            pending.append(gen)
            continue
        if pending:
            acc = charge_run_matrix(ring, n, pending) @ acc
            pending = []
        if isinstance(gen, Cap):
            acc = cap_matrix(ring, n, gen.strand) @ acc
            n += 1
        elif isinstance(gen, Cup):
            acc = cup_matrix(ring, n, gen.strand) @ acc
            n -= 1
        elif isinstance(gen, (BraidPos, BraidNeg)):
            acc = _braid_matrix(ring, n, gen.strand, +1 if isinstance(gen, BraidPos) else -1) @ acc
        elif isinstance(gen, Sym):
            acc = gates.sym_gate(ring, n, gen.strand, gen.m) @ acc
        elif isinstance(gen, Box):
            acc = box_matrix(ring, n, gen, boxes) @ acc
    return QOperator(d, diagram.in_points // 2, n, scalar * acc)
