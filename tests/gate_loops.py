"""The loop builders of the named gates and phase tables, kept as oracles.

``gates.gate_power`` reads every named single-qudit gate from one row map
and one ``PhaseRing.eps_table`` lookup, and ``sym_gate_matrix``, ``cz_gate``,
``sft_matrix`` and ``entangle.max_basis`` read the same table.  These
are the builders they replaced: one loop per gate behind a dispatch dict,
each phase from ``PhaseRing.q_pow`` or ``zeta_pow``, and the private
tables of the closed forms.  The tests hold the table builders to them
bit for bit.
"""

import numpy as np

from pappa import gates


def pauli_x_power(ring, k=1):
    """X**k: |m> -> |m+k>."""
    d = ring.d
    m = np.zeros((d, d), dtype=complex)
    for col in range(d):
        m[(col + k) % d, col] = 1.0
    return m


def pauli_y_power(ring, k=1):
    """Y**k: |m> -> zeta**(k*k - 2*k*m) |m-k>."""
    d = ring.d
    m = np.zeros((d, d), dtype=complex)
    for col in range(d):
        m[(col - k) % d, col] = ring.zeta_pow(k * k - 2 * k * col)
    return m


def pauli_z_power(ring, k=1):
    """Z**k = diag(q**(k*m))."""
    return np.diag([ring.q_pow(k * col) for col in range(ring.d)])


def fourier_gate(ring):
    """F[l, k] = q**(k*l) / sqrt(d)."""
    d = ring.d
    m = np.empty((d, d), dtype=complex)
    for k in range(d):
        for ell in range(d):
            m[ell, k] = ring.q_pow(k * ell)
    return m / d**0.5


def fourier_power(ring, k=1):
    """F**k using F**2 = parity and F**4 = 1."""
    d = ring.d
    k = k % 4
    if k == 0:
        return np.eye(d, dtype=complex)
    if k == 1:
        return fourier_gate(ring)
    parity = np.zeros((d, d), dtype=complex)
    for col in range(d):
        parity[(-col) % d, col] = 1.0
    if k == 2:
        return parity
    return fourier_gate(ring).conj().T


def gaussian_power(ring, k=1):
    """G**k = diag(zeta**(k*m*m))."""
    return np.diag([ring.zeta_pow(k * col * col) for col in range(ring.d)])


GATE_BUILDERS = {
    "X": pauli_x_power,
    "Y": pauli_y_power,
    "Z": pauli_z_power,
    "F": fourier_power,
    "G": gaussian_power,
}


def gate_power(ring, name, power=1):
    return GATE_BUILDERS[name](ring, power)


def q_table(ring):
    """q**e for e = 0..d-1."""
    return np.array([ring.q_pow(e) for e in range(ring.d)])


def max_basis(ring, ks):
    """SFT|k> in closed form, its phase exponent built digit by digit and read from ``q_table``."""
    d, n, ktot = ring.d, len(ks), sum(ks)
    digits = np.arange(d, dtype=np.int64)
    expo, prefix = np.zeros(1, dtype=np.int64), 0
    for k in ks:
        prefix += k
        expo = (expo[:, None] + prefix * digits).reshape(-1)
    v = float(d) ** (-(n - 1) / 2) * q_table(ring)[expo % d]
    v[(gates.digit_sums(d, n) - ktot) % d != 0] = 0.0
    return ring.zeta_pow(-ktot * ktot) * v


def sym_gate_matrix(ring, m):
    """b_m: |k,l> -> q**(m*k*l) |l,k>."""
    d = ring.d
    out = np.zeros((d * d, d * d), dtype=complex)
    for k in range(d):
        for l in range(d):
            out[l * d + k, k * d + l] = ring.q_pow(m * k * l)
    return out


def cz_gate(ring, n=2, site_a=0, site_b=1):
    """C_Z = diag(q**(k_a * k_b)) embedded on an n-qudit register."""
    d = ring.d
    block = np.diag([ring.q_pow(ka * kb) for ka in range(d) for kb in range(d)])
    return gates.Local((site_a, site_b), block).to_matrix(d, n)


def sft_matrix(ring, n):
    """The closed-form SFT with its private zeta table and the q table above."""
    d = ring.d
    digits = gates.digit_table(d, n)
    total = gates.digit_sums(d, n)
    before = np.cumsum(digits, axis=1) - digits
    expo = -(before @ digits.T)
    zeta_table = np.array([ring.zeta_pow(e) for e in range(2 * d)])
    scale = float(d) ** ((1 - n) / 2)
    out = scale * zeta_table[total**2 % (2 * d)][:, None] * q_table(ring)[expo % d]
    out[(total[:, None] - total[None, :]) % d != 0] = 0.0
    return out
