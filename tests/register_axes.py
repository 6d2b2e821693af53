"""The n-axis register layouts that ``gates._local_axes`` replaced, kept as oracles.

``apply_local``'s three kernels, the meters ``site_probabilities`` and
``collapse_site``, ``protocols.state_on_sites``, ``protocols._initial_state``
and the cut of ``entangle.entanglement_entropy`` all index a register
through the one plan of ``gates._local_axes``.  These are the formulas
they replaced, each reshaping the state to one axis per qudit.  The tests
hold the plan's layouts to them bit for bit.
"""

import numpy as np

from pappa import entangle
from pappa.gates import QState
from pappa.phases import DEFAULT_TOL


def apply_dense(x, d, n, sites, block):
    """A dense block on ``sites``: the sites' axes to the front, one ``np.dot``, and back."""
    full = (d,) * n + x.shape[1:]
    axes = tuple(sites) + tuple(a for a in range(len(full)) if a not in sites)
    front = tuple(full[a] for a in axes)
    y = np.dot(block, x.reshape(full).transpose(axes).reshape(d ** len(sites), -1))
    return y.reshape(front).transpose(np.argsort(axes)).reshape(x.shape)


def apply_diagonal(x, d, n, sites, block):
    """A diagonal block on ``sites``: one broadcast multiply of the n-axis view."""
    full = (d,) * n + x.shape[1:]
    table = np.transpose(block.diagonal().reshape((d,) * len(sites)), np.argsort(sites))
    shape = [d if a in sites else 1 for a in range(len(full))]
    return (x.reshape(full) * table.reshape(shape)).reshape(x.shape)


def apply_monomial(x, d, n, sites, block):
    """A monomial block on ``sites``: each output digit string's slice of the
    n-axis view read from its source's slice, and times its phase unless every
    phase is 1."""
    full, w = (d,) * n + x.shape[1:], len(sites)
    v, out = x.reshape(full), np.empty(full, np.result_type(x.dtype, block.dtype))
    sources = (block != 0).argmax(axis=1)
    copy = all(block[t, s] == 1 for t, s in enumerate(sources))
    for t, s in enumerate(sources):
        at, frm = [slice(None)] * len(full), [slice(None)] * len(full)
        for j, site in enumerate(sites):
            at[site], frm[site] = t // d ** (w - 1 - j) % d, s // d ** (w - 1 - j) % d
        if copy:
            out[tuple(at)] = v[tuple(frm)]
        else:
            np.multiply(v[tuple(frm)], block[t, s], out=out[tuple(at)])
    return out.reshape(x.shape)


def site_probabilities(state, site):
    d, n = state.d, state.n
    t = np.abs(state.vector.reshape([d] * n)) ** 2
    return t.sum(axis=tuple(i for i in range(n) if i != site))


def collapse_site(state, site, outcome, p):
    d, n = state.d, state.n
    t = state.vector.reshape([d] * n)
    out = np.zeros_like(t)
    kept = (slice(None),) * site + (outcome, ...)
    if p > 0:
        np.divide(t[kept], np.sqrt(p), out=out[kept])
    else:
        out[kept] = t[kept]
    return QState(d, n, out.reshape(-1))


def state_on_sites(state, sites):
    """The kept qudits in listed order, each other one taken at its likeliest value."""
    sites = tuple(sites)
    d, n = state.d, state.n
    t = state.vector.reshape([d] * n)
    for site in sorted((i for i in range(n) if i not in sites), reverse=True):
        probs = (np.abs(np.moveaxis(t, site, 0)) ** 2).reshape(d, -1).sum(axis=1)
        val = int(np.argmax(probs))
        assert (probs.sum() - probs[val]) / probs.sum() <= DEFAULT_TOL
        t = np.take(t, val, axis=site)
    order, nk = list(np.argsort(sites)), len(sites)
    t = np.transpose(t.reshape(-1).reshape([d] * nk), [order.index(i) for i in range(nk)])
    return QState(d, nk, t.reshape(-1))


def initial_state(ring, script, input_state):
    """The input, each resource's |Max> and |0> on the rest, as one state in site order."""
    d, total = ring.d, script.n_sites
    blocks = []
    if script.input_sites:
        blocks.append((script.input_sites, input_state.vector))
    for res in script.resources:
        blocks.append((res.sites, entangle.max_state(ring, res.k).vector))
    used = {s for sites, _ in blocks for s in sites}
    rest = tuple(s for s in range(total) if s not in used)
    if rest or not blocks:
        zero = np.zeros(d ** len(rest), dtype=complex)
        zero[0] = 1.0
        blocks.append((rest, zero))
    order = [s for sites, _ in blocks for s in sites]
    vec = blocks[0][1]
    for _, block_vec in blocks[1:]:
        vec = np.multiply.outer(vec, block_vec).reshape(-1)
    t = vec.reshape([d] * total)
    return QState(d, total, np.transpose(t, [order.index(s) for s in range(total)]).reshape(-1))


def entanglement_entropy(state, keep):
    """Entropy of the sorted site set ``keep`` from the (keep, rest) matrix of the state."""
    d, n = state.d, state.n
    keep = sorted(keep)
    order = keep + [s for s in range(n) if s not in keep]
    v = (state.vector / np.linalg.norm(state.vector)).reshape((d,) * n)
    m = v.transpose(order).reshape(d ** len(keep), -1)
    return entangle._entropy_of(np.linalg.svd(m, compute_uv=False) ** 2)
