"""References for the oracle's momentum blocks, which only tests read.

``oracle._sector_levels`` leaves out the momentum blocks that a Cholesky
certificate shows hold none of the lowest levels.  ``solve_every_block``
solves every block, by the oracle's own ``_lowest_eigh``, and returns what
``oracle._solve_sector`` returns; skipping must leave every level and vector
bit for bit as this solve has them.

``oracle._translation_layout`` merges each block's (target, source) entries
sparsely.  ``translation_layout_dense`` is the builder it replaced, which
sums them into a dense (3, dim^2) array first; both must give the same
arrays, byte for byte.
"""

import numpy as np

from xyberry.oracle import (
    LOOP_LEVELS,
    _Layout,
    _lowest_eigh,
    _MomentumBlock,
    _parity_of,
    _translation_layout,
    total_sz_diagonal,
)


def solve_every_block(n_sites, lam, gamma, parity):
    """(levels, vectors, states, S^z) as ``oracle._solve_sector`` returns them."""
    layout = _translation_layout(n_sites, parity)
    count = min(LOOP_LEVELS, layout.states.size)
    weights = np.array([-lam, -gamma, -1.0])
    values, levels = [], []  # levels: (block, eigenvectors, column, conjugate)
    for block in layout.blocks:
        dim = block.reps.size
        h = np.zeros((dim, dim), dtype=block.coef.dtype)
        h.flat[block.pos] = weights @ block.coef
        pair = np.iscomplexobj(h)
        vals, vecs = _lowest_eigh(h, min(-(-count // 2) if pair else count, dim))
        for conj in (False, True) if pair else (False,):
            values.append(vals)
            levels.extend((block, vecs, j, conj) for j in range(vals.size))
    values = np.concatenate(values)
    order = np.argsort(values, kind="stable")[:count]
    vectors = np.empty((layout.states.size, count), dtype=complex)
    coeffs = np.zeros(layout.n_reps, dtype=complex)
    for col, i in enumerate(order):
        block, vecs, j, conj = levels[i]
        coeffs[:] = 0.0  # a representative incompatible with k expands to 0
        coeffs[block.reps] = vecs[:, j]
        vec = coeffs[layout.state_rep] * block.expand
        vectors[:, col] = vec.conj() if conj else vec
    return values[order], vectors, layout.states, layout.sz


def translation_layout_dense(n_sites: int, parity: int) -> _Layout:
    """``oracle._translation_layout`` as it was: each block's entries are summed
    into a dense (3, dim^2) array, whose nonzero columns become ``pos``/``coef``."""
    sz_all = total_sz_diagonal(n_sites)
    states = np.flatnonzero(_parity_of(sz_all, n_sites) == parity)
    sz = sz_all[states]
    orbit = np.empty((n_sites, states.size), dtype=np.int64)  # row d: T^d s
    orbit[0] = states
    for d in range(1, n_sites):
        orbit[d] = (orbit[d - 1] >> 1) | ((orbit[d - 1] & 1) << (n_sites - 1))
    rep = orbit.min(axis=0)
    shift = -np.argmin(orbit, axis=0) % n_sites  # r = T^j s, so s = T^(-j) r
    back = orbit[1:] == states
    length = np.where(back.any(axis=0), np.argmax(back, axis=0) + 1, n_sites)
    is_rep = rep == states
    reps = states[is_rep]
    rep_length = length[is_rep]
    state_rep = np.searchsorted(reps, rep)

    # Bond b maps representative r to the state r ^ mask_b; 2i and 2i + 1
    # lie in opposite sectors, so its parity-block row is (r ^ mask_b) >> 1.
    masks = np.array(
        [(1 << n_sites - 1 - l) | (1 << n_sites - 1 - (l + 1) % n_sites)
         for l in range(n_sites)]
    )
    rows = (reps[:, None] ^ masks) >> 1  # (rep, bond)
    target = state_rep[rows]
    dist = shift[rows]
    parallel = (reps[:, None] & masks) % masks == 0
    source = np.broadcast_to(np.arange(reps.size)[:, None], rows.shape)
    ratio = np.sqrt(rep_length[source] / rep_length[target])

    roots = np.exp(2j * np.pi * np.arange(n_sites) / n_sites)
    blocks = []
    for m in range(n_sites // 2 + 1):
        compatible = m * rep_length % n_sites == 0
        if not compatible.any():
            continue
        real = 2 * m % n_sites == 0  # k = 0 or pi: e^{ikd} = +-1
        slot = np.cumsum(compatible) - 1
        dim = int(slot[-1]) + 1
        keep = compatible[source] & compatible[target]
        phase = roots[m * dist[keep] % n_sites] * ratio[keep]
        flat = slot[target[keep]] * dim + slot[source[keep]]
        dense = np.zeros((3, dim * dim), dtype=complex)
        block_sz = sz[is_rep][compatible]
        dense[0, :: dim + 1] = block_sz
        for row, bonds in ((1, parallel[keep]), (2, ~parallel[keep])):
            terms = phase[bonds]  # bincount sums real weights only
            dense[row] = np.bincount(flat[bonds], terms.real, dim * dim)
            dense[row] += 1j * np.bincount(flat[bonds], terms.imag, dim * dim)
        pos = np.flatnonzero(dense.any(axis=0))
        coef = dense[:, pos]
        expand = roots[-m * shift % n_sites] / np.sqrt(length)
        if real:
            coef, expand = coef.real.copy(), expand.real.copy()
        blocks.append(_MomentumBlock(np.flatnonzero(compatible), block_sz, pos, coef, expand))
    for array in (states, sz, state_rep):
        array.setflags(write=False)
    return _Layout(states, sz, state_rep, reps.size, tuple(blocks))

