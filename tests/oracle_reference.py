"""The every-block parity-sector solve: the oracle's reference for block skipping.

``oracle._solve_sector`` leaves out the momentum blocks that a Cholesky
certificate shows hold none of the lowest levels.  This is the solve it
replaced, which diagonalizes every block; only tests read it.  Skipping must
leave every level and vector bit for bit as this solve has them.
"""

import numpy as np

from xyberry.oracle import LOOP_LEVELS, _lowest_eigh, _translation_layout


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
