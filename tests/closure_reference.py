"""The a-closure kernel as it stood before delta sweeps, kept as the
reference the tests compare ``reasoning._close`` and ``_gathers`` with:
an intp index into the flattened composition table, and a full meet of
every block on every sweep.  The blocks follow ``reasoning._BLOCK_CELLS``
as it stands at the call, so a patched block size applies to both."""

import numpy as np

from rcckit import reasoning


def gathers(calc, m):
    """Lazily, per block of rows: the block's slice and, for its rows i,
    G[i, j, k] = comp[m[i, j], m[j, k]]."""
    comp = calc.comp_table.ravel()
    n = m.shape[0]
    height = max(1, reasoning._BLOCK_CELLS // (n * n))
    for lo in range(0, n, height):
        block = slice(lo, lo + height)
        pairs = (m[block, :, None].astype(np.intp) << calc.size) | m
        yield block, comp[pairs]


def meets(calc, m):
    """:func:`gathers` AND-reduced over the middle index: per block of
    rows, its slice and AND_k comp[m[i, k], m[k, :]] for its rows i."""
    for block, gather in gathers(calc, m):
        yield block, np.bitwise_and.reduce(gather, axis=1)


def close(calc, m):
    """Path consistency in place over a universal diagonal, every block
    fully recomputed on every sweep.  Returns (witness, updates, sweeps,
    q, terms) as ``reasoning._close`` does."""
    if not m.all():
        i, j = np.argwhere(m == 0)[0].tolist()
        return (i, i, j), 0, 0, None, 0
    conv = calc.conv_table
    star = calc.universal
    n = m.shape[0]
    step = n + 1
    m.flat[::step] = star
    q = np.empty_like(m)
    witness = None
    updates = sweeps = terms = 0
    changed = True
    while changed and witness is None:
        changed = False
        sweeps += 1
        for block, new in meets(calc, m):
            rows = m[block]
            terms += rows.shape[0] * n * n
            q[block] = new
            new &= rows
            new.reshape(-1)[block.start::step] = star
            diff = int(np.count_nonzero(new != rows))
            if not diff:
                continue
            if not new.all():
                r, j = np.argwhere(new == 0)[0].tolist()
                witness = reasoning._witness(calc, m, block.start + r, j)
                break
            updates += diff
            changed = True
            rows[:] = new
            m[:, block] = conv[new].T
    m.flat[::step] = calc.identity
    return witness, updates, sweeps, (q if witness is None else None), terms
