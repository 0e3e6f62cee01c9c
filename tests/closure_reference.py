"""References the tests compare ``reasoning._close`` and ``_gathers`` with,
each an intp index into the flattened composition table and a full meet
over every k.  Three kernels, all over a universal diagonal:

- :func:`close`, the block kernel as it stood before delta sweeps: every
  block of rows fully recomputed on every sweep, each block written back
  before the next is computed.  Its schedule differs from ``_close``'s
  above one block, so it is the reference for the closed matrix, the
  verdict and Q, not for the counts.
- :func:`sweep_close`, the dense whole-matrix sweep: every entry narrowed
  at once to its full meet over the matrix as it stood before the sweep.
  This is ``_close``'s schedule, so the witness, ``updates``, ``sweeps``
  and ``terms`` must equal its own.
- :func:`delta_close`, ``_close`` as it stood before it gathered only the
  terms that can narrow (row blocks of a stack, delta sweeps), kept
  verbatim for the side-by-side comparison of the two engines.

The blocks follow ``reasoning._BLOCK_CELLS`` as it stands at the call, so a
patched block size applies to every kernel."""

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
    q, terms), with the counts of this block schedule."""
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


def disjoint(calc):
    """DC in RCC8 and DR in RCC5, by name: the basic whose holding lets a
    term be skipped."""
    return calc.parse("DC" if calc.name == "RCC8" else "DR")


def sweep_close(calc, m):
    """Path consistency in place by whole-matrix sweeps over a universal
    diagonal: each sweep computes the full meet Q of every entry from the
    matrix as it stood before the sweep, then narrows every entry to it.
    An entry emptied by a sweep reports the first such entry in row-major
    order, replayed on that matrix, which stays as it was.  Returns
    (witness, updates, sweeps, q, terms): updates counts every entry a
    sweep changed, and terms the terms a sweep that gathers only the k
    with d not in m[i, k], and k = i, gathers: n times that many (i, k)."""
    if not m.all():
        i, j = np.argwhere(m == 0)[0].tolist()
        return (i, i, j), 0, 0, None, 0
    star = calc.universal
    n = m.shape[0]
    step = n + 1
    d = disjoint(calc)
    m.flat[::step] = star
    witness = None
    updates = sweeps = terms = 0
    while True:
        sweeps += 1
        # the universal diagonal holds d, and each row gathers its own k
        terms += n * (int(np.count_nonzero((m & d) == 0)) + n)
        q = np.concatenate([block for _, block in meets(calc, m)])
        new = m & q
        new.flat[::step] = star
        if not new.all():
            i, j = np.argwhere(new == 0)[0].tolist()
            witness = reasoning._witness(calc, m, i, j)
            break
        diff = int(np.count_nonzero(new != m))
        if not diff:
            break
        updates += diff
        m[:] = new
    m.flat[::step] = calc.identity
    return witness, updates, sweeps, (q if witness is None else None), terms


def _terms(calc, rows, m, ks=slice(None)):
    pairs = (rows[..., ks, None] << calc.size) | m[..., None, ks, :]
    return calc.comp_table.ravel().take(pairs)


def _blocks(cells, total):
    height = max(1, reasoning._BLOCK_CELLS // cells)
    return [slice(lo, lo + height) for lo in range(0, total, height)]


def delta_close(calc, m):
    """The former ``reasoning._close``, verbatim: a stack (p, n, n) swept in
    blocks of rows, the same block of every matrix at once, a later
    computation of a block gathering only the rows changed since it was
    last computed.  Returns (witnesses, q, updates, sweeps, terms)."""
    p, n = m.shape[:2]
    witnesses = [None] * p
    # the matrices whose rows stay as they are: those with a witness
    emptied = []
    if not m.all():
        for t in (~m.all(axis=(1, 2))).nonzero()[0].tolist():
            i, j = np.argwhere(m[t] == 0)[0].tolist()
            witnesses[t] = i, i, j
            emptied.append(t)
    conv = calc.conv_table
    star = calc.universal
    diagonal = np.arange(n)
    m[:, diagonal, diagonal] = star
    # diagonal cells lie n + 1 apart in a block of rows flattened
    step = n + 1
    blocks = _blocks(p * n * n, n)
    # the clock ticks once per block computed: when each block was last
    # computed and each row last changed in a matrix of the stack, -1
    # before the first computation so that it gathers every row
    computed = [-1] * len(blocks)
    changed_at = np.full(n, -1)
    clock = 0
    q = np.empty_like(m)
    updates = sweeps = terms = 0
    changed = True
    while changed and len(emptied) < p:
        changed = False
        sweeps += 1
        for b, block in enumerate(blocks):
            ks = (changed_at >= computed[b]).nonzero()[0]
            if not ks.size:
                continue
            computed[b] = clock
            clock += 1
            rows = m[:, block]
            terms += rows.shape[1] * ks.size * n
            if ks.size == n:
                # the full meet: a slice reads faster than an index array
                new = np.bitwise_and.reduce(_terms(calc, rows, m), axis=-2)
            else:
                new = q[:, block] & np.bitwise_and.reduce(
                    _terms(calc, rows, m, ks), axis=-2)
            q[:, block] = new
            new &= rows
            new.reshape(p, -1)[:, block.start::step] = star
            if not new.all():
                for t in (~new.all(axis=(1, 2))).nonzero()[0].tolist():
                    if witnesses[t] is None:
                        r, j = np.argwhere(new[t] == 0)[0].tolist()
                        witnesses[t] = reasoning._witness(
                            calc, m[t], block.start + r, j)
                        emptied.append(t)
                if len(emptied) == p:
                    break
            if emptied:
                new[emptied] = rows[emptied]
            moved_t, moved_i, moved_k = (new != rows).nonzero()
            if not moved_t.size:
                continue
            updates += moved_t.size
            changed = True
            rows[:] = new
            m[:, :, block] = conv[new].transpose(0, 2, 1)
            # a change at (i, k) changes row k too, through the mirror
            changed_at[block][moved_i] = computed[b]
            changed_at[moved_k] = computed[b]
    m[:, diagonal, diagonal] = calc.identity
    return witnesses, q, updates, sweeps, terms
