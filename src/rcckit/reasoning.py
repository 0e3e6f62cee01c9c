"""Path consistency, consistency decisions, and the backtracking oracle.

The a-closure (algebraic closure) is the fixed point of the refinement
rule R_ij <- (R_ik . R_kj) & R_ij.  One engine, ``_close``, reaches it
for every size and for a stack of matrices (p, n, n) at once, a single
matrix being a stack of one: whole-matrix sweeps, each narrowing every
entry of every matrix still sweeping to its meet over the stack as it
stood before the sweep, repeated until a sweep changes no matrix.  A
matrix leaves the sweeps once one changes it no more or it empties an
entry, which it then keeps as they were, and the counts are the call's.
A sweep gathers only the terms that can narrow: the calculus's basic d
(DC in RCC8, DR in RCC5) is its own converse and d . d = *, so row i
gathers comp[R_ik, R_k:] only for the k with d not in R_ik, and the
converse of the transposed meets supplies the rest (``_meets``).  It
gathers them in chunks of at most ``_BLOCK_CELLS`` terms, and the
oracle's helper ``_closures`` hands one call at most max(1, _BLOCK_CELLS
// n**2) matrices (``_blocks``): at n = 200 a call holds one matrix.
The sweeps run over a universal diagonal, so the meet they take for
(i, j) runs over the k other than i and j: in the sweep that changes
nothing it is Algorithm 1's Q_ij, which
:func:`rcckit.redundancy.core_algorithm1` takes from there.  For
networks over a tractable subclass (basic networks among them) the
closure decides consistency; ``_closure_decides`` is the test of that
for a network, and ``_fit`` the one test that a subalgebra holds a
network.  ``_entailed`` reads the same answer for every widened network
of an entailment question off one bincount of the network's masks.
One helper, ``_compose``, reads comp[r, s] through a uint16 index into
the composition table (every mask is at most the universal one, and
2 * size <= 16 bits), for the closure's gather and for ``_gathers``,
which takes every k of a block of rows for the Simple/SimpleExt engine
(:mod:`rcckit.baselines`).

The backtracking oracle asks one question, through one probe, ``_narrow``:
does the network keep a solution once some entries are narrowed?  The
network is closed from scratch once, by :func:`_close`, and handed to the
probes as a list matrix (``_closures`` for a stack of matrices,
``_closed`` for one network).  Entailment asks it for many
pairs of one network at a time (``_entailed``, behind :func:`entails` and
the redundancy engines): each pair is widened to universal in one stack,
closed by ``_closures``, and each pair's basic pins are probed
on its own closed matrix.  Each probe copies the closed matrix,
intersects its pins and re-closes from the pinned pairs alone with the
oracle's pair-queue propagator ``_pca_lists``, and the search branches
through the same probe, carrying down the pairs still non-basic so that
no node rescans the whole matrix.  Each question works out from the
network whose closure it probes whether a probe must search: where that
network fits a built-in tractable subalgebra so does every pinned copy
(every basic lies in each), the probe's closure decides, and no search
runs (``_entailed`` per widened network, :func:`check_minimal` and the
oracle branch of ``redundancy.equivalent`` per network).  Only
:func:`solve`, :func:`enumerate_scenarios` and :func:`check_weak_global`,
which list scenarios, always search.  The a-closure so serves both sides
of the acceptance checks; what keeps the oracle independent of it is the
pin-and-search propagator ``_pca_lists`` and the test-local references
(``tests/closure_reference.py``, the all-pairs ``_ref_closed`` of the
reasoning tests, and the benchmark's own reference module).  Searches
alone are guarded by a size limit, because scenario enumeration is
exponential: a question that would search above it raises
:class:`GuardExceededError`, and one the closures decide answers at any
size.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .algebra import Subalgebra, builtin_subalgebras
from .calculus import Relation
from .errors import (
    GuardExceededError,
    InconsistentNetworkError,
    MembershipError,
    NetworkShapeError,
)
from .network import Network, _upper_pairs

__all__ = [
    "AClosureResult",
    "AllDifferentResult",
    "a_closure",
    "is_consistent",
    "solve",
    "enumerate_scenarios",
    "entails",
    "all_different",
    "check_minimal",
    "check_weak_global",
    "detect_tractable",
    "DEFAULT_GUARD",
]

DEFAULT_GUARD = 12

# bounds the terms one gather holds (a chunk of a closure sweep, a block
# of rows of _gathers), and the entries of the matrices one closure call
# holds (_blocks)
_BLOCK_CELLS = 2 ** 15


@dataclass
class AClosureResult:
    """Outcome of enforcing path consistency.

    ``network`` is the path-consistent refinement when consistent;
    ``witness`` is the triple (i, k, j) whose rule application emptied
    entry (i, j) otherwise: the first entry in row-major order that a
    sweep empties, replayed on the matrix as it stood before that sweep.
    An entry already empty in the input is reported as (i, i, j) with
    i < j, since no rule application emptied it.  ``updates`` sums, over
    the whole-matrix sweeps, the entries each sweep changed, (i, j) and
    (j, i) both; an already closed input reports 0.  ``sweeps`` counts the
    sweeps begun, the last one being the sweep that changed nothing or the
    one that emptied an entry: an already closed input reports 1, an input
    with an empty entry 0.  ``terms`` counts the composition terms
    comp[R_ik, R_kj] the sweeps gathered: each sweep gathers n of them for
    every (i, k) with d (DC in RCC8, DR in RCC5) not in R_ik and for every
    k = i, at most n**3 and only n**2 where every entry holds d; 0 for an
    input with an empty entry.
    """

    consistent: bool
    network: Optional[Network]
    witness: Optional[tuple[int, int, int]]
    updates: int = 0
    sweeps: int = 0
    terms: int = 0


def _pca_lists(calc, m: list[list[int]],
               queue) -> Optional[tuple[int, int, int]]:
    """The oracle's propagator: path consistency on a list matrix in place.

    ``queue`` holds the pairs (i, j) narrowed since the matrix was last
    path-consistent: the pins of a probe.  The from-scratch closure is
    :func:`_close`'s; seeded with every non-universal pair this closes
    from scratch too, as the tests' all-pairs reference does.  Returns
    the witness, or None on success.
    """
    comp = calc._comp_list
    conv = calc._conv_list
    n = len(m)
    q = deque(queue)
    inq = set(q)
    while q:
        i, j = q.popleft()
        inq.discard((i, j))
        rij = m[i][j]
        row_i = m[i]
        row_j = m[j]
        crow = comp[rij]
        for k in range(n):
            if k == i or k == j:
                continue
            row_k = m[k]
            old = row_i[k]
            new = old & crow[row_j[k]]
            if new != old:
                if new == 0:
                    return i, j, k
                row_i[k] = new
                row_k[i] = conv[new]
                pair = (i, k) if i < k else (k, i)
                if pair not in inq:
                    inq.add(pair)
                    q.append(pair)
            old = row_k[j]
            new = old & comp[row_k[i]][rij]
            if new != old:
                if new == 0:
                    return k, i, j
                row_k[j] = new
                row_j[k] = conv[new]
                pair = (k, j) if k < j else (j, k)
                if pair not in inq:
                    inq.add(pair)
                    q.append(pair)
    return None


def _compose(calc, r: np.ndarray, s: np.ndarray) -> np.ndarray:
    """comp[r, s] elementwise, r and s broadcast together."""
    # comp_table[r, s] sits at (r << size) | s of the flattened table.
    # Every mask is at most universal and 2 * size <= 16, so the index is
    # built in uint16 (NEP 50 keeps uint16 << int in uint16) and read by
    # np.take, about a quarter cheaper than an intp index
    return calc.comp_table.ravel().take((r << calc.size) | s)


def _blocks(cells: int, total: int) -> list[slice]:
    """Consecutive slices of range(total), each of max(1, _BLOCK_CELLS //
    cells) items of ``cells`` entries: the blocks of rows of an n-variable
    matrix that :func:`_gathers` yields, each row gathering n * n terms;
    and the stacks of n-variable matrices :func:`_closures` hands one
    :func:`_close` call, each matrix holding n * n entries.  Either way a
    block holds at most ``_BLOCK_CELLS`` of them, or one item."""
    height = max(1, _BLOCK_CELLS // cells)
    return [slice(lo, lo + height) for lo in range(0, total, height)]


def _gathers(calc, m: np.ndarray) -> Iterator[tuple[slice, np.ndarray]]:
    """Lazily, per block of rows (:func:`_blocks`): the block's slice and,
    for its rows i, the gather G[i, j, k] = comp[m[i, j], m[j, k]].  Each
    block reads m when it is computed, so a caller may write a block back
    before the next one is computed."""
    n = m.shape[0]
    for block in _blocks(n * n, n):
        yield block, _compose(calc, m[block, :, None], m)


def _meets(calc, m: np.ndarray, free: np.ndarray) -> np.ndarray:
    """A[..., i, :] = AND of comp[m[..., i, k], m[..., k, :]] over the k
    with free[..., i, k], for a stack m (p, n, n); every row must have a
    free k.  The terms are gathered in row-major order of (matrix, i, k),
    in chunks of at most ``_BLOCK_CELLS`` of them, or of one (i, k), and
    each chunk AND-reduces the part of each row's group it holds."""
    n = m.shape[-1]
    rows = m.reshape(-1, n)
    at = np.flatnonzero(free)
    # row (matrix, i) of each term, and the row (matrix, k) it composes with
    row, k = np.divmod(at, n)
    k_row = row - row % n + k
    r = m.ravel().take(at)[:, None]
    step = max(1, _BLOCK_CELLS // n)
    if at.size <= step:
        # one chunk, which holds the groups of every row in order
        return np.bitwise_and.reduceat(
            _compose(calc, r, rows.take(k_row, axis=0)),
            row.searchsorted(np.arange(len(rows))), axis=0).reshape(m.shape)
    a = np.full_like(rows, calc.universal)
    for lo in range(0, at.size, step):
        part = slice(lo, lo + step)
        # every row has a term, so a chunk holds the groups of the rows
        # from its first to its last, those two perhaps in part
        held = row[part]
        first, last = held[0], held[-1]
        a[first:last + 1] &= np.bitwise_and.reduceat(
            _compose(calc, r[part], rows.take(k_row[part], axis=0)),
            held.searchsorted(np.arange(first, last + 1)), axis=0)
    return a.reshape(m.shape)


def _close(calc, m: np.ndarray) -> tuple:
    """Enforce path consistency on a stack of uint16 mask matrices
    (p, n, n) in place, each converse-symmetric with an EQ diagonal as a
    network's is; a single matrix is a stack of one.

    Each sweep reads the stack as it stood before the sweep and narrows
    every entry to its meet Q_ij = AND_k comp[m[i, k], m[k, j]] at once,
    until a sweep changes no matrix.  Entries only shrink, so the sweeps
    terminate.  A matrix that empties an entry records its witness, the
    first such entry in row-major order replayed on the matrix it swept
    (:func:`_witness`), and keeps its entries from then on; an input with
    an empty entry is reported as (i, i, j), takes no part in the sweeps
    and comes back unchanged.  A matrix that a sweep left unchanged, or
    that has a witness, is not swept again, and the sweeps stop once no
    matrix is left.  Returns (witnesses, q, updates, sweeps, terms): one
    witness per matrix, None on success; the Q stack, valid where the
    witness is None; and the call's counts, as in :class:`AClosureResult`
    for a stack of one.

    The sweeps run over a universal diagonal, restored to EQ on return:
    * . r = r . * = * for every nonempty r, so the k = i and k = j terms
    never narrow an entry and Q_ij is the meet over every other k.  q
    holds each matrix's Q from its last sweep, the one that changed
    nothing: Algorithm 1's Q of the closed matrix (its diagonal aside).

    A sweep gathers only the terms that can narrow.  The calculus's basic
    d (``Calculus.disjoint``) is its own converse and d . d = *, so a term
    comp[m[i, k], m[k, j]] with d in m[i, k] and in m[k, j] is universal.
    Row i gathers the k in K_i = {k : d not in m[i, k]}, and i itself,
    whose term * . m[i, j] is universal too but gives each row a term
    (:func:`_meets`): A[i, j] = AND over k in K_i.  Then Q = A &
    conv[A^T], since conv(A[j, i]) is the meet over k in K_j of
    conv(comp[m[j, k], m[k, i]]) = comp[m[i, k], m[k, j]], and every k
    outside K_i and K_j gives a universal term.  So Q is exact and
    converse-symmetric, and the narrowed stack needs no mirror write.  A
    stack where no entry holds d gathers every k.
    """
    p, n = m.shape[:2]
    witnesses = [None] * p
    # count_nonzero is the cheap test for an empty entry, .all() is not
    if np.count_nonzero(m) < m.size:
        for t in (~m.all(axis=(1, 2))).nonzero()[0].tolist():
            i, j = np.argwhere(m[t] == 0)[0].tolist()
            witnesses[t] = i, i, j
    # the matrices still sweeping, by their place in m, and their stack
    live = np.array([w is None for w in witnesses]).nonzero()[0]
    cur = m if live.size == p else m[live]
    conv = calc.conv_table
    star = calc.universal
    diagonal = np.arange(n)
    cur[:, diagonal, diagonal] = star
    # star on the diagonal and 0 off it; d off it and 0 on it, so that
    # each row gathers its own term
    ring = np.zeros((n, n), np.uint16)
    ring.flat[::n + 1] = star
    hold = ~ring & calc.disjoint
    q = np.empty_like(m)
    updates = sweeps = terms = 0
    while live.size:
        sweeps += 1
        free = np.logical_not(cur & hold)
        terms += int(np.count_nonzero(free)) * n
        a = _meets(calc, cur, free)
        # a universal diagonal in A, and so in Q and in the narrowed stack
        a |= ring
        swept_q = a & conv.take(a.transpose(0, 2, 1))
        new = cur & swept_q
        if np.count_nonzero(new) < new.size:
            for s in (~new.all(axis=(1, 2))).nonzero()[0].tolist():
                i, j = np.argwhere(new[s] == 0)[0].tolist()
                witnesses[live[s]] = _witness(calc, cur[s], i, j)
                new[s] = cur[s]
        moved = new != cur
        changed = int(np.count_nonzero(moved))
        updates += changed
        m[live] = new
        q[live] = swept_q
        if not changed:
            break
        if live.size > 1:
            # the matrices that stop here: closed by this sweep, or emptied
            going = moved.any(axis=(1, 2))
            live = live[going]
            new = new[going]
        cur = new
    m[:, diagonal, diagonal] = calc.identity
    return witnesses, q, updates, sweeps, terms


def _witness(calc, m: np.ndarray, i: int, j: int) -> tuple[int, int, int]:
    """Replay the AND that emptied entry (i, j) of m and return the triple
    (i, k, j) at which it first became empty.  The k = i and k = j terms
    leave a nonempty entry unchanged, so k differs from both."""
    comp = calc._comp_list
    row_i = m[i].tolist()
    col_j = m[:, j].tolist()
    acc = row_i[j]
    for k in range(len(row_i)):
        acc &= comp[row_i[k]][col_j[k]]
        if not acc:
            return i, k, j


def a_closure(net: Network) -> AClosureResult:
    """Enforce path consistency; never raises on inconsistency.

    The result network refines the input, has the same solution set, and
    is independent of the processing order.
    """
    m = net.matrix.copy()
    (witness,), _, updates, sweeps, terms = _close(net.calculus, m[None])
    if witness is not None:
        return AClosureResult(False, None, witness, updates, sweeps, terms)
    out = Network._unchecked(net.calculus, m, net.labels)
    return AClosureResult(True, out, None, updates, sweeps, terms)


def _fit(net: Network, sub: Optional[Subalgebra],
         candidates) -> Optional[Subalgebra]:
    """A given ``sub``, which must be of the network's calculus and hold
    every entry (else NetworkShapeError, MembershipError); without one,
    the first of ``candidates(net.calculus)`` that holds them, or None."""
    masks = set(np.flatnonzero(np.bincount(net.matrix.ravel())).tolist())
    if sub is None:
        return next((c for c in candidates(net.calculus)
                     if masks <= c.members), None)
    if sub.calculus is not net.calculus:
        raise NetworkShapeError("subalgebra from a different calculus")
    extra = masks - sub.members
    if extra:
        bad = ", ".join(net.calculus.format(m) for m in sorted(extra))
        raise MembershipError(
            f"entries outside {sub.name or 'the subalgebra'}: {bad}")
    return sub


def _tractable(calc) -> list[Subalgebra]:
    return [sub for sub in builtin_subalgebras(calc) if sub.tractable]


def detect_tractable(net: Network) -> Optional[Subalgebra]:
    """Smallest built-in tractable subalgebra containing every entry."""
    return _fit(net, None, _tractable)


def _closure_decides(net: Network, subclass: Subalgebra = None) -> bool:
    """Does the a-closure decide this network?  A given subclass must be
    tractable and fit (:func:`_fit`); else a built-in one is looked for
    (Bhat, the first, holds every basic network)."""
    if subclass is not None and not subclass.tractable:
        raise MembershipError(
            f"subalgebra {subclass.name or '?'} is not flagged tractable")
    return _fit(net, subclass, _tractable) is not None


def is_consistent(net: Network, subclass: Subalgebra = None,
                  guard: int = DEFAULT_GUARD) -> bool:
    """Decide consistency.

    Networks over a tractable subclass (given or auto-detected) are
    decided by the a-closure; anything else falls back to the
    backtracking oracle, subject to the size guard.
    """
    if _closure_decides(net, subclass):
        return a_closure(net).consistent
    return solve(net, guard=guard) is not None


def _check_guard(n: int, guard: int) -> None:
    if n > guard:
        raise GuardExceededError(
            f"n={n} exceeds the oracle guard {guard}; raise it or use "
            "a tractable subclass")


def _narrow(calc, m: list[list[int]], pins) -> Optional[list[list[int]]]:
    """The oracle's probe: copy the list matrix ``m``, intersect each pin
    (i, j, mask) into its entry and re-close from the pinned pairs alone
    (``m`` is path-consistent apart from them).  Returns the closed copy;
    None when the closure empties an entry, and before any copy when a pin
    misses its entry.  It only narrows: a search asks :func:`_scenarios`
    for a scenario of the result."""
    for i, j, mask in pins:
        if not m[i][j] & mask:
            return None
    conv = calc._conv_list
    child = [row[:] for row in m]
    for i, j, mask in pins:
        child[i][j] &= mask
        child[j][i] = conv[child[i][j]]
        if not child[i][j]:
            return None
    if _pca_lists(calc, child, [(i, j) for i, j, _ in pins]) is not None:
        return None
    return child


def _closures(calc, n: int, count: int,
              stack) -> Iterator[Optional[list[list[int]]]]:
    """Lazily, for each of ``count`` n-variable matrices: the matrix
    closed from scratch by :func:`_close`, as a list matrix for the
    oracle's probes, or None when it is inconsistent.  ``stack(batch)``
    makes the matrices of a slice of range(count) as a fresh stack
    (p, n, n), one per stack of :func:`_blocks`, each closed in one
    call."""
    for batch in _blocks(n * n, count):
        m = stack(batch)
        witnesses = _close(calc, m)[0]
        # one at a time: the stack as lists would hold every matrix at once
        for witness, closed in zip(witnesses, m):
            yield closed.tolist() if witness is None else None


def _closed(net: Network) -> Optional[list[list[int]]]:
    """The network closed as :func:`_closures` gives it: a list matrix,
    or None when it is inconsistent."""
    return next(_closures(net.calculus, net.n, 1,
                          lambda _: net.matrix[None].copy()))


def _basic_pins(masks: np.ndarray) -> list[tuple[int, int, int]]:
    """One pin (i, j, basic) per basic of each entry above the diagonal."""
    rows = masks.tolist()
    return [(i, j, 1 << b) for i, row in enumerate(rows)
            for j in range(i + 1, len(row))
            for b in range(row[j].bit_length()) if row[j] >> b & 1]


def _solvable(net: Network, base: Optional[list[list[int]]], pins,
              guard: int, search: bool) -> Iterator[bool]:
    """Lazily, per pin: has the network a solution inside it?  ``base`` is
    the closure of the network probed, by :func:`_closed` or
    :func:`_closures`, and ``search`` whether that network fits no
    built-in tractable subalgebra.  Where it fits one, so does each pinned
    network (every basic lies in every built-in subalgebra), and the
    probe's closure decides; elsewhere the probe's result is searched, and
    only then is the guard checked, once, against ``net``."""
    if pins and search:
        _check_guard(net.n, guard)
    for pin in pins:
        child = None if base is None else _narrow(net.calculus, base, [pin])
        if search:
            child = next(_scenarios(net.calculus, child), None)
        yield child is not None


def _branch_entry(m: list[list[int]], pairs: list[tuple[int, int]]
                  ) -> tuple[Optional[tuple[int, int]], list[tuple[int, int]]]:
    """The branch entry: of ``pairs`` (row-major), the first non-basic one
    with the fewest members in m, or None.  Also the pairs a child must
    still look at: ``pairs`` without those already basic, which are
    dropped as far as the scan went (the scan stops at a two-member
    entry, since none has fewer)."""
    best = None
    best_count = 1 << 20
    left = []
    for at, (i, j) in enumerate(pairs):
        c = m[i][j].bit_count()
        if c > 1:
            left.append((i, j))
            if c < best_count:
                best = (i, j)
                best_count = c
                if c == 2:
                    return best, left + pairs[at + 1:]
    return best, left


def _scenarios(calc, m, pairs=None) -> Iterator[list[list[int]]]:
    """Backtracking enumeration over basic refinements of a path-consistent
    list matrix, or of none for None.  Yields path-consistent complete
    basic matrices.  ``pairs`` holds, in row-major order, every pair i < j
    that may still be non-basic (all of them when None); each child gets
    the pairs its parent's :func:`_branch_entry` kept, so no search node
    rescans the whole matrix."""
    if m is None:
        return
    if pairs is None:
        pairs = [(i, j) for i in range(len(m)) for j in range(i + 1, len(m))]
    spot, pairs = _branch_entry(m, pairs)
    if spot is None:
        yield m
        return
    i, j = spot
    for b in range(calc.size):
        if m[i][j] >> b & 1:
            child = _narrow(calc, m, [(i, j, 1 << b)])
            if child is not None:
                yield from _scenarios(calc, child, pairs)


def solve(net: Network, guard: int = DEFAULT_GUARD) -> Optional[Network]:
    """First consistent scenario refining the network, or None.

    A returned scenario is path-consistent and hence consistent.  The
    search branches on the entry with fewest members and tries basics in
    serialization order, so the scenario found is deterministic.
    """
    for sc in enumerate_scenarios(net, guard=guard):
        return sc
    return None


def enumerate_scenarios(net: Network,
                        guard: int = DEFAULT_GUARD) -> Iterator[Network]:
    """All consistent scenarios of the network, deterministically ordered."""
    _check_guard(net.n, guard)
    for sol in _scenarios(net.calculus, _closed(net)):
        yield Network._unchecked(net.calculus,
                                 np.array(sol, dtype=np.uint16), net.labels)


def _entailed(net: Network, queries,
              guard: int) -> list[Optional[bool]]:
    """Per query (i, j, outside), i != j: has the network with (i, j)
    widened to universal no solution that places (v_i, v_j) in a basic
    of ``outside``?  None where that needs a search and n > guard.

    The stacks of :func:`_closures` close the
    widened networks, and each runs its pins (i, j, basic) through
    :func:`_solvable`, searching only where the closure does not decide
    it.  One bincount of the network's masks tells where: a widened
    network holds those masks, less any that only (i, j) and (j, i) held,
    and the universal relation, which lies in every built-in subalgebra
    with every basic; so it fits a tractable one exactly when each of the
    network's masks outside that one is held at (i, j) or (j, i) alone.
    """
    calc = net.calculus
    m = net.matrix
    counts = np.bincount(m.ravel())
    masks = set(np.flatnonzero(counts).tolist())
    misfits = [masks - sub.members for sub in _tractable(calc)]
    out = [True] * len(queries)
    todo, wide = [], []
    for t, (i, j, outside) in enumerate(queries):
        if not outside:
            continue
        a, b = int(m[i, j]), int(m[j, i])
        alone = {x for x in (a, b) if counts[x] == (a == x) + (b == x)}
        search = not any(miss <= alone for miss in misfits)
        if search and net.n > guard:
            out[t] = None
            continue
        pins = [(i, j, 1 << bit) for bit in range(calc.size)
                if outside >> bit & 1]
        todo.append((t, pins, search))
        wide.append((i, j))
    wide = np.array(wide)

    def widened(batch):
        i, j = wide[batch].T
        stack = np.repeat(m[None], len(i), axis=0)
        at = np.arange(len(i))
        stack[at, i, j] = stack[at, j, i] = calc.universal
        return stack

    for (t, pins, search), base in zip(
            todo, _closures(calc, net.n, len(todo), widened)):
        out[t] = not any(_solvable(net, base, pins, guard, search))
    return out


def entails(net: Network, i: int, j: int, r: Relation,
            guard: int = DEFAULT_GUARD) -> bool:
    """Does every solution place (v_i, v_j) inside r?

    Decided basic-by-basic: the network entails r iff pinning the (i, j)
    entry to any basic outside r leaves no solution.  Those basics lie
    inside the entry, so the pins go into the network with (i, j) widened
    to universal, as :func:`_entailed` decides them.
    """
    if i == j:
        raise NetworkShapeError("entailment is defined for distinct variables")
    if r.calculus is not net.calculus:
        raise NetworkShapeError("relation from a different calculus")
    verdict, = _entailed(net, [(i, j, net.mask(i, j) & ~r.mask)], guard)
    if verdict is None:
        _check_guard(net.n, guard)
    return verdict


@dataclass
class AllDifferentResult:
    all_different: bool
    eq_pairs: list[tuple[int, int]]

    def __bool__(self) -> bool:
        return self.all_different


def all_different(net: Network, subclass: Subalgebra = None) -> AllDifferentResult:
    """Detect entailed equalities between distinct variables.

    Valid over a tractable subclass, where an equality is entailed iff
    the a-closure entry is exactly EQ.  Inconsistent networks are
    rejected: they entail everything.
    """
    if not _closure_decides(net, subclass):
        raise MembershipError(
            "network is not over a built-in tractable subalgebra; "
            "pass an asserted subclass")
    res = a_closure(net)
    if not res.consistent:
        raise InconsistentNetworkError(
            "inconsistent network: it entails everything")
    pairs = _upper_pairs(res.network.matrix == net.calculus.identity)
    return AllDifferentResult(not pairs, pairs)


def check_minimal(net: Network, guard: int = DEFAULT_GUARD) -> bool:
    """Oracle check that every basic in every entry is feasible.

    Each basic is pinned into the closed network (:func:`_solvable`).
    Where the network fits a built-in tractable subalgebra the pinned
    closure decides, at any size; elsewhere each pin is searched, subject
    to the guard."""
    base = _closed(net)
    if base is None:
        raise InconsistentNetworkError("minimality is about consistent networks")
    search = not _closure_decides(net)
    return all(_solvable(net, base, _basic_pins(net.matrix), guard, search))


def check_weak_global(net: Network, guard: int = DEFAULT_GUARD) -> bool:
    """Oracle check of weak global consistency.

    An inconsistent network is not: a restriction to one variable has a
    solution that extends to none.  Otherwise every consistent scenario
    of every restriction (sizes 2..n-1, in increasing order,
    short-circuiting on the first failure) must extend to a consistent
    scenario of the whole network.  Restrictions to one variable and to
    all variables then extend trivially and are skipped.  The
    restrictions of one size close together (:func:`_closures`).
    """
    from itertools import combinations

    _check_guard(net.n, guard)
    calc = net.calculus
    base = _closed(net)
    if base is None:
        return False
    for size in range(2, net.n):
        subsets = list(combinations(range(net.n), size))
        picks = np.array(subsets)

        def restricted(batch):
            return net.matrix[picks[batch, :, None], picks[batch, None, :]]

        for subset, closed in zip(subsets, _closures(calc, size, len(subsets),
                                                     restricted)):
            for scenario in _scenarios(calc, closed):
                pins = [(i, j, scenario[a][b]) for (a, i), (b, j)
                        in combinations(enumerate(subset), 2)]
                if next(_scenarios(calc, _narrow(calc, base, pins)),
                        None) is None:
                    return False
    return True
