"""Path consistency, consistency decisions, and the backtracking oracle.

The a-closure (algebraic closure) is the fixed point of the refinement
rule R_ij <- (R_ik . R_kj) & R_ij.  :func:`a_closure` reaches it with one
engine for every size: sweeps over blocks of rows that apply the rule for
all k at once, repeated until a sweep changes nothing.  The sweeps run
over a universal diagonal, so the meet they take for (i, j) runs over
the k other than i and j: in the sweep that changes nothing it is
Algorithm 1's Q_ij, which :func:`rcckit.redundancy.core_algorithm1`
takes from there.  For networks over a tractable subclass (basic
networks among them) the closure decides consistency;
``_closure_decides`` is the one test of that, and ``_fit`` the one test
that a subalgebra holds a network, for every caller.
One helper, ``_terms``, gathers the terms R_ik . R_kj of a block of rows
through a uint16 index into the composition table (every mask is at
most the universal one, and 2 * size <= 16 bits): ``_gathers`` takes
every k for the Simple/SimpleExt engine (:mod:`rcckit.baselines`), which
tests the gather directly.  The closure AND-reduces it, and only a
block's first computation takes every k; a later one takes the k whose
row changed since that block was last computed (``changed >= computed``,
a row its own write moved included) and ANDs their terms into the
block's previous meets.  The schedule of blocks and sweeps, and so the
closed matrix, the counts, the witness and Q, are those of recomputing
every block in full.

The backtracking oracle asks one question, through one probe, ``_narrow``:
does the network keep a solution once some entries are narrowed?  The
network is closed from scratch once, by :func:`_close`, and handed to the
probes as a list matrix (``_closed``).  Each probe copies that matrix,
intersects its pins and re-closes from the pinned pairs alone with the
oracle's pair-queue propagator ``_pca_lists``, and the search branches
through the same probe, carrying down the pairs still non-basic so that
no node rescans the whole matrix.  The a-closure so serves both sides of
the acceptance checks; what keeps the oracle independent of it is the
pin-and-search propagator ``_pca_lists`` and the test-local references
(``tests/closure_reference.py``, the all-pairs ``_ref_closed`` of the
reasoning tests, and the benchmark's own reference module).  Searches
are guarded by a size limit, because scenario enumeration is exponential.
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
from .network import Network, _upper_pairs, restrict

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

# bounds the entries of the temporary gathered per block of rows (_blocks)
_BLOCK_CELLS = 2 ** 15


@dataclass
class AClosureResult:
    """Outcome of enforcing path consistency.

    ``network`` is the path-consistent refinement when consistent;
    ``witness`` is the triple (i, k, j) whose rule application emptied
    entry (i, j) otherwise; an entry already empty in the input is
    reported as (i, i, j) with i < j, since no rule application emptied
    it.  ``updates`` sums, over the row sweeps, the row entries each sweep
    changed; an already closed input reports 0.  ``sweeps`` counts the row
    sweeps begun, the last one being the sweep that changed nothing or the
    one that emptied an entry: an already closed input reports 1, an input
    with an empty entry 0.  ``terms`` counts the composition terms
    comp[R_ik, R_kj] the sweeps gathered: n**3 for an already closed
    input, whose one sweep gathers every term once, 0 for an input with
    an empty entry.
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


def _terms(calc, rows: np.ndarray, m: np.ndarray,
           ks=slice(None)) -> np.ndarray:
    """comp[rows[i, k], m[k, j]] at [i, k, j], for the k in ``ks`` (every
    k by default): the terms of the rule for a block of rows of m."""
    # comp_table[r, s] sits at (r << size) | s of the flattened table.
    # Every mask is at most universal and 2 * size <= 16, so the index is
    # built in uint16 (NEP 50 keeps uint16 << int in uint16) and read by
    # np.take, about a quarter cheaper than an intp index
    pairs = (rows[:, ks, None] << calc.size) | m[ks]
    return calc.comp_table.ravel().take(pairs)


def _blocks(n: int) -> list[slice]:
    """The blocks of rows of an n-variable matrix, in order: each gathers
    at most ``_BLOCK_CELLS`` entries, or one row."""
    height = max(1, _BLOCK_CELLS // (n * n))
    return [slice(lo, lo + height) for lo in range(0, n, height)]


def _gathers(calc, m: np.ndarray) -> Iterator[tuple[slice, np.ndarray]]:
    """Lazily, per block of rows (:func:`_blocks`): the block's slice and,
    for its rows i, the gather G[i, j, k] = comp[m[i, j], m[j, k]].  Each
    block reads m when it is computed, so a caller may write a block back
    before the next one is computed."""
    for block in _blocks(m.shape[0]):
        yield block, _terms(calc, m[block], m)


def _close(calc, m: np.ndarray) -> tuple:
    """Enforce path consistency on a uint16 mask matrix in place.

    Sweeps the rows in blocks (:func:`_blocks`), narrowing each block to
    its meets AND_k comp[m[i, k], m[k, :]] and mirroring its converse into
    the matching columns, until a sweep changes nothing.  Entries only
    shrink, so the sweeps terminate.  Returns (witness, updates, sweeps,
    q, terms): the first three and ``terms`` as in
    :class:`AClosureResult`, witness None on success.

    The sweeps run over a universal diagonal, restored to EQ on return:
    * . r = r . * = * for every nonempty r, so the k = i and k = j terms,
    which never narrow an entry, drop out, and the meets of row i are
    Q_ij, the meet over every other k.  q holds each block's meets as of
    its last computation; on success it is Q of the closed matrix, from
    the sweep that changed nothing (its diagonal aside), else None.

    Only a block's first computation gathers every k.  The term for k
    reads R_ik and row k; a change at (i, k) changes row k too, through
    the mirror, so marking the changed rows covers both.  Entries only
    shrink and composition is monotone, so q already holds the term of
    every k whose row has not changed since the block was last computed:
    a later computation gathers the changed rows alone and ANDs their
    terms into the block's q rows, which so stay the exact full meet.
    The block's own write changes rows it read, so the test is
    ``changed >= computed``, not ``>``; a block holding every row would
    otherwise miss its own changes.  A block with no changed row keeps
    its q rows, which its rows already equal, and is skipped.
    """
    if not m.all():
        i, j = np.argwhere(m == 0)[0].tolist()
        return (i, i, j), 0, 0, None, 0
    conv = calc.conv_table
    star = calc.universal
    n = m.shape[0]
    # diagonal cells lie n + 1 apart in m flattened, and in a block of rows
    step = n + 1
    m.flat[::step] = star
    blocks = _blocks(n)
    # the clock ticks once per block computed: when each block was last
    # computed and each row last changed, -1 before the first computation
    # so that it gathers every row
    computed = [-1] * len(blocks)
    changed_at = np.full(n, -1)
    clock = 0
    q = np.empty_like(m)
    witness = None
    updates = sweeps = terms = 0
    changed = True
    while changed and witness is None:
        changed = False
        sweeps += 1
        for b, block in enumerate(blocks):
            ks = (changed_at >= computed[b]).nonzero()[0]
            if not ks.size:
                continue
            computed[b] = clock
            clock += 1
            rows = m[block]
            terms += rows.shape[0] * ks.size * n
            if ks.size == n:
                # the full meet: a slice reads faster than an index array
                new = np.bitwise_and.reduce(_terms(calc, rows, m), axis=1)
            else:
                new = q[block] & np.bitwise_and.reduce(
                    _terms(calc, rows, m, ks), axis=1)
            q[block] = new
            new &= rows
            new.reshape(-1)[block.start::step] = star
            moved_i, moved_k = (new != rows).nonzero()
            if not moved_i.size:
                continue
            if not new.all():
                r, j = np.argwhere(new == 0)[0].tolist()
                witness = _witness(calc, m, block.start + r, j)
                break
            updates += moved_i.size
            changed = True
            rows[:] = new
            m[:, block] = conv[new].T
            # a change at (i, k) changes row k too, through the mirror
            changed_at[block][moved_i] = computed[b]
            changed_at[moved_k] = computed[b]
    m.flat[::step] = calc.identity
    return witness, updates, sweeps, (q if witness is None else None), terms


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
    witness, updates, sweeps, _, terms = _close(net.calculus, m)
    if witness is not None:
        return AClosureResult(False, None, witness, updates, sweeps, terms)
    out = Network(net.calculus, net.n, net.labels)
    out.matrix = m
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


def _narrow(calc, m: list[list[int]], pins,
            search: bool = False) -> Optional[list[list[int]]]:
    """The oracle's probe: copy the list matrix ``m``, intersect each pin
    (i, j, mask) into its entry and re-close from the pinned pairs alone
    (``m`` is path-consistent apart from them).  Returns the closed copy,
    or with ``search`` its first scenario; None when there is none."""
    conv = calc._conv_list
    child = [row[:] for row in m]
    for i, j, mask in pins:
        child[i][j] &= mask
        child[j][i] = conv[child[i][j]]
        if not child[i][j]:
            return None
    if _pca_lists(calc, child, [(i, j) for i, j, _ in pins]) is not None:
        return None
    return next(_scenarios(calc, child), None) if search else child


def _closed(net: Network) -> Optional[list[list[int]]]:
    """The network closed from scratch by :func:`_close`, as a list
    matrix for the oracle's probes, or None when it is inconsistent."""
    m = net.matrix.copy()
    if _close(net.calculus, m)[0] is not None:
        return None
    return m.tolist()


def _basic_pins(masks: np.ndarray) -> list[tuple[int, int, int]]:
    """One pin (i, j, basic) per basic of each entry above the diagonal."""
    rows = masks.tolist()
    return [(i, j, 1 << b) for i, row in enumerate(rows)
            for j in range(i + 1, len(row))
            for b in range(row[j].bit_length()) if row[j] >> b & 1]


def _solvable(net: Network, base: Optional[list[list[int]]], pins,
              guard: int, search: bool = True) -> Iterator[bool]:
    """Lazily, per pin: has the network a solution inside it?  ``base`` is
    the network closed by :func:`_closed`.  Without ``search`` a probe's
    closure decides, as over a tractable subclass."""
    if pins and search:
        _check_guard(net.n, guard)
    for pin in pins:
        yield (base is not None
               and _narrow(net.calculus, base, [pin], search) is not None)


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
        out = Network(net.calculus, net.n, net.labels)
        out.matrix = np.array(sol, dtype=np.uint16)
        yield out


def entails(net: Network, i: int, j: int, r: Relation,
            guard: int = DEFAULT_GUARD) -> bool:
    """Does every solution place (v_i, v_j) inside r?

    Decided basic-by-basic: the network entails r iff pinning the (i, j)
    entry to any basic outside r leaves no solution.  Each basic and the
    universal relation lie in every built-in subalgebra, so one detection
    on the network with (i, j) widened to universal covers every probe.
    """
    if i == j:
        raise NetworkShapeError("entailment is defined for distinct variables")
    calc = net.calculus
    if r.calculus is not calc:
        raise NetworkShapeError("relation from a different calculus")
    outside = net.mask(i, j) & ~r.mask
    pins = [(i, j, 1 << b) for b in range(calc.size) if outside >> b & 1]
    if not pins:
        return True
    wide = net
    if net.mask(i, j) != calc.universal:
        wide = net.copy()
        wide.set_mask(i, j, calc.universal)
    return not any(_solvable(net, _closed(net), pins, guard,
                             not _closure_decides(wide)))


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
    """Oracle check that every basic in every entry is feasible."""
    base = _closed(net)
    if base is None:
        raise InconsistentNetworkError("minimality is about consistent networks")
    return all(_solvable(net, base, _basic_pins(net.matrix), guard))


def check_weak_global(net: Network, guard: int = DEFAULT_GUARD) -> bool:
    """Oracle check of weak global consistency.

    Every consistent scenario of every restriction (sizes 2..n-1, in
    increasing order, short-circuiting on the first failure) must extend
    to a consistent scenario of the whole network.  Restrictions to one
    variable and to all variables extend trivially and are skipped.
    """
    from itertools import combinations

    _check_guard(net.n, guard)
    calc = net.calculus
    base = _closed(net)
    for size in range(2, net.n):
        for subset in combinations(range(net.n), size):
            for scenario in _scenarios(calc, _closed(restrict(net, subset))):
                pins = [(i, j, scenario[a][b]) for (a, i), (b, j)
                        in combinations(enumerate(subset), 2)]
                if base is None or _narrow(calc, base, pins,
                                           search=True) is None:
                    return False
    return True
