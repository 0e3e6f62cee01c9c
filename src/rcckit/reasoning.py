"""Path consistency, consistency decisions, and the backtracking oracle.

The a-closure (algebraic closure) is the fixed point of the refinement
rule R_ij <- (R_ik . R_kj) & R_ij.  :func:`a_closure` reaches it with one
engine for every size: sweeps over blocks of rows that apply the rule for
all k at once, repeated until a sweep changes nothing.  The fixed point
is unique, so the processing order does not affect the result.  The
backtracking oracle keeps its own plain-Python pair-queue propagator,
which re-closes a matrix after a single entry is pinned.

For networks over a tractable subclass (and for basic networks) the
a-closure alone decides consistency.  Everything else goes through
:func:`solve`, a backtracking search over basic refinements that serves
as the independent oracle for the redundancy machinery; it is guarded by
a size limit because scenario enumeration is exponential.
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
from .network import Network, restrict

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

# bounds the entries of the temporary gathered per block of rows in _close
_BLOCK_CELLS = 2 ** 15


@dataclass
class AClosureResult:
    """Outcome of enforcing path consistency.

    ``network`` is the path-consistent refinement when consistent;
    ``witness`` is the triple (i, k, j) whose rule application emptied
    entry (i, j) otherwise.  ``updates`` sums, over the row sweeps, the
    row entries each sweep changed; an already closed input reports 0.
    """

    consistent: bool
    network: Optional[Network]
    witness: Optional[tuple[int, int, int]]
    updates: int = 0


def _pca_lists(calc, m: list[list[int]], n: int,
               queue=None) -> Optional[tuple[int, int, int]]:
    """The oracle's propagator: path consistency on a list matrix in place.

    ``queue`` seeds the pair queue; by default every non-universal pair.
    After one entry is pinned, seeding with that pair alone re-closes the
    matrix.  Returns the witness, or None on success.
    """
    comp = calc._comp_list
    conv = calc._conv_list
    star = calc.universal
    if queue is None:
        queue = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if m[i][j] != star]
    q = deque(queue)
    inq = [[False] * n for _ in range(n)]
    for i, j in q:
        inq[i][j] = True
    while q:
        i, j = q.popleft()
        inq[i][j] = False
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
                a, b = (i, k) if i < k else (k, i)
                if not inq[a][b]:
                    inq[a][b] = True
                    q.append((a, b))
            old = row_k[j]
            new = old & comp[row_k[i]][rij]
            if new != old:
                if new == 0:
                    return k, i, j
                row_k[j] = new
                row_j[k] = conv[new]
                a, b = (k, j) if k < j else (j, k)
                if not inq[a][b]:
                    inq[a][b] = True
                    q.append((a, b))
    return None


def _close(calc, m: np.ndarray) -> tuple[Optional[tuple[int, int, int]], int]:
    """Enforce path consistency on a uint16 mask matrix in place.

    Sweeps the rows in blocks, replacing each block by
    AND_k comp[m[i, k], m[k, :]] and mirroring its converse into the
    matching columns, until a sweep changes nothing.  The k = i term is
    row i itself (the diagonal is EQ), so entries only shrink and the
    sweeps terminate.  Returns (witness, updates) as
    described in :class:`AClosureResult`; witness is None on success.
    """
    # comp_table[r, s] sits at (r << size) | s of the flattened table;
    # one flat gather is several times faster than a two-index gather
    comp = calc.comp_table.ravel()
    conv = calc.conv_table
    n = m.shape[0]
    height = max(1, _BLOCK_CELLS // (n * n))
    updates = 0
    changed = True
    while changed:
        changed = False
        for lo in range(0, n, height):
            rows = m[lo:lo + height]
            pairs = (rows[:, :, None].astype(np.intp) << calc.size) | m
            new = np.bitwise_and.reduce(comp[pairs], axis=1)
            diff = int(np.count_nonzero(new != rows))
            if not diff:
                continue
            if not new.all():
                r, j = np.argwhere(new == 0)[0].tolist()
                return _witness(calc, m, lo + r, j), updates
            updates += diff
            changed = True
            rows[:] = new
            m[:, lo:lo + height] = conv[new].T
    return None, updates


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
    witness, updates = _close(net.calculus, m)
    if witness is not None:
        return AClosureResult(False, None, witness, updates)
    out = Network(net.calculus, net.n, net.labels)
    out.matrix = m
    return AClosureResult(True, out, None, updates)


def _outside(net: Network, sub: Subalgebra) -> set[int]:
    """The entry masks of the network that are not members of ``sub``."""
    present = np.flatnonzero(np.bincount(net.matrix.ravel())).tolist()
    return set(present) - sub.members


def detect_tractable(net: Network) -> Optional[Subalgebra]:
    """Smallest built-in tractable subalgebra containing every entry."""
    for sub in builtin_subalgebras(net.calculus):
        if sub.tractable and not _outside(net, sub):
            return sub
    return None


def _require_members(net: Network, sub: Subalgebra) -> None:
    extra = _outside(net, sub)
    if extra:
        bad = ", ".join(net.calculus.format(m) for m in sorted(extra))
        raise MembershipError(
            f"entries outside {sub.name or 'the subalgebra'}: {bad}")


def _check_membership(net: Network, sub: Subalgebra) -> None:
    if not sub.tractable:
        raise MembershipError(
            f"subalgebra {sub.name or '?'} is not flagged tractable")
    _require_members(net, sub)


def is_consistent(net: Network, subclass: Subalgebra = None,
                  guard: int = DEFAULT_GUARD) -> bool:
    """Decide consistency.

    Networks over a tractable subclass (given or auto-detected) and basic
    networks are decided by the a-closure; anything else falls back to
    the backtracking oracle, subject to the size guard.
    """
    if subclass is not None:
        _check_membership(net, subclass)
        return a_closure(net).consistent
    if net.is_basic or detect_tractable(net) is not None:
        return a_closure(net).consistent
    return solve(net, guard=guard) is not None


def _branch_entry(m: list[list[int]], n: int) -> Optional[tuple[int, int]]:
    best = None
    best_count = 1 << 20
    for i in range(n):
        row = m[i]
        for j in range(i + 1, n):
            c = row[j].bit_count()
            if 1 < c < best_count:
                best = (i, j)
                best_count = c
                if c == 2:
                    return best
    return best


def _scenarios(calc, m: list[list[int]], n: int) -> Iterator[list[list[int]]]:
    """Backtracking enumeration over basic refinements of a path-consistent
    matrix.  Yields path-consistent complete basic matrices."""
    spot = _branch_entry(m, n)
    if spot is None:
        yield m
        return
    i, j = spot
    mask = m[i][j]
    for b in range(calc.size):
        basic = 1 << b
        if not mask & basic:
            continue
        child = [row[:] for row in m]
        child[i][j] = basic
        child[j][i] = calc._conv_list[basic]
        if _pca_lists(calc, child, n, queue=[(i, j)]) is None:
            yield from _scenarios(calc, child, n)


def solve(net: Network, guard: int = DEFAULT_GUARD) -> Optional[Network]:
    """First consistent scenario refining the network, or None.

    A returned scenario is path-consistent and hence consistent.  The
    search branches on the entry with fewest members and tries basics in
    serialization order, so the scenario found is deterministic.
    """
    for sc in enumerate_scenarios(net, guard=guard):
        return sc
    return None


def _scenario_mats(net: Network,
                   guard: int = DEFAULT_GUARD) -> Iterator[list[list[int]]]:
    """Raw enumeration; yielded matrices are reused between iterations."""
    if net.n > guard:
        raise GuardExceededError(
            f"n={net.n} exceeds the oracle guard {guard}; raise it or use "
            "a tractable subclass")
    calc = net.calculus
    m = net.matrix.astype(int).tolist()
    if _pca_lists(calc, m, net.n) is not None:
        return
    yield from _scenarios(calc, m, net.n)


def enumerate_scenarios(net: Network,
                        guard: int = DEFAULT_GUARD) -> Iterator[Network]:
    """All consistent scenarios of the network, deterministically ordered."""
    for sol in _scenario_mats(net, guard=guard):
        out = Network(net.calculus, net.n, net.labels)
        out.matrix = np.array(sol, dtype=np.uint16)
        yield out


def entails(net: Network, i: int, j: int, r: Relation,
            guard: int = DEFAULT_GUARD) -> bool:
    """Does every solution place (v_i, v_j) inside r?

    Decided basic-by-basic: the network entails r iff adding any basic
    outside r to the (i, j) entry is inconsistent.
    """
    if i == j:
        raise NetworkShapeError("entailment is defined for distinct variables")
    calc = net.calculus
    if r.calculus is not calc:
        raise NetworkShapeError("relation from a different calculus")
    rest = calc.universal & ~r.mask
    if rest == 0:
        return True
    current = net.mask(i, j)
    for b in range(calc.size):
        basic = 1 << b
        if not rest & basic or not current & basic:
            continue
        probe = net.copy()
        probe.set_mask(i, j, basic)
        if is_consistent(probe, guard=guard):
            return False
    return True


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
    if subclass is not None:
        _check_membership(net, subclass)
    elif not net.is_basic and detect_tractable(net) is None:
        raise MembershipError(
            "network is not over a built-in tractable subalgebra; "
            "pass an asserted subclass")
    res = a_closure(net)
    if not res.consistent:
        raise InconsistentNetworkError(
            "inconsistent network: it entails everything")
    eq = net.calculus.identity
    pairs = [(i, j) for i in range(net.n) for j in range(i + 1, net.n)
             if res.network.mask(i, j) == eq]
    return AllDifferentResult(not pairs, pairs)


def check_minimal(net: Network, guard: int = DEFAULT_GUARD) -> bool:
    """Oracle check that every basic in every entry is feasible."""
    res = a_closure(net)
    if not res.consistent:
        raise InconsistentNetworkError("minimality is about consistent networks")
    calc = net.calculus
    for i in range(net.n):
        for j in range(i + 1, net.n):
            mask = net.mask(i, j)
            for b in range(calc.size):
                basic = 1 << b
                if not mask & basic:
                    continue
                pinned = net.copy()
                pinned.set_mask(i, j, basic)
                if solve(pinned, guard=guard) is None:
                    return False
    return True


def check_weak_global(net: Network, guard: int = DEFAULT_GUARD) -> bool:
    """Oracle check of weak global consistency.

    Every consistent scenario of every restriction (sizes 2..n-1, in
    increasing order, short-circuiting on the first failure) must extend
    to a consistent scenario of the whole network.  Restrictions to one
    variable and to all variables extend trivially and are skipped.
    """
    from itertools import combinations

    if net.n > guard:
        raise GuardExceededError(
            f"n={net.n} exceeds the oracle guard {guard}")
    for size in range(2, net.n):
        for subset in combinations(range(net.n), size):
            sub = restrict(net, subset)
            for scenario in enumerate_scenarios(sub, guard=guard):
                extended = net.copy()
                for a, i in enumerate(subset):
                    for b, j in enumerate(subset):
                        if a < b:
                            extended.set_mask(i, j, scenario.mask(a, b))
                if solve(extended, guard=guard) is None:
                    return False
    return True
