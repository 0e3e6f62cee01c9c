"""Redundant constraints, cores, and prime subnetworks.

A constraint is redundant when the rest of the network entails it; the
core is the set of non-redundant constraints.  :func:`prime` picks the
engine for a prime subnetwork: a given removal order runs the fold,
:func:`prime_iterative`; a detected distributive subalgebra, or a given
one that lies inside a maximal distributive one, runs
:func:`core_algorithm1`; anything else runs the fold.  Either way an
inconsistent input raises :class:`InconsistentNetworkError`.

Over a distributive subalgebra an all-different network has a unique
prime subnetwork, equal to its core, and it is computed in cubic time by
:func:`core_algorithm1`:
take the a-closure once, then an entry (i, j) is redundant exactly when
the intersection Q_ij of S_ik . S_kj over all other k reproduces S_ij.
Every Q_ij comes from the a-closure's own last sweep, the one that
changes nothing (``reasoning._close``): it meets over a universal
diagonal, and * . r = r . * = * for every nonempty r, so the k = i and
k = j terms drop out of the meet.  A given subalgebra must be of the
network's own calculus: closure over one of the other proves nothing.
The Q test is proved only for distributive subalgebras, so a given one
outside every maximal distributive subalgebra (H5, say) runs the fold.

:func:`prime_iterative` is the general fold that removes redundant
constraints one at a time in a caller-chosen order; on distributive
all-different inputs it is order-independent and agrees with the cubic
algorithm.

:func:`core` and the fold decide redundancy per constraint through
``reasoning._entailed``, which closes every widened network of one call
in stacks (``reasoning._closures``).  :func:`core` makes one such call
over all its constraints.  The fold first makes the same call on its
input and keeps every constraint found non-redundant there: the fold
only widens, and if N - c has a solution outside c, so does every
weaker network N' - c, so non-redundant in N is final.  It tests the
other constraints one at a time, in order, against the current network.
Above the guard the first call never searches, so the fold raises
:class:`GuardExceededError` exactly where testing every constraint in
turn would.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .algebra import Subalgebra, _maximal
from .errors import (
    InconsistentNetworkError,
    MembershipError,
    NetworkShapeError,
    NotAllDifferentError,
)
from .network import Network, _upper_pairs
from .reasoning import (
    DEFAULT_GUARD,
    _basic_pins,
    _check_guard,
    _close,
    _closed,
    _closure_decides,
    _entailed,
    _fit,
    _solvable,
    a_closure,
    is_consistent,
)

__all__ = [
    "RedundancyReport",
    "is_redundant",
    "core",
    "prime",
    "prime_iterative",
    "core_algorithm1",
    "equivalent",
    "detect_distributive",
    "weaken_scenario",
]


@dataclass
class RedundancyReport:
    """Which constraints of a network are redundant.

    Pairs are 0-based with i < j.  ``trivially_redundant`` holds the
    universal-constraint pairs and is always a subset of ``redundant``.
    ``network`` is the input with every redundant constraint removed.
    ``checks`` counts the work done: for ``sweep``, the non-universal
    constraints tested; for ``algorithm1``, the compositions S_ik . S_kj
    its Q test meets, one per pair i < j and other k, n(n-1)(n-2)/2 in
    all (there is no early exit); for the ``iterative`` fold, 0.
    """

    redundant: set = field(default_factory=set)
    trivially_redundant: set = field(default_factory=set)
    method: str = "general"
    checks: int = 0
    network: Optional[Network] = None

    @property
    def nontrivial(self) -> set:
        return self.redundant - self.trivially_redundant


def is_redundant(net: Network, i: int, j: int,
                 guard: int = DEFAULT_GUARD) -> bool:
    """Is the (i, j) constraint entailed by the rest of the network?

    Universal constraints are trivially redundant.  The consistency
    checks go through the a-closure when the network is over a tractable
    subclass and through the backtracking oracle otherwise.
    """
    if i == j:
        raise NetworkShapeError("redundancy is about off-diagonal constraints")
    verdict, = _redundant(net, [(i, j)], guard)
    if verdict is None:
        _check_guard(net.n, guard)
    return verdict


def _redundant(net: Network, pairs, guard: int) -> list[Optional[bool]]:
    """Per pair: is its constraint redundant in the network?  One
    :func:`reasoning._entailed` call, so None where that needs a search
    and n > guard."""
    star = net.calculus.universal
    return _entailed(net, [(i, j, star & ~net.mask(i, j)) for i, j in pairs],
                     guard)


def core(net: Network, guard: int = DEFAULT_GUARD) -> RedundancyReport:
    """Per-constraint redundancy sweep against the full network, every
    constraint tested in one :func:`_redundant` call.

    The resulting core network need not be equivalent to the input when
    the input is not all-different over a distributive subalgebra.
    """
    pairs = list(net.constraint_pairs())
    verdicts = _redundant(net, pairs, guard)
    if None in verdicts:
        _check_guard(net.n, guard)
    out = net.copy()
    for (i, j), redundant in zip(pairs, verdicts):
        if redundant:
            out.set_mask(i, j, net.calculus.universal)
    return _report(net, out, "sweep", len(pairs))


_NEEDS_CONSISTENT = "a prime subnetwork needs a consistent network"


def _normalized_order(net: Network, order) -> list[tuple[int, int]]:
    pairs = [(min(i, j), max(i, j)) for i, j in order]
    expected = list(net.constraint_pairs())
    if sorted(pairs) != sorted(expected) or len(set(pairs)) != len(pairs):
        raise NetworkShapeError(
            "order must enumerate every non-trivial constraint exactly once")
    return pairs


def prime_iterative(net: Network, order: Sequence[tuple[int, int]] = None,
                    guard: int = DEFAULT_GUARD) -> Network:
    """Remove redundant constraints one at a time, in the given order.

    The fold visits each non-trivial constraint once and drops it when it
    is redundant in the current network, which yields a prime subnetwork.
    Different orders may yield different (equally prime) results unless
    the network is all-different over a distributive subalgebra.
    """
    if order is None:
        pairs = list(net.constraint_pairs())
    else:
        pairs = _normalized_order(net, order)
    current = net.copy()
    star = net.calculus.universal
    # the fold only widens, and a solution of N - c outside c solves every
    # weaker N' - c: a constraint not redundant in the input never is
    screen = _redundant(net, pairs, guard)
    for (i, j), verdict in zip(pairs, screen):
        if verdict is not False and is_redundant(current, i, j, guard=guard):
            current.set_mask(i, j, star)
    return current


def detect_distributive(net: Network) -> Optional[Subalgebra]:
    """First maximal distributive subalgebra containing every entry.

    Detection order is fixed (the smaller subalgebra first) so results
    are deterministic; both give identical answers where both apply.
    """
    return _fit(net, None, _maximal)


def prime(net: Network, order: Sequence[tuple[int, int]] = None,
          subalgebra: Subalgebra = None,
          guard: int = DEFAULT_GUARD) -> RedundancyReport:
    """A prime subnetwork, by the engine the module docstring describes;
    the report's ``method`` is ``algorithm1`` or ``iterative``.  The fold
    is preceded by one consistency check.  A given subalgebra is fitted
    first (:func:`reasoning._fit`), whichever engine then runs."""
    if order is None or subalgebra is not None:
        sub = _fit(net, subalgebra, _maximal)
        if order is None and sub is not None and _inside_maximal(sub):
            return core_algorithm1(net, sub)
    if not is_consistent(net, guard=guard):
        raise InconsistentNetworkError(_NEEDS_CONSISTENT)
    return _report(net, prime_iterative(net, order, guard=guard), "iterative")


def core_algorithm1(net: Network,
                    subalgebra: Subalgebra = None) -> RedundancyReport:
    """All redundant constraints of a distributive-subalgebra network, in
    cubic time, together with its unique prime subnetwork.

    Requires a consistent, all-different network whose entries lie in a
    distributive subalgebra: detected among the maximal ones when not
    given, and inside one of them when given.
    """
    sub = _fit(net, subalgebra, _maximal)
    if sub is None:
        raise MembershipError(
            "entries do not fit a built-in distributive subalgebra")
    if not _inside_maximal(sub):
        raise MembershipError(
            f"{sub.name or 'the subalgebra'} lies in no maximal distributive "
            "subalgebra; Algorithm 1 needs a distributive one")
    calc = net.calculus
    n = net.n
    closed = net.matrix.copy()
    (witness,), (q,), *_ = _close(calc, closed[None])
    if witness is not None:
        raise InconsistentNetworkError(_NEEDS_CONSISTENT)
    equal = _upper_pairs(closed == calc.identity)
    if equal:
        raise NotAllDifferentError(
            f"entailed equalities at {equal}; amalgamate them first")
    # q is Q of the closed matrix: the meets of the sweep that changed nothing
    redundant = np.triu(q == closed, k=1)
    out = net.copy()
    out.matrix[redundant | redundant.T] = calc.universal
    return _report(net, out, "algorithm1", n * (n - 1) * (n - 2) // 2)


def _inside_maximal(sub: Subalgebra) -> bool:
    """Does ``sub`` lie inside a maximal distributive subalgebra, where
    Algorithm 1's Q test is proved?"""
    return any(sub.members <= m.members for m in _maximal(sub.calculus))


def _report(net: Network, out: Network, method: str,
            checks: int = 0) -> RedundancyReport:
    """The report of ``out``, ``net`` with its redundant constraints made
    universal: the universal pairs of each, above the diagonal."""
    star = net.calculus.universal
    return RedundancyReport(
        redundant=set(_upper_pairs(out.matrix == star)),
        trivially_redundant=set(_upper_pairs(net.matrix == star)),
        method=method, checks=checks, network=out)


def equivalent(a: Network, b: Network, guard: int = DEFAULT_GUARD) -> bool:
    """Do two networks over the same variables have the same solutions?

    When each network is over a distributive subalgebra, its a-closure is
    its minimal network, so equivalence is a-closure equality.  Otherwise
    no solution of either may use a basic that the other excludes.  Each
    such basic is pinned into its network's closure (as
    :func:`reasoning.check_minimal` pins), which decides it where that
    network fits a built-in tractable subalgebra; elsewhere the
    backtracking oracle searches, subject to the guard.  Identical
    networks so need no probe at all.
    """
    if a.calculus is not b.calculus or a.n != b.n:
        raise NetworkShapeError("networks differ in calculus or size")
    if detect_distributive(a) is not None and detect_distributive(b) is not None:
        ra, rb = a_closure(a), a_closure(b)
        if not ra.consistent or not rb.consistent:
            return ra.consistent == rb.consistent
        return bool(np.array_equal(ra.network.matrix, rb.network.matrix))
    meet = a.matrix & b.matrix
    return not any(any(_solvable(net, _closed(net),
                                 _basic_pins(net.matrix & ~meet), guard,
                                 not _closure_decides(net)))
                   for net in (a, b))


def weaken_scenario(scenario: Network, sub: Subalgebra, rng: random.Random,
                    max_extra: int = 2) -> Network:
    """Random consistent test instance over a subalgebra.

    Each edge of a (consistent) scenario is replaced by the smallest
    subalgebra member containing its basic relation plus up to
    ``max_extra`` random extra basics.  The scenario remains a solution
    witness, so the result is consistent by construction.
    """
    calc = scenario.calculus
    if sub.calculus is not calc:
        raise NetworkShapeError("subalgebra from a different calculus")
    upper = np.triu_indices(scenario.n, k=1)
    masks = scenario.matrix[upper].tolist()
    for k in range(len(masks)):
        for _ in range(rng.randint(0, max_extra)):
            masks[k] |= 1 << rng.randrange(calc.size)
    members = sub.smallest_members(np.array(masks, dtype=np.intp),
                                   calc.universal)
    out = scenario.copy()
    out.matrix[upper] = members
    out.matrix[upper[::-1]] = calc.conv_table[members]
    return out
