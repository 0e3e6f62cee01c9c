"""Subalgebras of RCC5/RCC8 and the distributivity machinery.

A subalgebra here is a named set of nonempty relations closed under
converse, nonempty intersection, and weak composition.  The interesting
ones are *distributive*: weak composition distributes over nonempty
intersections of members.  Each calculus has exactly two maximal
distributive subalgebras, recovered by :func:`maximal_distributive`
from the closure of the basic relations, :func:`bhat`.

One elementwise kernel, ``_breaks``, tests member triples (R, S, T)
against both identities through the flat composition table.
:func:`is_distributive` runs it on every member triple of a set.  The
search runs it only on the triples that can fail: Bhat is distributive,
so adding relations to it can break an identity only on a triple that
holds every added relation (see :func:`maximal_distributive`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Optional

import numpy as np

from .calculus import RCC5, RCC8, Calculus, Relation
from .errors import UnknownNameError

__all__ = [
    "Subalgebra",
    "CheckResult",
    "closure",
    "is_distributive",
    "helly_check",
    "maximal_distributive",
    "bhat",
    "d5_14",
    "d5_20",
    "d8_41",
    "d8_64",
    "h5",
    "builtin_subalgebras",
]


def _as_masks(calc: Calculus, rels: Iterable) -> list[int]:
    out = []
    for r in rels:
        if isinstance(r, Relation):
            if r.calculus is not calc:
                raise ValueError("mixed calculi in relation set")
            out.append(r.mask)
        elif isinstance(r, str):
            out.append(calc.parse(r))
        else:
            out.append(calc._valid_mask(r))
    return out


@dataclass(frozen=True)
class CheckResult:
    """Boolean outcome plus the first witness triple on failure."""

    holds: bool
    witness: Optional[tuple[Relation, Relation, Relation]] = None

    def __bool__(self) -> bool:
        return self.holds


class Subalgebra:
    """A set of nonempty relations of one calculus, with closure flags.

    ``tractable`` marks sets for which path consistency decides network
    consistency.  It is derived for distributive subalgebras and may be
    asserted by the caller for sets known tractable on other grounds
    (the built-in H5, for example).
    """

    def __init__(self, calc: Calculus, members: Iterable, name: str = None,
                 tractable: bool = None):
        masks = set(_as_masks(calc, members))
        if 0 in masks:
            raise ValueError("the empty relation cannot be a subalgebra member")
        self.calculus = calc
        self.members = frozenset(masks)
        self.name = name
        self.contains_all_basic = all(
            (1 << i) in self.members for i in range(calc.size))
        self.closed = _closed_masks(calc, self.members) == self.members
        self.distributive = bool(is_distributive(calc, self.members))
        self.tractable = self.distributive if tractable is None else tractable
        self._cover = None

    def sorted_masks(self) -> list[int]:
        return sorted(self.members)

    def relations(self) -> list[Relation]:
        return [Relation(self.calculus, m) for m in self.sorted_masks()]

    def __contains__(self, r) -> bool:
        if isinstance(r, Relation):
            if r.calculus is not self.calculus:
                return False
            return r.mask in self.members
        return int(r) in self.members

    def smallest_member(self, mask: int) -> Optional[int]:
        """Smallest member containing ``mask`` (sets closed under
        intersection have a unique one), or None."""
        got = int(self.smallest_members(mask, -1))
        return None if got < 0 else got

    def smallest_members(self, masks: np.ndarray, default: int) -> np.ndarray:
        """:meth:`smallest_member` of each mask in an integer array, with
        ``default`` where no member contains the mask."""
        if self._cover is None:
            n = 1 << self.calculus.size
            arr = np.array(sorted(self.members), dtype=np.uint16)
            cover = np.full(n, -1, dtype=np.int32)
            for m in range(n):
                sel = arr[(arr & m) == m]
                if sel.size:
                    cover[m] = np.bitwise_and.reduce(sel)
            self._cover = cover
        got = self._cover[masks]
        return np.where(got < 0, default, got)

    def __len__(self) -> int:
        return len(self.members)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subalgebra)
                and self.calculus is other.calculus
                and self.members == other.members)

    def __hash__(self) -> int:
        return hash((self.calculus.name, self.members))

    def __repr__(self) -> str:
        label = self.name or "unnamed"
        return (f"Subalgebra({self.calculus.name}, {label}, "
                f"{len(self.members)} members)")


def closure(calc: Calculus, seed: Iterable) -> Subalgebra:
    """Least set containing ``seed`` closed under converse, nonempty
    intersection, and weak composition.  The empty relation is excluded."""
    return Subalgebra(calc, _closed_masks(calc, _as_masks(calc, seed)))


def _closed_masks(calc: Calculus, seed: Iterable[int]) -> frozenset[int]:
    """The masks of :func:`closure`; a set is closed iff this adds
    nothing to it."""
    masks = set(seed)
    masks.discard(0)
    frontier = set(masks)
    while frontier:
        new = set()
        for a in frontier:
            c = calc.converse_mask(a)
            if c not in masks:
                new.add(c)
        for a in masks:
            for b in (frontier if a not in frontier else masks):
                for x in (calc.compose_masks(a, b), calc.compose_masks(b, a),
                          a & b):
                    if x and x not in masks:
                        new.add(x)
        masks |= new
        frontier = new
    return frozenset(masks)


# bounds the triples one call of _breaks checks at once, and so its
# temporaries: the index arrays take 8 bytes a triple
_BATCH_TRIPLES = 2 ** 15


def _breaks(calc: Calculus, r, s, t) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise over uint16 mask arrays (broadcast together): where
    S&T is nonempty and R.(S&T) != R.S & R.T, and where S&T is nonempty
    and (S&T).R != S.R & T.R.  A triple breaks distributivity where
    either array is true."""
    # comp_table[a, b] sits at (a << size) | b of the flattened table
    comp = calc.comp_table.ravel()
    st = s & t
    rk = r.astype(np.intp) << calc.size
    first = comp[rk | st] != (comp[rk | s] & comp[rk | t])
    second = comp[(st.astype(np.intp) << calc.size) | r] != (
        comp[(s.astype(np.intp) << calc.size) | r]
        & comp[(t.astype(np.intp) << calc.size) | r])
    nz = st != 0
    return nz & first, nz & second


def is_distributive(calc: Calculus, members: Iterable) -> CheckResult:
    """Check both distributivity identities over all member triples with
    nonempty intersection.  Closure of the set is not assumed.

    The witness is the first triple (R, S, T) of sorted members, in that
    order, that breaks R.(S&T) = R.S & R.T; failing none, the first in
    (S, T, R) order that breaks (S&T).R = S.R & T.R."""
    arr = np.array(sorted(_as_masks(calc, members)), dtype=np.uint16)
    n = arr.size
    height = max(1, _BATCH_TRIPLES // max(1, n * n))
    late = None  # (s, t, r) of the first identity-2 failure so far
    for lo in range(0, n, height):
        first, second = _breaks(calc, arr[lo:lo + height, None, None],
                                arr[None, :, None], arr[None, None, :])
        if first.any():
            r, s, t = np.argwhere(first)[0]
            return _witness(calc, arr, lo + r, s, t)
        if second.any():
            s, t, r = np.argwhere(second.transpose(1, 2, 0))[0]
            here = (s, t, lo + r)
            late = here if late is None else min(late, here)
    if late is None:
        return CheckResult(True)
    s, t, r = late
    return _witness(calc, arr, r, s, t)


def _witness(calc: Calculus, arr: np.ndarray, *idx) -> CheckResult:
    return CheckResult(False, tuple(Relation(calc, int(arr[i]))
                                    for i in idx))


def _extension_breaks(calc: Calculus, base: Iterable[int],
                      rows: np.ndarray) -> np.ndarray:
    """For each row of ``rows`` (k masks outside ``base``), whether
    base | row breaks distributivity on a triple that holds all k masks.

    The triples are positions in base | row, made once for every row
    and checked in batches of at most ``_BATCH_TRIPLES``."""
    base = np.array(sorted(base), dtype=np.uint16)
    b, k = base.size, rows.shape[1]
    # at most 255 nonempty masks, so positions fit in uint8
    pos = np.indices((b + k,) * 3, dtype=np.uint8).reshape(3, -1)
    pos = pos[:, np.all([(pos == b + i).any(axis=0) for i in range(k)],
                        axis=0)]
    table = np.hstack([np.broadcast_to(base, (len(rows), b)),
                       rows]).astype(np.uint16)
    out = np.zeros(len(rows), dtype=bool)
    step = max(1, _BATCH_TRIPLES // pos.shape[1])
    for lo in range(0, len(rows), step):
        block = table[lo:lo + step]
        first, second = _breaks(calc, *(block[:, p] for p in pos))
        out[lo:lo + step] = (first | second).any(axis=1)
    return out


def helly_check(calc_or_sub, members: Iterable = None) -> CheckResult:
    """Pairwise-nonempty member intersections must give a nonempty triple
    intersection.  Holds in every distributive subalgebra."""
    if isinstance(calc_or_sub, Subalgebra):
        calc, masks = calc_or_sub.calculus, calc_or_sub.members
    else:
        calc, masks = calc_or_sub, _as_masks(calc_or_sub, members)
    arr = np.array(sorted(masks), dtype=np.uint16)
    if arr.size == 0:
        return CheckResult(True)
    pair = arr[:, None] & arr[None, :]
    triple = pair[:, :, None] & arr[None, None, :]
    bad = ((pair[:, :, None] != 0) & (pair[:, None, :] != 0)
           & (pair[None, :, :] != 0) & (triple == 0))
    if bad.any():
        r, s, t = np.argwhere(bad)[0]
        return CheckResult(False, tuple(
            Relation(calc, int(arr[i])) for i in (r, s, t)))
    return CheckResult(True)


def _maximal_cliques(nodes: list[int], adj: dict[int, set[int]]):
    """Bron-Kerbosch with pivoting; the d-relation graph is tiny."""
    cliques = []

    def expand(r, p, x):
        if not p and not x:
            cliques.append(r)
            return
        pivot = max(p | x, key=lambda u: len(adj[u] & p))
        for v in list(p - adj[pivot]):
            expand(r | {v}, p & adj[v], x & adj[v])
            p = p - {v}
            x = x | {v}

    expand(frozenset(), set(nodes), set())
    return cliques


def maximal_distributive(calc: Calculus) -> list[Subalgebra]:
    """All maximal distributive subalgebras of a calculus.

    Starts from the closure of the basic relations, :func:`bhat`,
    collects every relation that keeps the set distributive on its own
    (the d-set), links pairs that stay distributive together (the
    d-relation), and extends the closure by each maximal clique.
    Results are sorted by size.

    No set is checked whole.  Bhat is distributive, so Bhat | {a} can
    break an identity only on a triple (R, S, T) that contains a.  Once
    a and b each pass on their own, Bhat | {a, b} can break one only on
    a triple that contains both: any other triple lies in Bhat | {a} or
    Bhat | {b}.  One batched check of those triples covers all
    candidates, and one more covers all pairs of the d-set.  Each
    result is then verified whole as it becomes a :class:`Subalgebra`.
    """
    base = bhat(calc).members
    extras = np.array([m for m in range(1, calc.universal + 1)
                       if m not in base], dtype=np.uint16)
    d_set = extras[~_extension_breaks(calc, base, extras[:, None])]
    pairs = np.array(list(combinations(d_set.tolist(), 2)),
                     dtype=np.uint16).reshape(-1, 2)
    adj = {a: set() for a in d_set.tolist()}
    for a, b in pairs[~_extension_breaks(calc, base, pairs)].tolist():
        adj[a].add(b)
        adj[b].add(a)
    out = []
    for clique in _maximal_cliques(list(adj), adj):
        members = base | clique
        sub = Subalgebra(calc, members,
                         name=f"D{calc.size}_{len(members)}")
        out.append(sub)
    out.sort(key=lambda s: (len(s), s.sorted_masks()))
    return out


@lru_cache(maxsize=None)
def bhat(calc: Calculus) -> Subalgebra:
    """Closure of the basic relations: 12 members for RCC5, 37 for RCC8."""
    sub = closure(calc, [Relation(calc, 1 << i) for i in range(calc.size)])
    sub.name = f"Bhat{calc.size}"
    return sub


@lru_cache(maxsize=None)
def _maximal(calc: Calculus) -> list[Subalgebra]:
    return maximal_distributive(calc)


def d5_14() -> Subalgebra:
    return _maximal(RCC5)[0]


def d5_20() -> Subalgebra:
    return _maximal(RCC5)[1]


def d8_41() -> Subalgebra:
    return _maximal(RCC8)[0]


def d8_64() -> Subalgebra:
    return _maximal(RCC8)[1]


@lru_cache(maxsize=None)
def h5() -> Subalgebra:
    """The maximal tractable RCC5 subclass: every nonempty relation except
    the four that pair PP with PPi without PO."""
    excluded = {RCC5.parse(t) for t in
                ("PP|PPi", "PP|PPi|EQ", "DR|PP|PPi", "DR|PP|PPi|EQ")}
    members = [m for m in range(1, RCC5.universal + 1) if m not in excluded]
    return Subalgebra(RCC5, members, name="H5", tractable=True)


def builtin_subalgebras(calc: Calculus) -> list[Subalgebra]:
    """Named subalgebras usable from the command line, smallest first."""
    if calc is RCC5:
        return [bhat(RCC5), d5_14(), d5_20(), h5()]
    return [bhat(RCC8), d8_41(), d8_64()]


_BY_NAME = {
    "BHAT5": lambda: bhat(RCC5), "BHAT8": lambda: bhat(RCC8),
    "D5_14": d5_14, "D5_20": d5_20,
    "D8_41": d8_41, "D8_64": d8_64,
    "H5": h5,
}


NAMES = tuple(sorted(_BY_NAME))


def by_name(name: str) -> Subalgebra:
    """The named built-in subalgebra; only that one is derived."""
    try:
        make = _BY_NAME[name.upper()]
    except KeyError:
        raise UnknownNameError(f"unknown subalgebra {name!r}; expected one of "
                               + ", ".join(NAMES)) from None
    return make()
