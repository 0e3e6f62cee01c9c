"""Subalgebras of RCC5/RCC8 and the distributivity machinery.

A subalgebra here is a named set of nonempty relations closed under
converse, nonempty intersection, and weak composition.  The interesting
ones are *distributive*: weak composition distributes over nonempty
intersections of members.  Each calculus has exactly two maximal
distributive subalgebras, recovered by :func:`maximal_distributive`
from the closure of the basic relations, :func:`bhat`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
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
            out.append(int(r))
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
        if self._cover is None:
            n = 1 << self.calculus.size
            arr = np.array(sorted(self.members), dtype=np.uint16)
            cover = np.full(n, -1, dtype=np.int32)
            for m in range(n):
                sel = arr[(arr & m) == m]
                if sel.size:
                    cover[m] = np.bitwise_and.reduce(sel)
            self._cover = cover
        got = int(self._cover[mask])
        return None if got < 0 else got

    def __len__(self) -> int:
        return len(self.members)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subalgebra)
                and self.calculus is other.calculus
                and self.members == other.members)

    def __hash__(self) -> int:
        return hash((self.calculus.name, self.members))

    def __le__(self, other: "Subalgebra") -> bool:
        return self.members <= other.members

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


def is_distributive(calc: Calculus, members: Iterable) -> CheckResult:
    """Check both distributivity identities over all member triples with
    nonempty intersection.  Closure of the set is not assumed."""
    arr = np.array(sorted(_as_masks(calc, members)), dtype=np.uint16)
    comp = calc.comp_table
    if arr.size == 0:
        return CheckResult(True)
    st = arr[:, None] & arr[None, :]
    nz = st != 0
    # R.(S&T) vs (R.S)&(R.T)
    lhs = comp[arr[:, None, None], st[None, :, :]]
    rhs = (comp[arr[:, None, None], arr[None, :, None]]
           & comp[arr[:, None, None], arr[None, None, :]])
    bad = (lhs != rhs) & nz[None, :, :]
    if bad.any():
        r, s, t = np.argwhere(bad)[0]
        return CheckResult(False, tuple(
            Relation(calc, int(arr[i])) for i in (r, s, t)))
    # (S&T).R vs (S.R)&(T.R)
    lhs = comp[st[:, :, None], arr[None, None, :]]
    rhs = (comp[arr[:, None, None], arr[None, None, :]]
           & comp[arr[None, :, None], arr[None, None, :]])
    bad = (lhs != rhs) & nz[:, :, None]
    if bad.any():
        s, t, r = np.argwhere(bad)[0]
        return CheckResult(False, tuple(
            Relation(calc, int(arr[i])) for i in (r, s, t)))
    return CheckResult(True)


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
    collects every relation that keeps the set distributive on its own,
    links pairs that stay distributive together (the d-relation), and
    extends the closure by each maximal clique.  Results are sorted by
    size.
    """
    base_masks = bhat(calc).members
    extras = [m for m in range(1, calc.universal + 1)
              if m not in base_masks]
    d_set = [a for a in extras
             if is_distributive(calc, base_masks | {a})]
    adj = {a: set() for a in d_set}
    for i, a in enumerate(d_set):
        for b in d_set[i + 1:]:
            if is_distributive(calc, base_masks | {a, b}):
                adj[a].add(b)
                adj[b].add(a)
    out = []
    for clique in _maximal_cliques(d_set, adj):
        members = base_masks | clique
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


def by_name(name: str) -> Subalgebra:
    """The named built-in subalgebra; only that one is derived."""
    try:
        make = _BY_NAME[name.upper()]
    except KeyError:
        raise UnknownNameError(f"unknown subalgebra {name!r}; expected one of "
                               + ", ".join(sorted(_BY_NAME))) from None
    return make()
