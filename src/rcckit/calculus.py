"""RCC5 and RCC8 relation algebras.

A relation is a subset of the basic relations of one calculus, stored as a
bit mask.  Bit order (and serialization order) is fixed:

    RCC5:  DR, PO, PP, PPi, EQ
    RCC8:  DC, EC, PO, TPP, NTPP, TPPi, NTPPi, EQ

Composition is weak composition: the smallest calculus relation containing
the true relational composition.  The basic-relation tables are embedded as
static data and can be cross-checked with :func:`verify_relation_algebra`,
which exhaustively tests the relation-algebra axioms and the cycle law.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    CalculusMismatchError,
    EmptyPathError,
    MaskError,
    UnknownNameError,
)

__all__ = [
    "Calculus",
    "Relation",
    "RCC5",
    "RCC8",
    "get_calculus",
    "compose",
    "converse",
    "ct_path",
    "verify_relation_algebra",
    "VerificationReport",
]


# Weak-composition tables of the basic relations, row relation first.
# Cell entries name the basic relations contained in row . column.
_RCC5_NAMES = ("DR", "PO", "PP", "PPi", "EQ")
_RCC5_CONVERSE = ("DR", "PO", "PPi", "PP", "EQ")
_RCC5_TABLE = {
    ("DR", "DR"): "DR|PO|PP|PPi|EQ",
    ("DR", "PO"): "DR|PO|PP",
    ("DR", "PP"): "DR|PO|PP",
    ("DR", "PPi"): "DR",
    ("DR", "EQ"): "DR",
    ("PO", "DR"): "DR|PO|PPi",
    ("PO", "PO"): "DR|PO|PP|PPi|EQ",
    ("PO", "PP"): "PO|PP",
    ("PO", "PPi"): "DR|PO|PPi",
    ("PO", "EQ"): "PO",
    ("PP", "DR"): "DR",
    ("PP", "PO"): "DR|PO|PP",
    ("PP", "PP"): "PP",
    ("PP", "PPi"): "DR|PO|PP|PPi|EQ",
    ("PP", "EQ"): "PP",
    ("PPi", "DR"): "DR|PO|PPi",
    ("PPi", "PO"): "PO|PPi",
    ("PPi", "PP"): "PO|PP|PPi|EQ",
    ("PPi", "PPi"): "PPi",
    ("PPi", "EQ"): "PPi",
    ("EQ", "DR"): "DR",
    ("EQ", "PO"): "PO",
    ("EQ", "PP"): "PP",
    ("EQ", "PPi"): "PPi",
    ("EQ", "EQ"): "EQ",
}

_RCC8_NAMES = ("DC", "EC", "PO", "TPP", "NTPP", "TPPi", "NTPPi", "EQ")
_RCC8_CONVERSE = ("DC", "EC", "PO", "TPPi", "NTPPi", "TPP", "NTPP", "EQ")
_RCC8_TABLE = {
    ("DC", "DC"): "DC|EC|PO|TPP|NTPP|TPPi|NTPPi|EQ",
    ("DC", "EC"): "DC|EC|PO|TPP|NTPP",
    ("DC", "PO"): "DC|EC|PO|TPP|NTPP",
    ("DC", "TPP"): "DC|EC|PO|TPP|NTPP",
    ("DC", "NTPP"): "DC|EC|PO|TPP|NTPP",
    ("DC", "TPPi"): "DC",
    ("DC", "NTPPi"): "DC",
    ("DC", "EQ"): "DC",
    ("EC", "DC"): "DC|EC|PO|TPPi|NTPPi",
    ("EC", "EC"): "DC|EC|PO|TPP|TPPi|EQ",
    ("EC", "PO"): "DC|EC|PO|TPP|NTPP",
    ("EC", "TPP"): "EC|PO|TPP|NTPP",
    ("EC", "NTPP"): "PO|TPP|NTPP",
    ("EC", "TPPi"): "DC|EC",
    ("EC", "NTPPi"): "DC",
    ("EC", "EQ"): "EC",
    ("PO", "DC"): "DC|EC|PO|TPPi|NTPPi",
    ("PO", "EC"): "DC|EC|PO|TPPi|NTPPi",
    ("PO", "PO"): "DC|EC|PO|TPP|NTPP|TPPi|NTPPi|EQ",
    ("PO", "TPP"): "PO|TPP|NTPP",
    ("PO", "NTPP"): "PO|TPP|NTPP",
    ("PO", "TPPi"): "DC|EC|PO|TPPi|NTPPi",
    ("PO", "NTPPi"): "DC|EC|PO|TPPi|NTPPi",
    ("PO", "EQ"): "PO",
    ("TPP", "DC"): "DC",
    ("TPP", "EC"): "DC|EC",
    ("TPP", "PO"): "DC|EC|PO|TPP|NTPP",
    ("TPP", "TPP"): "TPP|NTPP",
    ("TPP", "NTPP"): "NTPP",
    ("TPP", "TPPi"): "DC|EC|PO|TPP|TPPi|EQ",
    ("TPP", "NTPPi"): "DC|EC|PO|TPPi|NTPPi",
    ("TPP", "EQ"): "TPP",
    ("NTPP", "DC"): "DC",
    ("NTPP", "EC"): "DC",
    ("NTPP", "PO"): "DC|EC|PO|TPP|NTPP",
    ("NTPP", "TPP"): "NTPP",
    ("NTPP", "NTPP"): "NTPP",
    ("NTPP", "TPPi"): "DC|EC|PO|TPP|NTPP",
    ("NTPP", "NTPPi"): "DC|EC|PO|TPP|NTPP|TPPi|NTPPi|EQ",
    ("NTPP", "EQ"): "NTPP",
    ("TPPi", "DC"): "DC|EC|PO|TPPi|NTPPi",
    ("TPPi", "EC"): "EC|PO|TPPi|NTPPi",
    ("TPPi", "PO"): "PO|TPPi|NTPPi",
    ("TPPi", "TPP"): "PO|TPP|TPPi|EQ",
    ("TPPi", "NTPP"): "PO|TPP|NTPP",
    ("TPPi", "TPPi"): "TPPi|NTPPi",
    ("TPPi", "NTPPi"): "NTPPi",
    ("TPPi", "EQ"): "TPPi",
    ("NTPPi", "DC"): "DC|EC|PO|TPPi|NTPPi",
    ("NTPPi", "EC"): "PO|TPPi|NTPPi",
    ("NTPPi", "PO"): "PO|TPPi|NTPPi",
    ("NTPPi", "TPP"): "PO|TPPi|NTPPi",
    ("NTPPi", "NTPP"): "PO|TPP|NTPP|TPPi|NTPPi|EQ",
    ("NTPPi", "TPPi"): "NTPPi",
    ("NTPPi", "NTPPi"): "NTPPi",
    ("NTPPi", "EQ"): "NTPPi",
    ("EQ", "DC"): "DC",
    ("EQ", "EC"): "EC",
    ("EQ", "PO"): "PO",
    ("EQ", "TPP"): "TPP",
    ("EQ", "NTPP"): "NTPP",
    ("EQ", "TPPi"): "TPPi",
    ("EQ", "NTPPi"): "NTPPi",
    ("EQ", "EQ"): "EQ",
}


class Calculus:
    """A JEPD basic-relation vocabulary with converse and composition tables.

    Instances are immutable; the two built-in instances are :data:`RCC5` and
    :data:`RCC8`.  Relations of the calculus are bit masks in
    ``range(1 << size)``; the full mask-level tables are precomputed so that
    composition and converse of arbitrary relations are single lookups.
    """

    def __init__(self, name: str, basic_names: Sequence[str],
                 converse_names: Sequence[str],
                 table: dict[tuple[str, str], str]):
        self.name = name
        self.basic_names = tuple(basic_names)
        self.size = len(basic_names)
        self.universal = (1 << self.size) - 1
        self._index = {n: i for i, n in enumerate(basic_names)}
        self.identity = 1 << self._index["EQ"]
        self._converse_basic = tuple(
            1 << self._index[c] for c in converse_names)
        self._comp_basic = tuple(
            tuple(self._mask_from_names(table[(a, b)].split("|"))
                  for b in basic_names)
            for a in basic_names)
        self._build_mask_tables()
        # the first basic that is its own converse and composes with itself
        # to the universal relation: DC in RCC8, DR in RCC5 (PO, later in
        # both orders, is the other).  A composition of two relations that
        # both hold it is universal, which is what lets the a-closure skip
        # such terms; 0 when the calculus has no such basic
        self.disjoint = next(
            (1 << b for b in range(self.size)
             if self.conv_table[1 << b] == 1 << b
             and self.comp_table[1 << b, 1 << b] == self.universal), 0)
        # O_l, the converse-symmetric overlap core used by the cycle lemma:
        # every alpha . alpha^-1 with alpha != EQ contains it.
        po = 1 << self._index["PO"]
        if self.size == 5:
            self.overlap_core = po | self.parse("PP|PPi|EQ")
        else:
            self.overlap_core = po | self.parse("TPP|TPPi|EQ")

    def _mask_from_names(self, names: Iterable[str]) -> int:
        mask = 0
        for n in names:
            mask |= 1 << self._index[n]
        return mask

    def _build_mask_tables(self) -> None:
        n = 1 << self.size
        idx = np.arange(n, dtype=np.uint16)
        bit = ((idx[:, None] >> np.arange(self.size)) & 1).astype(bool)
        conv = np.zeros(n, dtype=np.uint16)
        for i in range(self.size):
            conv[bit[:, i]] |= self._converse_basic[i]
        # rows[i][s] = composition of basic i with mask s
        rows = np.zeros((self.size, n), dtype=np.uint16)
        for i in range(self.size):
            for j in range(self.size):
                rows[i][bit[:, j]] |= self._comp_basic[i][j]
        comp = np.zeros((n, n), dtype=np.uint16)
        for i in range(self.size):
            comp[bit[:, i]] |= rows[i]
        self.conv_table = conv
        self.comp_table = comp
        # plain-int copies for scalar hot paths (faster than numpy scalars)
        self._conv_list = conv.tolist()
        self._comp_list = comp.tolist()

    # -- mask-level operations ------------------------------------------

    def compose_masks(self, r: int, s: int) -> int:
        return self._comp_list[r][s]

    def _valid_mask(self, mask) -> int:
        """``mask`` as an int when it is an integer (a numpy one too, a bool
        not) in 0..universal; otherwise MaskError.  Every entry stays in
        range, which the closure's uint16 gather index relies on."""
        # a plain int skips the type test: the scenario path sets and
        # builds one relation per pair
        if (type(mask) is not int
                and (isinstance(mask, bool)
                     or not isinstance(mask, (int, np.integer)))
                or not 0 <= mask <= self.universal):
            raise MaskError(f"relation mask {mask!r} is not an integer "
                            f"in 0..{self.universal} of {self.name}")
        return int(mask)

    def converse_mask(self, r: int) -> int:
        return self._conv_list[r]

    def member_names(self, mask: int) -> tuple[str, ...]:
        return tuple(n for i, n in enumerate(self.basic_names)
                     if mask >> i & 1)

    def parse(self, text: str) -> int:
        """Parse relation syntax: names joined by '|', '*', or '0'."""
        text = text.strip()
        if text == "*":
            return self.universal
        if text == "0":
            return 0
        mask = 0
        for part in text.split("|"):
            part = part.strip()
            if part not in self._index:
                raise UnknownNameError(
                    f"unknown {self.name} basic relation {part!r}")
            mask |= 1 << self._index[part]
        return mask

    def format(self, mask: int) -> str:
        if mask == self.universal:
            return "*"
        if mask == 0:
            return "0"
        return "|".join(self.member_names(mask))

    def relation(self, spec: "int | str | Relation") -> "Relation":
        """Coerce a mask, textual syntax, or Relation to a Relation."""
        if isinstance(spec, Relation):
            if spec.calculus is not self:
                raise CalculusMismatchError(
                    f"{spec.calculus.name} relation used with {self.name}")
            return spec
        if isinstance(spec, str):
            return Relation(self, self.parse(spec))
        return Relation(self, self._valid_mask(spec))

    def __repr__(self) -> str:
        return f"Calculus({self.name})"

    def __reduce__(self):
        # unpickle to the module singleton so identity checks keep working
        return (get_calculus, (self.name,))


RCC5 = Calculus("RCC5", _RCC5_NAMES, _RCC5_CONVERSE, _RCC5_TABLE)
RCC8 = Calculus("RCC8", _RCC8_NAMES, _RCC8_CONVERSE, _RCC8_TABLE)

_BY_NAME = {"RCC5": RCC5, "RCC8": RCC8}


def get_calculus(name: str) -> Calculus:
    try:
        return _BY_NAME[name.upper()]
    except KeyError:
        raise UnknownNameError(
            f"unknown calculus {name!r} (expected RCC5 or RCC8)") from None


@dataclass(frozen=True)
class Relation:
    """A subset of the basic relations of one calculus.

    The empty relation (mask 0) is a legal value denoting the impossible
    relation.  Instances are immutable and hashable.
    """

    calculus: Calculus
    mask: int

    def __post_init__(self):
        self.calculus._valid_mask(self.mask)

    def _check(self, other: "Relation") -> None:
        if self.calculus is not other.calculus:
            raise CalculusMismatchError(
                f"{self.calculus.name} vs {other.calculus.name}")

    @property
    def members(self) -> tuple[str, ...]:
        return self.calculus.member_names(self.mask)

    @property
    def is_empty(self) -> bool:
        return self.mask == 0

    @property
    def is_universal(self) -> bool:
        return self.mask == self.calculus.universal

    def compose(self, other: "Relation") -> "Relation":
        self._check(other)
        return Relation(self.calculus,
                        self.calculus.compose_masks(self.mask, other.mask))

    def converse(self) -> "Relation":
        return Relation(self.calculus, self.calculus.converse_mask(self.mask))

    def union(self, other: "Relation") -> "Relation":
        self._check(other)
        return Relation(self.calculus, self.mask | other.mask)

    def intersect(self, other: "Relation") -> "Relation":
        self._check(other)
        return Relation(self.calculus, self.mask & other.mask)

    def complement(self) -> "Relation":
        return Relation(self.calculus, self.calculus.universal & ~self.mask)

    def is_subset(self, other: "Relation") -> bool:
        self._check(other)
        return self.mask & ~other.mask == 0

    __or__ = union
    __and__ = intersect
    __invert__ = complement

    def __contains__(self, name: str) -> bool:
        return name in self.members

    def __str__(self) -> str:
        return self.calculus.format(self.mask)

    def __repr__(self) -> str:
        return f"<{self.calculus.name} {self}>"


def compose(r: Relation, s: Relation) -> Relation:
    """Weak composition, the union of table cells over all member pairs."""
    return r.compose(s)


def converse(r: Relation) -> Relation:
    return r.converse()


def ct_path(path: Sequence[Relation]) -> Relation:
    """Weak composition of a path, folded left to right.

    Composition is associative, so the grouping does not matter.
    """
    if not path:
        raise EmptyPathError("ct_path requires at least one relation")
    out = path[0]
    for r in path[1:]:
        out = out.compose(r)
    return out


@dataclass
class VerificationReport:
    """Outcome of the exhaustive relation-algebra check."""

    calculus: str
    passed: bool
    triples_checked: int
    failures: list[str]

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        head = (f"{self.calculus}: {status} "
                f"({self.triples_checked} triples)")
        return head if self.passed else head + "\n" + "\n".join(self.failures)


def verify_relation_algebra(calc: Calculus) -> VerificationReport:
    """Exhaustively check the relation-algebra axioms over all relations.

    Checks associativity of composition, converse involution,
    (R.S)^-1 = S^-1.R^-1, EQ as identity, and the triangle cycle law
    (R.S) & T != 0  iff  (R^-1.T) & S != 0  iff  (T.S^-1) & R != 0.
    Reports the first counterexample of each failing law.
    """
    n = 1 << calc.size
    comp = calc.comp_table
    conv = calc.conv_table
    idx = np.arange(n, dtype=np.uint16)
    failures: list[str] = []

    def fmt(m) -> str:
        return calc.format(int(m))

    if not np.array_equal(conv[conv], idx):
        r = int(np.flatnonzero(conv[conv] != idx)[0])
        failures.append(f"converse not involutive at R={fmt(r)}")
    if int(conv[calc.identity]) != calc.identity:
        failures.append("converse(EQ) != EQ")

    lhs = conv[comp]
    rhs = comp[np.ix_(conv, conv)].T
    if not np.array_equal(lhs, rhs):
        r, s = map(int, np.argwhere(lhs != rhs)[0])
        failures.append(f"(R.S)^-1 != S^-1.R^-1 at R={fmt(r)}, S={fmt(s)}")

    eq = calc.identity
    if not (np.array_equal(comp[eq], idx) and np.array_equal(comp[:, eq], idx)):
        failures.append("EQ is not an identity for composition")

    assoc_fail = None
    cycle_fail = None
    for r in range(n):
        left = comp[comp[r], :]        # (R.S).T
        right = comp[r][comp]          # R.(S.T)
        if assoc_fail is None and not np.array_equal(left, right):
            s, t = map(int, np.argwhere(left != right)[0])
            assoc_fail = (r, s, t)
        b1 = (comp[r][:, None] & idx[None, :]) != 0
        b2 = (comp[int(conv[r])][None, :] & idx[:, None]) != 0
        b3 = (comp[:, conv].T & np.uint16(r)) != 0
        if cycle_fail is None and not (np.array_equal(b1, b2)
                                       and np.array_equal(b1, b3)):
            bad = np.argwhere((b1 != b2) | (b1 != b3))[0]
            cycle_fail = (r, int(bad[0]), int(bad[1]))
        if assoc_fail and cycle_fail:
            break
    if assoc_fail:
        r, s, t = assoc_fail
        failures.append(f"associativity fails at R={fmt(r)}, S={fmt(s)}, "
                        f"T={fmt(t)}")
    if cycle_fail:
        r, s, t = cycle_fail
        failures.append(f"cycle law fails at R={fmt(r)}, S={fmt(s)}, "
                        f"T={fmt(t)}")

    return VerificationReport(calc.name, not failures, n ** 3, failures)
