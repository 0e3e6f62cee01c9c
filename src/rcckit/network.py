"""Constraint networks: the n-by-n relation matrix and its serialization.

Invariants maintained throughout: the diagonal is EQ, entry (j,i) is the
converse of entry (i,j), and absent constraints are the universal relation.
Variable indices are 0-based in the Python API; the file format and the
command line use 1-based indices to match the usual v1..vn naming.

File format (line oriented, ``#`` starts a comment)::

    calculus RCC8
    vars 5
    labels A B C D E      # optional
    # i j relation   (1-based, i<j)
    1 2 DC|EC
    2 3 *

Only pairs with i<j are written by :func:`save`; the loader mirrors
converses and fills gaps with the universal relation.  A label is a
nonempty UTF-8 string without whitespace or ``#``, so that it survives
the ``labels`` line, of which a file has at most one.

Files and JSON documents may declare at most ``MAX_VARS`` variables.
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterable, Iterator, Sequence

import numpy as np

from .calculus import Calculus, Relation, get_calculus
from .errors import (
    ConverseConflictError,
    InconsistentNetworkError,
    NetworkFormatError,
    NetworkShapeError,
)

__all__ = [
    "Network",
    "load",
    "loads",
    "save",
    "dump",
    "to_json",
    "from_json",
    "refines",
    "restrict",
    "remove_constraint",
    "amalgamate",
    "to_rcc5",
]

# largest variable count a file or JSON document may declare (a 32 MB matrix)
MAX_VARS = 4096


class Network:
    """n variables plus an n-by-n relation matrix over one calculus."""

    def __init__(self, calculus: Calculus, n: int,
                 labels: Sequence[str] = None):
        if n < 1:
            raise NetworkShapeError("a network needs at least one variable")
        if labels is None:
            labels = tuple(f"v{i + 1}" for i in range(n))
        else:
            labels = tuple(labels)
            if len(labels) != n:
                raise NetworkShapeError(
                    f"{len(labels)} labels for {n} variables")
            if len(set(labels)) != n:
                raise NetworkShapeError("duplicate variable labels")
            if _unsavable(labels):
                bad = next(x for x in labels if _unsavable([x]))
                raise NetworkShapeError(
                    f"variable label {bad!r} is not a nonempty UTF-8 "
                    "string without whitespace or '#'")
        self.calculus = calculus
        self.n = n
        self.labels = labels
        self.matrix = np.full((n, n), calculus.universal, dtype=np.uint16)
        np.fill_diagonal(self.matrix, calculus.identity)

    # -- entry access ----------------------------------------------------

    def mask(self, i: int, j: int) -> int:
        return int(self.matrix[i, j])

    def entry(self, i: int, j: int) -> Relation:
        return Relation(self.calculus, self.mask(i, j))

    def set_mask(self, i: int, j: int, mask: int) -> None:
        if i == j:
            if mask != self.calculus.identity:
                raise NetworkShapeError("diagonal entries must be EQ")
            return
        self.matrix[i, j] = mask
        self.matrix[j, i] = self.calculus.converse_mask(mask)

    def __getitem__(self, ij) -> Relation:
        return self.entry(*ij)

    def __setitem__(self, ij, rel) -> None:
        i, j = ij
        self.set_mask(i, j, self.calculus.relation(rel).mask)

    def index_of(self, var) -> int:
        if isinstance(var, str):
            try:
                return self.labels.index(var)
            except ValueError:
                raise NetworkShapeError(f"unknown variable {var!r}")
        if isinstance(var, bool) or not isinstance(var, (int, np.integer)):
            raise NetworkShapeError(f"variable index {var!r} is not an integer")
        i = int(var)
        if not 0 <= i < self.n:
            raise NetworkShapeError(
                f"variable number {i + 1} out of range 1..{self.n}")
        return i

    # -- structure -------------------------------------------------------

    def copy(self) -> "Network":
        # the labels were checked when they came in
        out = Network.__new__(Network)
        out.calculus, out.n, out.labels = self.calculus, self.n, self.labels
        out.matrix = self.matrix.copy()
        return out

    def constraint_pairs(self) -> Iterator[tuple[int, int]]:
        """Non-universal pairs (i, j) with i < j."""
        star = self.calculus.universal
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if self.matrix[i, j] != star:
                    yield (i, j)

    def constraint_count(self) -> int:
        return sum(1 for _ in self.constraint_pairs())

    @property
    def is_basic(self) -> bool:
        """Every off-diagonal entry is a single basic relation or universal."""
        m = self.matrix.astype(np.int64)
        off = ~np.eye(self.n, dtype=bool)
        single = (m & (m - 1)) == 0
        return bool(((m == self.calculus.universal) | single)[off].all()
                    and (m[off] != 0).all())

    @property
    def is_scenario(self) -> bool:
        """Complete and basic: every off-diagonal entry is one basic."""
        m = self.matrix.astype(np.int64)
        off = ~np.eye(self.n, dtype=bool)
        return bool(((m[off] != 0) & ((m[off] & (m[off] - 1)) == 0)).all())

    def validate(self) -> None:
        """Raise NetworkShapeError if an invariant is broken."""
        m = self.matrix
        if m.shape != (self.n, self.n):
            raise NetworkShapeError("matrix shape mismatch")
        if (m > self.calculus.universal).any():
            raise NetworkShapeError("entry outside the calculus")
        if (np.diag(m) != self.calculus.identity).any():
            raise NetworkShapeError("diagonal entries must be EQ")
        if not np.array_equal(self.calculus.conv_table[m], m.T):
            raise NetworkShapeError("matrix is not converse-symmetric")

    def digest(self) -> str:
        """Stable content hash of the canonical serialization."""
        return hashlib.sha256(save(self).encode()).hexdigest()[:16]

    def __eq__(self, other) -> bool:
        return (isinstance(other, Network)
                and self.calculus is other.calculus
                and self.labels == other.labels
                and np.array_equal(self.matrix, other.matrix))

    def __hash__(self):
        return hash((self.calculus.name, self.labels,
                     self.matrix.tobytes()))

    def __repr__(self) -> str:
        return (f"Network({self.calculus.name}, n={self.n}, "
                f"{self.constraint_count()} constraints)")


def _unsavable(labels: Sequence[str]) -> bool:
    """Whether a network file cannot carry a label: one is not a string,
    is empty, holds whitespace or the comment mark ``#`` (which
    :func:`loads` would misread), or has no UTF-8 form."""
    try:
        text = " ".join(labels)
        text.encode()
    except (TypeError, UnicodeEncodeError):
        return True
    return "#" in text or text.split() != list(labels)


def loads(text: str) -> Network:
    """Parse the network file format; see the module docstring."""
    calc = None
    n = None
    labels = None
    given: dict[tuple[int, int], tuple[int, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "calculus":
            if len(parts) != 2 or calc is not None:
                raise NetworkFormatError("expected one 'calculus NAME' line",
                                         lineno)
            try:
                calc = get_calculus(parts[1])
            except ValueError as e:
                raise NetworkFormatError(str(e), lineno)
            continue
        if parts[0] == "vars":
            if len(parts) != 2 or n is not None:
                raise NetworkFormatError("expected one 'vars N' line", lineno)
            n = _var_count(parts[1], lineno)
            continue
        if parts[0] == "labels":
            if labels is not None:
                raise NetworkFormatError("expected one 'labels' line", lineno)
            labels = parts[1:]
            continue
        if calc is None or n is None:
            raise NetworkFormatError(
                "constraint before 'calculus'/'vars' header", lineno)
        if len(parts) != 3:
            raise NetworkFormatError(
                f"expected 'i j RELATION', got {line!r}", lineno)
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise NetworkFormatError(
                f"bad variable indices in {line!r}", lineno)
        if not (1 <= i <= n and 1 <= j <= n):
            raise NetworkFormatError(
                f"variable index out of range 1..{n}", lineno)
        try:
            mask = calc.parse(parts[2])
        except ValueError as e:
            raise NetworkFormatError(str(e), lineno)
        if i == j:
            if mask != calc.identity:
                raise NetworkFormatError("diagonal must be EQ", lineno)
            continue
        _record(given, calc, i - 1, j - 1, mask, lineno, "line", lineno)
    if calc is None:
        raise NetworkFormatError("missing 'calculus' line")
    if n is None:
        raise NetworkFormatError("missing 'vars' line")
    net = Network(calc, n, labels)
    for (i, j), (mask, _) in given.items():
        net.set_mask(i, j, mask)
    net.validate()
    return net


def _record(given: dict, calc: Calculus, i: int, j: int, mask: int,
            place: int, kind: str, line: int = None) -> None:
    """Keep the 0-based constraint (i, j, mask), given at ``kind place``
    (say, line 4).  A pair given before must agree with it, directly or
    as its converse."""
    if (i, j) in given:
        key, same = (i, j), mask
    elif (j, i) in given:
        key, same = (j, i), calc.converse_mask(mask)
    else:
        given[(i, j)] = (mask, place)
        return
    prev, prev_place = given[key]
    if prev != same:
        raise ConverseConflictError(
            f"({i + 1},{j + 1}) conflicts with ({key[0] + 1},{key[1] + 1}) "
            f"from {kind} {prev_place}", line)


def load(path) -> Network:
    with open(path, encoding="utf-8") as fh:
        return loads(fh.read())


def save(net: Network) -> str:
    """Canonical text form: sorted i<j pairs, non-universal entries only."""
    lines = [f"calculus {net.calculus.name}", f"vars {net.n}"]
    default = tuple(f"v{i + 1}" for i in range(net.n))
    if net.labels != default:
        lines.append("labels " + " ".join(net.labels))
    for i, j in net.constraint_pairs():
        lines.append(f"{i + 1} {j + 1} {net.calculus.format(net.mask(i, j))}")
    return "\n".join(lines) + "\n"


def dump(net: Network, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(save(net))


def to_json(net: Network) -> dict:
    return {
        "schema": 1,
        "calculus": net.calculus.name,
        "vars": net.n,
        "labels": list(net.labels),
        "constraints": [
            [i + 1, j + 1, net.calculus.format(net.mask(i, j))]
            for i, j in net.constraint_pairs()
        ],
    }


def _var_count(value, lineno=None) -> int:
    """A declared variable count, checked before any allocation."""
    if isinstance(value, str) and value.isdecimal() and len(value) < 10:
        value = int(value)
    if type(value) is not int or not 1 <= value <= MAX_VARS:
        raise NetworkFormatError(
            f"vars must be an integer in 1..{MAX_VARS}, got {value!r}", lineno)
    return value


def from_json(doc: dict) -> Network:
    """Inverse of :func:`to_json`; a malformed document raises an
    ``RccError``, and so do constraints that disagree on a pair, as in
    :func:`loads`."""
    try:
        calc = get_calculus(doc["calculus"])
        labels = doc.get("labels")
        if labels is not None and not isinstance(labels, list):
            raise TypeError(f"labels {labels!r}")
        net = Network(calc, _var_count(doc["vars"]), labels)
        given: dict[tuple[int, int], tuple[int, int]] = {}
        for number, (i, j, rel) in enumerate(doc.get("constraints", []), 1):
            if type(i) is not int or type(j) is not int:
                raise TypeError(f"variable numbers {i!r}, {j!r}")
            _record(given, calc, net.index_of(i - 1), net.index_of(j - 1),
                    calc.parse(rel), number, "constraint")
        for (i, j), (mask, _) in given.items():
            net.set_mask(i, j, mask)
    except (KeyError, TypeError, ValueError, AttributeError) as e:
        raise NetworkFormatError(f"bad network document: {e!r}") from None
    net.validate()
    return net


def to_rcc5(net: Network) -> Network:
    """Coarsen an RCC8 network to RCC5.

    DC and EC collapse to DR, TPP and NTPP to PP (converses likewise).
    Any regions witnessing the RCC8 network witness the result, so a
    consistent input yields a consistent output.
    """
    from .calculus import RCC5, RCC8

    if net.calculus is not RCC8:
        raise NetworkShapeError("to_rcc5 expects an RCC8 network")
    to5 = [RCC5.parse(n) for n in
           ("DR", "DR", "PO", "PP", "PP", "PPi", "PPi", "EQ")]
    table = np.zeros(1 << 8, dtype=np.uint16)
    for mask in range(1 << 8):
        out = 0
        for b in range(8):
            if mask >> b & 1:
                out |= to5[b]
        table[mask] = out
    result = Network(RCC5, net.n, net.labels)
    result.matrix = table[net.matrix]
    np.fill_diagonal(result.matrix, RCC5.identity)
    return result


def refines(a: Network, b: Network) -> bool:
    """Entrywise subset test; networks must share shape and calculus."""
    if a.calculus is not b.calculus or a.n != b.n:
        raise NetworkShapeError("networks differ in calculus or size")
    return bool((a.matrix & ~b.matrix & a.calculus.universal).max() == 0)


def restrict(net: Network, variables: Iterable) -> Network:
    """Induced subnetwork on the given variables (indices or labels)."""
    idx = [net.index_of(v) for v in variables]
    if not idx:
        raise NetworkShapeError("restriction needs at least one variable")
    if len(set(idx)) != len(idx):
        raise NetworkShapeError("duplicate variables in restriction")
    out = Network(net.calculus, len(idx), [net.labels[i] for i in idx])
    out.matrix = net.matrix[np.ix_(idx, idx)].copy()
    return out


def remove_constraint(net: Network, i: int, j: int) -> Network:
    """Replace the (i, j) constraint with the universal relation."""
    if i == j:
        raise NetworkShapeError("cannot remove a diagonal entry")
    out = net.copy()
    out.set_mask(i, j, net.calculus.universal)
    return out


def amalgamate(net: Network, eq_classes: Iterable[Iterable]) -> Network:
    """Merge variables that the network forces to be identical.

    ``eq_classes`` must partition the variables, and within each class
    every pairwise a-closure entry must be exactly EQ.  The first member
    of each class becomes its representative; entries between classes are
    the intersections of the a-closure entries, so the result is an
    equivalent all-different network.
    """
    from .reasoning import a_closure  # local import: reasoning builds on network

    classes = [[net.index_of(v) for v in group] for group in eq_classes]
    flat = [i for group in classes for i in group]
    if sorted(flat) != list(range(net.n)):
        raise NetworkShapeError("eq_classes must partition the variables")
    res = a_closure(net)
    if not res.consistent:
        raise InconsistentNetworkError(
            "cannot amalgamate an inconsistent network")
    closed = res.network
    eq = net.calculus.identity
    for group in classes:
        for a in group:
            for b in group:
                if a == b:
                    continue
                m = closed.mask(a, b)
                if m & eq == 0:
                    raise InconsistentNetworkError(
                        f"variables {net.labels[a]} and {net.labels[b]} "
                        "cannot be equal")
                if m != eq:
                    raise NetworkShapeError(
                        f"variables {net.labels[a]} and {net.labels[b]} are "
                        "not entailed equal; not a valid equivalence class")
    reps = [group[0] for group in classes]
    out = Network(net.calculus, len(reps), [net.labels[r] for r in reps])
    for a, ga in enumerate(classes):
        for b, gb in enumerate(classes):
            if a >= b:
                continue
            mask = net.calculus.universal
            for x in ga:
                for y in gb:
                    mask &= net.mask(x, y)
            if mask == 0:
                raise InconsistentNetworkError(
                    "amalgamation produced an empty relation")
            out.set_mask(a, b, mask)
    check = a_closure(out)
    if check.consistent and np.triu(check.network.matrix == eq, k=1).any():
        raise NetworkShapeError("classes do not cover all entailed equalities")
    return out
