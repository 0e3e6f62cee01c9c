"""Checks written apart from rcckit, from the definitions in the paper.

Nothing here imports rcckit.  Relations are bit masks in rcckit's RCC8 bit
order (DC, EC, PO, TPP, NTPP, TPPi, NTPPi, EQ) so that results can be
compared entry by entry, but the composition and converse tables, the
a-closure, the Q test and the polygon predicate are this file's own.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

NAMES = ("DC", "EC", "PO", "TPP", "NTPP", "TPPi", "NTPPi", "EQ")
BIT = {name: 1 << i for i, name in enumerate(NAMES)}
UNIVERSAL = (1 << len(NAMES)) - 1
_CONVERSE_NAME = {"DC": "DC", "EC": "EC", "PO": "PO", "TPP": "TPPi",
                  "NTPP": "NTPPi", "TPPi": "TPP", "NTPPi": "NTPP",
                  "EQ": "EQ"}

# The RCC8 composition table (Randell, Cui and Cohn), one row per relation
# R(a, b); columns follow NAMES for S(b, c); a cell lists R(a, c).
_ALL = "DC EC PO TPP NTPP TPPi NTPPi EQ"
_ROWS = {
    "DC": [_ALL, "DC EC PO TPP NTPP", "DC EC PO TPP NTPP",
           "DC EC PO TPP NTPP", "DC EC PO TPP NTPP", "DC", "DC", "DC"],
    "EC": ["DC EC PO TPPi NTPPi", "DC EC PO TPP TPPi EQ",
           "DC EC PO TPP NTPP", "EC PO TPP NTPP", "PO TPP NTPP", "DC EC",
           "DC", "EC"],
    "PO": ["DC EC PO TPPi NTPPi", "DC EC PO TPPi NTPPi", _ALL,
           "PO TPP NTPP", "PO TPP NTPP", "DC EC PO TPPi NTPPi",
           "DC EC PO TPPi NTPPi", "PO"],
    "TPP": ["DC", "DC EC", "DC EC PO TPP NTPP", "TPP NTPP", "NTPP",
            "DC EC PO TPP TPPi EQ", "DC EC PO TPPi NTPPi", "TPP"],
    "NTPP": ["DC", "DC", "DC EC PO TPP NTPP", "NTPP", "NTPP",
             "DC EC PO TPP NTPP", _ALL, "NTPP"],
    "TPPi": ["DC EC PO TPPi NTPPi", "EC PO TPPi NTPPi", "PO TPPi NTPPi",
             "PO TPP TPPi EQ", "PO TPP NTPP", "TPPi NTPPi", "NTPPi",
             "TPPi"],
    "NTPPi": ["DC EC PO TPPi NTPPi", "PO TPPi NTPPi", "PO TPPi NTPPi",
              "PO TPPi NTPPi", "PO TPP NTPP TPPi NTPPi EQ", "NTPPi",
              "NTPPi", "NTPPi"],
    "EQ": list(NAMES),
}


def _mask(names: str) -> int:
    out = 0
    for name in names.split():
        out |= BIT[name]
    return out


_BASIC_COMP = [[_mask(cell) for cell in _ROWS[name]] for name in NAMES]
_BASIC_CONV = [BIT[_CONVERSE_NAME[name]] for name in NAMES]


def _basics(mask: int) -> list[int]:
    return [b for b in range(len(NAMES)) if mask >> b & 1]


def converse(mask: int) -> int:
    out = 0
    for b in _basics(mask):
        out |= _BASIC_CONV[b]
    return out


@lru_cache(maxsize=None)
def compose(r: int, s: int) -> int:
    """Weak composition of two relations: the union over their basics."""
    out = 0
    for a in _basics(r):
        row = _BASIC_COMP[a]
        for b in _basics(s):
            out |= row[b]
    return out


def a_closure(matrix: list[list[int]]) -> list[list[int]] | None:
    """Fixed point of S_ij <- S_ij & (S_ik . S_kj) over every triple.

    Plain sweeps until nothing changes; None when an entry empties.
    """
    n = len(matrix)
    s = [row[:] for row in matrix]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                cur = s[i][j]
                for k in range(n):
                    if k == i or k == j:
                        continue
                    cur &= compose(s[i][k], s[k][j])
                if cur != s[i][j]:
                    if cur == 0:
                        return None
                    s[i][j] = cur
                    s[j][i] = converse(cur)
                    changed = True
    return s


def prime_by_q_test(matrix: list[list[int]]) -> set[tuple[int, int]]:
    """Redundant pairs (i < j) of an all-different network over a
    distributive subalgebra, by this file's a-closure and Q test."""
    s = a_closure(matrix)
    if s is None:
        raise ValueError("reference a-closure found the network inconsistent")
    n = len(matrix)
    return q_redundant(s, {(i, j) for i in range(n) for j in range(i + 1, n)
                           if matrix[i][j] == UNIVERSAL})


@lru_cache(maxsize=None)
def _compose_table() -> np.ndarray:
    size = UNIVERSAL + 1
    return np.array([[compose(r, s) for s in range(size)]
                     for r in range(size)], dtype=np.int64)


def q_redundant(closed, universal_pairs) -> set[tuple[int, int]]:
    """Redundant pairs (i < j), given S, the a-closure of an all-different
    network over a distributive subalgebra: a constraint (i, j) is
    redundant iff the intersection of S_ik . S_kj over every other k lies
    inside S_ij.  ``universal_pairs``, the pairs universal before the
    closure, are included.  One row at a time on this file's composition
    table, so that it serves networks of a few hundred variables."""
    table = _compose_table()
    s = np.asarray(closed, dtype=np.int64)
    n = len(s)
    redundant = set(universal_pairs)
    for i in range(n - 1):
        # paths[k, j] = S_ik . S_kj; k = i and k = j take no part
        paths = table[s[i][:, None], s]
        paths[i, :] = UNIVERSAL
        np.fill_diagonal(paths, UNIVERSAL)
        q = np.bitwise_and.reduce(paths, axis=0)
        inside = np.nonzero(q & ~s[i] == 0)[0]
        redundant.update((i, j) for j in inside[inside > i].tolist())
    return redundant


# -- convex polygons -------------------------------------------------------


def _cross(o, a, b) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points) -> list[tuple[int, int]]:
    """Counterclockwise hull without collinear vertices (monotone chain)."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts
    lower: list = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _edges(ring):
    m = len(ring)
    return [(ring[i], ring[(i + 1) % m]) for i in range(m)]


def _inside_count(ring_a, ring_b) -> tuple[int, int]:
    """(vertices of a in closed b, vertices of a strictly inside b);
    b is convex and counterclockwise."""
    closed = strict = 0
    edges = _edges(ring_b)
    for v in ring_a:
        crosses = [_cross(p, q, v) for p, q in edges]
        if min(crosses) >= 0:
            closed += 1
            if min(crosses) > 0:
                strict += 1
    return closed, strict


def convex_relation(ring_a, ring_b) -> str:
    """RCC8 relation of two convex counterclockwise integer polygons.

    Separating axes decide contact: a strict gap on an edge normal means
    the closed sets are apart (DC), a gap of zero width that the interiors
    do not cross (EC).  Containment is vertex containment, tangential when
    a vertex lies on the other boundary.
    """
    touching = False
    for p, q in _edges(ring_a) + _edges(ring_b):
        nx, ny = q[1] - p[1], p[0] - q[0]
        pa = [nx * x + ny * y for x, y in ring_a]
        pb = [nx * x + ny * y for x, y in ring_b]
        lo_a, hi_a, lo_b, hi_b = min(pa), max(pa), min(pb), max(pb)
        if hi_a < lo_b or hi_b < lo_a:
            return "DC"
        if hi_a == lo_b or hi_b == lo_a:
            touching = True
    if touching:
        return "EC"
    a_closed, a_strict = _inside_count(ring_a, ring_b)
    b_closed, b_strict = _inside_count(ring_b, ring_a)
    a_in_b = a_closed == len(ring_a)
    b_in_a = b_closed == len(ring_b)
    if a_in_b and b_in_a:
        return "EQ"
    if a_in_b:
        return "NTPP" if a_strict == len(ring_a) else "TPP"
    if b_in_a:
        return "NTPPi" if b_strict == len(ring_b) else "TPPi"
    return "PO"
