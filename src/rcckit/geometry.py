"""Polygon regions and exact derivation of RCC8 scenarios.

Regions are simple polygons with integer vertices (one counterclockwise
exterior ring, no holes).  All predicates are exact, so the eight basic
relations are decided without tolerances and are JEPD by construction.

The decision table for a pair of regions:

    EQ     mutual containment
    NTPP   one-way containment, boundaries disjoint      (NTPPi converse)
    TPP    one-way containment, boundaries touching      (TPPi converse)
    PO     interiors overlap, no containment
    EC     interiors disjoint, boundaries touching
    DC     otherwise

Convex pairs are decided in integer arithmetic alone, by separating
axes, all the box-overlapping pairs of a scene in one numpy pass
(``_convex_masks``).  Each region keeps a table, made once, of its
vertices and of each edge's outward normal with the edge line's offset.
Per pair, one region's vertices are projected onto the other's normals
and back: two convex regions are apart exactly when one lies beyond the
line of an edge of the other, so a strict gap is DC and a gap of zero
width EC; otherwise the interiors overlap, and a convex region lies in
the closed (or open) other exactly when its vertices lie within (or
strictly within) the lines of all the other's edges.  The pairs run in
blocks of at most ``_BLOCK_CELLS`` padded (task, vertex, edge) cells,
each block padded to its own largest ring, and a pair too large for one
block is split along its edges and vertices.  Projections are int64 when
every |coordinate| is below 2**30, which keeps them below 2**62, and
Python ints otherwise: exact either way.  One pair, as
:func:`rcc8_relation` asks, is a scene of one pair.

Only a pair with a non-convex region takes the general predicates:
boundary sub-segments (each polygon's edges split at every crossing with
the other's boundary, at rational parameters) are classified, plus one
guaranteed interior sample point per polygon.  The same walk decides
contact: the boundaries meet exactly when it splits an edge or finds a
vertex on the other boundary.
"""

from __future__ import annotations

import json
import numbers
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .calculus import RCC8, Relation
from .errors import (CalculusMismatchError, GeometryError,
                     InconsistentNetworkError)
from .network import Network, _unsavable

__all__ = [
    "Region",
    "BoundingBox",
    "rcc8_relation",
    "scenario_from_regions",
    "hybrid_reconstitute",
    "generate_regions",
    "regions_to_json",
    "regions_from_json",
]


def _orient(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _on_segment(p, a, b) -> bool:
    """Is p on the closed segment ab?  Assumes nothing about collinearity."""
    if _orient(a, b, p) != 0:
        return False
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def _edges(ring):
    """The ring's edges (a, b) in order, the closing one included."""
    return zip(ring, ring[1:] + ring[:1])


def _proper(d1, d2, d3, d4) -> bool:
    """Given the sides of p and q about line ab (d1, d2) and of a and b
    about line pq (d3, d4): do segments pq and ab cross at one point
    inside both?"""
    return d1 * d2 < 0 and d3 * d4 < 0


def _segments_touch(p, q, a, b) -> bool:
    """Do closed segments pq and ab share any point?"""
    if _proper(_orient(a, b, p), _orient(a, b, q),
               _orient(p, q, a), _orient(p, q, b)):
        return True
    return (_on_segment(p, a, b) or _on_segment(q, a, b)
            or _on_segment(a, p, q) or _on_segment(b, p, q))


def _param_on(p, q, r) -> Fraction:
    """Parameter of collinear point r along segment pq."""
    if q[0] != p[0]:
        return Fraction(r[0] - p[0], q[0] - p[0])
    return Fraction(r[1] - p[1], q[1] - p[1])


def _split_params(p, q, ring) -> list[Fraction]:
    """Parameters in (0,1) where segment pq meets the ring's boundary:
    proper crossings, and the ring's vertices on pq, which include the
    ends of every collinear overlap."""
    ts = set()
    for a, b in _edges(ring):
        d1 = _orient(a, b, p)
        d2 = _orient(a, b, q)
        if _proper(d1, d2, _orient(p, q, a), _orient(p, q, b)):
            ts.add(Fraction(d1, d1 - d2))
            continue
        for r in (a, b):
            if _on_segment(r, p, q):
                t = _param_on(p, q, r)
                if 0 < t < 1:
                    ts.add(t)
    return sorted(ts)


def _scanline(ring, y) -> list[Fraction]:
    """The x values where the ring's edges cross the horizontal line at
    height y, half-open: an edge counts when one end lies above the line
    and the other does not."""
    return [a[0] + Fraction(y - a[1], b[1] - a[1]) * (b[0] - a[0])
            for a, b in _edges(ring) if (a[1] > y) != (b[1] > y)]


def _on_boundary(pt, ring) -> bool:
    """Does pt lie on the ring's boundary?"""
    return any(_on_segment(pt, a, b) for a, b in _edges(ring))


def _point_side(pt, ring) -> int:
    """1 strictly inside, 0 on the boundary, -1 strictly outside."""
    if _on_boundary(pt, ring):
        return 0
    crossings = sum(pt[0] < x for x in _scanline(ring, pt[1]))
    return 1 if crossings % 2 else -1


def _interior_point(ring) -> tuple[Fraction, Fraction]:
    """An exact point strictly inside the polygon.

    Uses a horizontal scanline through the gap just above the lowest
    vertices, where no vertex can interfere."""
    ys = sorted({p[1] for p in ring})
    y = Fraction(ys[0] + ys[1], 2)
    xs = sorted(_scanline(ring, y))
    return (Fraction(xs[0] + xs[1], 2), y)


def _turns(ring) -> int:
    """Full turns of the edge direction around a ring that never turns
    right: the times it passes from the lower half-plane of directions
    into the upper one, [0, pi)."""
    upper = [b[1] > a[1] or (b[1] == a[1] and b[0] > a[0])
             for a, b in _edges(ring)]
    return sum(upper[i] and not upper[i - 1] for i in range(len(upper)))


@dataclass(frozen=True)
class BoundingBox:
    xmin: int
    ymin: int
    xmax: int
    ymax: int

    @classmethod
    def of_ring(cls, ring) -> "BoundingBox":
        xs = [p[0] for p in ring]
        ys = [p[1] for p in ring]
        return cls(min(xs), min(ys), max(xs), max(ys))

    def disjoint(self, other: "BoundingBox") -> bool:
        """Strictly apart on some axis; touching boxes do not count."""
        return (self.xmax < other.xmin or other.xmax < self.xmin
                or self.ymax < other.ymin or other.ymax < self.ymin)


class Region:
    """A simple polygon with an id, integer vertices, positive area."""

    def __init__(self, id: str, ring: Sequence[Sequence[int]]):
        if not isinstance(id, str):
            raise GeometryError(f"region id {id!r} is not a string")
        self.id = str(id)
        if _unsavable([self.id]):
            raise GeometryError(f"region id {id!r} is empty, holds "
                                "whitespace or '#', or is not UTF-8")
        if not all(len(p) == 2 and all(isinstance(v, numbers.Integral)
                                       and not isinstance(v, bool) for v in p)
                   for p in ring):
            raise GeometryError(f"region {id!r}: vertices must be integer pairs")
        ring = [(int(x), int(y)) for x, y in ring]
        if len(ring) < 3:
            raise GeometryError(f"region {id!r}: fewer than 3 vertices")
        if len(set(ring)) != len(ring):
            raise GeometryError(f"region {id!r}: repeated vertex")
        area2 = sum(a[0] * b[1] - b[0] * a[1] for a, b in _edges(ring))
        if area2 == 0:
            raise GeometryError(f"region {id!r}: zero area")
        if area2 < 0:
            ring.reverse()
        self.ring = ring = tuple(ring)
        m = len(ring)
        # counterclockwise, so convex iff simple and it never turns right;
        # a ring that never turns right is simple iff it turns once around
        self.convex = (all(_orient(ring[i - 1], ring[i], ring[(i + 1) % m]) >= 0
                           for i in range(m))
                       and _turns(ring) == 1)
        if not self.convex:
            self._check_crossings()
        self._check_spikes()
        self.bbox = BoundingBox.of_ring(ring)
        self._table = None
        self._interior = None

    def _check_crossings(self) -> None:
        ring = self.ring
        m = len(ring)
        for i in range(m):
            a, b = ring[i], ring[(i + 1) % m]
            for j in range(i + 1, m):
                c, d = ring[j], ring[(j + 1) % m]
                adjacent = (j == i + 1) or (i == 0 and j == m - 1)
                if adjacent:
                    continue
                if _segments_touch(a, b, c, d):
                    raise GeometryError(
                        f"region {self.id!r}: self-intersecting boundary")

    def _check_spikes(self) -> None:
        ring = self.ring
        for i in range(len(ring)):
            prev, v, nxt = ring[i - 1], ring[i], ring[(i + 1) % len(ring)]
            if _orient(prev, v, nxt) == 0:
                dx1, dy1 = prev[0] - v[0], prev[1] - v[1]
                dx2, dy2 = nxt[0] - v[0], nxt[1] - v[1]
                if dx1 * dx2 + dy1 * dy2 > 0:
                    raise GeometryError(
                        f"region {self.id!r}: boundary spike at {v}")

    def _array(self) -> np.ndarray:
        """The separating-axis table, made once, one row per vertex: its
        x and y, the outward normal nx, ny of the edge leaving it, and
        c = -(nx * x + ny * y), so that nx * px + ny * py + c is positive
        exactly where point p lies beyond the edge's line.  int64 when
        every |coordinate| is below ``_INT64_BOUND``, Python ints
        otherwise."""
        if self._table is None:
            rows = [(x, y, b[1] - y, x - b[0])
                    for (x, y), b in _edges(self.ring)]
            small = all(abs(v) < _INT64_BOUND for p in self.ring for v in p)
            self._table = np.array(
                [(x, y, nx, ny, -nx * x - ny * y) for x, y, nx, ny in rows],
                dtype=np.int64 if small else object)
        return self._table

    def interior_point(self):
        if self._interior is None:
            self._interior = _interior_point(self.ring)
        return self._interior

    def __repr__(self) -> str:
        return f"Region({self.id!r}, {len(self.ring)} vertices)"


def _boundary_probe(ring_a, ring_b):
    """Classify the boundary of a against region b.

    Returns (any piece strictly inside b, any piece strictly outside b,
    the boundaries meet).  They meet exactly when an edge of a is split
    at b's boundary or a vertex of a lies on it; a boundary with pieces
    on both sides of b crosses it, so the early exit meets too."""
    some_in = some_out = touch = False
    for p, q in _edges(ring_a):
        splits = _split_params(p, q, ring_b)
        touch = touch or bool(splits) or _on_boundary(p, ring_b)
        ts = [Fraction(0)] + splits + [Fraction(1)]
        for t0, t1 in zip(ts, ts[1:]):
            t = (t0 + t1) / 2
            mid = (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))
            side = _point_side(mid, ring_b)
            if side > 0:
                some_in = True
            elif side < 0:
                some_out = True
            if some_in and some_out:
                return True, True, True
    return some_in, some_out, touch


def _general_relation(a: Region, b: Region) -> str:
    ra, rb = a.ring, b.ring
    a_mid_in, a_mid_out, touch = _boundary_probe(ra, rb)
    b_mid_in, b_mid_out, _ = _boundary_probe(rb, ra)
    ip_a = _point_side(a.interior_point(), rb)
    ip_b = _point_side(b.interior_point(), ra)
    a_in_b = not a_mid_out and not b_mid_in and ip_a >= 0
    b_in_a = not b_mid_out and not a_mid_in and ip_b >= 0
    if a_in_b and b_in_a:
        return "EQ"
    if a_in_b:
        return "TPP" if touch else "NTPP"
    if b_in_a:
        return "TPPi" if touch else "NTPPi"
    if a_mid_in or b_mid_in or ip_a > 0 or ip_b > 0:
        return "PO"
    if touch:
        return "EC"
    return "DC"


# the mask of each RCC8 basic, by the name the predicates return
_BASIC_MASK = {name: 1 << b for b, name in enumerate(RCC8.basic_names)}

# every |coordinate| below this bounds nx * x + ny * y, with |nx|, |ny|
# below 2 * _INT64_BOUND, under 2**62, and its sum with c under 2**63:
# int64 holds every projection exactly
_INT64_BOUND = 2 ** 30
# padded cells (tasks x vertices x edges) one projection block holds
_BLOCK_CELLS = 2 ** 15


def _decision(gap: int, b_out_a: int, a_out_b: int) -> str:
    """The convex rule on the signs, each -1, 0 or 1, of the widest gap
    between one region and the line of an edge of the other, of how far
    the farthest vertex of b lies past the lines of a's edges, and of a
    past b's.  A strict gap is DC, a gap of zero width EC; the interiors
    overlap otherwise, and a convex region lies in the closed (or open)
    other exactly when its vertices do."""
    if gap >= 0:
        return "DC" if gap else "EC"
    if a_out_b <= 0 and b_out_a <= 0:
        return "EQ"
    if a_out_b <= 0:
        return "NTPP" if a_out_b else "TPP"
    if b_out_a <= 0:
        return "NTPPi" if b_out_a else "TPPi"
    return "PO"


# the mask of a pair by the signs of the gaps of its two tasks and of
# their overshoots, indexed by the signs themselves: -1 picks the last entry
_DECIDE = np.array([[[[_BASIC_MASK[_decision(max(g, h), f, o)]
                       for o in (0, 1, -1)] for f in (0, 1, -1)]
                     for h in (0, 1, -1)] for g in (0, 1, -1)],
                   dtype=np.uint16)


def _blocks(size: np.ndarray):
    """(tasks, most edges, most vertices) per block of tasks whose padded
    cells, the block's length times its most edges times its most
    vertices, stay within ``_BLOCK_CELLS``; a task past the budget alone
    is a block of one.  ``size`` holds each task's edges and vertices in
    two rows.  Sorted by edges, then vertices, so that tasks of one size
    pad together."""
    count = size.shape[1]
    k, m = size.max(axis=1).tolist()
    if count * k * m <= _BLOCK_CELLS:
        return [(slice(None), k, m)]
    order = np.lexsort(size[::-1])
    ne, nv = size[:, order]
    # a task has at least 3 edges and 3 vertices
    window = _BLOCK_CELLS // 9
    blocks = []
    lo = 0
    while lo < count:
        span = slice(lo, lo + window)
        most = np.maximum.accumulate(nv[span])
        cells = np.arange(1, len(most) + 1) * ne[span] * most
        hi = lo + max(1, int(np.searchsorted(cells, _BLOCK_CELLS, "right")))
        blocks.append((order[lo:hi], int(ne[hi - 1]), int(most[hi - lo - 1])))
        lo = hi
    return blocks


def _convex_masks(regions: Sequence[Region], rows: np.ndarray,
                  cols: np.ndarray) -> np.ndarray:
    """The RCC8 mask of each pair (rows[p], cols[p]) of regions, by
    separating axes over all the pairs at once: the relation when both
    regions are convex, and meaningless otherwise.

    Per pair, one task projects b's vertices onto a's outward edge
    normals and one a's onto b's.  Two convex regions are apart exactly
    when one lies beyond the line of an edge of the other, and a convex
    region lies in another exactly when its vertices lie within the
    lines of all the other's edges: per task, the widest gap is the
    greatest over edges of the least over vertices of the projection
    past the edge's line, and the overshoot the greatest over both.
    Their signs decide the pair through ``_DECIDE``.  Tasks run in blocks
    of at most ``_BLOCK_CELLS`` padded cells, tasks on the last axis; a
    block of one task past it is split along its edges and vertices, with
    running extremes.  The arithmetic is int64 when every |coordinate| is
    below ``_INT64_BOUND``, exact Python ints otherwise.
    """
    pairs = len(rows)
    if not pairs:
        return np.empty(0, dtype=np.uint16)
    # one column per vertex of every region
    table = np.concatenate([r._array() for r in regions]).T
    size = np.array([len(r.ring) for r in regions])
    last = np.add.accumulate(size) - 1
    # the owner of the edges (row 0) and of the vertices (row 1) of each
    # task: task t < pairs puts b against a's edges, pairs + t a against b's
    tasks = np.concatenate((rows, cols, cols, rows)).reshape(2, 2 * pairs)
    size, last = size[tasks], last[tasks]
    start = last - size + 1
    # per task, its gap (row 0) and overshoot (row 1)
    found = np.empty((2, 2 * pairs), dtype=table.dtype)
    for sel, k, m in _blocks(size):
        # per task, the table columns of its edges (row 0) and of its
        # vertices (row 1), padded by repeating the last, which changes
        # no extreme: (row, column, task)
        picks = np.minimum(
            start[:, None, sel] + np.arange(max(k, m))[:, None],
            last[:, None, sel])
        nx, ny, c = table[2:].take(picks[0, :k], axis=1)
        x, y = table[:2].take(picks[1, :m], axis=1)
        count = x.shape[1]
        kstep = min(k, max(1, _BLOCK_CELLS // count))
        mstep = max(1, _BLOCK_CELLS // (count * kstep))
        gap = over = None
        for e in range(0, k, kstep):
            es = slice(e, e + kstep)
            least = most = None
            for v in range(0, m, mstep):
                vs = slice(v, v + mstep)
                proj = x[vs, None] * nx[None, es]
                proj += y[vs, None] * ny[None, es]
                lo = np.minimum.reduce(proj)
                hi = np.maximum.reduce(proj)
                least = lo if least is None else np.minimum(least, lo)
                most = hi if most is None else np.maximum(most, hi)
            widest = np.maximum.reduce(least + c[es])
            farthest = np.maximum.reduce(most + c[es])
            gap = widest if gap is None else np.maximum(gap, widest)
            over = farthest if over is None else np.maximum(over, farthest)
        found[0, sel], found[1, sel] = gap, over
    signs = np.sign(found).astype(np.intp, copy=False).reshape(4, pairs)
    return _DECIDE[signs[0], signs[1], signs[2], signs[3]]


_ONE_PAIR = (np.array([0]), np.array([1]))


def rcc8_relation(a: Region, b: Region) -> Relation:
    """The unique RCC8 basic relation holding between two regions; two
    convex ones go to the convex kernel as a scene of one pair."""
    if a.convex and b.convex:
        mask = int(_convex_masks([a, b], *_ONE_PAIR)[0])
    else:
        mask = _BASIC_MASK[_general_relation(a, b)]
    return Relation(RCC8, mask)


def _apart(regions: Sequence[Region]) -> np.ndarray:
    """:meth:`BoundingBox.disjoint` for every pair of regions at once, as
    a symmetric n-by-n boolean matrix."""
    corners = [(r.bbox.xmin, r.bbox.ymin, r.bbox.xmax, r.bbox.ymax)
               for r in regions]
    try:
        boxes = np.array(corners, dtype=np.int64)
    except OverflowError:  # past 64 bits, compare exact Python ints
        boxes = np.array(corners, dtype=object)
    xlo, ylo, xhi, yhi = boxes.T
    # below[i, j]: box i ends strictly before box j starts on some axis
    below = xhi[:, None] < xlo
    below |= yhi[:, None] < ylo
    return below | below.T


def scenario_from_regions(regions: Sequence[Region]) -> Network:
    """Complete basic RCC8 network of a region list.

    Pairs whose bounding boxes are apart (:func:`_apart`) are set to DC
    without running the exact predicates.  The others go to
    :func:`_convex_masks` together, and those with a non-convex region
    then to the general predicate one by one; their masks, and their
    converses, go in one write each.
    """
    if len(regions) < 2:
        raise GeometryError("a scenario needs at least two regions")
    ids = tuple(r.id for r in regions)
    if len(set(ids)) != len(ids):
        raise GeometryError("duplicate region ids")
    # every entry off the diagonal is written below
    matrix = np.full((len(ids),) * 2, RCC8.identity, dtype=np.uint16)
    net = Network._unchecked(RCC8, matrix, ids)
    apart = _apart(regions)
    # DC is its own converse, so one symmetric write keeps the invariant
    net.matrix[apart] = _BASIC_MASK["DC"]
    rows, cols = np.nonzero(~apart)
    upper = rows < cols
    rows, cols = rows[upper], cols[upper]
    masks = _convex_masks(regions, rows, cols)
    convex = np.array([r.convex for r in regions])
    for p in np.flatnonzero(~(convex[rows] & convex[cols])).tolist():
        a, b = regions[rows[p]], regions[cols[p]]
        masks[p] = _BASIC_MASK[_general_relation(a, b)]
    net.matrix[rows, cols] = masks
    net.matrix[cols, rows] = RCC8.conv_table[masks]
    return net


def hybrid_reconstitute(prime: Network, regions: Sequence[Region]) -> Network:
    """Rebuild the full network from a prime subnetwork plus geometry.

    Universal edges whose regions have disjoint bounding boxes are seeded
    with DC, then the a-closure completes the rest.  An inconsistency
    signals a corrupted prime network (or mismatched geometry).  The
    network must be over RCC8, the calculus the geometry decides.
    """
    from .reasoning import a_closure

    if prime.calculus is not RCC8:
        raise CalculusMismatchError(
            f"reconstitution needs an RCC8 network, not {prime.calculus.name}")
    by_id = {r.id: r for r in regions}
    if set(prime.labels) != set(by_id) or len(by_id) != len(regions):
        raise GeometryError("region ids do not match the network labels")
    seeded = prime.copy()
    apart = _apart([by_id[label] for label in prime.labels])
    seeded.matrix[apart & (seeded.matrix == RCC8.universal)] = \
        RCC8.parse("DC")
    res = a_closure(seeded)
    if not res.consistent:
        raise InconsistentNetworkError(
            "reconstitution hit an inconsistency; the prime network or "
            "geometry is corrupted")
    return res.network


# -- region generator -----------------------------------------------------


def _shrink(rect, rng, tight_side=None):
    """Random integer sub-rectangle; ``tight_side`` pins one edge so the
    child touches the parent's boundary there."""
    x1, y1, x2, y2 = rect
    w, h = x2 - x1, y2 - y1
    nw = rng.randint(max(2, w // 4), max(2, w - 2))
    nh = rng.randint(max(2, h // 4), max(2, h - 2))
    nw, nh = min(nw, w - 2), min(nh, h - 2)
    ox = rng.randint(1, w - nw - 1) if w - nw - 1 >= 1 else 1
    oy = rng.randint(1, h - nh - 1) if h - nh - 1 >= 1 else 1
    if tight_side == "left":
        ox = 0
    elif tight_side == "bottom":
        oy = 0
    return (x1 + ox, y1 + oy, x1 + ox + nw, y1 + oy + nh)


def _rect_ring(rect):
    x1, y1, x2, y2 = rect
    return [(x1, y1), (x2, y1), (x2, y2), (x1, y2)]


def _diamond_ring(rect):
    x1, y1, x2, y2 = rect
    cx2, cy2 = x1 + x2, y1 + y2  # doubled midpoints stay integral
    if cx2 % 2 or cy2 % 2:
        x2, y2 = x2 + (cx2 % 2), y2 + (cy2 % 2)
    cx, cy = (x1 + x2) // 2, (y1 + y2) // 2
    return [(cx, y1), (x2, cy), (cx, y2), (x1, cy)]


def _octagon_ring(rect, cut):
    x1, y1, x2, y2 = rect
    c = max(1, min(cut, (x2 - x1) // 3, (y2 - y1) // 3))
    return [(x1 + c, y1), (x2 - c, y1), (x2, y1 + c), (x2, y2 - c),
            (x2 - c, y2), (x1 + c, y2), (x1, y2 - c), (x1, y1 + c)]


def _spawn(rect, rng, odd: bool):
    """A region ring inside ``rect``; occasionally a non-rectangle."""
    if not odd:
        return _rect_ring(rect)
    x1, y1, x2, y2 = rect
    if x2 - x1 >= 6 and y2 - y1 >= 6 and rng.random() < 0.5:
        return _octagon_ring(rect, rng.randint(1, 3))
    if x2 - x1 >= 4 and y2 - y1 >= 4:
        return _diamond_ring(rect)
    return _rect_ring(rect)


def generate_regions(n: int, seed: int, profile: str = "mixed") -> list[Region]:
    """Deterministic synthetic regions for a given seed.

    ``scattered`` yields mostly DC/EC/PO pairs, ``nested`` containment
    trees (NTPP/TPP chains with DC/EC siblings), ``mixed`` blends both.
    """
    if n < 1:
        raise GeometryError("need at least one region")
    if profile not in ("scattered", "nested", "mixed"):
        raise GeometryError(f"unknown profile {profile!r}")
    rng = random.Random(seed)
    regions: list[Region] = []
    seen: set = set()
    counter = 0

    def add(ring) -> bool:
        # identical point sets would put EQ pairs into every scenario
        nonlocal counter
        key = frozenset(ring)
        if key in seen:
            return False
        seen.add(key)
        counter += 1
        regions.append(Region(f"r{counter}", ring))
        return True

    def scattered(count, origin, span):
        made = 0
        guard = 0
        placed = []
        while made < count:
            guard += 1
            if guard > 50 * count + 200:
                # deterministic fallback: a fresh grid far from everything
                size = 4
                gx = origin + span + 10 * made
                if add(_rect_ring((gx, origin - 20, gx + size,
                                   origin - 20 + size))):
                    made += 1
                continue
            size = rng.randint(4, max(5, span // 6))
            x = origin + rng.randint(0, span - size)
            y = origin + rng.randint(0, span - size)
            rect = (x, y, x + size, y + size)
            if rng.random() < 0.25 and placed:
                # snap next to a previous rectangle to manufacture EC
                px1, py1, px2, py2 = placed[rng.randrange(len(placed))]
                rect = (px2, py1, px2 + size, py1 + size)
            if add(_spawn(rect, rng, odd=rng.random() < 0.2)):
                placed.append(rect)
                made += 1

    def nested(count, rect):
        # containment tree with pairwise disjoint siblings, so the
        # pairwise relations stay in {DC, EC, TPP(i), NTPP(i)}
        nodes = [(rect, [])]
        made = 0
        stuck = 0
        while made < count:
            parent, siblings = nodes[rng.randrange(len(nodes))]
            if parent[2] - parent[0] < 6 or parent[3] - parent[1] < 6:
                parent, siblings = nodes[0]
            if stuck > 200:
                # fresh disjoint area below everything placed so far
                gx = rect[0] + 12 * made
                child = (gx, rect[1] - 20, gx + 8, rect[1] - 12)
                parent, siblings = None, None
                tight = False
            else:
                tight = rng.random() < 0.3
                side = rng.choice(["left", "bottom"]) if tight else None
                child = _shrink(parent, rng, tight_side=side)
                if any(child[0] < s[2] and s[0] < child[2]
                       and child[1] < s[3] and s[1] < child[3]
                       for s in siblings):
                    stuck += 1
                    continue
            odd = (not tight) and rng.random() < 0.2 \
                and child[2] - child[0] > 2 and child[3] - child[1] > 2
            if odd:
                # keep clear of the parent boundary so the shape stays NTPP
                child = (child[0] + 1, child[1] + 1,
                         max(child[0] + 3, child[2] - 1),
                         max(child[1] + 3, child[3] - 1))
            if add(_spawn(child, rng, odd=odd)):
                made += 1
                stuck = 0
                if siblings is not None:
                    siblings.append(child)
                nodes.append((child, []))
            else:
                stuck += 1

    span = 40 * max(4, int(n ** 0.5) + 2)
    if profile == "scattered":
        scattered(n, 0, span)
    elif profile == "nested":
        root = span * 4
        nested(n, (0, 0, root, root))
    else:
        half = n // 2
        if half:
            nested(half, (0, 0, span * 2, span * 2))
        scattered(n - half, span * 2 + 10, span)
    return regions


def regions_to_json(regions: Iterable[Region]) -> str:
    doc = {"regions": [{"id": r.id, "ring": [list(p) for p in r.ring]}
                       for r in regions]}
    return json.dumps(doc, indent=1)


def regions_from_json(text: str) -> list[Region]:
    try:
        doc = json.loads(text)
        return [Region(r["id"], r["ring"]) for r in doc["regions"]]
    except (KeyError, TypeError, ValueError, RecursionError) as e:
        raise GeometryError(f"bad region document: {e}")
