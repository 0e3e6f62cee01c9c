"""The convex predicate as it stood before the scene-level numpy kernel,
kept as the reference the tests compare ``geometry._convex_masks`` with:
per pair, in pure Python, each region's reduced and deduplicated edge
normals with its extent along each (computed once per region), the other
region's extent along them, a strict gap DC, a gap of zero width EC, and
containment by extents."""

import math
import weakref

from rcckit.calculus import RCC8
from rcckit.geometry import _BASIC_MASK, _apart, _edges, _general_relation
from rcckit.network import Network


def _axis(p, q) -> tuple[int, int]:
    """Normal of edge pq reduced by its gcd, signed so that x > 0 or
    x == 0 < y: parallel edges share one axis."""
    nx, ny = q[1] - p[1], p[0] - q[0]
    g = math.gcd(nx, ny)
    nx, ny = nx // g, ny // g
    if nx < 0 or (nx == 0 and ny < 0):
        nx, ny = -nx, -ny
    return nx, ny


def _extent(ring, axis) -> tuple[int, int]:
    """Least and greatest projection of the ring's vertices onto axis."""
    nx, ny = axis
    proj = [nx * x + ny * y for x, y in ring]
    return min(proj), max(proj)


_EXTENTS = weakref.WeakKeyDictionary()


def extents(region) -> dict[tuple[int, int], tuple[int, int]]:
    """The ring's extent along each of its axes, computed once."""
    if region not in _EXTENTS:
        axes = dict.fromkeys(_axis(a, b) for a, b in _edges(region.ring))
        _EXTENTS[region] = {axis: _extent(region.ring, axis) for axis in axes}
    return _EXTENTS[region]


def _along(ext, other, out: dict):
    """Put other's extent along each axis of ext into ``out``.  "DC" at
    the first strict gap; otherwise "EC" if some gap has zero width."""
    own = extents(other)
    gap = None
    for axis, (lo, hi) in ext.items():
        lo_o, hi_o = out[axis] = own.get(axis) or _extent(other.ring, axis)
        if hi_o < lo or hi < lo_o:
            return "DC"
        if hi_o == lo or hi == lo_o:
            gap = "EC"
    return gap


def _inside(on, ext) -> tuple[bool, bool]:
    """Do the extents ``on`` lie in ext's closed, and in its open,
    intervals along every axis?"""
    closed = strict = True
    for axis, (lo, hi) in ext.items():
        lo_o, hi_o = on[axis]
        closed = closed and lo <= lo_o and hi_o <= hi
        strict = strict and lo < lo_o and hi_o < hi
    return closed, strict


def convex_relation(a, b) -> str:
    """The RCC8 basic name between two convex regions."""
    ext_a, ext_b = extents(a), extents(b)
    b_on_a, a_on_b = {}, {}
    gap = _along(ext_a, b, b_on_a)
    if gap != "DC":
        gap = _along(ext_b, a, a_on_b) or gap
    if gap:
        return gap
    a_in_b, a_strict = _inside(a_on_b, ext_b)
    b_in_a, b_strict = _inside(b_on_a, ext_a)
    if a_in_b and b_in_a:
        return "EQ"
    if a_in_b:
        return "NTPP" if a_strict else "TPP"
    if b_in_a:
        return "NTPPi" if b_strict else "TPPi"
    return "PO"


def relation(a, b) -> str:
    """The old pair predicate: convex pairs by separating axes, the rest
    by the general predicate."""
    if a.convex and b.convex:
        return convex_relation(a, b)
    return _general_relation(a, b)


def scenario(regions) -> Network:
    """The scenario built pair by pair with the old predicate, box-apart
    pairs set to DC."""
    net = Network(RCC8, len(regions), [r.id for r in regions])
    apart = _apart(regions)
    for i in range(len(regions)):
        for j in range(i + 1, len(regions)):
            name = "DC" if apart[i, j] else relation(regions[i], regions[j])
            net.set_mask(i, j, _BASIC_MASK[name])
    return net
