"""Convex integer polygon scenes for the gis-polygons workload.

A scene has two layers.  The base layer is a jittered grid of convex
polygons.  In each row, cells 0-1 and 2-3 pair up along a shared vertical
line, which makes the pair EC; each left cell of a pair also holds a child
that touches that line from inside (TPP) and a child strictly inside it
(NTPP).  The overlay layer puts one polygon on each inner grid corner, where
it overlaps its four base neighbours and the overlay neighbours (PO).

Vertex counts cycle through 16..32 by polygon index, so every seed gives
the same mix of polygon sizes and only positions and radii depend on it.
"""

from __future__ import annotations

import math
import random

from reference import convex_hull, convex_relation

CELL = 100


def _polygon(rng, cx, cy, r, k, clip=None):
    """Hull of k jittered integer points on a circle.  ``clip`` = (X, side)
    keeps the points with side * (x - X) < 0 and adds the two points where
    the circle meets x = X, so the hull has a vertical edge on that line."""
    phase = rng.random() * 2 * math.pi
    pts = []
    for i in range(k):
        t = phase + 2 * math.pi * (i + 0.4 * rng.random()) / k
        x, y = cx + round(r * math.cos(t)), cy + round(r * math.sin(t))
        if clip is None or clip[1] * (x - clip[0]) < 0:
            pts.append((x, y))
    if clip is not None:
        dy = math.isqrt(r * r - (clip[0] - cx) ** 2)
        pts += [(clip[0], cy - dy), (clip[0], cy + dy)]
    return convex_hull(pts)


def scene(cols: int, rows: int, seed: int) -> list[list[tuple[int, int]]]:
    """Counterclockwise rings of one scene; no two are equal.

    A draw whose layout the rounding broke is replaced by the next draw of
    the same seed, so the result still depends on the seed alone."""
    for attempt in range(20):
        rings = _draw(cols, rows, random.Random(f"{seed}/{attempt}"))
        if rings is not None:
            return rings
    raise ValueError(f"no valid scene for seed {seed}")


def _draw(cols, rows, rng):
    counter = iter(range(1 << 30))
    rings = []
    want = []  # (child index, parent index, relation) the layout promises

    def add(cx, cy, r, clip=None):
        rings.append(_polygon(rng, cx, cy, r,
                              16 + 7 * next(counter) % 17, clip))
        return len(rings) - 1

    def jitter(v):
        return v + rng.randint(-8, 8)

    for row in range(rows):
        for col in range(cols):
            cx, cy = jitter(col * CELL), jitter(row * CELL)
            radius = rng.randint(66, 74)
            line = (col - col % 2) * CELL + CELL // 2
            if col % 2 == 0 and col + 1 < cols:
                parent = add(cx, cy, radius, (line, 1))
                rc = rng.randint(16, 22)
                tpp = add(line - round(0.55 * rc), cy + rng.randint(-6, 6),
                          rc, (line, 1))
                ntpp = add(cx - 20, jitter(cy), rng.randint(14, 20))
                want += [(tpp, parent, "TPP"), (ntpp, parent, "NTPP"),
                         (parent, parent + 3, "EC")]
            elif col % 2 == 1:
                add(cx, cy, radius, (line, -1))
            else:
                add(cx, cy, radius)
    for row in range(rows - 1):
        for col in range(cols - 1):
            add(jitter(col * CELL + CELL // 2), jitter(row * CELL + CELL // 2),
                rng.randint(58, 60))
    for a, b, rel in want:
        if convex_relation(rings[a], rings[b]) != rel:
            return None
    if len({frozenset(r) for r in rings}) != len(rings):
        return None
    return rings
