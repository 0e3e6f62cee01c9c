"""Random test-instance pipeline shared by the property and acceptance tests.

Instances come from geometry: random regions give a consistent complete
basic scenario (the regions witness it), which is then weakened edge by
edge to the smallest subalgebra member containing the scenario basic plus
a few random extras.  Consistency survives weakening by construction.
"""

import itertools
import math
import random

from hypothesis import strategies as st

from rcckit import RCC5, RCC8
from rcckit.algebra import Subalgebra
from rcckit.geometry import (Region, _orient, generate_regions,
                             scenario_from_regions)
from rcckit.network import Network, to_rcc5
from rcckit.reasoning import a_closure, all_different, detect_tractable
from rcckit.redundancy import weaken_scenario

_PROFILES = ("nested", "mixed", "scattered")


def random_scenario(n: int, seed: int, rcc5: bool = False) -> Network:
    rng = random.Random(seed)
    regs = generate_regions(n, seed, rng.choice(_PROFILES))
    sc = scenario_from_regions(regs)
    return to_rcc5(sc) if rcc5 else sc


@st.composite
def networks(draw):
    """A 3-12-variable RCC5 or RCC8 network whose entries are universal,
    basic or any nonempty relation; half of them contain every basic of a
    random scenario, so large consistent networks occur too."""
    rcc5 = draw(st.booleans())
    n = draw(st.integers(3, 12))
    scenario = draw(st.booleans())
    if scenario:
        net = random_scenario(n, draw(st.integers(0, 999)), rcc5=rcc5)
    else:
        net = Network(RCC5 if rcc5 else RCC8, n)
    star = net.calculus.universal
    entry = (st.just(star) | st.integers(1, star)
             | st.sampled_from([1 << b for b in range(net.calculus.size)]))
    for i, j in itertools.combinations(range(n), 2):
        net.set_mask(i, j, draw(entry) | (net.mask(i, j) if scenario else 0))
    return net


def all_different_instances(sub: Subalgebra, count: int, seed: int,
                            n_lo: int = 4, n_hi: int = 8):
    """Consistent all-different networks over ``sub``, sizes in [n_lo, n_hi].

    Small instances stay tight (one extra basic per edge at most) so the
    scenario-set oracle can enumerate them quickly.
    """
    rng = random.Random(seed)
    made = 0
    tries = 0
    while made < count:
        tries += 1
        n = rng.randint(n_lo, n_hi)
        sc = random_scenario(n, seed + 7919 * tries, rcc5=sub.calculus is RCC5)
        net = weaken_scenario(sc, sub, rng, max_extra=1 if n <= 6 else 2)
        if not all_different(net):
            continue
        made += 1
        yield net


def path_consistent_instances(sub: Subalgebra, count: int, seed: int,
                              n_lo: int = 3, n_hi: int = 5):
    """Path-consistent consistent networks over ``sub`` (closures of the
    all-different instances)."""
    for net in all_different_instances(sub, count, seed, n_lo, n_hi):
        res = a_closure(net)
        assert res.consistent
        yield res.network


def intractable_network(n: int, seed: int) -> Network:
    """An RCC8 scenario with up to two random basics added to each entry,
    redrawn until no built-in tractable subalgebra holds it."""
    rng = random.Random(seed)
    sc = random_scenario(n, seed)
    while True:
        net = sc.copy()
        for i in range(n):
            for j in range(i + 1, n):
                mask = net.mask(i, j)
                for _ in range(rng.randint(0, 2)):
                    mask |= 1 << rng.randrange(RCC8.size)
                net.set_mask(i, j, mask)
        if detect_tractable(net) is None:
            return net


def hull(points):
    """Counterclockwise convex hull without collinear vertices."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and _orient(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    return chain(pts) + chain(reversed(pts))


def _round_hull(rng, cx, cy, r, k, cut=None):
    """Hull of k jittered integer points on the circle (cx, cy, r).  With
    ``cut`` = (X, side), only the points with side * (x - X) < 0 stay,
    plus the two lattice points where the circle, rounded in, meets the
    line x = X: the hull has an edge on that line."""
    pts = []
    for i in range(k):
        t = 2 * math.pi * (i + 0.45 * rng.random()) / k
        p = (cx + round(r * math.cos(t)), cy + round(r * math.sin(t)))
        if cut is None or cut[1] * (p[0] - cut[0]) < 0:
            pts.append(p)
    if cut is not None:
        dy = math.isqrt(r * r - (cut[0] - cx) ** 2)
        pts += [(cut[0], cy - dy), (cut[0], cy + dy)]
    return hull(pts)


def hull_scene(seed: int, cols: int = 4, rows: int = 2) -> list[Region]:
    """Convex regions of about 13 to 29 vertices, as in GIS data, rich in
    PO: a jittered grid of round hulls that overlap their neighbours,
    where cells 2c and 2c + 1 of a row are cut along a shared vertical
    line (EC), the left one holding a hull cut along that line from
    inside (TPP) and a small one inside (NTPP), and one more hull on each
    inner grid corner.  The relations are whatever the rounding makes
    them; no two rings are equal."""
    rng = random.Random(seed)
    rings = []

    def add(cx, cy, r, cut=None):
        ring = _round_hull(rng, cx, cy, r, 16 + len(rings) * 7 % 17, cut)
        if len(ring) >= 3 and ring not in rings:
            rings.append(ring)

    for row in range(rows):
        for col in range(cols):
            cx = col * 100 + rng.randint(-8, 8)
            cy = row * 100 + rng.randint(-8, 8)
            line = col // 2 * 200 + 50
            if col % 2 == 0 and col + 1 < cols:
                add(cx, cy, rng.randint(66, 74), (line, 1))
                rc = rng.randint(16, 22)
                add(line - rc // 2, cy + rng.randint(-6, 6), rc, (line, 1))
                add(cx - 20, cy + rng.randint(-8, 8), rng.randint(14, 20))
            elif col % 2:
                add(cx, cy, rng.randint(66, 74), (line, -1))
            else:
                add(cx, cy, rng.randint(66, 74))
    for row in range(rows - 1):
        for col in range(cols - 1):
            add(col * 100 + 50 + rng.randint(-8, 8),
                row * 100 + 50 + rng.randint(-8, 8), rng.randint(58, 60))
    return [Region(f"h{i + 1}", ring) for i, ring in enumerate(rings)]
