"""Exact polygon predicates, the region generator, and reconstitution."""

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
import convex_reference
from test_network import _loop_constraint_pairs
from util_instances import hull as _hull
from util_instances import hull_scene

from rcckit import RCC8, Network, geometry
from rcckit.errors import GeometryError, InconsistentNetworkError
from rcckit.geometry import (
    BoundingBox,
    Region,
    generate_regions,
    hybrid_reconstitute,
    rcc8_relation,
    regions_from_json,
    regions_to_json,
    scenario_from_regions,
    _apart,
    _convex_masks,
    _general_relation,
)
from rcckit.network import remove_constraint
from rcckit.reasoning import a_closure
from rcckit.redundancy import core_algorithm1


def square(id_, x, y, s):
    return Region(id_, [(x, y), (x + s, y), (x + s, y + s), (x, y + s)])


# one fixture per basic relation, mixing rectangles and other shapes
FIXTURES = [
    ("DC", square("a", 0, 0, 2), square("b", 10, 0, 2)),
    ("EC", square("a", 0, 0, 2), square("b", 2, 0, 2)),
    ("PO", square("a", 0, 0, 2), square("b", 1, 1, 2)),
    ("EQ", square("a", 0, 0, 2), square("b", 0, 0, 2)),
    ("TPP", square("a", 0, 2, 2), square("b", 0, 0, 10)),
    ("NTPP", square("a", 2, 2, 2), square("b", 0, 0, 10)),
    ("TPPi", square("a", 0, 0, 10), square("b", 0, 2, 2)),
    ("NTPPi", square("a", 0, 0, 10), square("b", 2, 2, 2)),
    # diamond inscribed in a square: vertices on the boundary, so TPP
    ("TPP", Region("a", [(1, 0), (2, 1), (1, 2), (0, 1)]),
     square("b", 0, 0, 2)),
    # diamond poking out of a square it partially overlaps
    ("PO", Region("a", [(3, 0), (6, 3), (3, 6), (0, 3)]),
     square("b", 0, 0, 3)),
    # triangle sharing one corner point with a square: EC
    ("EC", Region("a", [(2, 2), (4, 2), (4, 4)]), square("b", 0, 0, 2)),
    # concentric diamonds
    ("NTPP", Region("a", [(3, 2), (4, 3), (3, 4), (2, 3)]),
     Region("b", [(3, 0), (6, 3), (3, 6), (0, 3)])),
]


@pytest.mark.parametrize("name,a,b", FIXTURES)
def test_rcc8_relation_fixtures(name, a, b):
    assert str(rcc8_relation(a, b)) == name


@pytest.mark.parametrize("name,a,b", FIXTURES)
def test_rcc8_relation_converse_symmetry(name, a, b):
    got = rcc8_relation(a, b)
    assert rcc8_relation(b, a) == got.converse()


def _c_frame_pair():
    frame = Region("frame", [
        (0, 0), (12, 0), (12, 12), (7, 12), (7, 10), (10, 10), (10, 2),
        (2, 2), (2, 10), (5, 10), (5, 12), (0, 12)])
    return frame, Region("inner", [(2, 2), (10, 2), (10, 10), (2, 10)])


def test_c_frame_covering_boundary_is_ec():
    """A frame whose inner edge coincides with a square's boundary covers
    the boundary without covering the interior: EC, not containment."""
    frame, inner = _c_frame_pair()
    assert str(rcc8_relation(inner, frame)) == "EC"
    assert str(rcc8_relation(frame, inner)) == "EC"


def test_square_inscribed_in_diamond_is_tpp():
    # the diamond's edges pass exactly through the square's corners
    a = square("a", 0, 0, 2)
    b = Region("b", [(1, -1), (3, 1), (1, 3), (-1, 1)])
    assert str(rcc8_relation(a, b)) == "TPP"


def test_vertex_touching_cross_counts_as_po():
    # one diamond corner sits on each of two square corners; the only
    # boundary crossings happen at vertices, yet the interiors overlap
    a = square("a", 0, 0, 2)
    b = Region("b", [(2, 0), (4, 2), (2, 4), (0, 2)])
    assert str(rcc8_relation(a, b)) == "PO"


def _kernel(a, b) -> str:
    """The convex kernel's relation for one pair of convex regions."""
    mask = _convex_masks([a, b], np.array([0]), np.array([1]))[0]
    return RCC8.format(int(mask))


def test_convex_predicate_matches_general_on_squares():
    rng = random.Random(2)
    for _ in range(300):
        x1, y1 = rng.randint(0, 8), rng.randint(0, 8)
        x2, y2 = rng.randint(0, 8), rng.randint(0, 8)
        a = square("a", x1, y1, rng.randint(1, 6))
        b = square("b", x2, y2, rng.randint(1, 6))
        general = _general_relation(a, b)
        assert _kernel(a, b) == general == str(rcc8_relation(a, b))
        assert convex_reference.convex_relation(a, b) == general


def _with_collinear(ring, picks):
    """The ring with collinear vertices: edge i, whose lattice points
    split it into g steps, gets a vertex after step picks[i] mod g
    (none when that is 0)."""
    out = []
    for i, p in enumerate(ring):
        out.append(p)
        q = ring[(i + 1) % len(ring)]
        g = math.gcd(q[0] - p[0], q[1] - p[1])
        k = picks[i % len(picks)] % g if picks else 0
        if k:
            out.append((p[0] + (q[0] - p[0]) // g * k,
                        p[1] + (q[1] - p[1]) // g * k))
    return out


_GRID = st.tuples(st.integers(0, 6), st.integers(0, 6))
_PICKS = st.lists(st.integers(0, 3), max_size=6)


@st.composite
def _convex_rings(draw):
    ring = _hull(draw(st.lists(_GRID, min_size=3, max_size=7, unique=True)))
    assume(len(ring) >= 3)
    return ring


@st.composite
def _convex_pairs(draw):
    """Two convex regions on a small grid, with collinear vertices in
    either ring.  The second is drawn freely, or is the first again (EQ,
    maybe with other collinear vertices), a hull of some of the first's
    vertices and grid points inside it (containment, often tangential),
    the first shifted (shared edges, touching vertices, collinear
    overlaps), or nested in it by scaling (NTPP or TPP).  Either may come
    first."""
    ra = draw(_convex_rings())
    kind = draw(st.sampled_from(["free", "same", "inside", "shifted",
                                 "scaled"]))
    if kind == "free":
        rb = draw(_convex_rings())
    elif kind == "same":
        rb = ra
    elif kind == "inside":
        keep = draw(st.lists(st.sampled_from(ra)))
        inner = [p for p in draw(st.lists(_GRID, max_size=6))
                 if all(geometry._orient(ra[i], ra[(i + 1) % len(ra)], p) >= 0
                        for i in range(len(ra)))]
        rb = _hull(keep + inner)
        if len(rb) < 3:
            rb = ra
    elif kind == "shifted":
        dx, dy = draw(st.tuples(st.integers(-4, 4), st.integers(-4, 4)))
        rb = [(x + dx, y + dy) for x, y in ra]
    else:
        # K + 2g lies in 3K for each g in a convex K, strictly inside when
        # g is: here K is the first scaled by 3, g one of K's vertices or
        # the centroid of three of them
        k = [(3 * x, 3 * y) for x, y in ra]
        g = draw(st.sampled_from(k + [tuple(map(sum, zip(*ra[:3])))]))
        rb = [(x + 2 * g[0], y + 2 * g[1]) for x, y in k]
        ra = [(3 * x, 3 * y) for x, y in k]
    a = Region("a", _with_collinear(ra, draw(_PICKS)))
    b = Region("b", _with_collinear(rb, draw(_PICKS)))
    return (b, a) if draw(st.booleans()) else (a, b)


@settings(max_examples=400, deadline=None)
@given(_convex_pairs())
def test_convex_predicate_matches_general_predicates(pair):
    a, b = pair
    assert a.convex and b.convex
    general = _general_relation(a, b)
    assert _kernel(a, b) == general == convex_reference.convex_relation(a, b)


# -- the convex kernel against the old pair predicate -------------------
# ``convex_reference`` keeps the per-pair predicate the kernel replaced;
# every scenario must come out byte for byte the same.


def _same_scenario(regs):
    got = scenario_from_regions(regs)
    want = convex_reference.scenario(regs)
    assert got.matrix.tobytes() == want.matrix.tobytes()
    return got


@pytest.mark.parametrize("n", [10, 50, 200, 400])
@pytest.mark.parametrize("profile", ["scattered", "nested", "mixed"])
def test_kernel_matches_the_old_predicate_on_generated_scenes(profile, n):
    for seed in (1, 2, 3):
        _same_scenario(generate_regions(n, seed, profile))


@pytest.mark.parametrize("seed", range(6))
def test_kernel_matches_the_old_predicate_on_hull_scenes(seed):
    regs = hull_scene(seed)
    assert all(r.convex and 12 <= len(r.ring) <= 30 for r in regs)
    net = _same_scenario(regs)
    upper = net.matrix[np.triu_indices(net.n, k=1)]
    # rich in PO, with the touching relations too
    assert (upper == RCC8.parse("PO")).sum() >= 20
    assert {"EC", "TPPi"} <= {RCC8.format(int(m)) for m in upper}


def test_kernel_matches_the_old_predicate_on_mixed_scenes():
    rng = random.Random(5)
    kinds = ["rect", "diamond", "octagon", "ell", "frame"]
    for trial in range(6):
        regs = [Region(f"m{i}", _shape(rng.choice(kinds), rng.randint(0, 12),
                                       rng.randint(0, 12),
                                       rng.randint(1, 3)).ring)
                for i in range(14)]
        regs += hull_scene(trial, cols=2, rows=1)
        # shrunk hulls among the small shapes
        shrunk = [_hull([(x // 8, y // 8) for x, y in r.ring])
                  for r in hull_scene(trial + 50, cols=2, rows=2)]
        regs += [Region(f"s{i}", ring) for i, ring in enumerate(shrunk)
                 if len(ring) >= 3]
        assert any(r.convex for r in regs) and not all(r.convex for r in regs)
        _same_scenario(regs)


def _corner_box(id_, x, y, s):
    """The s-by-s box whose top right corner is (x, y)."""
    return Region(id_, [(x - s, y - s), (x, y - s), (x, y), (x - s, y)])


@pytest.mark.parametrize("top, dtype", [
    (2 ** 30 - 1, np.int64),  # the largest |coordinate| int64 takes
    (2 ** 30, object),
    (2 ** 63 + 5, object),
])
def test_kernel_is_exact_at_the_dtype_boundary(top, dtype):
    b = top
    box = _corner_box("a", b, b, 4)
    # long slanted edges: normals near 2 * top, projections near 4 * top**2
    tri = Region("t", [(-b, -b), (b, -b + 1), (b - 1, b)])
    cases = [
        ("EC", box, _corner_box("b", b - 4, b, 3)),
        ("DC", box, _corner_box("b", b - 5, b, 3)),
        ("TPP", _corner_box("b", b, b - 1, 2), box),
        ("NTPP", _corner_box("b", b - 1, b - 1, 2), box),
        ("EQ", box, Region("b", box.ring[2:] + box.ring[:2])),
        ("EQ", box, Region("b", [(b - 4, b - 4), (b - 2, b - 4)]
                                + list(box.ring[1:]))),
        # a shared slanted edge, then a unit off it
        ("EC", tri, Region("u", [(-b, -b), (b - 1, b), (-b, b)])),
        ("DC", tri, Region("u", [(-b, -b + 2), (b - 3, b), (-b, b)])),
        ("PO", tri, Region("u", [(0, -1), (b - 1, b), (-b, b)])),
        ("TPP", Region("u", [(-b, -b), (b - 2, -b + 1), (b - 2, b - 3)]), tri),
        ("NTPP", Region("u", [(-b + 3, -b + 2), (b - 3, -b + 3),
                              (b - 4, b - 6)]), tri),
    ]
    for name, x, y in cases:
        # the pair's table, as the kernel joins it
        assert np.concatenate([x._array(), y._array()]).dtype == dtype
        for p, q, want in ((x, y, name), (y, x, RCC8.format(
                RCC8.converse_mask(RCC8.parse(name))))):
            assert _kernel(p, q) == want, (name, p.ring, q.ring)
            assert _general_relation(p, q) == want
            assert convex_reference.convex_relation(p, q) == want
    regs = [x for _, *pair in cases for x in pair]
    regs = [Region(f"r{i}", r.ring) for i, r in enumerate(regs)]
    _same_scenario(regs)


def _lattice_polygon(reach):
    """A convex lattice polygon with one edge along each primitive vector
    (x, y), |x|, |y| <= reach, in angle order."""
    steps = sorted(((x, y) for x in range(-reach, reach + 1)
                    for y in range(-reach, reach + 1) if math.gcd(x, y) == 1),
                   key=lambda v: math.atan2(v[1], v[0]))
    ring, x, y = [], 0, 0
    for dx, dy in steps:
        ring.append((x, y))
        x, y = x + dx, y + dy
    return ring


@pytest.mark.parametrize("cells", [9, 64, 600])
def test_kernel_blocks_and_splits_match_the_old_predicate(monkeypatch, cells):
    # small budgets: many sorted blocks, and pairs split along vertices
    # and, past ``cells`` edges, along edges too
    mid = Region("mid", [(x + 50, y + 105) for x, y in _lattice_polygon(5)])
    regs = hull_scene(2, cols=2, rows=2) + [mid]
    regs += [Region(f"b{i}", r.ring) for i, r in
             enumerate(generate_regions(20, 4, "mixed"))]
    assert len(mid.ring) == 80 and (~_apart(regs)[-21]).sum() > 5
    want = convex_reference.scenario(regs)
    monkeypatch.setattr(geometry, "_BLOCK_CELLS", cells)
    assert scenario_from_regions(regs).matrix.tobytes() \
        == want.matrix.tobytes()


def test_kernel_finds_a_gap_in_any_chunk_of_edges(monkeypatch):
    # a centrally symmetric 32-gon against copies of itself shifted by
    # each vertex-to-antipode vector (touching) and one unit further (a
    # gap): the separating edge lies in a different chunk of 9 edges for
    # each direction
    base = Region("o", _lattice_polygon(3))
    ring, half = base.ring, len(base.ring) // 2
    shifts = []
    for i in range(len(ring)):
        (x0, y0), (x1, y1) = ring[i], ring[(i + half) % len(ring)]
        dx, dy = x1 - x0, y1 - y0
        shifts += [(dx, dy), (dx + (dx > 0) - (dx < 0),
                              dy + (dy > 0) - (dy < 0))]
    copies = [Region(f"c{i}", [(x + dx, y + dy) for x, y in ring])
              for i, (dx, dy) in enumerate(shifts)]
    want = [convex_reference.convex_relation(base, c) for c in copies]
    assert {"EC", "DC"} <= set(want)
    monkeypatch.setattr(geometry, "_BLOCK_CELLS", 9)
    masks = _convex_masks([base, *copies], np.zeros(len(copies), dtype=int),
                          np.arange(1, len(copies) + 1))
    assert [RCC8.format(int(m)) for m in masks] == want


def test_kernel_memory_is_bounded_by_its_blocks():
    import tracemalloc

    big = Region("big", _lattice_polygon(32))
    assert big.convex and len(big.ring) > 2500
    box = big.bbox
    rng = random.Random(9)
    regs = [big]
    for i in range(600):
        s = rng.randint(4, 400)
        x = rng.randint(box.xmin - s, box.xmax)
        y = rng.randint(box.ymin - s, box.ymax)
        regs.append(_corner_box(f"s{i}", x + s, y + s, s))
    net = scenario_from_regions(regs)
    want = convex_reference.scenario(regs)
    assert net.matrix.tobytes() == want.matrix.tobytes()
    names = {RCC8.format(int(m)) for m in net.matrix[0, 1:]}
    assert {"DC", "PO", "NTPPi"} <= names
    # the kernel again on the same pairs, its tables made
    rows, cols = np.nonzero(np.triu(~_apart(regs), k=1))
    assert (rows == 0).sum() == 600
    tracemalloc.start()
    try:
        masks = _convex_masks(regs, rows, cols)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (masks == net.matrix[rows, cols]).all()
    # blocks of 2**15 cells take about 1.3 MB here; one padded batch would
    # hold 1200 tasks x 2592**2 cells, and one int64 per vertex of the big
    # ring per pair alone takes 12 MB
    assert peak < 2e6


# -- the general predicate before contact came from the probe walk -------
# Kept as the reference: a separate touch loop over every pair of edges,
# a probe that reports only the sides of the pieces, and scanline
# crossings computed by each caller.


def _old_segments_touch(p, q, a, b):
    orient, on = geometry._orient, geometry._on_segment
    d1, d2 = orient(a, b, p), orient(a, b, q)
    d3, d4 = orient(p, q, a), orient(p, q, b)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) \
            and d1 != 0 and d2 != 0 and d3 != 0 and d4 != 0:
        return True
    return on(p, a, b) or on(q, a, b) or on(a, p, q) or on(b, p, q)


def _old_split_params(p, q, ring):
    orient, on, param = (geometry._orient, geometry._on_segment,
                         geometry._param_on)
    ts = set()
    m = len(ring)
    for i in range(m):
        a, b = ring[i], ring[(i + 1) % m]
        d1, d2 = orient(a, b, p), orient(a, b, q)
        d3, d4 = orient(p, q, a), orient(p, q, b)
        if d1 == 0 and d2 == 0:
            for r in (a, b):
                t = param(p, q, r)
                if 0 < t < 1:
                    ts.add(t)
            continue
        if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) \
                and d1 != 0 and d2 != 0 and d3 != 0 and d4 != 0:
            ts.add(Fraction(d1, d1 - d2))
            continue
        for r in (a, b):
            if on(r, p, q):
                t = param(p, q, r)
                if 0 < t < 1:
                    ts.add(t)
    return sorted(ts)


def _old_point_side(pt, ring):
    x, y = pt
    m = len(ring)
    for i in range(m):
        if geometry._on_segment(pt, ring[i], ring[(i + 1) % m]):
            return 0
    crossings = 0
    for i in range(m):
        a, b = ring[i], ring[(i + 1) % m]
        if (a[1] > y) == (b[1] > y):
            continue
        if x < a[0] + Fraction(y - a[1], b[1] - a[1]) * (b[0] - a[0]):
            crossings += 1
    return 1 if crossings % 2 else -1


def _old_interior_point(ring):
    ys = sorted({p[1] for p in ring})
    y = Fraction(ys[0] + ys[1], 2)
    xs = []
    m = len(ring)
    for i in range(m):
        a, b = ring[i], ring[(i + 1) % m]
        if (a[1] > y) == (b[1] > y):
            continue
        xs.append(a[0] + Fraction(y - a[1], b[1] - a[1]) * (b[0] - a[0]))
    xs.sort()
    return (Fraction(xs[0] + xs[1], 2), y)


def _old_boundary_probe(ring_a, ring_b):
    some_in = some_out = False
    for i in range(len(ring_a)):
        p, q = ring_a[i], ring_a[(i + 1) % len(ring_a)]
        ts = [Fraction(0)] + _old_split_params(p, q, ring_b) + [Fraction(1)]
        for k in range(len(ts) - 1):
            t = (ts[k] + ts[k + 1]) / 2
            mid = (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))
            side = _old_point_side(mid, ring_b)
            if side > 0:
                some_in = True
            elif side < 0:
                some_out = True
            if some_in and some_out:
                return True, True
    return some_in, some_out


def _old_general_relation(a, b):
    ra, rb = a.ring, b.ring
    touch = any(_old_segments_touch(ra[i], ra[(i + 1) % len(ra)],
                                    rb[j], rb[(j + 1) % len(rb)])
                for i in range(len(ra)) for j in range(len(rb)))
    a_mid_in, a_mid_out = _old_boundary_probe(ra, rb)
    b_mid_in, b_mid_out = _old_boundary_probe(rb, ra)
    ip_a = _old_point_side(_old_interior_point(ra), rb)
    ip_b = _old_point_side(_old_interior_point(rb), ra)
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
    return "EC" if touch else "DC"


def _assert_general_matches_old(a, b):
    for x, y in ((a, b), (b, a)):
        assert _general_relation(x, y) == _old_general_relation(x, y)
        assert x.interior_point() == _old_interior_point(x.ring)


@pytest.mark.parametrize("name,a,b", FIXTURES + [("EC", *_c_frame_pair())])
def test_general_predicate_matches_the_old_walk_on_fixtures(name, a, b):
    _assert_general_matches_old(a, b)
    assert _general_relation(a, b) == name


def _region_or_reject(id_, ring):
    try:
        return Region(id_, ring)
    except GeometryError:
        assume(False)


@st.composite
def _star_rings(draw):
    """A ring through one vertex per direction around a grid point, at
    random radii: star-shaped, and non-convex when the radii vary."""
    cx, cy = draw(_GRID)
    k = draw(st.integers(4, 9))
    radii = draw(st.lists(st.integers(1, 5), min_size=k, max_size=k))
    ring = [(cx + round(r * math.cos(2 * math.pi * i / k)),
             cy + round(r * math.sin(2 * math.pi * i / k)))
            for i, r in enumerate(radii)]
    return list(dict.fromkeys(ring))


@st.composite
def _any_ring(draw, kinds):
    kind = draw(st.sampled_from(kinds))
    if kind == "star":
        return draw(_star_rings())
    if kind in ("ell", "frame"):
        return list(_shape(kind, *draw(_PLACED)).ring)
    if kind == "triangle":
        return draw(st.lists(_GRID, min_size=3, max_size=3, unique=True))
    return draw(_convex_rings())


@st.composite
def _nonconvex_pairs(draw):
    """Two regions on a small grid, at least one of them non-convex: star
    rings, L shapes and C-frames, against any shape, a shifted copy
    (shared edges, collinear overlaps) or the same ring.  Either may come
    first."""
    ra = draw(_any_ring(["star", "ell", "frame"]))
    kind = draw(st.sampled_from(["free", "shifted", "same"]))
    if kind == "free":
        rb = draw(_any_ring(["star", "ell", "frame", "triangle", "hull"]))
    elif kind == "shifted":
        dx, dy = draw(st.tuples(st.integers(-4, 4), st.integers(-4, 4)))
        rb = [(x + dx, y + dy) for x, y in ra]
    else:
        rb = ra
    a, b = _region_or_reject("a", ra), _region_or_reject("b", rb)
    assume(not (a.convex and b.convex))
    return (b, a) if draw(st.booleans()) else (a, b)


@settings(max_examples=400, deadline=None)
@given(_nonconvex_pairs())
def test_general_predicate_matches_the_old_walk(pair):
    _assert_general_matches_old(*pair)


def test_convex_predicate_uses_integers_only(monkeypatch):
    def no_fraction(*args):
        raise AssertionError("Fraction used on a convex pair")

    monkeypatch.setattr(geometry, "Fraction", no_fraction)
    for name, a, b in FIXTURES:
        assert str(rcc8_relation(a, b)) == name
    regs = generate_regions(30, 3, "mixed")
    assert all(r.convex for r in regs)
    scenario_from_regions(regs)


def test_convexity_and_axes():
    def normals(region):
        table = region._array()
        assert table.shape == (len(region.ring), 5)
        # c puts every vertex of the edge on its line
        x, y, nx, ny, c = table.T
        assert not (nx * x + ny * y + c).any()
        assert not (nx * np.roll(x, -1) + ny * np.roll(y, -1) + c).any()
        return list(zip(nx.tolist(), ny.tolist()))

    rect = square("r", 0, 0, 4)
    diamond = Region("d", [(2, 0), (4, 2), (2, 4), (0, 2)])
    octagon = Region("o", [(1, 0), (3, 0), (4, 1), (4, 3), (3, 4), (1, 4),
                           (0, 3), (0, 1)])
    # collinear vertices repeat their edge's normal
    flat = Region("f", [(0, 0), (2, 0), (4, 0), (4, 4), (0, 4)])
    # outward, one per edge, in ring order
    assert normals(rect) == [(0, -4), (4, 0), (0, 4), (-4, 0)]
    assert normals(diamond) == [(2, -2), (2, 2), (-2, 2), (-2, -2)]
    assert len(set(normals(octagon))) == 8
    assert flat.convex
    assert normals(flat) == [(0, -2), (0, -2), (4, 0), (0, 4), (-4, 0)]
    ell = Region("l", [(0, 0), (4, 0), (4, 2), (2, 2), (2, 4), (0, 4)])
    assert not ell.convex
    assert rect._array() is rect._array()  # made once


def test_star_ring_that_never_turns_right_is_rejected():
    # a pentagram turns left at every vertex, but twice around
    star = [(round(20 * math.cos(4 * math.pi * i / 5)),
             round(20 * math.sin(4 * math.pi * i / 5))) for i in range(5)]
    with pytest.raises(GeometryError):
        Region("x", star)


def _shape(kind, x, y, s):
    """A region of the given kind in the box (x, y)..(x + 3s, y + 3s)."""
    t = 3 * s
    if kind == "rect":
        ring = [(x, y), (x + t, y), (x + t, y + 2 * s), (x, y + 2 * s)]
    elif kind == "diamond":
        ring = [(x + s, y), (x + t, y + s), (x + s, y + 2 * s), (x - s, y + s)]
    elif kind == "octagon":
        ring = [(x + s, y), (x + 2 * s, y), (x + t, y + s), (x + t, y + 2 * s),
                (x + 2 * s, y + t), (x + s, y + t), (x, y + 2 * s), (x, y + s)]
    elif kind == "ell":
        ring = [(x, y), (x + t, y), (x + t, y + s), (x + s, y + s),
                (x + s, y + t), (x, y + t)]
    else:  # a C-frame open to the right
        ring = [(x, y), (x + t, y), (x + t, y + s), (x + s, y + s),
                (x + s, y + 2 * s), (x + t, y + 2 * s), (x + t, y + t),
                (x, y + t)]
    return Region(kind, ring)


_PLACED = st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(1, 2))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["rect", "diamond", "octagon", "hull"]),
       st.sampled_from(["rect", "diamond", "octagon", "hull", "ell", "frame"]),
       _PLACED, _PLACED, _convex_rings(), _convex_rings())
def test_converse_symmetry_property(kind_a, kind_b, pa, pb, hull_a, hull_b):
    a = Region("a", hull_a) if kind_a == "hull" else _shape(kind_a, *pa)
    b = Region("b", hull_b) if kind_b == "hull" else _shape(kind_b, *pb)
    assert b.convex == (kind_b not in ("ell", "frame"))
    assert rcc8_relation(b, a) == rcc8_relation(a, b).converse()


def test_src_does_not_import_the_benchmark():
    src = Path(geometry.__file__).parent
    for path in src.glob("*.py"):
        text = path.read_text()
        assert "perfbench" not in text and "import reference" not in text, \
            path.name


def test_degenerate_polygons_rejected():
    with pytest.raises(GeometryError):
        Region("x", [(0, 0), (1, 1)])
    with pytest.raises(GeometryError):
        Region("x", [(0, 0), (2, 0), (4, 0)])  # zero area
    with pytest.raises(GeometryError):
        Region("x", [(0, 0), (2, 2), (2, 0), (0, 2)])  # bowtie
    with pytest.raises(GeometryError):
        Region("x", [(0, 0), (2, 0), (2, 2), (0, 0+0)])  # repeated vertex


@pytest.mark.parametrize("ring", [
    [(0, 0), (1.5, 0), (0, 2)],
    [(0, 0), (2.0, 0), (0, 2)],
    [(0, 0), (2, 0), (0, "2")],
    [(0, 0), (2, 0), (0, True)],
    [(0, 0, 0), (2, 0), (0, 2)],
], ids=["fraction", "integral-float", "string", "bool", "triple"])
def test_non_integer_coordinates_rejected(ring):
    with pytest.raises(GeometryError):
        Region("x", ring)
    with pytest.raises(GeometryError):
        regions_from_json(json.dumps({"regions": [{"id": "x", "ring": ring}]}))


def test_clockwise_input_is_normalized():
    cw = Region("x", [(0, 0), (0, 2), (2, 2), (2, 0)])
    ccw = square("x", 0, 0, 2)
    assert str(rcc8_relation(cw, ccw)) == "EQ"


def test_bounding_box_prefilter_soundness():
    a = BoundingBox.of_ring([(0, 0), (2, 2)])
    b = BoundingBox.of_ring([(3, 0), (5, 2)])
    assert a.disjoint(b)
    touching = BoundingBox.of_ring([(2, 0), (4, 2)])
    assert not a.disjoint(touching)  # touching boxes may hide EC
    regs = generate_regions(25, 5, "scattered")
    net = scenario_from_regions(regs)
    dc = RCC8.parse("DC")
    n = len(regs)
    disjoint = [(i, j) for i in range(n) for j in range(i + 1, n)
                if regs[i].bbox.disjoint(regs[j].bbox)]
    assert disjoint
    for i, j in disjoint:
        assert rcc8_relation(regs[i], regs[j]).mask == dc == net.mask(i, j)


def _loop_scenario(regions):
    """The per-pair loop that built a scenario before ``_apart``, kept as
    the reference; also the pairs it ran the exact predicates on."""
    net = Network(RCC8, len(regions), [r.id for r in regions])
    exact = []
    for i in range(len(regions)):
        for j in range(i + 1, len(regions)):
            if regions[i].bbox.disjoint(regions[j].bbox):
                net.set_mask(i, j, RCC8.parse("DC"))
            else:
                exact.append((i, j))
                net.set_mask(i, j, rcc8_relation(regions[i], regions[j]).mask)
    return net, exact


def _loop_reconstitute(prime, regions):
    """The per-pair DC seeding loop of ``hybrid_reconstitute`` before
    ``_apart``, then the same closure, kept as the reference."""
    by_id = {r.id: r for r in regions}
    seeded = prime.copy()
    for i in range(prime.n):
        bi = by_id[prime.labels[i]].bbox
        for j in range(i + 1, prime.n):
            if seeded.mask(i, j) == RCC8.universal \
                    and bi.disjoint(by_id[prime.labels[j]].bbox):
                seeded.set_mask(i, j, RCC8.parse("DC"))
    return a_closure(seeded).network


@pytest.mark.parametrize("profile", ["nested", "mixed", "scattered"])
def test_pair_helpers_match_the_pair_loops(monkeypatch, profile):
    regs = generate_regions(60, 7, profile)
    want, exact = _loop_scenario(regs)
    calls = []
    convex_masks = geometry._convex_masks

    def recording(regions, rows, cols):
        assert regions is regs
        calls.extend(zip(rows.tolist(), cols.tolist()))
        return convex_masks(regions, rows, cols)

    monkeypatch.setattr(geometry, "_convex_masks", recording)
    scenario = scenario_from_regions(regs)
    monkeypatch.undo()
    # the same network, and the convex kernel on the same pairs in order
    assert scenario == want and calls == exact
    if profile == "scattered":
        assert len(exact) < 0.5 * 60 * 59 / 2  # most pairs are apart
    prime = core_algorithm1(scenario).network
    assert list(prime.constraint_pairs()) \
        == list(_loop_constraint_pairs(prime))
    # widen the kept DC edges between apart boxes: they are not universal,
    # so neither engine may seed them
    widened = prime.copy()
    apart = [(i, j) for i, j in prime.constraint_pairs()
             if regs[i].bbox.disjoint(regs[j].bbox)]
    for i, j in apart:
        widened[i, j] = "DC|EC"
    shuffled = random.Random(3).sample(regs, len(regs))
    for net in (prime, widened):
        assert hybrid_reconstitute(net, shuffled) \
            == _loop_reconstitute(net, shuffled)


def _box_pairs_agree(regs):
    apart = _apart(regs)
    assert apart.shape == (len(regs), len(regs)) and apart.dtype == bool
    return all(apart[i, j] == regs[i].bbox.disjoint(regs[j].bbox)
               for i in range(len(regs)) for j in range(len(regs)))


def test_apart_is_bounding_box_disjointness_on_every_pair():
    a = square("a", 0, 0, 2)
    touching = [square("edge", 2, 0, 2), square("corner", 2, 2, 2),
                square("top", 0, 2, 2)]
    others = [square("inside", 0, 0, 1), square("overlap", 1, 1, 2),
              square("right", 5, 0, 1), square("above", 0, 5, 1),
              square("diagonal", 3, 3, 1), square("left", -4, 0, 1)]
    regs = [a, *touching, *others]
    assert _box_pairs_agree(regs)
    assert not _apart(regs)[0, 1:4].any()  # touching boxes are not apart
    assert _box_pairs_agree([a, square("b", 10, 0, 2)])
    assert _box_pairs_agree([a, touching[0]])
    for profile in ("nested", "mixed", "scattered"):
        assert _box_pairs_agree(generate_regions(60, 7, profile))
    # coordinates past 64 bits stay exact
    big = 2 ** 70
    assert _box_pairs_agree([square("p", big, 0, 2), square("q", big + 2, 0, 2),
                             square("r", big + 3, 0, 2), square("s", -big, 0, 1)])


def test_scenario_from_regions_validations():
    with pytest.raises(GeometryError):
        scenario_from_regions([square("a", 0, 0, 2)])
    with pytest.raises(GeometryError):
        scenario_from_regions([square("a", 0, 0, 2), square("a", 5, 0, 2)])


def test_scenarios_are_consistent_basic_networks():
    for profile in ("scattered", "nested", "mixed"):
        regs = generate_regions(15, 11, profile)
        net = scenario_from_regions(regs)
        assert net.is_scenario
        assert a_closure(net).consistent
        assert net.labels == tuple(r.id for r in regs)


def test_generator_determinism_and_profiles():
    a = generate_regions(12, 7, "nested")
    b = generate_regions(12, 7, "nested")
    assert [r.ring for r in a] == [r.ring for r in b]
    assert len(generate_regions(1, 0, "mixed")) == 1
    with pytest.raises(GeometryError):
        generate_regions(3, 0, "weird")
    # nested profile produces containment chains
    net = scenario_from_regions(generate_regions(10, 3, "nested"))
    rels = {str(net.entry(i, j)) for i, j in net.constraint_pairs()}
    assert rels & {"NTPP", "NTPPi", "TPP", "TPPi"}


def test_hybrid_reconstitute_round_trip():
    regs = generate_regions(12, 23, "mixed")
    scenario = scenario_from_regions(regs)
    rep = core_algorithm1(scenario)
    rebuilt = hybrid_reconstitute(rep.network, regs)
    assert rebuilt == scenario


def test_hybrid_reconstitute_without_bbox_seeds_is_plain_closure():
    regs = generate_regions(6, 29, "nested")  # nested: no disjoint boxes
    scenario = scenario_from_regions(regs)
    prime = core_algorithm1(scenario).network
    assert hybrid_reconstitute(prime, regs) \
        == a_closure(prime).network


def test_hybrid_reconstitute_detects_corruption():
    regs = generate_regions(10, 31, "nested")
    scenario = scenario_from_regions(regs)
    prime = core_algorithm1(scenario).network
    # pick an edge whose value is forced by the rest of the prime network,
    # then flip it to a contradicting basic
    choice = None
    for i, j in prime.constraint_pairs():
        rest = a_closure(remove_constraint(prime, i, j)).network
        outside = RCC8.universal & ~rest.mask(i, j)
        if outside:
            basic = outside & -outside
            choice = (i, j, basic)
            break
    assert choice is not None
    i, j, basic = choice
    corrupted = prime.copy()
    corrupted.set_mask(i, j, basic)
    with pytest.raises(InconsistentNetworkError):
        hybrid_reconstitute(corrupted, regs)


def test_hybrid_reconstitute_label_mismatch():
    regs = generate_regions(5, 37, "scattered")
    scenario = scenario_from_regions(regs)
    with pytest.raises(GeometryError):
        hybrid_reconstitute(remove_constraint(scenario, 0, 1), regs[:-1])


def test_regions_json_round_trip():
    regs = generate_regions(8, 41, "mixed")
    text = regions_to_json(regs)
    back = regions_from_json(text)
    assert [r.id for r in back] == [r.id for r in regs]
    assert [r.ring for r in back] == [r.ring for r in regs]
    with pytest.raises(GeometryError):
        regions_from_json("{}")
    with pytest.raises(GeometryError):
        regions_from_json("not json")
