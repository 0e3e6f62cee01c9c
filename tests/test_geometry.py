"""Exact polygon predicates, the region generator, and reconstitution."""

import json
import random

import pytest

from rcckit import RCC8
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


def test_c_frame_covering_boundary_is_ec():
    """A frame whose inner edge coincides with a square's boundary covers
    the boundary without covering the interior: EC, not containment."""
    frame = Region("frame", [
        (0, 0), (12, 0), (12, 12), (7, 12), (7, 10), (10, 10), (10, 2),
        (2, 2), (2, 10), (5, 10), (5, 12), (0, 12)])
    inner = Region("inner", [(2, 2), (10, 2), (10, 10), (2, 10)])
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


def test_rect_fast_path_matches_general_predicates():
    rng = random.Random(2)
    for _ in range(300):
        x1, y1 = rng.randint(0, 8), rng.randint(0, 8)
        x2, y2 = rng.randint(0, 8), rng.randint(0, 8)
        a = square("a", x1, y1, rng.randint(1, 6))
        b = square("b", x2, y2, rng.randint(1, 6))
        fast = rcc8_relation(a, b)
        general = _general_relation(a, b)
        assert str(fast) == general


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
