"""Composition-table fidelity and relation-algebra behavior.

The golden tables here were transcribed from the source material a second
time, independently of the ones embedded in the package, so a copy-paste
slip in either place shows up as a cell mismatch.
"""

import pytest

from rcckit import RCC5, RCC8, Relation, compose, converse, ct_path
from rcckit.calculus import get_calculus, verify_relation_algebra
from rcckit.errors import CalculusMismatchError, EmptyPathError

# second transcription, row by row, cells in basic order
GOLD5_ORDER = ["DR", "PO", "PP", "PPi", "EQ"]
GOLD5 = {
    "DR": ["*", "DR|PO|PP", "DR|PO|PP", "DR", "DR"],
    "PO": ["DR|PO|PPi", "*", "PO|PP", "DR|PO|PPi", "PO"],
    "PP": ["DR", "DR|PO|PP", "PP", "*", "PP"],
    "PPi": ["DR|PO|PPi", "PO|PPi", "PO|PP|PPi|EQ", "PPi", "PPi"],
    "EQ": ["DR", "PO", "PP", "PPi", "EQ"],
}

GOLD8_ORDER = ["DC", "EC", "PO", "TPP", "NTPP", "TPPi", "NTPPi", "EQ"]
GOLD8 = {
    "DC": ["*", "DC|EC|PO|TPP|NTPP", "DC|EC|PO|TPP|NTPP",
           "DC|EC|PO|TPP|NTPP", "DC|EC|PO|TPP|NTPP", "DC", "DC", "DC"],
    "EC": ["DC|EC|PO|TPPi|NTPPi", "DC|EC|PO|TPP|TPPi|EQ",
           "DC|EC|PO|TPP|NTPP", "EC|PO|TPP|NTPP", "PO|TPP|NTPP",
           "DC|EC", "DC", "EC"],
    "PO": ["DC|EC|PO|TPPi|NTPPi", "DC|EC|PO|TPPi|NTPPi", "*",
           "PO|TPP|NTPP", "PO|TPP|NTPP", "DC|EC|PO|TPPi|NTPPi",
           "DC|EC|PO|TPPi|NTPPi", "PO"],
    "TPP": ["DC", "DC|EC", "DC|EC|PO|TPP|NTPP", "TPP|NTPP", "NTPP",
            "DC|EC|PO|TPP|TPPi|EQ", "DC|EC|PO|TPPi|NTPPi", "TPP"],
    "NTPP": ["DC", "DC", "DC|EC|PO|TPP|NTPP", "NTPP", "NTPP",
             "DC|EC|PO|TPP|NTPP", "*", "NTPP"],
    "TPPi": ["DC|EC|PO|TPPi|NTPPi", "EC|PO|TPPi|NTPPi", "PO|TPPi|NTPPi",
             "PO|TPP|TPPi|EQ", "PO|TPP|NTPP", "TPPi|NTPPi", "NTPPi",
             "TPPi"],
    "NTPPi": ["DC|EC|PO|TPPi|NTPPi", "PO|TPPi|NTPPi", "PO|TPPi|NTPPi",
              "PO|TPPi|NTPPi", "PO|TPP|NTPP|TPPi|NTPPi|EQ", "NTPPi",
              "NTPPi", "NTPPi"],
    "EQ": ["DC", "EC", "PO", "TPP", "NTPP", "TPPi", "NTPPi", "EQ"],
}


@pytest.mark.parametrize("calc,gold,order", [
    (RCC5, GOLD5, GOLD5_ORDER),
    (RCC8, GOLD8, GOLD8_ORDER),
])
def test_tables_match_gold_cell_for_cell(calc, gold, order):
    for a in order:
        for bi, b in enumerate(order):
            got = calc.compose_masks(calc.parse(a), calc.parse(b))
            assert got == calc.parse(gold[a][bi]), f"{a} . {b}"


def test_basic_relation_order_is_fixed():
    assert RCC5.basic_names == ("DR", "PO", "PP", "PPi", "EQ")
    assert RCC8.basic_names == ("DC", "EC", "PO", "TPP", "NTPP",
                                "TPPi", "NTPPi", "EQ")


def test_compose_examples():
    assert str(compose(RCC5.relation("DR"), RCC5.relation("PP"))) \
        == "DR|PO|PP"
    assert str(compose(RCC5.relation("EQ"), RCC5.relation("PO"))) == "PO"
    assert str(compose(RCC8.relation("EC"), RCC8.relation("EC"))) \
        == "DC|EC|PO|TPP|TPPi|EQ"
    # union of the table cells DR.PP and PO.PP
    assert str(compose(RCC5.relation("DR|PO"), RCC5.relation("PP"))) \
        == "DR|PO|PP"
    assert compose(RCC5.relation("0"), RCC5.relation("PP")).is_empty


def test_compose_calculus_mismatch():
    with pytest.raises(CalculusMismatchError):
        compose(RCC5.relation("PP"), RCC8.relation("TPP"))


def test_converse_examples():
    assert str(converse(RCC5.relation("PP"))) == "PPi"
    assert str(converse(RCC5.relation("DR|PO"))) == "DR|PO"
    assert converse(RCC8.relation("*")).is_universal
    for calc in (RCC5, RCC8):
        for mask in range(calc.universal + 1):
            r = Relation(calc, mask)
            assert converse(converse(r)) == r


def test_ct_path_examples():
    pp = RCC5.relation("PP")
    assert str(ct_path([pp, pp])) == "PP"
    assert ct_path([pp, RCC5.relation("PPi")]).is_universal
    eq = RCC5.relation("EQ")
    assert ct_path([eq, eq, eq]) == eq
    with pytest.raises(EmptyPathError):
        ct_path([])


def test_ct_path_associativity_any_grouping():
    rels = [RCC8.relation(m) for m in (0b1001, 0b0110, 0b1110, 0b0011)]
    folded = ct_path(rels)
    grouped = compose(compose(rels[0], compose(rels[1], rels[2])), rels[3])
    assert folded == grouped


@pytest.mark.parametrize("calc", [RCC5, RCC8])
def test_verify_relation_algebra_passes(calc):
    rep = verify_relation_algebra(calc)
    assert rep.passed, rep.failures
    assert rep.triples_checked == (1 << calc.size) ** 3


def test_cycle_law_spot_instance():
    # R = PO, S = PO, T = DR: all three conditions of the cycle law agree
    r = s = RCC5.parse("PO")
    t = RCC5.parse("DR")
    c1 = RCC5.compose_masks(r, s) & t != 0
    c2 = RCC5.compose_masks(RCC5.converse_mask(r), t) & s != 0
    c3 = RCC5.compose_masks(t, RCC5.converse_mask(s)) & r != 0
    assert c1 == c2 == c3


def test_po_and_dr_absorb_in_rcc5():
    po, dr = RCC5.parse("PO"), RCC5.parse("DR")
    for mask in range(1, RCC5.universal + 1):
        assert po & RCC5.compose_masks(po, mask)
        assert po & RCC5.compose_masks(mask, po)
        assert dr & RCC5.compose_masks(dr, mask)
        assert dr & RCC5.compose_masks(mask, dr)


@pytest.mark.parametrize("calc", [RCC5, RCC8])
def test_basic_with_converse_covers_overlap_core(calc):
    for i in range(calc.size):
        basic = 1 << i
        if basic == calc.identity:
            continue
        comp = calc.compose_masks(basic, calc.converse_mask(basic))
        assert calc.overlap_core & ~comp == 0, calc.basic_names[i]


@pytest.mark.parametrize("calc", [RCC5, RCC8])
def test_compose_distributes_over_union(calc):
    import numpy as np

    comp = calc.comp_table
    n = 1 << calc.size
    for r in range(n):
        assert np.array_equal(comp[r | np.arange(n)], comp[r] | comp)


@pytest.mark.parametrize("calc", [RCC5, RCC8])
def test_universal_absorbs_nonempty(calc):
    """* . r = r . * = * for every nonempty r.  Algorithm 1's Q pass relies
    on it to drop the k = i and k = j terms, and so does the argument that
    Simple and SimpleExt agree."""
    star = calc.universal
    for mask in range(1, star + 1):
        assert calc.compose_masks(star, mask) == star
        assert calc.compose_masks(mask, star) == star


@pytest.mark.parametrize("calc,name", [(RCC5, "DR"), (RCC8, "DC")])
def test_disjoint_composes_with_itself_to_universal(calc, name):
    """r . s = * whenever r and s both hold ``disjoint``: the a-closure
    skips those terms.  It is DC (DR), the first of the two basics that
    are their own converse with a universal square; PO is the other."""
    d = calc.disjoint
    assert d == calc.parse(name)
    assert [b for b in calc.basic_names
            if converse(calc.relation(b)) == calc.relation(b)
            and compose(calc.relation(b), calc.relation(b)).is_universal
            ] == [name, "PO"]
    assert all(calc.compose_masks(r, s) == calc.universal
               for r in range(d, calc.universal + 1) if r & d
               for s in range(d, calc.universal + 1) if s & d)


def test_relation_set_operations():
    a = RCC5.relation("DR|PP")
    b = RCC5.relation("PO|PP")
    assert str(a & b) == "PP"
    assert str(a | b) == "DR|PO|PP"
    assert str(~RCC5.relation("PP")) == "DR|PO|PPi|EQ"
    assert b.is_subset(RCC5.relation("*"))
    assert not RCC5.relation("*").is_subset(b)
    assert "PP" in a and "PO" not in a


def test_parse_and_format_round_trip():
    for calc in (RCC5, RCC8):
        for mask in range(calc.universal + 1):
            assert calc.parse(calc.format(mask)) == mask
    assert RCC5.parse("*") == RCC5.universal
    assert RCC5.parse("0") == 0
    with pytest.raises(ValueError):
        RCC5.parse("TPP")  # RCC8 name, case-sensitive vocabulary
    with pytest.raises(ValueError):
        RCC8.parse("tpp")


def test_get_calculus():
    assert get_calculus("rcc5") is RCC5
    assert get_calculus("RCC8") is RCC8
    with pytest.raises(ValueError):
        get_calculus("IA")


def test_calculus_pickles_to_singleton():
    import pickle

    assert pickle.loads(pickle.dumps(RCC8)) is RCC8
    r = Relation(RCC5, 5)
    assert pickle.loads(pickle.dumps(r)) == r
