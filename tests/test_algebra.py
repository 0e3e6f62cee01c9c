"""Subalgebra machinery against the known closure and maximal lists."""

import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcckit import RCC5, RCC8, Relation, algebra
from rcckit.algebra import (
    Subalgebra,
    _maximal_cliques,
    bhat,
    by_name,
    closure,
    d5_14,
    d5_20,
    d8_41,
    d8_64,
    h5,
    helly_check,
    is_distributive,
    maximal_distributive,
)

BASIC5 = ["DR", "PO", "PP", "PPi", "EQ"]
BASIC8 = ["DC", "EC", "PO", "TPP", "NTPP", "TPPi", "NTPPi", "EQ"]

BHAT5_EXTRA = ["PO|PP", "PO|PPi", "PO|PP|PPi|EQ",
               "DR|PO|PP", "DR|PO|PPi", "DR|PO", "*"]
D5_14_EXTRA = ["PP|EQ", "PPi|EQ"]
D5_20_EXTRA = ["PO|EQ", "PO|PP|EQ", "PO|PP|PPi", "PO|PPi|EQ",
               "DR|PO|PP|PPi", "DR|PO|PPi|EQ", "DR|PO|EQ", "DR|PO|PP|EQ"]

BHAT8_EXTRA = [
    "PO|TPP", "PO|TPPi", "PO|TPP|NTPP", "PO|TPPi|NTPPi",
    "PO|TPP|TPPi|EQ", "PO|TPP|NTPP|TPPi|EQ", "PO|TPP|TPPi|NTPPi|EQ",
    "PO|TPP|NTPP|TPPi|NTPPi|EQ",
    "TPP|NTPP", "TPPi|NTPPi",
    "EC|PO", "EC|PO|TPP", "EC|PO|TPPi", "EC|PO|TPP|NTPP",
    "EC|PO|TPPi|NTPPi", "EC|PO|TPP|TPPi|EQ", "EC|PO|TPP|NTPP|TPPi|EQ",
    "EC|PO|TPP|TPPi|NTPPi|EQ", "EC|PO|TPP|NTPP|TPPi|NTPPi|EQ",
    "DC|EC", "DC|EC|PO", "DC|EC|PO|TPP", "DC|EC|PO|TPPi",
    "DC|EC|PO|TPP|NTPP", "DC|EC|PO|TPPi|NTPPi", "DC|EC|PO|TPP|TPPi|EQ",
    "DC|EC|PO|TPP|NTPP|TPPi|EQ", "DC|EC|PO|TPP|TPPi|NTPPi|EQ", "*",
]
D8_41_EXTRA = ["TPP|EQ", "TPP|NTPP|EQ", "TPPi|EQ", "TPPi|NTPPi|EQ"]
D8_64_EXTRA = [
    "PO|EQ", "PO|TPP|EQ", "PO|TPPi|EQ", "PO|TPP|TPPi",
    "PO|TPP|NTPP|EQ", "PO|TPPi|NTPPi|EQ", "PO|TPP|TPPi|NTPPi",
    "PO|TPP|NTPP|TPPi", "PO|TPP|NTPP|TPPi|NTPPi",
    "EC|PO|EQ", "EC|PO|TPP|EQ", "EC|PO|TPPi|EQ", "EC|PO|TPPi|NTPPi|EQ",
    "EC|PO|TPP|NTPP|EQ", "EC|PO|TPP|TPPi", "EC|PO|TPP|TPPi|NTPPi",
    "EC|PO|TPP|NTPP|TPPi", "EC|PO|TPP|NTPP|TPPi|NTPPi",
    "DC|EC|PO|EQ", "DC|EC|PO|TPP|EQ", "DC|EC|PO|TPPi|EQ",
    "DC|EC|PO|TPP|TPPi", "DC|EC|PO|TPPi|NTPPi|EQ",
    "DC|EC|PO|TPP|NTPP|EQ", "DC|EC|PO|TPP|NTPP|TPPi",
    "DC|EC|PO|TPP|TPPi|NTPPi", "DC|EC|PO|TPP|NTPP|TPPi|NTPPi",
]


def _masks(calc, texts):
    return {calc.parse(t) for t in texts}


def test_closure_of_basics_rcc5():
    sub = closure(RCC5, BASIC5)
    assert len(sub) == 12
    assert sub.members == _masks(RCC5, BASIC5 + BHAT5_EXTRA)
    assert sub.closed and sub.distributive and sub.contains_all_basic


def test_closure_of_basics_rcc8():
    sub = closure(RCC8, BASIC8)
    assert len(sub) == 37
    assert sub.members == _masks(RCC8, BASIC8 + BHAT8_EXTRA)
    assert sub.closed and sub.distributive


def test_closure_of_eq_is_fixed_point():
    sub = closure(RCC5, ["EQ"])
    assert sub.members == {RCC5.identity}


def test_closure_excludes_empty_relation():
    sub = closure(RCC5, ["DR", "PP"])
    assert 0 not in sub.members
    # DR & PP is empty and must not have been added
    assert RCC5.parse("DR") in sub.members


@pytest.mark.parametrize("sub_fn,calc,expected_extra,size", [
    (d5_14, RCC5, D5_14_EXTRA, 14),
    (d5_20, RCC5, D5_20_EXTRA, 20),
    (d8_41, RCC8, D8_41_EXTRA, 41),
    (d8_64, RCC8, D8_64_EXTRA, 64),
])
def test_maximal_distributive_member_for_member(sub_fn, calc, expected_extra,
                                                size):
    sub = sub_fn()
    base = BASIC5 + BHAT5_EXTRA if calc is RCC5 else BASIC8 + BHAT8_EXTRA
    assert len(sub) == size
    assert sub.members == _masks(calc, base + expected_extra)
    assert sub.closed and sub.distributive and sub.tractable


def test_maximal_distributive_returns_exactly_two_each():
    five = maximal_distributive(RCC5)
    eight = maximal_distributive(RCC8)
    assert [len(s) for s in five] == [14, 20]
    assert [len(s) for s in eight] == [41, 64]


def test_maximal_pairs_incomparable_and_contain_bhat():
    for small, large, base in ((d5_14(), d5_20(), bhat(RCC5)),
                               (d8_41(), d8_64(), bhat(RCC8))):
        assert base.members <= small.members
        assert base.members <= large.members
        assert not small.members <= large.members
        assert not large.members <= small.members


def test_is_distributive_examples():
    assert is_distributive(RCC5, bhat(RCC5).members)
    assert is_distributive(RCC8, d8_41().members)
    res = is_distributive(RCC5, bhat(RCC5).members | {RCC5.parse("DR|PP")})
    assert not res.holds
    r, s, t = res.witness
    # demo 02 prints this witness
    assert (str(r), str(s), str(t)) == ("PO", "DR|PO", "DR|PP")
    # the witness triple really does violate one of the identities
    lhs = r.compose(s & t)
    assert not (s & t).is_empty
    assert lhs != (r.compose(s) & r.compose(t)) \
        or (s & t).compose(r) != (s.compose(r) & t.compose(r))


def _loop_witness(calc, members):
    """is_distributive's witness by a plain triple loop: the first (R, S,
    T) of sorted members that breaks R.(S&T) = R.S & R.T, failing that
    the first in (S, T, R) order that breaks (S&T).R = S.R & T.R."""
    arr, comp = sorted(members), calc.compose_masks
    for r in arr:
        for s in arr:
            for t in arr:
                if s & t and comp(r, s & t) != comp(r, s) & comp(r, t):
                    return r, s, t
    for s in arr:
        for t in arr:
            for r in arr:
                if s & t and comp(s & t, r) != comp(s, r) & comp(t, r):
                    return r, s, t
    return None


@st.composite
def _member_sets(draw):
    calc = draw(st.sampled_from([RCC5, RCC8]))
    masks = st.integers(1, calc.universal)
    if draw(st.booleans()):
        # mostly inside a distributive subalgebra, so that some sets pass
        # and some fail only the second identity
        big = d5_20() if calc is RCC5 else d8_64()
        masks = st.one_of(st.sampled_from(big.sorted_masks()), masks)
    members = draw(st.sets(masks, min_size=1, max_size=12))
    if draw(st.booleans()):
        # conversing every member swaps the two identities
        members = {calc.converse_mask(m) for m in members}
    return calc, members


@settings(max_examples=300, deadline=None)
@given(_member_sets(), st.sampled_from([1, 7, algebra._BATCH_TRIPLES]))
def test_is_distributive_matches_a_triple_loop(calc_members, batch):
    calc, members = calc_members
    with mock.patch.object(algebra, "_BATCH_TRIPLES", batch):
        res = is_distributive(calc, members)
    want = _loop_witness(calc, members)
    assert res.holds == (want is None)
    if want is not None:
        r, s, t = res.witness
        assert (r.mask, s.mask, t.mask) == want
        assert not (s & t).is_empty
        assert (r.compose(s & t) != r.compose(s) & r.compose(t)
                or (s & t).compose(r) != s.compose(r) & t.compose(r))


@pytest.mark.parametrize("batch", [1, algebra._BATCH_TRIPLES])
@pytest.mark.parametrize("calc,witness", [
    # each fails only (S&T).R = S.R & T.R, and in the RCC8 one a later
    # R holds the first witness in (S, T, R) order
    (RCC5, ["PO|EQ", "DR|PPi", "DR|PO|PP|EQ"]),
    (RCC8, ["DC|NTPPi|EQ", "EC|TPP|TPPi", "DC|EC|TPPi|EQ"]),
    # conversing every member of the RCC5 set swaps the identities
    (RCC5, ["PO|EQ", "DR|PP", "DR|PO|PPi|EQ"]),
], ids=["RCC5", "RCC8", "RCC5-converse"])
def test_is_distributive_witness_order(calc, witness, batch):
    masks = {calc.parse(name) for name in witness}
    with mock.patch.object(algebra, "_BATCH_TRIPLES", batch):
        res = is_distributive(calc, masks)
    assert [str(w) for w in res.witness] == witness
    assert tuple(w.mask for w in res.witness) == _loop_witness(calc, masks)


@lru_cache(maxsize=None)
def _pairwise_maximal(calc):
    """The search checking every candidate set whole: each extension of
    Bhat by one relation, then by each pair of the survivors."""
    base = bhat(calc).members
    extras = [m for m in range(1, calc.universal + 1) if m not in base]
    d_set = [a for a in extras if is_distributive(calc, base | {a})]
    adj = {a: set() for a in d_set}
    for i, a in enumerate(d_set):
        for b in d_set[i + 1:]:
            if is_distributive(calc, base | {a, b}):
                adj[a].add(b)
                adj[b].add(a)
    out = [Subalgebra(calc, base | clique,
                      name=f"D{calc.size}_{len(base | clique)}")
           for clique in _maximal_cliques(d_set, adj)]
    out.sort(key=lambda s: (len(s), s.sorted_masks()))
    return [(s.name, s.sorted_masks()) for s in out]


@pytest.mark.parametrize("batch", [algebra._BATCH_TRIPLES, 5000])
@pytest.mark.parametrize("calc", [RCC5, RCC8], ids=["RCC5", "RCC8"])
def test_maximal_distributive_matches_the_pairwise_search(calc, batch):
    with mock.patch.object(algebra, "_BATCH_TRIPLES", batch):
        got = maximal_distributive(calc)
    assert [(s.name, s.sorted_masks()) for s in got] \
        == _pairwise_maximal(calc)


def test_maximal_distributive_checks_only_its_results_whole(monkeypatch):
    bhat(RCC8)  # derived, and checked, before counting
    calls = []
    real = algebra.is_distributive

    def counting(calc, members):
        calls.append(len(members))
        return real(calc, members)

    monkeypatch.setattr(algebra, "is_distributive", counting)
    subs = maximal_distributive(RCC8)
    assert sorted(calls) == [len(s) for s in subs] == [41, 64]


def test_helly_examples():
    assert helly_check(d5_20())
    res = helly_check(RCC5, ["PO|PP", "DR|PP", "DR|PO|PPi"])
    assert not res.holds
    masks = {w.mask for w in res.witness}
    assert masks == _masks(RCC5, ["PO|PP", "DR|PP", "DR|PO|PPi"])
    # pairwise disjoint basics: vacuously true
    assert helly_check(RCC5, ["DR", "PO", "EQ"])


def test_helly_on_all_builtin_distributive():
    for sub in (d5_14(), d5_20(), d8_41(), d8_64()):
        assert helly_check(sub)


def test_h5_membership():
    sub = h5()
    assert len(sub) == 27
    assert sub.tractable and not sub.distributive
    assert Relation(RCC5, RCC5.parse("PP|PPi")) not in sub
    assert Relation(RCC5, RCC5.parse("DR|PP|PPi|EQ")) not in sub
    assert Relation(RCC5, RCC5.parse("DR|PO")) in sub
    assert Relation(RCC5, RCC5.parse("DR|PO")) in bhat(RCC5)
    assert Relation(RCC8, RCC8.universal) in d8_41()


def test_every_distributive_rcc5_member_inside_h5():
    for sub in (d5_14(), d5_20()):
        assert sub.members <= h5().members


def test_subalgebra_equality_and_flags():
    a = Subalgebra(RCC5, BASIC5)
    b = Subalgebra(RCC5, list(reversed(BASIC5)))
    assert a == b and hash(a) == hash(b)
    assert a.contains_all_basic
    assert not a.closed  # DR.DR is the universal relation, not a basic
    c = Subalgebra(RCC5, BASIC5, tractable=True)
    assert c.tractable


def test_subalgebra_rejects_empty_relation():
    with pytest.raises(ValueError):
        Subalgebra(RCC5, [0, RCC5.parse("PP")])


def test_smallest_member():
    sub = d8_41()
    tpp = RCC8.parse("TPP")
    assert sub.smallest_member(tpp) == tpp
    seed = RCC8.parse("DC|TPP")
    got = sub.smallest_member(seed)
    assert got is not None and got & seed == seed
    # minimality: ``got`` is below every member containing the seed
    for m in sub.members:
        if m & seed == seed:
            assert got & ~m == 0


def test_by_name():
    assert by_name("d5_14") is d5_14()
    assert by_name("H5") is h5()
    with pytest.raises(ValueError) as err:
        by_name("D9_99")
    assert str(err.value).endswith(
        "expected one of BHAT5, BHAT8, D5_14, D5_20, D8_41, D8_64, H5")


def test_by_name_derives_only_the_named_subalgebra():
    # a fresh process, since this one may have derived them already
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("from rcckit import algebra\n"
            "algebra.by_name('H5')\n"
            "print(algebra._maximal.cache_info().currsize)\n")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0"


def test_canonical_member_order_is_by_mask():
    masks = d5_14().sorted_masks()
    assert masks == sorted(masks)
