"""Redundancy detection, cores, and the unique prime subnetwork."""

import random
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import closure_reference
import redundancy_reference
import util_instances as gen
from rcckit import RCC5, RCC8, Network, reasoning, redundancy
from rcckit.algebra import Subalgebra, bhat, d5_14, d5_20, d8_41, d8_64, h5
from rcckit.errors import (
    GuardExceededError,
    InconsistentNetworkError,
    MembershipError,
    NetworkShapeError,
    NotAllDifferentError,
)
from rcckit.network import remove_constraint, save, to_rcc5
from rcckit.reasoning import a_closure
from rcckit.redundancy import (
    core,
    core_algorithm1,
    detect_distributive,
    equivalent,
    is_redundant,
    prime,
    prime_iterative,
    weaken_scenario,
)

ALL_SUBS = (d5_14(), d5_20(), d8_41(), d8_64())


def test_is_redundant_example1(example1):
    assert is_redundant(example1, 0, 1)
    for i, j in example1.constraint_pairs():
        if (i, j) != (0, 1):
            assert not is_redundant(example1, i, j)
    # universal constraints are trivially redundant
    assert is_redundant(example1, 0, 3)
    with pytest.raises(NetworkShapeError):
        is_redundant(example1, 1, 1)


@pytest.mark.parametrize("i,j", [(-1, 0), (4, -1), (0, 5), (-5, 0)])
def test_is_redundant_rejects_indices_out_of_range(example1, i, j):
    # (4, -1) named the diagonal cell (4, 4) when -1 wrapped round
    before = example1.copy()
    with pytest.raises(NetworkShapeError, match="out of range"):
        is_redundant(example1, i, j)
    assert example1 == before


def test_core_example1(example1):
    rep = core(example1)
    assert rep.nontrivial == {(0, 1)}
    assert rep.trivially_redundant <= rep.redundant
    assert rep.network[0, 1].is_universal
    assert equivalent(example1, rep.network)


def test_core_example2_not_equivalent(example2):
    rep = core(example2)
    assert rep.nontrivial == {(0, 3), (1, 3)}
    assert not equivalent(example2, rep.network)


def test_prime_iterative_example1_any_order(example1):
    pairs = list(example1.constraint_pairs())
    rng = random.Random(3)
    for _ in range(5):
        order = pairs[:]
        rng.shuffle(order)
        out = prime_iterative(example1, order)
        assert set(out.constraint_pairs()) == set(pairs) - {(0, 1)}
        assert equivalent(example1, out)


def test_prime_iterative_example2_two_orders(example2):
    base = [(0, 1), (1, 2), (0, 2)]
    keep_24 = prime_iterative(example2, [(0, 3), (1, 3)] + base)
    keep_14 = prime_iterative(example2, [(1, 3), (0, 3)] + base)
    assert set(keep_24.constraint_pairs()) == set(base) | {(1, 3)}
    assert set(keep_14.constraint_pairs()) == set(base) | {(0, 3)}
    assert equivalent(example2, keep_24)
    assert equivalent(example2, keep_14)
    # both are prime: nothing left is redundant
    for out in (keep_24, keep_14):
        for i, j in out.constraint_pairs():
            assert not is_redundant(out, i, j)


def test_prime_iterative_validates_order(example1):
    with pytest.raises(NetworkShapeError):
        prime_iterative(example1, [(0, 1)])
    with pytest.raises(NetworkShapeError):
        prime_iterative(example1, list(example1.constraint_pairs())
                        + [(0, 1)])


def test_core_algorithm1_example1_with_override(example1):
    # H5 is tractable but not distributive: Algorithm 1's Q test is not
    # proved over it, so a given H5 is no override and prime folds
    assert detect_distributive(example1) is None
    for given in (None, h5()):
        with pytest.raises(MembershipError):
            core_algorithm1(example1, given)
    rep = prime(example1, subalgebra=h5())
    assert rep.nontrivial == {(0, 1)}
    assert rep.method == "iterative"
    assert equivalent(example1, rep.network)


def test_core_algorithm1_rejects_example2(example2):
    with pytest.raises(NotAllDifferentError):
        core_algorithm1(example2)


def test_core_algorithm1_rejects_inconsistent(bad_triangle):
    with pytest.raises(InconsistentNetworkError):
        core_algorithm1(bad_triangle)


def test_core_algorithm1_membership_check(example1):
    with pytest.raises(MembershipError):
        core_algorithm1(example1, d5_20())


def test_a_subalgebra_of_the_other_calculus_is_rejected(example1):
    # 1 PP|PPi 2, 2 PP|PPi 3, 1 DR 3 lies outside H5, RCC5's maximal
    # tractable class, so no RCC8 subalgebra may stand in for it
    net = Network(RCC5, 3)
    net[0, 1] = "PP|PPi"
    net[1, 2] = "PP|PPi"
    net[0, 2] = "DR"
    scene = Network(RCC8, 3)
    scene[0, 1] = "NTPP"
    for nets, subs in (((net, example1), (d8_41(), d8_64())),
                       ((scene,), (d5_14(), d5_20(), h5()))):
        for a in nets:
            for sub in subs:
                for run in (core_algorithm1, prime):
                    with pytest.raises(
                            NetworkShapeError,
                            match="subalgebra from a different calculus"):
                        run(a, subalgebra=sub)


def test_prime_detects_once(monkeypatch):
    net = next(gen.all_different_instances(d8_41(), 1, seed=43,
                                           n_lo=9, n_hi=10))
    calls = []
    fit = redundancy._fit

    def counting(*args):
        calls.append(args[1])
        return fit(*args)

    monkeypatch.setattr(redundancy, "_fit", counting)
    assert prime(net).method == "algorithm1"
    # one detection; core_algorithm1 only checks the subalgebra it is given
    assert calls == [None, d8_41()]


def test_core_algorithm1_nested_scenario():
    # a NTPP b NTPP c with a NTPP c: the long edge is implied
    net = Network(RCC8, 3)
    net[0, 1] = "NTPP"
    net[1, 2] = "NTPP"
    net[0, 2] = "NTPP"
    rep = core_algorithm1(net)
    assert rep.redundant == {(0, 2)}
    assert rep.trivially_redundant == set()
    assert str(rep.network[0, 1]) == "NTPP"
    assert rep.network[0, 2].is_universal


def test_detect_distributive_order():
    net = Network(RCC8, 2)
    net[0, 1] = "DC|EC"
    assert detect_distributive(net).name == "D8_41"
    net[0, 1] = "PO|EQ"  # only in the 64-member subalgebra
    assert detect_distributive(net).name == "D8_64"
    five = Network(RCC5, 2)
    five[0, 1] = "PP|EQ"
    assert detect_distributive(five).name == "D5_14"
    five[0, 1] = "PO|EQ"
    assert detect_distributive(five).name == "D5_20"


def _assert_same_report(got, want):
    assert got.redundant == want.redundant
    assert got.trivially_redundant == want.trivially_redundant
    assert (got.method, got.checks) == (want.method, want.checks)
    assert got.network == want.network


def test_prime_dispatch():
    # a weakened D8_41 scenario: Algorithm 1 unless an order is given
    net = next(gen.all_different_instances(d8_41(), 1, seed=43,
                                           n_lo=9, n_hi=10))
    _assert_same_report(prime(net), core_algorithm1(net))
    order = list(net.constraint_pairs())
    random.Random(5).shuffle(order)
    rep = prime(net, order, d8_41())
    assert (rep.method, rep.checks) == ("iterative", 0)
    assert rep.network == prime_iterative(net, order)
    assert rep.nontrivial == (set(net.constraint_pairs())
                              - set(rep.network.constraint_pairs()))


def test_prime_dispatch_without_a_distributive_fit(example1):
    # example1 is over H5, which is not distributive: the fold
    rep = prime(example1)
    assert (rep.method, rep.checks) == ("iterative", 0)
    assert rep.network == prime_iterative(example1)
    assert rep.nontrivial == {(0, 1)}
    assert rep.trivially_redundant == (
        {(i, j) for i in range(5) for j in range(i + 1, 5)}
        - set(example1.constraint_pairs()))
    # a given subalgebra outside every maximal distributive one: the fold
    _assert_same_report(prime(example1, subalgebra=h5()), prime(example1))


@pytest.mark.parametrize("rel", ["DR", "0", "DR|PPi"])
def test_prime_rejects_inconsistent_input_on_either_engine(rel):
    # PP . PP = PP, so (1, 3) cannot be DR; DR fits D5_14 and runs
    # Algorithm 1, the other two fit no distributive subalgebra
    net = Network(RCC5, 3)
    net[0, 1] = "PP"
    net[1, 2] = "PP"
    net[0, 2] = rel
    for order in (None, [(0, 1), (1, 2), (0, 2)]):
        with pytest.raises(InconsistentNetworkError,
                           match="a prime subnetwork needs a consistent"):
            prime(net, order)


def test_equivalent_basics(example1, example2, bad_triangle):
    assert equivalent(example1, a_closure(example1).network)
    assert equivalent(example1, remove_constraint(example1, 0, 1))
    assert not equivalent(example2, core(example2).network)
    assert equivalent(bad_triangle, bad_triangle)
    with pytest.raises(NetworkShapeError):
        equivalent(example1, example2)


def test_equivalent_distributive_inconsistent_cases():
    a = Network(RCC8, 3)
    a[0, 1] = "NTPP"
    a[1, 2] = "NTPP"
    a[0, 2] = "DC"  # NTPP chain forces NTPP: inconsistent
    b = Network(RCC8, 3)
    b[0, 1] = "DC"
    b[1, 2] = "NTPP"
    assert not equivalent(a, b)
    assert equivalent(a, a)


def test_equivalent_outside_every_tractable_class():
    net = gen.intractable_network(12, 1041)
    start = time.perf_counter()
    assert equivalent(net, net.copy())
    assert time.perf_counter() - start < 1.0
    redundant = [p for p in net.constraint_pairs() if is_redundant(net, *p)]
    needed = [p for p in net.constraint_pairs() if p not in redundant]
    assert len(redundant) >= 2 and needed
    assert not equivalent(net, remove_constraint(net, *needed[0]))
    # neither side refines the other
    assert equivalent(remove_constraint(net, *redundant[0]),
                      remove_constraint(net, *redundant[-1]))
    assert not equivalent(remove_constraint(net, *redundant[0]),
                          remove_constraint(net, *needed[0]))


@pytest.mark.parametrize("rcc5,sub", [(True, d5_20()), (False, d8_41())],
                         ids=["D5_20", "D8_41"])
def test_core_algorithm1_matches_the_full_q_intersection(rcc5, sub, example1):
    sizes = [(n, seed) for n in (3, 4) for seed in range(61, 71)]
    cases = [(weaken_scenario(gen.random_scenario(n, seed, rcc5=rcc5), sub,
                              random.Random(seed)), sub)
             for n, seed in sizes + [(19, 61), (60, 61)]]
    if rcc5:
        # a given subalgebra that lies inside a maximal distributive one
        cases.append((weaken_scenario(gen.random_scenario(5, 61, rcc5=True),
                                      bhat(RCC5), random.Random(61)),
                      bhat(RCC5)))
    found = set()
    for net, given in cases:
        rep = core_algorithm1(net, given)
        calc = net.calculus
        star = calc.universal
        s = a_closure(net).network.matrix.astype(int).tolist()
        expected = set()
        for i in range(net.n):
            for j in range(i + 1, net.n):
                q = star
                for k in range(net.n):
                    if k != i and k != j:
                        q &= calc.compose_masks(s[i][k], s[k][j])
                if q == s[i][j] or net.mask(i, j) == star:
                    expected.add((i, j))
        assert rep.redundant == expected, net.n
        assert rep.trivially_redundant == {
            (i, j) for i in range(net.n) for j in range(i + 1, net.n)
            if net.mask(i, j) == star}
        pruned = net.copy()
        for i, j in expected:
            pruned.set_mask(i, j, star)
        assert rep.network == pruned
        assert rep.checks == net.n * (net.n - 1) * (net.n - 2) // 2
        if rep.nontrivial:
            found.add(net.n)
    assert found >= {3, 4, 19, 60}


def _separate_q_pass(net):
    """Algorithm 1 with Q from its own pass of the meet kernel over the
    closed matrix with a universal diagonal: the redundant pairs and the
    pruned network."""
    calc = net.calculus
    star = calc.universal
    closed = a_closure(net).network.matrix
    q = closed.copy()
    np.fill_diagonal(q, star)
    q = np.concatenate(
        [block for _, block in closure_reference.meets(calc, q)])
    upper = np.triu(np.ones((net.n, net.n), dtype=bool), k=1)
    redundant = upper & (q == closed)
    pruned = net.copy()
    pruned.matrix[redundant | redundant.T] = star
    pairs = set(zip(*(ix.tolist() for ix in
                      np.nonzero(upper & (pruned.matrix == star)))))
    return pairs, pruned


def _assert_matches_separate_q_pass(net, sub):
    rep = core_algorithm1(net, sub)
    redundant, pruned = _separate_q_pass(net)
    assert rep.redundant == redundant, net.n
    assert rep.network == pruned, net.n


@pytest.mark.parametrize("cells", [2 ** 15, 2 ** 12],
                         ids=["default-blocks", "small-blocks"])
def test_core_algorithm1_matches_a_separate_q_pass(monkeypatch, cells):
    # below 2**15 cells the blocks of the larger networks hold several rows
    monkeypatch.setattr(reasoning, "_BLOCK_CELLS", cells)
    for sub in (d5_20(), d8_41(), d8_64()):
        most = 0
        # a Q kept from a sweep that changed something gives another verdict
        # on some of these weakenings: D5_20's (8, 1001) and the RCC8
        # (30, 1002), closed in 2 sweeps, and D8_41's (13, 1005), in 4
        for n, seed in [(5, 1004), (8, 1001), (13, 1000), (13, 1005),
                        (19, 1003), (30, 1002), (60, 1001)]:
            sc = gen.random_scenario(n, seed, rcc5=sub.calculus is RCC5)
            weak = weaken_scenario(sc, sub, random.Random(seed))
            assert a_closure(sc).sweeps == 1
            for net in (sc, weak):
                _assert_matches_separate_q_pass(net, sub)
            most = max(most, a_closure(weak).sweeps)
        assert most >= 3, sub.name


# about one generated network in ten fits a distributive subalgebra
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(gen.networks())
def test_fused_q_matches_a_separate_q_pass_on_random_networks(net):
    sub = detect_distributive(net)
    assume(sub is not None)
    res = a_closure(net)
    assume(res.consistent)
    upper = np.triu(np.ones((net.n, net.n), dtype=bool), k=1)
    assume(not (upper & (res.network.matrix == net.calculus.identity)).any())
    _assert_matches_separate_q_pass(net, sub)


@pytest.mark.parametrize("sub", ALL_SUBS, ids=lambda s: s.name)
def test_uniqueness_oracle_equivalence(sub):
    """Algorithm 1 == per-constraint sweep == any-order fold, and the
    result is equivalent to the input (spot-scale version of the
    acceptance run)."""
    rng = random.Random(17)
    for net in gen.all_different_instances(sub, 12, seed=29):
        rep = core_algorithm1(net, sub)
        sweep = {(i, j)
                 for i in range(net.n) for j in range(i + 1, net.n)
                 if is_redundant(net, i, j)}
        assert rep.redundant == sweep
        order = list(net.constraint_pairs())
        rng.shuffle(order)
        folded = prime_iterative(net, order)
        assert folded == rep.network
        assert equivalent(net, rep.network)
        # prime property: nothing in the output is redundant
        for i, j in rep.network.constraint_pairs():
            assert not is_redundant(rep.network, i, j)


@pytest.mark.parametrize("sub", [d5_14(), d8_41()], ids=lambda s: s.name)
def test_redundancy_transfers_to_the_closure(sub):
    # (i,j) redundant in the network iff redundant in its a-closure
    for net in gen.all_different_instances(sub, 8, seed=41, n_lo=4, n_hi=6):
        closed = a_closure(net).network
        for i in range(net.n):
            for j in range(i + 1, net.n):
                assert is_redundant(net, i, j) \
                    == is_redundant(closed, i, j)


@pytest.mark.parametrize("sub", [d5_20(), d8_64()], ids=lambda s: s.name)
def test_simultaneous_removal_is_safe(sub):
    for net in gen.all_different_instances(sub, 8, seed=43, n_lo=4, n_hi=6):
        rep = core_algorithm1(net, sub)
        assert equivalent(net, rep.network)


def test_weaken_scenario_consistent_and_inside_subalgebra():
    rng = random.Random(5)
    sc = gen.random_scenario(6, 19)
    net = weaken_scenario(sc, d8_41(), rng)
    from rcckit.network import refines

    assert refines(sc, net)  # weakening only loosens entries
    masks = set(np.unique(net.matrix).tolist())
    assert masks <= d8_41().members
    assert a_closure(net).consistent


def test_redundancy_report_fields(example1):
    rep = core(example1)
    assert rep.method == "sweep"
    assert rep.checks == len(list(example1.constraint_pairs()))
    assert rep.trivially_redundant == {
        (i, j) for i in range(5) for j in range(i + 1, 5)
        if example1.mask(i, j) == RCC5.universal}


def _loop_weaken(scenario, sub, rng, max_extra=2):
    """weaken_scenario as a per-pair loop of smallest_member and set_mask,
    before its one cover lookup and mirrored write; kept as the
    reference."""
    calc = scenario.calculus
    rows = scenario.matrix.tolist()
    out = scenario.copy()
    for i in range(scenario.n):
        for j in range(i + 1, scenario.n):
            mask = rows[i][j]
            for _ in range(rng.randint(0, max_extra)):
                mask |= 1 << rng.randrange(calc.size)
            member = sub.smallest_member(mask)
            if member is None:
                member = calc.universal
            out.set_mask(i, j, member)
    return out


# the built-ins, plus the RCC8 basics alone, which hold no multi-basic mask
_WEAKEN_SUBS = [bhat(RCC5), d5_14(), d5_20(), h5(), bhat(RCC8), d8_41(),
                d8_64(), Subalgebra(RCC8, [1 << b for b in range(8)])]


@pytest.mark.parametrize("sub", _WEAKEN_SUBS,
                         ids=lambda sub: sub.name or "basics8")
def test_weaken_scenario_matches_the_pair_loop(sub):
    for n, seed in [(2, 5), (7, 11), (19, 13), (40, 17)]:
        scenario = gen.random_scenario(n, seed,
                                       rcc5=sub.calculus is RCC5)
        for max_extra in (0, 2, 5):
            rng, ref = random.Random(seed), random.Random(seed)
            got = weaken_scenario(scenario, sub, rng, max_extra)
            want = _loop_weaken(scenario, sub, ref, max_extra)
            assert save(got) == save(want) and got == want
            got.validate()
            # the same draws, in the same order
            assert rng.getstate() == ref.getstate()


# core and the fold against the per-constraint engines they replaced
# (redundancy_reference): one stacked closure for every constraint, and a
# fold that keeps without a test what that closure proves non-redundant


def _oracle_sweep_kinds(n, seed):
    """A D8_64 and a D5_20 weakened scenario and an intractable RCC8
    network, the three kinds of the oracle-sweep benchmark."""
    rng = random.Random(seed)
    scenario = gen.random_scenario(n, seed)
    return (weaken_scenario(scenario, d8_64(), rng),
            weaken_scenario(to_rcc5(scenario), d5_20(), rng),
            gen.intractable_network(n, seed))


def _assert_matches_the_per_pair_reference(net, rng):
    _assert_same_report(core(net), redundancy_reference.core(net))
    order = list(net.constraint_pairs())
    rng.shuffle(order)
    assert (prime_iterative(net, order)
            == redundancy_reference.prime_iterative(net, order))


def test_core_and_fold_match_the_per_pair_reference():
    rng = random.Random(11)
    kept = set()
    for n in range(3, 12):
        for net in _oracle_sweep_kinds(n, 1200 + n):
            for _ in range(2):
                _assert_matches_the_per_pair_reference(net, rng)
            kept.add(len(core(net).nontrivial) < net.constraint_count())
    assert kept == {True}


@settings(max_examples=40, deadline=None)
@given(gen.networks(), st.randoms(use_true_random=False))
def test_core_and_fold_match_the_per_pair_reference_property(net, rng):
    _assert_matches_the_per_pair_reference(net, rng)


def _above_the_guard():
    """13 variables over D8_41 but for one entry, a relation outside every
    built-in tractable subalgebra that the rest of the network entails:
    the a-closure decides that entry's redundancy, and only a search the
    others'.  Returns the network and the entry's pair."""
    net = weaken_scenario(gen.random_scenario(13, 5), d8_41(),
                          random.Random(5))
    assert net.n > reasoning.DEFAULT_GUARD
    i, j = next(net.constraint_pairs())
    entailed = a_closure(remove_constraint(net, i, j)).network.mask(i, j)
    for mask in range(entailed, RCC8.universal):
        if mask & entailed == entailed:
            net.set_mask(i, j, mask)
            if reasoning.detect_tractable(net) is None:
                return net, (i, j)
    raise AssertionError("no intractable relation above the entailed one")


def test_the_fold_raises_above_the_guard_where_the_reference_does():
    net, pair = _above_the_guard()
    rest = [p for p in net.constraint_pairs() if p != pair]
    # dropped first, the entry leaves a network the closure decides
    first = [pair, *rest]
    folded = prime_iterative(net, first)
    assert folded == redundancy_reference.prime_iterative(net, first)
    assert folded.mask(*pair) == RCC8.universal
    # tested later, the first constraint before it needs a search
    for order in ([rest[0], pair, *rest[1:]], [*rest, pair]):
        with pytest.raises(GuardExceededError):
            redundancy_reference.prime_iterative(net, order)
        with pytest.raises(GuardExceededError):
            prime_iterative(net, order)
    with pytest.raises(GuardExceededError):
        redundancy_reference.core(net)
    with pytest.raises(GuardExceededError):
        core(net)


def _counting_closes(monkeypatch):
    calls = []
    close = reasoning._close

    def counting(calc, m):
        calls.append(len(m))
        return close(calc, m)

    monkeypatch.setattr(reasoning, "_close", counting)
    return calls


def test_core_closes_once(monkeypatch):
    net = _oracle_sweep_kinds(10, 1210)[0]
    want = redundancy_reference.core(net)
    calls = _counting_closes(monkeypatch)
    _assert_same_report(core(net), want)
    assert calls == [net.constraint_count()]


def test_the_fold_closes_once_more_per_pair_left_open(monkeypatch):
    net = _oracle_sweep_kinds(10, 1210)[0]
    # over D8_64 the pairs the first closure leaves open are the redundant
    open_pairs = len(redundancy_reference.core(net).nontrivial)
    assert 0 < open_pairs < net.constraint_count() - 1
    order = list(net.constraint_pairs())
    random.Random(3).shuffle(order)
    want = redundancy_reference.prime_iterative(net, order)
    calls = _counting_closes(monkeypatch)
    assert prime_iterative(net, order) == want
    assert calls[0] == net.constraint_count()
    assert len(calls) <= 1 + open_pairs
