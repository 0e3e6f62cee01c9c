"""Path consistency, the solver oracle, entailment, and the global checks."""

import itertools
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import closure_reference
import util_instances as gen
from rcckit import RCC5, RCC8, Network, Relation, ct_path, reasoning
from rcckit.algebra import (
    _maximal,
    bhat,
    builtin_subalgebras,
    d5_20,
    d8_41,
    d8_64,
    h5,
)
from rcckit.errors import (
    GuardExceededError,
    InconsistentNetworkError,
    MembershipError,
    NetworkShapeError,
)
from rcckit.geometry import (
    generate_regions,
    hybrid_reconstitute,
    scenario_from_regions,
)
from rcckit.network import refines, remove_constraint, restrict, to_rcc5
from rcckit.reasoning import (
    _close,
    _closed,
    _gathers,
    _narrow,
    _pca_lists,
    _witness,
    a_closure,
    all_different,
    check_minimal,
    check_weak_global,
    detect_tractable,
    entails,
    enumerate_scenarios,
    is_consistent,
    solve,
)
from rcckit.redundancy import (
    core_algorithm1,
    detect_distributive,
    equivalent,
    prime,
    weaken_scenario,
)


def test_aclosure_restores_removed_edge(example1):
    reduced = remove_constraint(example1, 0, 1)
    res = a_closure(reduced)
    assert res.consistent
    assert str(res.network[0, 1]) == "PP"
    # and the path went through v5: (v5, v2) tightens to PP
    assert str(res.network[4, 1]) == "PP"


def test_aclosure_detects_inconsistency(bad_triangle):
    res = a_closure(bad_triangle)
    assert not res.consistent
    assert res.network is None
    i, k, j = res.witness
    assert len({i, k, j}) == 3


def test_aclosure_fixed_point_on_basic_chain():
    net = Network(RCC5, 3)
    net[0, 1] = "PP"
    net[1, 2] = "PP"
    net[0, 2] = "PP"
    res = a_closure(net)
    assert res.consistent
    assert res.network == net  # already path-consistent


def test_aclosure_idempotent(example1):
    once = a_closure(example1).network
    twice = a_closure(once).network
    assert once == twice


def test_aclosure_output_is_path_consistent(example1):
    closed = a_closure(example1).network
    m = closed.matrix.astype(int)
    for i, k, j in itertools.product(range(closed.n), repeat=3):
        comp = RCC5.compose_masks(m[i, k], m[k, j])
        assert m[i, j] & ~comp == 0
        assert m[i, j] != 0


def test_aclosure_preserves_scenario_set(example1):
    closed = a_closure(example1).network
    before = {s.matrix.tobytes() for s in enumerate_scenarios(example1)}
    after = {s.matrix.tobytes() for s in enumerate_scenarios(closed)}
    assert before == after


def _closure_inputs(n, seed, rcc5):
    """A weakened scenario (consistent) and two likely inconsistent
    networks: the scenario with a few entries switched to another basic,
    and a network of random one- to three-basic entries."""
    rng = random.Random(seed)
    sc = gen.random_scenario(n, seed, rcc5=rcc5)
    calc = sc.calculus
    weak = sc.copy()
    for i, j in sc.constraint_pairs():
        if rng.random() < 0.5:
            weak.set_mask(i, j, calc.universal)
        elif rng.random() < 0.3:
            weak.set_mask(i, j, sc.mask(i, j) | 1 << rng.randrange(calc.size))
    flipped = weak.copy()
    for _ in range(3):
        i, j = rng.sample(range(n), 2)
        flipped.set_mask(i, j, 1 << rng.randrange(calc.size))
    noise = Network(calc, n)
    for i in range(n):
        for j in range(i + 1, n):
            mask = 0
            for _ in range(rng.randint(1, 3)):
                mask |= 1 << rng.randrange(calc.size)
            noise.set_mask(i, j, mask)
    return weak, flipped, noise


@pytest.mark.parametrize("n,i,j", [(2, 0, 1), (3, 0, 1), (3, 2, 1)])
def test_empty_input_entry_is_its_own_witness(n, i, j):
    net = Network(RCC5, n)
    net.set_mask(i, j, 0)
    res = a_closure(net)
    assert not res.consistent
    assert res.witness == (min(i, j), min(i, j), max(i, j))
    assert solve(net) is None


def test_close_matches_the_queue_reference():
    verdicts = set()
    for rcc5, n in itertools.product(
            (True, False), (3, 4, 5, 6, 8, 11, 17, 30, 41, 49, 80, 200)):
        for net in _closure_inputs(n, 300 + n, rcc5):
            ref = net.matrix.astype(int).tolist()
            ref_witness = _pca_lists(net.calculus, ref,
                                     list(net.constraint_pairs()))
            m = net.matrix.copy()
            witness, updates, sweeps, _, _ = _close(net.calculus, m)
            assert (witness is None) == (ref_witness is None), n
            verdicts.add(witness is None)
            if witness is None:
                assert np.array_equal(m, np.array(ref, dtype=np.uint16)), n
                assert (updates > 0) == (not np.array_equal(m, net.matrix))
                assert (sweeps > 1) == (updates > 0)
                assert _close(net.calculus, m)[:3] == (None, 0, 1)
            else:
                assert len(set(witness)) == 3, (n, witness)
    assert verdicts == {True, False}


def _eq_diagonal_close(calc, m):
    """Reference sweep over an EQ diagonal: the k = i term of each meet is
    the row itself, so the meets replace the block as they stand.  Returns
    (witness, updates, sweeps) as _close does."""
    if not m.all():
        i, j = np.argwhere(m == 0)[0].tolist()
        return (i, i, j), 0, 0
    updates = sweeps = 0
    changed = True
    while changed:
        changed = False
        sweeps += 1
        for block, new in closure_reference.meets(calc, m):
            rows = m[block]
            diff = int(np.count_nonzero(new != rows))
            if not diff:
                continue
            if not new.all():
                r, j = np.argwhere(new == 0)[0].tolist()
                return _witness(calc, m, block.start + r, j), updates, sweeps
            updates += diff
            changed = True
            rows[:] = new
            m[:, block] = calc.conv_table[new].T
    return None, updates, sweeps


@pytest.mark.parametrize("cells", [2 ** 15, 2 ** 10],
                         ids=["default-blocks", "small-blocks"])
def test_close_matches_the_eq_diagonal_sweep(monkeypatch, cells):
    # below 2**15 cells the blocks of the larger networks hold several rows
    monkeypatch.setattr(reasoning, "_BLOCK_CELLS", cells)
    paths = set()
    for rcc5, n in itertools.product((True, False), (2, 3, 5, 8, 17, 30, 80)):
        empty = Network(RCC5 if rcc5 else RCC8, n)
        empty.set_mask(n - 1, 0, 0)
        for net in (*_closure_inputs(n, 300 + n, rcc5), empty):
            calc = net.calculus
            ref = net.matrix.copy()
            expected = _eq_diagonal_close(calc, ref)
            # _close sweeps over a universal diagonal
            m = net.matrix.copy()
            *got, q, _ = _close(calc, m)
            assert tuple(got) == expected, n
            assert np.array_equal(m, ref), n
            assert (np.diagonal(m) == calc.identity).all(), n
            witness, _, sweeps = expected
            if witness is None:
                # Q: one more pass of the meets over a universal diagonal
                wide = ref.copy()
                np.fill_diagonal(wide, calc.universal)
                want = np.concatenate(
                    [b for _, b in closure_reference.meets(calc, wide)])
                off = ~np.eye(n, dtype=bool)
                assert np.array_equal(q[off], want[off]), n
            else:
                assert q is None, n
            paths.add("closed" if witness is None
                      else "empty" if sweeps == 0 else "witness")
    assert paths == {"closed", "witness", "empty"}


def _assert_close_matches_the_reference(net):
    """_close against the kernel that recomputes every block in full on
    every sweep: equal (witness, updates, sweeps), matrix and
    off-diagonal Q, and no more terms gathered.  Returns the path taken,
    the terms _close gathered and the terms the reference gathered."""
    calc = net.calculus
    want_m = net.matrix.copy()
    *want, want_q, want_terms = closure_reference.close(calc, want_m)
    m = net.matrix.copy()
    *got, q, terms = _close(calc, m)
    assert got == want, net.n
    assert np.array_equal(m, want_m), net.n
    assert terms <= want_terms, net.n
    witness, _, sweeps = want
    if witness is None:
        off = ~np.eye(net.n, dtype=bool)
        assert np.array_equal(q[off], want_q[off]), net.n
    else:
        assert q is None, net.n
    path = ("closed" if witness is None
            else "empty" if sweeps == 0 else "witness")
    return path, terms, want_terms


def _weakened_scene(n, seed, profile="mixed"):
    """A polygon scene's scenario weakened over D8_41, as criterion 8
    builds its instances."""
    scenario = scenario_from_regions(generate_regions(n, seed, profile))
    return weaken_scenario(scenario, d8_41(), random.Random(n))


@pytest.mark.parametrize("cells", [2 ** 15, 2 ** 8, 2 ** 6],
                         ids=["default-blocks", "small-blocks", "tiny-blocks"])
def test_delta_sweeps_match_the_full_meet_reference(monkeypatch, cells):
    # 19 variables fit one block of 2**15 cells: a sweep of that block
    # reads rows its own previous write moved
    monkeypatch.setattr(reasoning, "_BLOCK_CELLS", cells)
    paths = set()
    for rcc5, n in itertools.product((True, False), (2, 3, 5, 8, 17, 30, 41)):
        empty = Network(RCC5 if rcc5 else RCC8, n)
        empty.set_mask(n - 1, 0, 0)
        for net in (*_closure_inputs(n, 500 + n, rcc5), empty):
            paths.add(_assert_close_matches_the_reference(net)[0])
    for seed in range(4):
        net = _weakened_scene(19, seed)
        assert _assert_close_matches_the_reference(net)[0] == "closed"
    assert paths == {"closed", "witness", "empty"}


def test_delta_sweeps_gather_less_on_criterion_8s_instance():
    # at 200 variables every block is one row
    n = 200
    net = _weakened_scene(n, 7, "nested")
    path, terms, want = _assert_close_matches_the_reference(net)
    assert path == "closed"
    assert want == 2 * n ** 3
    assert terms <= 1.7 * n ** 3
    assert a_closure(net).terms == terms


def test_delta_sweeps_match_the_reference_on_a_reconstitution_seed(
        monkeypatch):
    regions = generate_regions(100, 7, "scattered")
    scenario = scenario_from_regions(regions)
    seeds = []
    closure = reasoning.a_closure

    def spy(net):
        seeds.append(net.copy())
        return closure(net)

    prime = core_algorithm1(scenario).network
    monkeypatch.setattr(reasoning, "a_closure", spy)
    assert hybrid_reconstitute(prime, regions) == scenario
    (seed,) = seeds
    path, terms, want = _assert_close_matches_the_reference(seed)
    assert path == "closed" and terms < want


@st.composite
def _widened_scenarios(draw):
    """Mostly consistent networks that take several sweeps: a scenario
    with many entries made universal or widened, and now and then one
    entry switched to another basic.  Random masks are mostly
    inconsistent within the first sweep, which tests no later sweep."""
    rcc5 = draw(st.booleans())
    n = draw(st.integers(3, 40))
    net = gen.random_scenario(n, draw(st.integers(0, 999)), rcc5=rcc5)
    calc = net.calculus
    star = calc.universal
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    loose = draw(st.sampled_from([0.3, 0.6, 0.9]))
    for i, j in itertools.combinations(range(n), 2):
        roll = rng.random()
        if roll < loose:
            net.set_mask(i, j, star)
        elif roll < loose + 0.2:
            net.set_mask(i, j, net.mask(i, j) | rng.randint(1, star))
    if draw(st.integers(0, 9)) == 0:
        i, j = rng.sample(range(n), 2)
        net.set_mask(i, j, 1 << rng.randrange(calc.size))
    return net


@settings(max_examples=60, deadline=None)
@given(_widened_scenarios(), st.sampled_from([2 ** 15, 2 ** 8, 2 ** 6]))
def test_delta_sweeps_match_the_reference_property(net, cells):
    with mock.patch.object(reasoning, "_BLOCK_CELLS", cells):
        _assert_close_matches_the_reference(net)


@pytest.mark.parametrize("cells", [2 ** 15, 2 ** 8],
                         ids=["default-blocks", "small-blocks"])
def test_gathers_match_the_intp_index_reference(monkeypatch, cells):
    monkeypatch.setattr(reasoning, "_BLOCK_CELLS", cells)
    for rcc5, n in itertools.product((True, False), (2, 5, 17, 41)):
        for net in _closure_inputs(n, 700 + n, rcc5):
            calc = net.calculus
            m = net.matrix.copy()
            # a universal diagonal reaches the top of the index range
            np.fill_diagonal(m, calc.universal)
            got = list(_gathers(calc, m))
            want = list(closure_reference.gathers(calc, m))
            assert [b for b, _ in got] == [b for b, _ in want], n
            for (_, g), (_, w) in zip(got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w), n


@settings(max_examples=100, deadline=None)
@given(gen.networks())
def test_a_closure_refines_its_input(net):
    res = a_closure(net)
    if res.consistent:
        assert refines(res.network, net)
        res.network.validate()


@settings(max_examples=100, deadline=None)
@given(gen.networks())
def test_a_closure_is_idempotent(net):
    res = a_closure(net)
    if res.consistent:
        again = a_closure(res.network)
        assert again.consistent and again.updates == 0
        assert again.network == res.network


@settings(max_examples=100, deadline=None)
@given(gen.networks())
def test_a_closure_matches_the_queue_propagator(net):
    ref = net.matrix.astype(int).tolist()
    witness = _pca_lists(net.calculus, ref, list(net.constraint_pairs()))
    res = a_closure(net)
    assert res.consistent == (witness is None)
    if res.consistent:
        assert res.network.matrix.tolist() == ref


def test_is_consistent_examples(example1, bad_triangle):
    assert is_consistent(example1)
    assert not is_consistent(bad_triangle)
    assert is_consistent(Network(RCC5, 1))


def test_is_consistent_with_subclass(example1):
    assert is_consistent(example1, h5())
    with pytest.raises(MembershipError):
        is_consistent(example1, d5_20())  # DR|PP entries are outside


def test_is_consistent_rejects_nontractable_flag(example1):
    from rcckit.algebra import Subalgebra

    plain = Subalgebra(RCC5, [RCC5.parse("PP")])
    with pytest.raises(MembershipError):
        is_consistent(example1, plain)


def test_a_subalgebra_of_the_other_calculus_is_rejected(example1):
    # PP|PPi lies outside H5, RCC5's maximal tractable class: closure over
    # an RCC8 subalgebra proves nothing about this network
    net = Network(RCC5, 3)
    net[0, 1] = "PP|PPi"
    net[1, 2] = "PP|PPi"
    net[0, 2] = "DR"
    for decide in (is_consistent, all_different):
        for sub in (d8_41(), d8_64(), bhat(RCC8)):
            with pytest.raises(NetworkShapeError,
                               match="subalgebra from a different calculus"):
                decide(net, sub)
        with pytest.raises(NetworkShapeError,
                           match="subalgebra from a different calculus"):
            decide(Network(RCC8, 3), h5())
    with pytest.raises(MembershipError,
                       match=r"entries outside H5: PP\|PPi$"):
        is_consistent(net, h5())
    assert is_consistent(example1, h5())


def test_detect_tractable(example1):
    assert detect_tractable(example1) is h5()
    net = Network(RCC8, 2)
    net[0, 1] = "DC|EC"
    assert detect_tractable(net) is not None


@st.composite
def _basic_networks(draw):
    """A 2-12-variable RCC5 or RCC8 network whose entries are each one
    basic relation or universal."""
    calc = draw(st.sampled_from([RCC5, RCC8]))
    n = draw(st.integers(2, 12))
    net = Network(calc, n)
    entry = st.sampled_from([calc.universal]
                            + [1 << b for b in range(calc.size)])
    for i, j in itertools.combinations(range(n), 2):
        net.set_mask(i, j, draw(entry))
    return net


@settings(max_examples=100, deadline=None)
@given(_basic_networks())
def test_basic_networks_are_over_a_tractable_builtin(net):
    # so the a-closure-or-oracle choice needs no case for basic networks
    off = net.matrix[~np.eye(net.n, dtype=bool)].astype(np.int64)
    assert ((off == net.calculus.universal)
            | ((off != 0) & (off & (off - 1) == 0))).all()
    assert detect_tractable(net) == bhat(net.calculus)


def test_solve_examples(example1, bad_triangle):
    scenario = solve(example1)
    assert scenario is not None and scenario.is_scenario
    from rcckit.network import refines

    assert refines(scenario, example1)
    assert solve(bad_triangle) is None
    # a complete basic path-consistent network solves to itself
    net = Network(RCC5, 3)
    net[0, 1] = "PP"
    net[1, 2] = "PP"
    net[0, 2] = "PP"
    assert solve(net) == net


def test_solve_guard():
    with pytest.raises(GuardExceededError):
        solve(Network(RCC5, 13))
    assert solve(Network(RCC5, 13), guard=13) is not None


def test_solve_is_deterministic(example1):
    assert solve(example1) == solve(example1)


def test_enumerate_scenarios_complete_and_consistent():
    net = Network(RCC5, 3)
    net[0, 1] = "PP|PO"
    net[1, 2] = "DR|PP"
    seen = set()
    for sc in enumerate_scenarios(net):
        assert sc.is_scenario
        assert a_closure(sc).consistent
        seen.add(sc.matrix.tobytes())
    assert len(seen) >= 4  # several distinct completions exist
    # brute force cross-check: try every basic labeling of the 3 edges
    count = 0
    for bits in itertools.product(range(5), repeat=3):
        cand = Network(RCC5, 3)
        trial = [(0, 1), (1, 2), (0, 2)]
        ok = True
        for (i, j), b in zip(trial, bits):
            if net.mask(i, j) & (1 << b) == 0:
                ok = False
                break
            cand.set_mask(i, j, 1 << b)
        if ok and a_closure(cand).consistent:
            count += 1
    assert count == len(seen)


def test_entails_examples(example1, example2):
    # any network entails the universal constraint
    assert entails(example1, 0, 2, Relation(RCC5, RCC5.universal))
    assert entails(example2, 0, 1, RCC5.relation("EQ"))
    reduced = remove_constraint(example1, 0, 1)
    assert entails(reduced, 0, 1, RCC5.relation("PP"))
    assert not entails(reduced, 0, 1, RCC5.relation("DR"))
    with pytest.raises(NetworkShapeError):
        entails(example1, 1, 1, RCC5.relation("EQ"))
    # -1 named variable 4, the last, when it wrapped round
    for i, j in ((-1, 0), (0, -1), (0, 5), (5, 0)):
        with pytest.raises(NetworkShapeError, match="out of range"):
            entails(example1, i, j, RCC5.relation("DR"))


def test_all_different_examples(example1, example2, bad_triangle):
    assert all_different(example1)
    res = all_different(example2)
    assert not res
    assert res.eq_pairs == [(0, 1), (0, 2), (1, 2)]
    two = Network(RCC5, 2)
    two[0, 1] = "EQ"
    assert not all_different(two)
    with pytest.raises(InconsistentNetworkError):
        all_different(bad_triangle)


def test_all_different_requires_tractable_entries():
    from rcckit.algebra import Subalgebra

    net = Network(RCC5, 3)
    net[0, 1] = "PP|PPi"  # outside H5
    with pytest.raises(MembershipError):
        all_different(net)
    asserted = Subalgebra(
        net.calculus,
        set(np.unique(net.matrix).tolist()) | {net.calculus.universal},
        tractable=True)
    assert all_different(net, asserted)


def test_check_minimal_on_scenarios_and_closures():
    sc = gen.random_scenario(4, 21)
    assert check_minimal(sc)  # a consistent scenario is trivially minimal
    closed = a_closure(gen.random_scenario(5, 33, rcc5=True)).network
    assert check_minimal(closed)


def test_check_minimal_closes_once(monkeypatch, example1):
    calls = []

    def counting(net):
        calls.append(net)
        return _closed(net)

    monkeypatch.setattr(reasoning, "_closed", counting)
    assert check_minimal(a_closure(example1).network)
    assert len(calls) == 1


def test_check_minimal_rejects_inconsistent(bad_triangle):
    with pytest.raises(InconsistentNetworkError):
        check_minimal(bad_triangle)


def test_check_minimal_spots_unrealizable_basic():
    net = Network(RCC5, 3)
    net[0, 1] = "PP"
    net[1, 2] = "PP"
    net[0, 2] = "PP|DR"  # DR is not realizable below a PP chain
    assert not check_minimal(net)


def test_check_weak_global_small_cases():
    single_edge = Network(RCC5, 2)
    single_edge[0, 1] = "PP|PO"
    assert check_weak_global(single_edge)
    for net in gen.path_consistent_instances(d5_20(), 3, seed=13, n_lo=4,
                                             n_hi=4):
        assert check_weak_global(net)


def test_path_consistent_h5_network_not_weakly_global():
    """A path-consistent H5 network that is neither minimal nor weakly
    globally consistent (found by random search over H5 entries; no such
    network exists over a distributive subalgebra)."""
    net = Network(RCC5, 4)
    net[0, 1] = "DR|PO|PPi|EQ"
    net[0, 2] = "DR|PP"
    net[0, 3] = "DR|PPi|EQ"
    net[1, 2] = "DR|EQ"
    net[1, 3] = "PO|PP|PPi"
    net[2, 3] = "PO|PPi"
    assert a_closure(net).network == net  # already path-consistent
    assert all(m in h5().members
               for m in np.unique(net.matrix).tolist())
    assert is_consistent(net)  # tractable: path consistency decides
    assert not check_minimal(net)
    assert not check_weak_global(net)


@pytest.mark.parametrize("sub", [d5_20(), d8_41()])
def test_path_soundness_closure_below_all_paths(sub):
    # S_xy is contained in CT(pi) for every path from x to y
    for net in gen.path_consistent_instances(sub, 6, seed=55, n_lo=4,
                                             n_hi=5):
        closed = a_closure(net).network
        n = net.n
        for length in (2, 3, 4):
            for path in itertools.product(range(n), repeat=length + 1):
                if any(path[t] == path[t + 1] for t in range(length)):
                    continue
                rels = [net.entry(path[t], path[t + 1])
                        for t in range(length)]
                got = ct_path(rels)
                want = closed.mask(path[0], path[-1])
                assert want & ~got.mask == 0


def test_bounded_path_convergence_on_distributive_networks():
    """Intersecting CT over paths of length <= L reaches the closure entry
    for some L <= 2n on distributive networks."""
    for net in gen.path_consistent_instances(d5_20(), 5, seed=77, n_lo=4,
                                             n_hi=5):
        closed = a_closure(net).network
        n = net.n
        calc = net.calculus
        m = net.matrix.astype(int)
        # best[l][x][y]: intersection of CT over all paths of length <= l
        best = m.copy()
        converged_at = None
        prev = None
        for length in range(1, 2 * n + 1):
            if length == 1:
                layer = m.copy()
            else:
                # identity self-loops are constraints too, so z is free;
                # distributivity lets the per-length intersections compose
                nxt = np.full((n, n), calc.universal, dtype=int)
                for x in range(n):
                    for y in range(n):
                        acc = calc.universal
                        for z in range(n):
                            acc &= calc.compose_masks(prev[x][z], m[z][y])
                        nxt[x, y] = acc
                layer = nxt
            best = best & layer
            prev = layer
            off = ~np.eye(n, dtype=bool)
            if np.array_equal(best[off], closed.matrix.astype(int)[off]):
                converged_at = length
                break
        assert converged_at is not None and converged_at <= 2 * n


@pytest.mark.parametrize("rcc5", [False, True])
def test_cycle_lemma_on_all_different_networks(rcc5):
    # CT of any cycle in an all-different network covers the overlap core
    net = gen.random_scenario(5, 91, rcc5=rcc5)
    assert all_different(net)
    calc = net.calculus
    n = net.n
    for length in (1, 2, 3):
        for path in itertools.product(range(n), repeat=length):
            nodes = (0,) + path + (0,)
            if any(nodes[t] == nodes[t + 1] for t in range(len(nodes) - 1)):
                continue
            rels = [net.entry(nodes[t], nodes[t + 1])
                    for t in range(len(nodes) - 1)]
            got = ct_path(rels)
            assert calc.overlap_core & ~got.mask == 0


# The oracle as it was before the probes shared one closed list matrix:
# every probe copies the network, pins one entry and decides the copy
# from scratch with is_consistent or solve.


def _ref_entails(net, i, j, r, guard):
    calc = net.calculus
    rest = calc.universal & ~r.mask
    for b in range(calc.size):
        basic = 1 << b
        if rest & basic and net.mask(i, j) & basic:
            probe = net.copy()
            probe.set_mask(i, j, basic)
            if is_consistent(probe, guard=guard):
                return False
    return True


def _ref_check_minimal(net, guard):
    if not a_closure(net).consistent:
        raise InconsistentNetworkError("minimality is about consistent networks")
    for i in range(net.n):
        for j in range(i + 1, net.n):
            for b in range(net.calculus.size):
                if net.mask(i, j) >> b & 1:
                    pinned = net.copy()
                    pinned.set_mask(i, j, 1 << b)
                    if solve(pinned, guard=guard) is None:
                        return False
    return True


def _ref_check_weak_global(net, guard):
    if net.n > guard:
        raise GuardExceededError("above the guard")
    for size in range(2, net.n):
        for subset in itertools.combinations(range(net.n), size):
            for scenario in enumerate_scenarios(restrict(net, subset),
                                                guard=guard):
                extended = net.copy()
                for (a, i), (b, j) in itertools.combinations(
                        enumerate(subset), 2):
                    extended.set_mask(i, j, scenario.mask(a, b))
                if solve(extended, guard=guard) is None:
                    return False
    return True


def _ref_equivalent(a, b, guard):
    if detect_distributive(a) is not None and detect_distributive(b) is not None:
        ra, rb = a_closure(a), a_closure(b)
        if not ra.consistent or not rb.consistent:
            return ra.consistent == rb.consistent
        return bool(np.array_equal(ra.network.matrix, rb.network.matrix))
    meet = a.matrix & b.matrix
    for net in (a, b):
        extra = net.matrix & ~meet
        for i in range(net.n):
            for j in range(i + 1, net.n):
                for bit in range(net.calculus.size):
                    if int(extra[i, j]) >> bit & 1:
                        probe = net.copy()
                        probe.set_mask(i, j, 1 << bit)
                        if solve(probe, guard=guard) is not None:
                            return False
    return True


def _outcome(func, *args):
    try:
        return func(*args)
    except (GuardExceededError, InconsistentNetworkError) as e:
        return type(e)


def _oracle_inputs(n, seed, rcc5):
    """A weakened scenario over a distributive subalgebra (tractable and
    consistent) and its closure (also minimal), plus the three networks
    of _closure_inputs."""
    sc = gen.random_scenario(n, seed, rcc5=rcc5)
    sub = d5_20() if rcc5 else d8_41()
    weak = weaken_scenario(sc, sub, random.Random(seed))
    return (weak, a_closure(weak).network, *_closure_inputs(n, seed, rcc5))


def test_oracle_matches_the_per_probe_reference():
    rng = random.Random(5)
    kinds = set()
    for rcc5, n in itertools.product((True, False), range(3, 8)):
        for net in _oracle_inputs(n, 800 + n, rcc5):
            calc = net.calculus
            kinds.add((detect_tractable(net) is not None,
                       is_consistent(net)))
            # with the guard at n the oracle may search; below n it must
            # raise exactly where the reference raises
            for guard in (n, n - 1):
                for i, j in itertools.combinations(range(n), 2):
                    r = Relation(calc, rng.randrange(calc.universal + 1))
                    for probe, rel in ((net, r), (remove_constraint(net, i, j),
                                                  net.entry(i, j))):
                        assert (_outcome(entails, probe, i, j, rel, guard)
                                == _outcome(_ref_entails, probe, i, j, rel,
                                            guard)), (n, i, j)
                    other = remove_constraint(net, i, j)
                    assert (_outcome(equivalent, net, other, guard)
                            == _outcome(_ref_equivalent, net, other, guard))
                assert (_outcome(check_minimal, net, guard)
                        == _outcome(_ref_check_minimal, net, guard)), n
                # on a closed 7-variable network check_weak_global extends
                # every scenario of every restriction: minutes, not seconds
                if n <= 6:
                    assert (_outcome(check_weak_global, net, guard)
                            == _outcome(_ref_check_weak_global, net, guard))
    assert kinds == {(True, True), (True, False), (False, True),
                     (False, False)}


def test_oracle_guard_applies_only_to_searches():
    hard = gen.intractable_network(13, 1041)
    i, j = next(p for p in hard.constraint_pairs()
                if hard.mask(*p).bit_count() > 1)
    narrower = Relation(RCC8, hard.mask(i, j) & (hard.mask(i, j) - 1))
    with pytest.raises(GuardExceededError):
        entails(hard, i, j, narrower)
    assert equivalent(hard, hard.copy())
    easy = weaken_scenario(gen.random_scenario(13, 1041), d8_41(),
                           random.Random(1041))
    for i, j in easy.constraint_pairs():
        mask = easy.mask(i, j)
        rel = Relation(RCC8, mask & (mask - 1))
        assert entails(easy, i, j, rel) == _ref_entails(easy, i, j, rel, 12)


# The oracle's from-scratch closure and search in the list engine alone,
# as they were before _closed ran _close and the search carried its branch
# candidates: every non-universal pair queued into _pca_lists, and every
# search node rescanning the whole matrix for its branch entry.  _ref_closed
# is so a differential reference for _close on the oracle's path.


def _ref_closed(net):
    m = net.matrix.tolist()
    star = net.calculus.universal
    return _narrow(net.calculus, m, [(i, j, row[j]) for i, row in enumerate(m)
                                     for j in range(i + 1, len(row))
                                     if row[j] != star])


def _ref_branch_entry(m):
    best = None
    best_count = 1 << 20
    for i, row in enumerate(m):
        for j in range(i + 1, len(row)):
            c = row[j].bit_count()
            if 1 < c < best_count:
                best = (i, j)
                best_count = c
                if c == 2:
                    return best
    return best


def _ref_scenarios(calc, m):
    if m is None:
        return
    spot = _ref_branch_entry(m)
    if spot is None:
        yield m
        return
    i, j = spot
    for b in range(calc.size):
        if m[i][j] >> b & 1:
            child = _narrow(calc, m, [(i, j, 1 << b)])
            if child is not None:
                yield from _ref_scenarios(calc, child)


def _with_empty_entry(net, seed):
    i, j = random.Random(seed).sample(range(net.n), 2)
    out = net.copy()
    out.set_mask(i, j, 0)
    return out


def test_closed_matches_the_all_pairs_reference():
    kinds = set()
    # above the guard: at 20 one block holds every row, at 40 two blocks
    for rcc5, n in itertools.product((True, False), (*range(2, 13), 20, 40)):
        nets = _closure_inputs(n, 500 + n, rcc5)
        for net in (*nets, _with_empty_entry(nets[0], n)):
            got = _closed(net)
            assert got == _ref_closed(net), (rcc5, n)
            kinds.add("closed" if got is not None
                      else "inconsistent" if net.matrix.all() else "empty")
    assert kinds == {"closed", "inconsistent", "empty"}


@settings(max_examples=200, deadline=None)
@given(gen.networks(), st.booleans())
def test_closed_matches_the_all_pairs_reference_property(net, empty):
    if empty:
        net = _with_empty_entry(net, net.n)
    assert _closed(net) == _ref_closed(net)


def _h5_network(n, seed):
    """An RCC5 coarsening of a mixed scene, each entry an H5 member of at
    most three basics that holds the scene's basic: consistent, tractable
    and, with H5 outside every distributive subalgebra, folded by prime."""
    sc = to_rcc5(scenario_from_regions(generate_regions(n, seed, "mixed")))
    rng = random.Random(n)
    out = sc.copy()
    for i, j in sc.constraint_pairs():
        out.set_mask(i, j, rng.choice(sorted(
            m for m in h5().members
            if m & sc.mask(i, j) and m.bit_count() <= 3)))
    return out


def test_h5_fold_above_the_guard_matches_the_per_probe_reference():
    net = _h5_network(20, 7)
    assert net.n > reasoning.DEFAULT_GUARD
    assert detect_distributive(net) is None
    rep = prime(net)
    assert rep.method == "iterative"
    ref = net.copy()
    for i, j in net.constraint_pairs():
        if _ref_entails(remove_constraint(ref, i, j), i, j, ref.entry(i, j),
                        reasoning.DEFAULT_GUARD):
            ref.set_mask(i, j, RCC5.universal)
    assert rep.network == ref
    assert 0 < len(rep.nontrivial) < net.constraint_count()


def _search_inputs(n, seed, rcc5):
    """_oracle_inputs and an intractable RCC8 network, with the inputs'
    restrictions to their first three variables."""
    nets = list(_oracle_inputs(n, seed, rcc5))
    if not rcc5:
        nets.append(gen.intractable_network(n, seed))
    return nets + [restrict(net, range(3)) for net in nets]


def test_search_order_matches_the_rescanning_reference():
    found = 0
    for rcc5, n in itertools.product((True, False), range(3, 9)):
        for net in _search_inputs(n, 900 + n, rcc5):
            calc = net.calculus
            # the first 300 scenarios pin down the order of the search
            ref = list(itertools.islice(
                _ref_scenarios(calc, _ref_closed(net)), 300))
            got = [sc.matrix.tolist() for sc in
                   itertools.islice(enumerate_scenarios(net), 300)]
            assert got == ref, (rcc5, n)
            first = solve(net)
            assert (None if first is None
                    else first.matrix.tolist()) == next(iter(ref), None)
            found += bool(ref)
    assert found


def _ref_first_holding(net, subs):
    masks = set(net.matrix.ravel().tolist())
    return next((sub for sub in subs if masks <= sub.members), None)


def _check_detection(net):
    calc = net.calculus
    assert detect_tractable(net) is _ref_first_holding(
        net, [sub for sub in builtin_subalgebras(calc) if sub.tractable])
    assert detect_distributive(net) is _ref_first_holding(
        net, _maximal(calc))


def test_detection_matches_the_per_subalgebra_reference(example1, example2):
    for net in (example1, example2, Network(RCC5, 1), Network(RCC8, 4)):
        _check_detection(net)
    for rcc5, n in itertools.product((True, False), (3, 6, 9)):
        for net in _search_inputs(n, 700 + n, rcc5):
            _check_detection(net)


@settings(max_examples=100, deadline=None)
@given(gen.networks() | _basic_networks())
def test_detection_matches_the_per_subalgebra_reference_property(net):
    _check_detection(net)
