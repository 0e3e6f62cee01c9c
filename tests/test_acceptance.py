"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines.  Every tolerance is pinned here; the redundancy and theorem
properties are exact set equalities (zero tolerance).
"""

import itertools
import random
import statistics
import time

import numpy as np
import pytest

import util_instances as gen
from test_algebra import (
    BASIC5,
    BASIC8,
    BHAT5_EXTRA,
    BHAT8_EXTRA,
    D5_14_EXTRA,
    D5_20_EXTRA,
    D8_41_EXTRA,
    D8_64_EXTRA,
)
from test_calculus import GOLD5, GOLD5_ORDER, GOLD8, GOLD8_ORDER
from test_geometry import FIXTURES

from rcckit import RCC5, RCC8, Network, ct_path
from rcckit.algebra import (
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
from rcckit.baselines import compare, simple, simple_ext
from rcckit.calculus import verify_relation_algebra
from rcckit.errors import NotAllDifferentError
from rcckit.geometry import (
    generate_regions,
    hybrid_reconstitute,
    rcc8_relation,
    scenario_from_regions,
)
from rcckit.reasoning import (
    a_closure,
    all_different,
    check_minimal,
    check_weak_global,
)
from rcckit.redundancy import (
    core,
    core_algorithm1,
    equivalent,
    is_redundant,
    prime_iterative,
    weaken_scenario,
)

DISTRIBUTIVE = (d5_14(), d5_20(), d8_41(), d8_64())


def _done(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_table_fidelity():
    """Embedded tables match the independent transcription cell for cell;
    the relation-algebra axioms and cycle law hold exhaustively."""
    for calc, gold, order in ((RCC5, GOLD5, GOLD5_ORDER),
                              (RCC8, GOLD8, GOLD8_ORDER)):
        for a in order:
            for bi, b in enumerate(order):
                assert calc.compose_masks(calc.parse(a), calc.parse(b)) \
                    == calc.parse(gold[a][bi]), f"{calc.name}: {a}.{b}"
    t0 = time.perf_counter()
    rep5 = verify_relation_algebra(RCC5)
    rep8 = verify_relation_algebra(RCC8)
    elapsed = time.perf_counter() - t0
    assert rep5.passed and rep5.triples_checked == 32 ** 3
    assert rep8.passed and rep8.triples_checked == 256 ** 3
    assert elapsed < 60.0
    _done(1, f"tables exact; axioms over 32^3 and 256^3 triples "
             f"in {elapsed:.2f}s")


def test_criterion_2_appendix_exactness():
    """Closures and maximal distributive subalgebras match the known
    lists member for member; all four are distributive and Helly."""
    b5 = closure(RCC5, BASIC5)
    b8 = closure(RCC8, BASIC8)
    assert len(b5) == 12 and len(b8) == 37
    assert b5.members == {RCC5.parse(t) for t in BASIC5 + BHAT5_EXTRA}
    assert b8.members == {RCC8.parse(t) for t in BASIC8 + BHAT8_EXTRA}
    five = maximal_distributive(RCC5)
    eight = maximal_distributive(RCC8)
    assert [len(s) for s in five] == [14, 20]
    assert [len(s) for s in eight] == [41, 64]
    expect = [
        (five[0], RCC5, BASIC5 + BHAT5_EXTRA + D5_14_EXTRA),
        (five[1], RCC5, BASIC5 + BHAT5_EXTRA + D5_20_EXTRA),
        (eight[0], RCC8, BASIC8 + BHAT8_EXTRA + D8_41_EXTRA),
        (eight[1], RCC8, BASIC8 + BHAT8_EXTRA + D8_64_EXTRA),
    ]
    for sub, calc, texts in expect:
        assert sub.members == {calc.parse(t) for t in texts}, sub.name
        assert is_distributive(calc, sub.members)
        assert helly_check(sub)
    _done(2, "closure sizes 12/37; D5_14, D5_20, D8_41, D8_64 exact, "
             "distributive, Helly")


def test_criterion_3_worked_examples(example1, example2):
    """The two worked networks behave exactly as documented."""
    # example 1: (v1,v2) is the only non-trivially redundant constraint
    assert is_redundant(example1, 0, 1)
    for i, j in example1.constraint_pairs():
        if (i, j) != (0, 1):
            assert not is_redundant(example1, i, j)
    rep = core_algorithm1(example1, h5())
    assert rep.nontrivial == {(0, 1)}
    assert equivalent(example1, rep.network)
    # example 2: EQ-entailed triple, order-dependent primes, core weaker
    res = all_different(example2)
    assert not res and res.eq_pairs == [(0, 1), (0, 2), (1, 2)]
    with pytest.raises(NotAllDifferentError):
        core_algorithm1(example2, h5())
    cycle = [(0, 1), (1, 2), (0, 2)]
    first = prime_iterative(example2, [(0, 3), (1, 3)] + cycle)
    second = prime_iterative(example2, [(1, 3), (0, 3)] + cycle)
    assert set(first.constraint_pairs()) == set(cycle) | {(1, 3)}
    assert set(second.constraint_pairs()) == set(cycle) | {(0, 3)}
    assert first != second
    assert equivalent(example2, first) and equivalent(example2, second)
    assert not equivalent(example2, core(example2).network)
    _done(3, "example 1 redundancy exact; example 2 all-different pairs, "
             "two distinct primes, core not equivalent")


@pytest.mark.parametrize("sub", DISTRIBUTIVE, ids=lambda s: s.name)
def test_criterion_4_uniqueness_oracle_equivalence(sub):
    """>= 500 instances per subalgebra, n in 4..8: Algorithm 1 ==
    per-constraint sweep, the fold is order-independent and identical,
    and the prime network is equivalent to the input (scenario-set oracle
    for n <= 6, a-closure comparison above).  Exact equality throughout."""
    rng = random.Random(hash(sub.name) & 0xFFFF)
    count = 0
    oracle_checked = 0
    for net in gen.all_different_instances(sub, 500, seed=1000 + len(sub)):
        count += 1
        rep = core_algorithm1(net, sub)
        sweep = {(i, j)
                 for i in range(net.n) for j in range(i + 1, net.n)
                 if is_redundant(net, i, j)}
        assert rep.redundant == sweep
        for _ in range(2):
            order = list(net.constraint_pairs())
            rng.shuffle(order)
            assert prime_iterative(net, order) == rep.network
        if net.n <= 6:
            oracle_checked += 1
            assert equivalent(net, rep.network)
        else:
            ra = a_closure(net).network
            rb = a_closure(rep.network).network
            assert np.array_equal(ra.matrix, rb.matrix)
    assert count >= 500
    _done(4, f"{sub.name}: {count} instances, redundant sets exact, "
             f"order-independent, {oracle_checked} scenario-set oracles")


@pytest.mark.parametrize("sub", DISTRIBUTIVE, ids=lambda s: s.name)
def test_criterion_5_theorems_as_properties(sub):
    """>= 200 path-consistent networks per subalgebra (n <= 5) are minimal
    and weakly globally consistent; closure entries sit below every path
    composition; cycle compositions cover the overlap core."""
    calc = sub.calculus
    count = 0
    for net in gen.path_consistent_instances(sub, 200, seed=2000 + len(sub),
                                             n_lo=3, n_hi=5):
        count += 1
        assert check_minimal(net)
        assert check_weak_global(net)
        n = net.n
        m = net.matrix.astype(int)
        # path soundness over all paths of length 2 and 3
        for length in (2, 3):
            for path in itertools.product(range(n), repeat=length + 1):
                if any(path[t] == path[t + 1] for t in range(length)):
                    continue
                ct = m[path[0]][path[1]]
                for t in range(1, length):
                    ct = calc.compose_masks(ct, m[path[t]][path[t + 1]])
                assert m[path[0]][path[-1]] & ~ct == 0
        # cycle lemma on the (all-different) instances
        core_mask = calc.overlap_core
        for x in range(n):
            for path in itertools.product(range(n), repeat=2):
                nodes = (x,) + path + (x,)
                if any(nodes[t] == nodes[t + 1] for t in range(3)):
                    continue
                ct = m[nodes[0]][nodes[1]]
                for t in range(1, 3):
                    ct = calc.compose_masks(ct, m[nodes[t]][nodes[t + 1]])
                assert core_mask & ~ct == 0
    assert count >= 200
    _done(5, f"{sub.name}: {count} path-consistent networks minimal and "
             f"weakly globally consistent; path and cycle bounds hold")


def test_criterion_6_baseline_nesting():
    """prime <= SimpleExt <= Simple as edge sets on every instance, and
    both baselines' outputs are equivalent to the input for n <= 6."""
    nets = []
    for sub in (d8_41(), d8_64()):
        nets.extend(gen.all_different_instances(sub, 40,
                                                seed=3000 + len(sub)))
    for profile in ("scattered", "nested", "mixed"):
        for n in (8, 12):
            nets.append(scenario_from_regions(
                generate_regions(n, 4000 + n, profile)))
    rows, _ = compare(nets)  # compare() raises if nesting ever fails
    checked_equiv = 0
    for row, net in zip(rows, nets):
        with pytest.warns(DeprecationWarning):
            simple_net = simple(net)
        assert row.prime_kept <= row.simpleext_kept \
            <= simple_net.constraint_count()
        if net.n <= 6:
            checked_equiv += 1
            assert equivalent(net, simple_net)
            assert equivalent(net, simple_ext(net))
    _done(6, f"nesting on {len(rows)} instances; {checked_equiv} "
             f"baseline outputs oracle-equivalent to their inputs")


def test_criterion_7_geometry_round_trip():
    """scenario -> Algorithm 1 -> hybrid reconstitution recovers the exact
    scenario for all profiles up to n=60; the fixture suite covers all
    eight basics with converse symmetry."""
    trips = 0
    for profile in ("scattered", "nested", "mixed"):
        for n in (20, 40, 60):
            regs = generate_regions(n, 7000 + n, profile)
            scenario = scenario_from_regions(regs)
            prime = core_algorithm1(scenario).network
            rebuilt = hybrid_reconstitute(prime, regs)
            assert rebuilt == scenario, (profile, n)
            trips += 1
    names = set()
    for name, a, b in FIXTURES:
        got = rcc8_relation(a, b)
        assert str(got) == name
        assert rcc8_relation(b, a) == got.converse()
        names.add(name)
    assert names == set(RCC8.basic_names)
    _done(7, f"{trips} exact round trips; fixtures cover all 8 basics "
             f"with converse symmetry")


def test_criterion_8_desk_scale_scalability():
    """Algorithm 1 time grows no worse than cubically across n in
    {100, 200, 400} (log-log slope <= 3.3) and kept-edge counts fit a
    linear model with R^2 >= 0.9.  Each time is the median of 3 runs, so
    one slow run does not move the slope."""
    sizes = [100, 200, 400]
    times = []
    kept = []
    for n in sizes:
        rng = random.Random(n)
        scenario = scenario_from_regions(generate_regions(n, 7, "nested"))
        net = weaken_scenario(scenario, d8_41(), rng)
        runs = []
        for _ in range(3):
            t0 = time.perf_counter()
            rep = core_algorithm1(net)
            runs.append(time.perf_counter() - t0)
        times.append(statistics.median(runs))
        kept.append(net.n * (net.n - 1) // 2 - len(rep.redundant))
    slope = np.polyfit(np.log(sizes), np.log(times), 1)[0]
    assert slope <= 3.3, (slope, times)
    lin = np.polyfit(sizes, kept, 1)
    pred = np.polyval(lin, sizes)
    kept_arr = np.array(kept, dtype=float)
    ss_res = float(((kept_arr - pred) ** 2).sum())
    ss_tot = float(((kept_arr - kept_arr.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot
    assert r2 >= 0.9, (r2, kept)
    _done(8, f"times {['%.2fs' % t for t in times]} slope {slope:.2f} "
             f"<= 3.3; kept {kept} linear R^2 {r2:.3f} >= 0.9")
