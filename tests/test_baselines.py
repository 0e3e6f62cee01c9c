"""Simple and SimpleExt baselines and the comparison harness.

``simple`` is deprecated, so every call of it here sits inside
``pytest.warns``."""

import csv
import io
import random
from dataclasses import fields

import numpy as np
import pytest

import util_instances as gen
from rcckit import RCC5, RCC8, Network
from rcckit.algebra import d8_41, d8_64
from rcckit.baselines import (ComparisonRow, _sweep, compare, simple,
                              simple_ext)
from rcckit.geometry import generate_regions, scenario_from_regions
from rcckit.redundancy import (core_algorithm1, equivalent, prime,
                               weaken_scenario)


# compare's CSV header, and the keys of compare's and bench's --json rows
COLUMNS = ["n", "constraint_total", "prime_kept", "simpleext_kept",
           "prime_checks", "simpleext_checks", "prime_time",
           "simpleext_time", "prime_method"]


def nested_chain():
    net = Network(RCC8, 3)
    net[0, 1] = "NTPP"
    net[1, 2] = "NTPP"
    net[0, 2] = "NTPP"
    return net


def test_simple_removes_implied_chain_edge():
    with pytest.warns(DeprecationWarning):
        out = simple(nested_chain())
    assert set(out.constraint_pairs()) == {(0, 1), (1, 2)}


def test_simple_ext_removes_it_too():
    out = simple_ext(nested_chain())
    assert set(out.constraint_pairs()) == {(0, 1), (1, 2)}


def test_unfireable_network_unchanged():
    net = Network(RCC8, 3)
    net[0, 1] = "PO"
    net[1, 2] = "PO"
    net[0, 2] = "EC"
    with pytest.warns(DeprecationWarning):
        assert simple(net) == net
    assert simple_ext(net) == net


def test_baselines_keep_at_least_the_prime_edges(example1):
    kept = prime(example1).network
    with pytest.warns(DeprecationWarning):
        s = simple(example1)
    ext = simple_ext(example1)
    assert set(kept.constraint_pairs()) <= set(ext.constraint_pairs())
    assert set(ext.constraint_pairs()) <= set(s.constraint_pairs())


def test_baselines_preserve_equivalence_small():
    for k, net in enumerate(gen.all_different_instances(
            d8_41(), 10, seed=61, n_lo=4, n_hi=6)):
        with pytest.warns(DeprecationWarning):
            assert equivalent(net, simple(net))
        assert equivalent(net, simple_ext(net))


def test_removal_is_order_sensitive_but_deterministic():
    net = nested_chain()
    with pytest.warns(DeprecationWarning):
        assert simple(net) == simple(net)
    assert simple_ext(net) == simple_ext(net)


def test_simple_is_a_deprecated_alias_of_simple_ext(example1):
    with pytest.warns(DeprecationWarning) as caught:
        out = simple(example1)
    assert len(caught) == 1
    assert caught[0].filename == __file__
    assert out == simple_ext(example1)


def test_inputs_are_not_mutated():
    net = nested_chain()
    before = net.matrix.copy()
    with pytest.warns(DeprecationWarning):
        simple(net)
    simple_ext(net)
    assert (net.matrix == before).all()


def test_compare_rows_and_nesting():
    nets = list(gen.all_different_instances(d8_41(), 6, seed=71,
                                            n_lo=4, n_hi=7))
    rows, csv_text = compare(nets)
    assert len(rows) == len(nets)
    header = csv_text.splitlines()[0].split(",")
    assert header == [f.name for f in fields(ComparisonRow)] == COLUMNS
    for row, net in zip(rows, nets):
        with pytest.warns(DeprecationWarning):
            simple_kept = simple(net).constraint_count()
        assert row.prime_kept <= row.simpleext_kept <= simple_kept
        assert row.constraint_total == net.constraint_count()
        assert row.prime_method == "algorithm1"
        assert row.prime_checks >= 0 and row.simpleext_checks > 0


def test_compare_single_scenario_keeps_equivalent_network():
    sc = gen.random_scenario(5, 83)
    rows, _ = compare([sc])
    with pytest.warns(DeprecationWarning):
        simple_net = simple(sc)
    assert rows[0].prime_kept <= simple_net.constraint_count()
    prime = core_algorithm1(sc).network
    assert equivalent(sc, prime)
    assert equivalent(sc, simple_net)


def test_compare_empty_batch():
    rows, csv_text = compare([])
    assert rows == []
    lines = csv_text.splitlines()
    assert lines == [",".join(COLUMNS)]


def test_compare_falls_back_to_iterative(example1):
    distributive = next(gen.all_different_instances(d8_41(), 1, seed=43,
                                                    n_lo=9, n_hi=10))
    rows, _ = compare([example1, distributive])
    assert rows[0].prime_method == "iterative"
    assert rows[0].prime_kept == 5  # everything but the one redundant edge
    assert rows[1].prime_method == "algorithm1"
    # the prime columns are redundancy.prime's report
    for row, net in zip(rows, (example1, distributive)):
        rep = prime(net)
        assert (row.prime_method, row.prime_checks, row.prime_kept) == (
            rep.method, rep.checks, rep.network.constraint_count())


def test_csv_is_deterministic():
    nets = list(gen.all_different_instances(d8_41(), 3, seed=97,
                                            n_lo=4, n_hi=5))
    _, a = compare(nets)
    _, b = compare(nets)
    # timing columns differ run to run; the structural columns must not
    structural = [c for c in COLUMNS if not c.endswith("_time")]

    def stable(text):
        return [{c: row[c] for c in structural}
                for row in csv.DictReader(io.StringIO(text))]

    assert stable(a) == stable(b) and len(stable(a)) == len(nets)


def _reference_simple(net):
    """The immediate-removal triple loop, kept as an independent reference:
    the simplified network and its n(n-1)(n-2) triple conditions."""
    m = net.matrix.copy()
    comp = net.calculus.comp_table
    star = np.uint16(net.calculus.universal)
    n = net.n
    checks = 0
    ks = np.arange(n)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            keep = (ks != i) & (ks != j)
            checks += int(keep.sum())
            hit = keep & (m[i] != star) \
                & ((comp[int(m[i, j]), m[j]] & ~m[i]) == 0)
            if hit.any():
                m[i, hit] = star
                m[hit, i] = star
    out = net.copy()
    out.matrix = m
    return out, checks


def _reference_simple_ext(net):
    """The mark-then-remove triple loop, kept as an independent reference:
    the simplified network and the triple conditions it evaluated."""
    m = net.matrix
    comp = net.calculus.comp_table
    star = np.uint16(net.calculus.universal)
    n = net.n
    marked = np.zeros((n, n), dtype=bool)
    checks = 0
    ks = np.arange(n)
    for i in range(n):
        for j in range(n):
            if i == j or marked[i, j]:
                continue
            keep = (ks != i) & (ks != j)
            checks += int(keep.sum())
            hit = keep & ~marked[i] & ~marked[j] & (m[i] != star) \
                & ((comp[int(m[i, j]), m[j]] & ~m[i]) == 0)
            if hit.any():
                marked[i, hit] = True
                marked[hit, i] = True
    out = net.copy()
    out.matrix = m.copy()
    out.matrix[marked] = star
    return out, checks


def _random_networks(calc, count, seed):
    """Random 3-12-variable networks: entries drawn from random masks, the
    universal relation and (in every third network) the empty one, so
    inconsistent inputs are common."""
    rng = random.Random(seed)
    for t in range(count):
        n = rng.randint(3, 12)
        net = Network(calc, n)
        p_empty = 0.03 if t % 3 == 0 else 0.0
        for i in range(n):
            for j in range(i + 1, n):
                u = rng.random()
                if u < p_empty:
                    mask = 0
                elif u < 0.3:
                    mask = calc.universal
                elif u < 0.7:
                    mask = 1 << rng.randrange(calc.size)
                else:
                    mask = rng.randrange(1, calc.universal)
                net.set_mask(i, j, mask)
        yield net


def _weakened_scenes():
    for n in (19, 60):
        for profile in ("nested", "scattered"):
            scene = scenario_from_regions(generate_regions(n, 500 + n, profile))
            for sub in (d8_41(), d8_64()):
                yield weaken_scenario(scene, sub, random.Random(n + len(sub)))


def test_one_engine_matches_both_loops():
    nets = [*_random_networks(RCC5, 150, 11), *_random_networks(RCC8, 150, 13),
            *_weakened_scenes()]
    with_empty = 0
    for net in nets:
        out, checks = _sweep(net)
        ref_ext, ext_checks = _reference_simple_ext(net)
        assert out == ref_ext and checks == ext_checks
        with pytest.warns(DeprecationWarning):
            assert simple_ext(net) == out and simple(net) == out
        if (net.matrix == 0).any():
            with_empty += 1
            continue
        assert out == _reference_simple(net)[0]
    assert 30 <= with_empty < len(nets)
