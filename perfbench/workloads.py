"""The three workloads: inputs made from a seed, one operation, its checks.

Every workload calls rcckit through module attributes (``geometry.x``
rather than a name imported from it), so that a traced run sees the same
calls as an untraced one.  Checks run outside the timed span.  The first
output for each input gets the full check; every later output for the same
input must equal it.
"""

from __future__ import annotations

import random
import statistics

import numpy as np

from rcckit import algebra, baselines, geometry, network, reasoning, redundancy
from rcckit.calculus import RCC8

import polygons
import reference


class CheckError(Exception):
    """An output failed a check."""


def expect(condition, what: str) -> None:
    if not condition:
        raise CheckError(what)


def is_subnetwork(sub, net) -> bool:
    """Every entry of ``sub`` is the entry of ``net`` or universal."""
    star = net.calculus.universal
    return bool(((sub.matrix == net.matrix) | (sub.matrix == star)).all())


def satisfies(scenario, net) -> bool:
    """Every entry of the scenario lies inside the entry of ``net``."""
    return bool(((scenario.matrix & ~net.matrix) == 0).all())


def entails_input(weak, strong) -> bool:
    """Does ``weak``, a subnetwork of ``strong``, have no solution outside
    it?  Asks the backtracking oracle, for every entry where the two differ,
    whether a basic that ``strong`` excludes can be realised."""
    for i in range(weak.n):
        for j in range(i + 1, weak.n):
            extra = weak.mask(i, j) & ~strong.mask(i, j)
            for b in range(weak.calculus.size):
                if extra >> b & 1:
                    probe = weak.copy()
                    probe.set_mask(i, j, 1 << b)
                    if reasoning.solve(probe) is not None:
                        return False
    return True


def kept(net) -> set:
    star = net.calculus.universal
    rows, cols = np.nonzero(np.triu(net.matrix != star, k=1))
    return set(zip(rows.tolist(), cols.tolist()))


def _shares(net) -> dict:
    names = net.calculus.basic_names
    upper = net.matrix[np.triu_indices(net.n, k=1)]
    return {names[b]: round(float((upper == 1 << b).mean()), 4)
            for b in range(len(names))}


class PrimeWeakened:
    """core_algorithm1 on nested polygon scenarios weakened over D8_41."""

    name = "prime-weakened"

    def __init__(self, tiny: bool):
        # rcckit switches to its numpy closure above 40 variables and to
        # its vector Q-scan above 48; the reference restriction and the
        # tiny size both lie above these, so they check the paths timed
        self.n = 52 if tiny else 200
        self.count = 2 if tiny else 4
        self.restricted = 50 if tiny else 60

    def inputs(self, seed: int) -> list:
        nets = []
        for index in range(self.count):
            sub_seed = seed * 1000 + index
            regions = geometry.generate_regions(self.n, sub_seed, "nested")
            scenario = geometry.scenario_from_regions(regions)
            nets.append(redundancy.weaken_scenario(
                scenario, algebra.d8_41(), random.Random(sub_seed)))
        return nets

    def run(self, net):
        return redundancy.core_algorithm1(net)

    def same(self, a, b) -> bool:
        return a.network == b.network and a.redundant == b.redundant

    def check(self, index, net, report) -> None:
        prime = report.network
        expect(is_subnetwork(prime, net), "prime is not a subnetwork")
        full = reasoning.a_closure(net)
        closed = reasoning.a_closure(prime)
        expect(full.consistent and closed.consistent, "inconsistent closure")
        expect(closed.network == full.network,
               "a-closure of the prime differs from that of the input")
        star = net.calculus.universal
        expect(report.redundant == reference.q_redundant(
            full.network.matrix, {(i, j) for i in range(net.n)
                                  for j in range(i + 1, net.n)
                                  if net.mask(i, j) == star}),
               "redundant set differs from the reference Q test on the "
               "closure")
        if index:
            return
        part = network.restrict(net, range(self.restricted))
        matrix = part.matrix.astype(int).tolist()
        expect(reasoning.a_closure(part).network.matrix.tolist()
               == reference.a_closure(matrix),
               "a-closure differs from the reference closure")
        expect(redundancy.core_algorithm1(part).redundant
               == reference.prime_by_q_test(matrix),
               "redundant set differs from the reference Q test")

    def describe(self, inputs, outputs) -> dict:
        return {
            "n": self.n,
            "networks": len(inputs),
            "constraints": [net.constraint_count() for net in inputs],
            "prime_kept": [len(kept(r.network)) for r in outputs],
            "checks": [r.checks for r in outputs],
        }


class GisPolygons:
    """The paper's experiment: convex polygons to a scenario, its prime
    subnetwork, both baselines, file round trip and reconstitution."""

    name = "gis-polygons"

    def __init__(self, tiny: bool):
        self.cols, self.rows = (2, 2) if tiny else (4, 2)
        self.count = 2 if tiny else 12

    def inputs(self, seed: int) -> list:
        scenes = []
        for index in range(self.count):
            rings = polygons.scene(self.cols, self.rows, seed * 1000 + index)
            regions = [geometry.Region(f"p{i + 1}", ring)
                       for i, ring in enumerate(rings)]
            scenes.append((rings, regions))
        return scenes

    def run(self, scene) -> dict:
        regions = scene[1]
        scenario = geometry.scenario_from_regions(regions)
        prime = redundancy.core_algorithm1(scenario).network
        ext = baselines.simple_ext(scenario)
        simple = baselines.simple(scenario)
        text = network.save(prime)
        loaded = network.loads(text)
        rebuilt = geometry.hybrid_reconstitute(loaded, regions)
        return {"scenario": scenario, "prime": prime, "simple_ext": ext,
                "simple": simple, "text": text, "loaded": loaded,
                "rebuilt": rebuilt}

    def same(self, a, b) -> bool:
        return all(a[key] == b[key] for key in a)

    def check(self, index, scene, out) -> None:
        rings = scene[0]
        sc = out["scenario"]
        expect(out["rebuilt"] == sc, "reconstitution differs from scenario")
        m = sc.matrix.astype(int).tolist()
        n = sc.n
        expect(all(m[i][i] == reference.BIT["EQ"] for i in range(n)),
               "diagonal is not EQ")
        expect(all(m[j][i] == reference.converse(m[i][j])
                   for i in range(n) for j in range(i + 1, n)),
               "scenario is not converse-symmetric")
        closure = reasoning.a_closure(sc)
        expect(closure.consistent and closure.updates == 0,
               "closure of the scenario made updates")
        expect(kept(out["prime"]) <= kept(out["simple_ext"])
               <= kept(out["simple"]), "prime <= SimpleExt <= Simple fails")
        expect(out["loaded"] == out["prime"], "loads(save(p)) != p")
        expect(kept(out["prime"]) == {
            (i, j) for i in range(n) for j in range(i + 1, n)}
            - reference.prime_by_q_test(m),
            "prime differs from the reference Q test")
        for i, j in self._sample_pairs(rings, index):
            got = reference.convex_relation(rings[i], rings[j])
            expect(m[i][j] == reference.BIT[got],
                   f"pair {i},{j}: program says {RCC8.format(m[i][j])}, "
                   f"the convex predicate {got}")

    @staticmethod
    def _sample_pairs(rings, index) -> list:
        """Every pair whose bounding boxes meet, plus as many other pairs
        drawn at random."""
        boxes = [(min(x for x, _ in r), min(y for _, y in r),
                  max(x for x, _ in r), max(y for _, y in r)) for r in rings]
        near, far = [], []
        for i in range(len(rings)):
            for j in range(i + 1, len(rings)):
                a, b = boxes[i], boxes[j]
                meet = (a[0] <= b[2] and b[0] <= a[2]
                        and a[1] <= b[3] and b[1] <= a[3])
                (near if meet else far).append((i, j))
        rng = random.Random(index)
        return near + rng.sample(far, min(len(near), len(far)))

    def describe(self, inputs, outputs) -> dict:
        return {
            "polygons": len(inputs[0][0]),
            "scenes": len(inputs),
            "vertices_mean": round(statistics.mean(
                len(r) for rings, _ in inputs for r in rings), 2),
            "relation_share": _shares(outputs[0]["scenario"]),
            "prime_kept": [len(kept(o["prime"])) for o in outputs],
            "simple_ext_kept": [len(kept(o["simple_ext"])) for o in outputs],
            "simple_kept": [len(kept(o["simple"])) for o in outputs],
            "simple_differs_from_simple_ext": sum(
                o["simple"] != o["simple_ext"] for o in outputs),
            "file_bytes": [len(o["text"]) for o in outputs],
        }


class OracleSweep:
    """Small networks through the per-constraint core() sweep and an
    order-shuffled prime_iterative fold."""

    name = "oracle-sweep"
    KINDS = ("D8_64", "D5_20", "general")
    PROFILES = ("nested", "mixed", "scattered")

    def __init__(self, tiny: bool):
        sizes = (5, 6) if tiny else (9, 10, 11)
        copies = 1 if tiny else 5
        self.plan = [(n, kind) for n in sizes for kind in self.KINDS
                     for _ in range(copies)]

    def inputs(self, seed: int) -> list:
        out = []
        for index, (n, kind) in enumerate(self.plan):
            sub_seed = seed * 1000 + index
            rng = random.Random(sub_seed)
            regions = geometry.generate_regions(
                n, sub_seed, self.PROFILES[index % len(self.PROFILES)])
            scenario = geometry.scenario_from_regions(regions)
            if kind == "D5_20":
                scenario = network.to_rcc5(scenario)
                net = redundancy.weaken_scenario(scenario, algebra.d5_20(),
                                                 rng)
            elif kind == "D8_64":
                net = redundancy.weaken_scenario(scenario, algebra.d8_64(),
                                                 rng)
            else:
                net = self._general(scenario, rng)
            order = list(net.constraint_pairs())
            rng.shuffle(order)
            out.append((kind, scenario, net, order))
        return out

    @staticmethod
    def _general(scenario, rng):
        """The scenario with up to two random basics added to each entry,
        redrawn until no built-in tractable subalgebra holds it."""
        while True:
            net = scenario.copy()
            for i in range(net.n):
                for j in range(i + 1, net.n):
                    mask = net.mask(i, j)
                    for _ in range(rng.randint(0, 2)):
                        mask |= 1 << rng.randrange(RCC8.size)
                    net.set_mask(i, j, mask)
            if reasoning.detect_tractable(net) is None:
                return net

    def run(self, instance):
        _, _, net, order = instance
        return (redundancy.core(net),
                redundancy.prime_iterative(net, order))

    def same(self, a, b) -> bool:
        return (a[0].network == b[0].network
                and a[0].redundant == b[0].redundant and a[1] == b[1])

    def check(self, index, instance, out) -> None:
        kind, scenario, net, _ = instance
        swept, folded = out[0].network, out[1]
        expect(scenario.is_scenario and satisfies(scenario, net),
               "the generating scenario does not satisfy the input")
        if kind != "general":
            unique = redundancy.core_algorithm1(net).network
            expect(swept == unique, "core() sweep differs from Algorithm 1")
            expect(folded == unique, "shuffled fold differs from Algorithm 1")
            return
        for out_net in (swept, folded):
            expect(is_subnetwork(out_net, net), "output is not a subnetwork")
            expect(satisfies(scenario, out_net),
                   "generating scenario does not satisfy the output")
        expect(kept(swept) <= kept(folded),
               "a constraint of the core was dropped by the fold")
        expect(entails_input(folded, net),
               "fold output is not oracle-equivalent to its input")

    def describe(self, inputs, outputs) -> dict:
        by_kind = {}
        for (kind, _, net, _), (swept, folded) in zip(inputs, outputs):
            row = by_kind.setdefault(kind, {"instances": 0, "constraints": 0,
                                            "core_kept": 0, "fold_kept": 0})
            row["instances"] += 1
            row["constraints"] += net.constraint_count()
            row["core_kept"] += len(kept(swept.network))
            row["fold_kept"] += len(kept(folded))
        return {"sizes": sorted({n for n, _ in self.plan}),
                "instances": len(inputs), "by_kind": by_kind}


WORKLOADS = {cls.name: cls for cls in (PrimeWeakened, GisPolygons, OracleSweep)}


def prepare(name: str) -> None:
    """Derive the maximal distributive subalgebras the workload uses; every
    RCC8 command of rcckit pays the first, oracle-sweep also the RCC5 one."""
    algebra.d8_41()
    if name == OracleSweep.name:
        algebra.d5_20()
