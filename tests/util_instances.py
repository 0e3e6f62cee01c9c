"""Random test-instance pipeline shared by the property and acceptance tests.

Instances come from geometry: random regions give a consistent complete
basic scenario (the regions witness it), which is then weakened edge by
edge to the smallest subalgebra member containing the scenario basic plus
a few random extras.  Consistency survives weakening by construction.
"""

import itertools
import random

from hypothesis import strategies as st

from rcckit import RCC5, RCC8
from rcckit.algebra import Subalgebra
from rcckit.geometry import generate_regions, scenario_from_regions
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
