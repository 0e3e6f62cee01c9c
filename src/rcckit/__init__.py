"""rcckit: RCC5/RCC8 qualitative spatial reasoning.

Relation algebras, distributive subalgebras, constraint networks, path
consistency, redundancy analysis (including the cubic-time unique prime
subnetwork), baseline simplifiers, and polygon-derived RCC8 scenarios.
"""

from .calculus import (
    RCC5,
    RCC8,
    Calculus,
    Relation,
    compose,
    converse,
    ct_path,
    get_calculus,
    verify_relation_algebra,
)
from .algebra import (
    Subalgebra,
    bhat,
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
from .network import Network, load, loads, save
from .reasoning import (
    AClosureResult,
    a_closure,
    all_different,
    check_minimal,
    check_weak_global,
    entails,
    is_consistent,
    solve,
)
from .redundancy import (
    RedundancyReport,
    core,
    core_algorithm1,
    equivalent,
    is_redundant,
    prime,
    prime_iterative,
)
from .baselines import ComparisonRow, compare, simple, simple_ext
from .geometry import (
    BoundingBox,
    Region,
    generate_regions,
    hybrid_reconstitute,
    rcc8_relation,
    scenario_from_regions,
)

__version__ = "0.1.0"
