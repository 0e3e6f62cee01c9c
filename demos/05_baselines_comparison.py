"""Prime subnetworks versus the SimpleExt triple sweep.

The greedy baselines drop a constraint when some two-edge path already
entails it.  They are cheap and order-sensitive; the prime subnetwork is
the floor: its kept edge set is contained in the baseline's on every
instance.  On consistent RCC5 and RCC8 networks Simple returns
SimpleExt's network, so the comparison shows one baseline column.
"""

import random

from rcckit.algebra import d8_41
from rcckit.baselines import compare
from rcckit.geometry import generate_regions, scenario_from_regions
from rcckit.redundancy import weaken_scenario

rng = random.Random(7)
nets = []
for n in (10, 15, 20, 25):
    scenario = scenario_from_regions(generate_regions(n, n, "nested"))
    nets.append(weaken_scenario(scenario, d8_41(), rng))

rows, csv_text = compare(nets)
print(f"{'n':>4} {'total':>6} {'prime':>6} {'ext':>6}")
for row in rows:
    print(f"{row.n:>4} {row.constraint_total:>6} {row.prime_kept:>6} "
          f"{row.simpleext_kept:>6}")

print("\nCSV (as written by `rcckit compare --out ...`):")
print(csv_text.splitlines()[0])
print(csv_text.splitlines()[1])

row = rows[0]
print(f"\ntriple conditions evaluated on the first instance: "
      f"prime={row.prime_checks}, SimpleExt={row.simpleext_checks}")
