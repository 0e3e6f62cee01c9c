"""Triple-based simplification baselines and the three-way comparison.

Simple sweeps triples (i, j, k) in ascending order and drops the (i, k)
constraint at once whenever R_ij . R_jk is contained in it.  SimpleExt
only marks such constraints, requires both justifiers to be unmarked, and
removes every marked constraint at the end.  By induction from the last
mark, the output entails what it removed: it is equivalent to the input,
and its kept edges contain the prime subnetwork's.

On RCC5 and RCC8, r . * = * . r = * for every nonempty r, so a removed
constraint can justify a removal only beside an empty entry.  One engine
with SimpleExt's rule therefore serves both, and the comparison reports
SimpleExt alone.  It changes Simple's output only on inputs with an
empty entry; such an input is inconsistent, and so is the output.

The engine tests the a-closure's gather, comp[m_ij, m_jk] within m_ik,
for k outside {i, j} and non-universal m_ik.  A step of row i marks only
row i and column i, so the sweep is one left-to-right scan over j per
row, on Python-int bitsets.
"""

from __future__ import annotations

import csv
import io
import time
import warnings
from dataclasses import astuple, dataclass, fields
from typing import Sequence

import numpy as np

from .errors import RccError
from .network import Network
from .reasoning import DEFAULT_GUARD, _gathers
from .redundancy import prime

__all__ = ["simple", "simple_ext", "compare", "ComparisonRow", "rows_to_csv"]


def _sweep(net: Network) -> tuple[Network, int]:
    """SimpleExt's sweep: the simplified network and the number of triple
    conditions evaluated, n - 2 for every step (i, j) not skipped."""
    calc = net.calculus
    m = net.matrix
    n = net.n
    star = calc.universal
    width = (n + 7) // 8
    # marked[i] holds bit k when (i, k) is marked; the diagonal bit keeps
    # k = i out of every step, as a justifier and as a target
    marked = [1 << v for v in range(n)]
    steps = 0
    for block, gather in _gathers(calc, m):
        rows = m[block]
        fires = (((gather & ~rows[:, None, :]) == 0)
                 & (rows != star)[:, None, :])
        packed = np.packbits(fires, axis=2, bitorder="little").tobytes()
        for r in range(rows.shape[0]):
            i = block.start + r
            bit_i = 1 << i
            seen = marked[i]
            for j in range(n):
                if seen >> j & 1:
                    continue
                steps += 1
                at = (r * n + j) * width
                hits = (int.from_bytes(packed[at:at + width], "little")
                        & ~seen & ~marked[j])
                seen |= hits
                while hits:
                    low = hits & -hits
                    marked[low.bit_length() - 1] |= bit_i
                    hits ^= low
            marked[i] = seen
    raw = b"".join(bits.to_bytes(width, "little") for bits in marked)
    removed = np.unpackbits(np.frombuffer(raw, np.uint8).reshape(n, width),
                            axis=1, count=n, bitorder="little").astype(bool)
    np.fill_diagonal(removed, False)
    out = net.copy()
    out.matrix[removed] = star
    return out, steps * (n - 2)


def simple(net: Network) -> Network:
    """Deprecated alias of :func:`simple_ext`: greedy immediate removal
    differs from it only on inputs with an empty entry (see the module
    docstring)."""
    warnings.warn("baselines.simple is deprecated; it returns "
                  "simple_ext's network", DeprecationWarning, stacklevel=2)
    return _sweep(net)[0]


def simple_ext(net: Network) -> Network:
    """Mark-then-remove variant; justifying constraints must be unmarked."""
    return _sweep(net)[0]


@dataclass
class ComparisonRow:
    """Per-instance results of prime vs SimpleExt.

    ``*_kept`` counts the constraints a method keeps.  ``*_checks``
    counts its triple conditions: ``RedundancyReport.checks`` for
    Algorithm 1 (0 for the ``iterative`` fold), and n - 2 per step (i, j)
    the baseline sweep does not skip.  ``*_time`` is wall-clock seconds.
    Simple has no columns: it returns SimpleExt's network (see the module
    docstring).
    """

    n: int
    constraint_total: int
    prime_kept: int
    simpleext_kept: int
    prime_checks: int
    simpleext_checks: int
    prime_time: float
    simpleext_time: float
    prime_method: str


def compare(nets: Sequence[Network],
            guard: int = DEFAULT_GUARD) -> tuple[list[ComparisonRow], str]:
    """Run the prime subnetwork and the baseline engine on each network.

    Validates the nesting invariant prime <= SimpleExt (as edge sets) on
    every instance and returns the rows plus their CSV rendering.
    The prime column comes from :func:`rcckit.redundancy.prime`, so it
    picks the engine and rejects inconsistent inputs the same way.
    """
    rows = []
    for net in nets:
        t0 = time.perf_counter()
        report = prime(net, guard=guard)
        t1 = time.perf_counter()
        base_net, checks = _sweep(net)
        t2 = time.perf_counter()
        prime_edges = set(report.network.constraint_pairs())
        base_edges = set(base_net.constraint_pairs())
        if not prime_edges <= base_edges:
            raise RccError("nesting invariant violated: prime <= SimpleExt "
                           "failed on an instance")
        rows.append(ComparisonRow(
            n=net.n,
            constraint_total=net.constraint_count(),
            prime_kept=len(prime_edges),
            simpleext_kept=len(base_edges),
            prime_checks=report.checks,
            simpleext_checks=checks,
            prime_time=t1 - t0,
            simpleext_time=t2 - t1,
            prime_method=report.method,
        ))
    return rows, rows_to_csv(rows)


def rows_to_csv(rows: Sequence[ComparisonRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(f.name for f in fields(ComparisonRow))
    for row in rows:
        writer.writerow(f"{v:.6f}" if isinstance(v, float) else v
                        for v in astuple(row))
    return buf.getvalue()
