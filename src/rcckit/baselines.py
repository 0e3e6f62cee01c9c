"""Triple-based simplification baselines and the three-way comparison.

``simple`` sweeps triples (i, j, k) in ascending order and immediately
drops the (i, k) constraint whenever R_ij . R_jk is contained in it;
removed constraints become universal and can no longer justify later
removals, so the visiting order matters.

``simple_ext`` runs the same sweep but only marks constraints, requiring
both justifying constraints to be unmarked, and removes every marked
constraint at the end.  The unmarked-justifier rule guarantees the
simultaneously removed set is still entailed by what remains.

Both return networks equivalent to the input, and their kept edge sets
always contain the prime subnetwork's.

On RCC5 and RCC8 both return the same network: r . * = * . r = * for
every nonempty r, so a constraint Simple has removed can never justify
another removal, which is SimpleExt's unmarked-justifier rule.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .errors import RccError
from .network import Network
from .reasoning import DEFAULT_GUARD
from .redundancy import core_algorithm1, detect_distributive, prime_iterative

__all__ = ["simple", "simple_ext", "compare", "ComparisonRow", "rows_to_csv"]


def simple(net: Network, _counter: list = None) -> Network:
    """Greedy one-pass triple simplification (immediate removal)."""
    m = net.matrix.copy()
    comp = net.calculus.comp_table
    conv = net.calculus.conv_table
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
    if _counter is not None:
        _counter.append(checks)
    out = net.copy()
    out.matrix = m
    return out


def simple_ext(net: Network, _counter: list = None) -> Network:
    """Mark-then-remove variant; justifying constraints must be unmarked."""
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
    if _counter is not None:
        _counter.append(checks)
    out = net.copy()
    out.matrix = m.copy()
    out.matrix[marked] = star
    return out


@dataclass
class ComparisonRow:
    """Per-instance results of prime vs SimpleExt vs Simple."""

    n: int
    constraint_total: int
    prime_kept: int
    simpleext_kept: int
    simple_kept: int
    prime_checks: int
    simpleext_checks: int
    simple_checks: int
    prime_time: float
    simpleext_time: float
    simple_time: float
    prime_method: str


def _edges(net: Network) -> set:
    return set(net.constraint_pairs())


def compare(nets: Sequence[Network],
            guard: int = DEFAULT_GUARD) -> tuple[list[ComparisonRow], str]:
    """Run all three simplifiers on each network.

    Validates the nesting invariant prime <= SimpleExt <= Simple (as edge
    sets) on every instance and returns the rows plus their CSV rendering.
    Falls back from the cubic algorithm to the iterative fold when the
    entries do not fit a distributive subalgebra.
    """
    rows = []
    for net in nets:
        t0 = time.perf_counter()
        if detect_distributive(net) is not None:
            report = core_algorithm1(net)
            prime_net = report.network
            prime_checks = report.checks
            method = "algorithm1"
        else:
            prime_net = prime_iterative(net, guard=guard)
            prime_checks = 0
            method = "iterative"
        t1 = time.perf_counter()
        cnt = []
        ext_net = simple_ext(net, cnt)
        t2 = time.perf_counter()
        simple_net = simple(net, cnt)
        t3 = time.perf_counter()
        prime_edges = _edges(prime_net)
        ext_edges = _edges(ext_net)
        simple_edges = _edges(simple_net)
        if not (prime_edges <= ext_edges <= simple_edges):
            raise RccError("nesting invariant violated: prime <= SimpleExt "
                           "<= Simple failed on an instance")
        rows.append(ComparisonRow(
            n=net.n,
            constraint_total=net.constraint_count(),
            prime_kept=len(prime_edges),
            simpleext_kept=len(ext_edges),
            simple_kept=len(simple_edges),
            prime_checks=prime_checks,
            simpleext_checks=cnt[0],
            simple_checks=cnt[1],
            prime_time=t1 - t0,
            simpleext_time=t2 - t1,
            simple_time=t3 - t2,
            prime_method=method,
        ))
    return rows, rows_to_csv(rows)


def rows_to_csv(rows: Sequence[ComparisonRow]) -> str:
    buf = io.StringIO()
    names = [f.name for f in fields(ComparisonRow)]
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(names)
    for row in rows:
        writer.writerow([f"{getattr(row, n):.6f}"
                         if isinstance(getattr(row, n), float)
                         else getattr(row, n) for n in names])
    return buf.getvalue()
