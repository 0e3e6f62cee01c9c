"""The redundancy engines as they stood before batched entailment, kept as
the reference the tests compare ``redundancy.core`` and
``redundancy.prime_iterative`` with: per constraint, a copy with the
constraint removed, one subalgebra fit of it, one from-scratch closure
(``reasoning._closed``) and its pins, one constraint at a time."""

from rcckit.network import remove_constraint
from rcckit.reasoning import (
    DEFAULT_GUARD,
    _closed,
    _closure_decides,
    _solvable,
)
from rcckit.redundancy import _report


def entails(net, i, j, r, guard=DEFAULT_GUARD):
    """Pin each basic of the (i, j) entry outside r into the closed
    network; search only where the closure does not decide the network
    with (i, j) widened to universal."""
    calc = net.calculus
    outside = net.mask(i, j) & ~r.mask
    pins = [(i, j, 1 << b) for b in range(calc.size) if outside >> b & 1]
    if not pins:
        return True
    wide = net
    if net.mask(i, j) != calc.universal:
        wide = net.copy()
        wide.set_mask(i, j, calc.universal)
    return not any(_solvable(net, _closed(net), pins, guard,
                             not _closure_decides(wide)))


def is_redundant(net, i, j, guard=DEFAULT_GUARD):
    rel = net.entry(i, j)
    if rel.is_universal:
        return True
    return entails(remove_constraint(net, i, j), i, j, rel, guard)


def core(net, guard=DEFAULT_GUARD):
    out = net.copy()
    for i, j in net.constraint_pairs():
        if is_redundant(net, i, j, guard):
            out.set_mask(i, j, net.calculus.universal)
    return _report(net, out, "sweep", net.constraint_count())


def prime_iterative(net, order, guard=DEFAULT_GUARD):
    current = net.copy()
    for i, j in order:
        if is_redundant(current, i, j, guard):
            current.set_mask(i, j, net.calculus.universal)
    return current
