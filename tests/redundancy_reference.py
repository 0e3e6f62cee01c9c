"""The redundancy engines as they stood before batched entailment, kept as
the reference the tests compare ``redundancy.core`` and
``redundancy.prime_iterative`` with: per constraint, a copy with the
constraint removed, and one pinned copy of it per basic outside the
constraint, each decided from scratch by ``reasoning.is_consistent``
(which searches only off the tractable subalgebras), one constraint at a
time."""

from rcckit.network import remove_constraint
from rcckit.reasoning import DEFAULT_GUARD, is_consistent
from rcckit.redundancy import _report


def entails(net, i, j, r, guard=DEFAULT_GUARD):
    """Pin each basic of the (i, j) entry outside r into a copy of the
    network; r is entailed when no pinned copy is consistent."""
    outside = net.mask(i, j) & ~r.mask
    for b in range(net.calculus.size):
        if outside >> b & 1:
            probe = net.copy()
            probe.set_mask(i, j, 1 << b)
            if is_consistent(probe, guard=guard):
                return False
    return True


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
