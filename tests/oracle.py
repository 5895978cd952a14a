"""Independent brute-force oracle for the test suite.

Everything here transcribes the definitions directly with sets and
``itertools`` and deliberately shares no code with the package: chains are
followed step by step, coalitions are enumerated as tuples, power values are
assembled from factorials.  Slow but obviously correct; used to freeze
expected values and to cross-check the package on small random instances.

Delegation choices are given as a sequence with ``None`` meaning
"votes personally"; voter ids are 0-based.
"""

from fractions import Fraction
from itertools import chain as _chain, combinations
from math import factorial


def chain_of(choices, voter):
    """Delegation path from the voter to whoever finally casts the ballot."""
    path = [voter]
    seen = {voter}
    v = voter
    while choices[v] is not None:
        v = choices[v]
        if v in seen:
            raise ValueError("cyclic delegations")
        seen.add(v)
        path.append(v)
    return path


def guru_of(choices, voter):
    return chain_of(choices, voter)[-1]


def active_members(choices, coalition):
    """Members whose whole delegation path lies inside the coalition."""
    coalition = set(coalition)
    return {v for v in coalition if set(chain_of(choices, v)) <= coalition}


def coalition_weight(choices, weights, coalition):
    return sum(weights[v] for v in active_members(choices, coalition))


def wins(choices, weights, quota, coalition):
    return coalition_weight(choices, weights, coalition) >= quota


def all_coalitions(members):
    members = list(members)
    return _chain.from_iterable(
        combinations(members, r) for r in range(len(members) + 1)
    )


def swing_sizes(choices, weights, quota, voter):
    """Map coalition size -> number of coalitions of others swung by voter."""
    n = len(choices)
    others = [v for v in range(n) if v != voter]
    by_size = {}
    for coalition in all_coalitions(others):
        if not wins(choices, weights, quota, coalition) and wins(
            choices, weights, quota, coalition + (voter,)
        ):
            by_size[len(coalition)] = by_size.get(len(coalition), 0) + 1
    return by_size


def banzhaf_term(n):
    """Worth of one swung coalition: one of the ``2**(n-1)`` coalitions of
    the other voters."""
    return Fraction(1, 2 ** (n - 1))


def shapley_term(n, size):
    """Worth of one swung coalition of ``size`` others: the share of the
    ``n!`` voter orders in which exactly those voters come first."""
    return Fraction(factorial(size) * factorial(n - 1 - size), factorial(n))


def banzhaf(choices, weights, quota, voter):
    n = len(choices)
    total = sum(swing_sizes(choices, weights, quota, voter).values())
    return total * banzhaf_term(n)


def shapley(choices, weights, quota, voter):
    n = len(choices)
    value = Fraction(0)
    for size, count in swing_sizes(choices, weights, quota, voter).items():
        value += shapley_term(n, size) * count
    return value


def accumulated_weight(choices, weights, voter):
    """Weight a voter finally casts: own plus everything delegated to it."""
    if choices[voter] is not None:
        return 0
    return sum(
        weights[v]
        for v in range(len(choices))
        if guru_of(choices, v) == voter
    )


def min_power(choices, weights, quota, measure):
    """Smallest power value over all voters, by direct enumeration."""
    fn = banzhaf if measure == "banzhaf" else shapley
    return min(fn(choices, weights, quota, v) for v in range(len(choices)))


def colorful_trees(coloring, weights, arcs, colors, cost_cap):
    """Heaviest colorful trees under one coloring, by the plain recurrence.

    Maps ``(v, color_set, cost)`` to the largest weight of a tree rooted at
    ``v`` whose vertices carry each color of the bitmask ``color_set``
    exactly once and whose ``(parent, child, cost)`` arcs cost ``cost`` in
    all, at most ``cost_cap``; absent keys have no such tree.  A tree of two
    or more vertices is a smaller tree at ``v`` joined by one arc to a tree
    below it, colored by the rest of the set.
    """
    best = {(v, 1 << color, 0): weights[v] for v, color in enumerate(coloring)}
    for color_set in range(1, 1 << colors):  # every part is a smaller number
        for parent, child, arc_cost in arcs:
            below = (color_set - 1) & color_set
            while below:
                for kept in range(cost_cap + 1):
                    top = best.get((parent, color_set ^ below, kept))
                    for hung in range(cost_cap + 1 - kept - arc_cost):
                        bottom = best.get((child, below, hung))
                        if top is None or bottom is None:
                            continue
                        key = (parent, color_set, kept + hung + arc_cost)
                        best[key] = max(best.get(key, 0), top + bottom)
                below = (below - 1) & color_set
    return best
