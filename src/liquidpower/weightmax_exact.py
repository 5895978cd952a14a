"""Weight maximisation, exactly, by search over the change neighbourhood.

``wmaxp_exact`` shares the exhaustive searches' numpy pipeline in
:mod:`~liquidpower.coalition_table`: it scores every redirect set by the
support it would bring, then walks only the best set class's candidate
profiles.  The problem types come from :mod:`~liquidpower.weightmax`.
"""

from __future__ import annotations

from itertools import chain, combinations
from math import comb

import numpy as np

from . import coalition_table
from .bribery import neighborhood_size
from .coalition_table import best_row, chain_roots, product_blocks, reduced_weights
from .core import DelegationProfile
from .errors import InstanceTooLargeForEnumeration
from .weightmax import WeightMaxOutcome, WeightMaxProblem

NEIGHBORHOOD_CAP = 400_000  # target-voting profiles; bounds wmaxp_exact's sets and rows


def wmaxp_exact(problem: WeightMaxProblem) -> WeightMaxOutcome:
    """Best reachable support, exactly, over the change neighbourhood.

    Maximizes the weight the target casts; ties prefer fewer changes, then
    the lexicographically smallest profile.  The target casts weight only
    in the profiles where it votes personally, and there at least its own
    (1 or more), so only those compete: the rest cast 0.  A delegating
    target without budget has none, and casts 0.  A profile's support is
    the weight of the voters whose root is the target.

    Call the current profile with the target voting the *base forest*, the
    target's subtree there ``T``, and the voters other than the target
    whose choice a profile changes its *redirect set* ``S``.  Two exchange
    facts hold for every winner (most support, then fewest changes):

    (a) Every member of ``S`` has the target as its root.  Take any other
        tree that holds a member and give every voter of that tree its
        current choice back.  Those voters follow current arcs until they
        leave the tree, and no chain from outside enters it, so no cycle
        forms; no chain into the target passed through the tree, so the
        support does not fall, and the changes do.
    (b) ``S`` holds no voter of ``T``.  Give them all their current choices
        back: they reach the target along current arcs, every chain that
        reached ``T`` still ends at the target, and no cycle forms, with
        the same support or more and fewer changes.

    In a profile whose redirect set avoids ``T``, the voters of ``T`` keep
    their base arcs up to the target, and a voter outside ``T`` follows base
    arcs up to the first member on its base chain and takes that member's
    root, or ends at its base root, which is not the target.  So the support
    is ``T``'s weight plus, for each member rooted at the target, the weight
    of the voters whose base chain meets ``S`` first at it (its own at
    least).  With every member rooted at the target, that is ``T`` plus the
    base subtrees of the members with no base ancestor in ``S``: the set's
    support, a function of ``S`` alone; with a member rooted elsewhere it is
    less.  A winner's redirect set therefore holds voters outside ``T``, at
    most the budget left after the target's own change, each taking an
    out-neighbour other than its current choice (a member voting personally
    would be a root of its own).

    The search scores every such set, then walks the sets best class
    first, in runs of whole classes (``_redirect_runs``), through
    :func:`coalition_table.product_blocks`.  It keeps only the rows in which
    every member ends under the target, each of which has its set's
    support, and scores them by their roots like any profile.  The first run
    that keeps a row holds the first class that does; by (a) and (b) that
    class holds every winner, and its kept rows tie with them on support and
    changes while later classes rank below, so
    :func:`coalition_table.best_row` picks the winner a scan of the whole
    neighbourhood would.  Every redirect set is at least one candidate
    profile, so :func:`bribery.neighborhood_size`'s count of those in which
    the target votes bounds the sets scored and the rows walked: above
    ``NEIGHBORHOOD_CAP`` the search raises
    :class:`InstanceTooLargeForEnumeration` before either.
    """
    election = problem.election
    t = problem.target
    if problem.k_eff < 0:
        return WeightMaxOutcome(False, None, 0, 0)
    count = neighborhood_size(election, problem.budget, voting=t)
    if count > NEIGHBORHOOD_CAP:
        raise InstanceTooLargeForEnumeration(
            f"{count} candidate profiles in which the target votes exceed "
            f"the cap of {NEIGHBORHOOD_CAP}"
        )
    g, weights, _ = reduced_weights(election.weights, election.quota)
    base = np.array(election.profile.sort_key(), dtype=np.intp)
    base[t] = t
    choices = election.profile.choices
    pools = [
        np.array([u for u in election.network.out_neighbors[v] if u != choices[v]], dtype=np.intp)
        for v in range(election.n)
    ]

    def resolve(parents):  # the rows whose redirected voters all end under t
        roots, acyclic = chain_roots(parents)
        return roots, acyclic & ((roots == t) | (parents == base)).all(axis=1)

    for sets in _redirect_runs(problem, g, pools):
        products = ((base, row, [pools[v] for v in row]) for row in sets)
        best = best_row(
            product_blocks(products, election.n, resolve),
            lambda roots: (roots == t) @ weights,
        )
        if best is not None:
            break
    neg_support, redirects, best_parents = best
    best_support = -neg_support * g
    decision = best_support >= problem.tau
    return WeightMaxOutcome(
        decision,
        DelegationProfile.from_parents(best_parents) if decision else None,
        best_support,
        redirects + int(problem.is_follower) if decision else 0,
    )


def _redirect_runs(problem: WeightMaxProblem, g: int, pools):
    """Every redirect set of :func:`wmaxp_exact`, in ``(-support, size)``
    order, as lists of ascending voter lists in runs of whole classes.

    A run closes once it holds ``2^i`` sets, ``i`` the runs before it, so
    a search that must pass many classes that keep no row makes few walks,
    and its last run holds about as many sets as all runs before it, plus
    at most one class.  A set
    holds up to ``k_eff`` voters outside the target's tree whose ``pools``
    are not empty; supports are in weight units of ``g``.  A member's base
    subtree is its current one, less the target's tree for the target's
    proxies, and a member lies below another exactly when its post-order
    position falls in the other's block.
    """
    election = problem.election
    forest = election.forest
    n, t = election.n, problem.target
    tree = set(forest.subtree_of(t))
    members = [v for v in range(n) if v not in tree and len(pools[v])]
    most = min(problem.k_eff, len(members))
    # one row per set, padded with voter n: no weight, no block, position -1
    count = sum(comb(len(members), size) for size in range(most + 1))
    sets = np.fromiter(
        chain.from_iterable(
            chain(c, [n] * (most - size))
            for size in range(most + 1)
            for c in combinations(members, size)
        ),
        np.intp,
        count * most,
    ).reshape(count, most)
    subtree = np.array([w // g for w in forest.subtree_weight] + [0], dtype=np.int64)
    subtree[list(forest.proxies_of(t))] -= subtree[t]
    end = np.array(forest.end + (0,), dtype=np.intp)
    start = end - np.array(forest.subtree_size + (0,), dtype=np.intp)
    supports = np.empty(count, dtype=np.int64)
    step = max(1, coalition_table.CHUNK_CELLS // max(1, most * most))
    for lo in range(0, count, step):  # about CHUNK_CELLS member pairs at a time
        part = sets[lo : lo + step]
        at = end[part] - 1
        below = (start[part][:, None, :] <= at[..., None]) & (at[..., None] < at[:, None, :])
        brought = np.where(below.any(axis=2), 0, subtree[part])
        supports[lo : lo + step] = subtree[t] + brought.sum(axis=1)
    sizes = np.count_nonzero(sets < n, axis=1)
    order = np.argsort(-supports, kind="stable")  # sets come by size already
    supports, sizes = supports[order], sizes[order]
    firsts = np.flatnonzero(np.diff(supports) | np.diff(sizes)) + 1
    bounds = [0, *firsts.tolist(), count]
    run, limit = [], 1
    for lo, hi in zip(bounds, bounds[1:]):
        run += sets[order[lo:hi], : sizes[lo]].tolist()
        if len(run) >= limit or hi == count:
            yield run
            run, limit = [], 2 * limit
