"""Maximizing the weight a voter casts: exact and parameterized solvers.

A voter casts ballots only as a root of its delegation tree, so every solver
here looks for a profile — within a budget of delegation changes — in which
the target votes personally and the weight of its tree reaches a threshold.
Five routes cover different parameter regimes:

* ``wmaxp_exact`` — exact over the profiles within budget in which the
  target votes personally (small neighbourhoods), by scoring redirect sets
  and walking the best set class's profiles only.
* ``solve_xp_reqbar`` — parameterized by the weight *excluded* from the
  tree; enumerates light exclusion sets and finds a cheapest spanning
  arborescence of the rest into the target.
* ``solve_full_support`` — threshold equals the total weight, so the tree
  must span everyone: the exclusion route with nothing excluded.
* ``solve_fpt_colorcoding`` — Monte-Carlo color coding, parameterized by the
  weight still *missing*; answers "yes" only on a verified witness.
* ``vbamw`` — approximation that may overspend the budget by a (1 + eps)
  factor while keeping a provable fraction of the optimum weight.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations
from math import ceil, comb, exp, log

import numpy as np

from . import coalition_table
from .bribery import enumerate_neighborhood  # noqa: F401  bench/selftest.py reads it here
from .bribery import neighborhood_size
from .coalition_table import best_row, chain_roots, product_blocks, reduced_weights
from .core import (
    SELF,
    DelegationProfile,
    LiquidElection,
    integer_field,
    rational_field,
    voter_field,
)
from .errors import (
    InstanceTooLargeForEnumeration,
    NoSpanningArborescence,
    ParameterTooLarge,
)

NEIGHBORHOOD_CAP = 400_000  # target-voting profiles; bounds wmaxp_exact's sets and rows
XP_EXCLUSION_LIMIT = 6
FPT_REQUIREMENT_LIMIT = 8
EXCLUSION_SET_CAP = 200_000
TRIM_FALLBACK_LIMIT = 12


@dataclass(frozen=True)
class WeightMaxProblem:
    """Reach ``tau`` ballots behind ``target`` with at most ``budget`` changes."""

    election: LiquidElection
    target: int
    budget: int
    tau: int

    def __post_init__(self):
        object.__setattr__(self, "target", voter_field(self.target, self.election.n, "target"))
        for name in ("budget", "tau"):
            object.__setattr__(self, name, integer_field(getattr(self, name), name))
        if self.tau < 1:
            raise ValueError("threshold must be at least 1")
        if self.budget < 0:
            raise ValueError("budget must be non-negative")

    @property
    def is_follower(self) -> bool:
        return self.election.profile.choices[self.target] is not SELF

    @property
    def k_eff(self) -> int:
        """Changes left after making the target vote personally."""
        return self.budget - (1 if self.is_follower else 0)

    @property
    def base_support(self) -> int:
        """Weight already delegated (transitively) to the target."""
        return self.election.forest.subtree_weight[self.target]

    @property
    def req(self) -> int:
        """Weight still missing from the threshold."""
        return self.tau - self.base_support

    @property
    def req_bar(self) -> int:
        """Weight allowed to stay outside the target's tree."""
        return self.election.total_weight - self.tau


@dataclass(frozen=True)
class WeightMaxOutcome:
    decision: bool
    profile: DelegationProfile | None
    support: int
    changes: int


@dataclass(frozen=True)
class CostedDigraph:
    """Delegation possibilities, parent to child, priced by change count.

    An arc (p, c) with cost 0 keeps voter c's current delegation to p; cost 1
    means c must be redirected.  Every vertex has at most one zero-cost
    in-arc, so zero-cost cycles cannot occur.
    """

    n: int
    out: tuple[tuple[tuple[int, int], ...], ...]

    def arcs(self):
        for parent, row in enumerate(self.out):
            for child, cost in row:
                yield parent, child, cost


def build_cost_graph(election: LiquidElection) -> CostedDigraph:
    choices = election.profile.choices
    adj: list[list[tuple[int, int]]] = [[] for _ in range(election.n)]
    for child in range(election.n):
        for parent in election.network.out_neighbors[child]:
            adj[parent].append((child, 0 if choices[child] == parent else 1))
    return CostedDigraph(election.n, tuple(tuple(sorted(row)) for row in adj))


def _current_support_no(problem: WeightMaxProblem) -> WeightMaxOutcome:
    current = problem.election.forest.acc_weight[problem.target]
    return WeightMaxOutcome(False, None, current, 0)


def _outcome(problem: WeightMaxProblem, parents: dict[int, int]) -> WeightMaxOutcome:
    """The current profile with the target voting and ``{child: parent}``
    applied, revalidated; a yes when the target's tree reaches ``tau``."""
    choices = list(problem.election.profile.choices)
    choices[problem.target] = SELF
    for child, parent in parents.items():
        choices[child] = parent
    profile = DelegationProfile(tuple(choices))
    support = problem.election.with_profile(profile).forest.subtree_weight[problem.target]
    changes = len(problem.election.profile.changed_voters(profile))
    return WeightMaxOutcome(support >= problem.tau, profile, support, changes)


# --- exhaustive ------------------------------------------------------------


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


# --- full support via maximum branching ------------------------------------


def min_cost_root_arborescence(
    nodes, root, arcs
) -> tuple[dict[int, int], int] | None:
    """Cheapest parent assignment giving every node a path from ``root``.

    ``arcs`` holds ``(parent, child, cost)`` triples; parallel arcs are fine
    and arcs into the root are ignored.  Returns ``({child: parent}, total
    cost)`` or None when some node cannot be reached.  Classic cycle
    contraction (Edmonds, 1967): give every node its first cheapest in-arc;
    if that closes a cycle, shrink it to one super node under reduced costs
    and repeat.  An arc of a shrunk level carries the arc it stands for one
    level down, so a sub-solution maps back arc by arc, and the total is the
    cost of the chosen original arcs.
    """
    node_set = set(nodes)
    work = [
        (u, v, w, None)
        for u, v, w in arcs
        if u != v and v != root and u in node_set and v in node_set
    ]

    def solve(members: set, work: list, free_id: int):
        best_in: dict = {}
        for arc in work:
            cur = best_in.get(arc[1])
            if cur is None or arc[2] < cur[2]:
                best_in[arc[1]] = arc
        if any(v != root and v not in best_in for v in members):
            return None

        # walk parent pointers; a node revisited within one walk closes a cycle
        state = dict.fromkeys(members, 0)
        state[root] = 2
        cycle = None
        for start in members:
            if state[start]:
                continue
            trail = []
            u = start
            while state[u] == 0:
                state[u] = 1
                trail.append(u)
                u = best_in[u][0]
            if state[u] == 1:
                cycle = [u]
                v = best_in[u][0]
                while v != u:
                    cycle.append(v)
                    v = best_in[v][0]
            for v in trail:
                state[v] = 2
            if cycle:
                break

        if cycle is None:
            return list(best_in.values())

        shrunk_away = set(cycle)
        super_id = free_id
        reduced = []
        for arc in work:
            u, v, w, _ = arc
            if v in shrunk_away and u not in shrunk_away:
                # entering arcs pay the difference to the in-arc they evict
                reduced.append((u, super_id, w - best_in[v][2], arc))
            elif u in shrunk_away and v not in shrunk_away:
                reduced.append((super_id, v, w, arc))
            elif u not in shrunk_away and v not in shrunk_away:
                reduced.append((u, v, w, arc))
        sub = solve((members - shrunk_away) | {super_id}, reduced, free_id + 1)
        if sub is None:
            return None
        (entering,) = (below for _, v, _, below in sub if v == super_id)
        kept = [below for _, v, _, below in sub if v != super_id]
        return [*kept, entering, *(best_in[v] for v in cycle if v != entering[1])]

    chosen = solve(node_set, work, max(node_set, default=root) + 1)
    if chosen is None:
        return None
    return {v: u for u, v, _, _ in chosen}, sum(w for _, _, w, _ in chosen)


def solve_full_support(problem: WeightMaxProblem) -> WeightMaxOutcome:
    """Decide whether every ballot can reach the target within budget.

    Only callable when the threshold equals the total weight, i.e. nothing
    may stay outside the target's tree: the exclusion route with the empty
    set as its only exclusion set.
    """
    if problem.req_bar != 0:
        raise ValueError(
            "full-support solving needs the threshold to equal the total weight"
        )
    return solve_xp_reqbar(problem)


# --- XP in the excluded weight ----------------------------------------------


def _exclusion_sets(others, weights, req_bar: int):
    """Every set of ``others`` weighing at most ``req_bar``, by weight, then
    size, then lexicographically; refuses more than ``EXCLUSION_SET_CAP``
    of them before yielding the first.

    ``ways[j][w][s]`` counts the sets of ``s`` voters of ``others[j:]`` that
    weigh exactly ``w`` (every weight is at least 1, so ``s <= w``), and the
    walk descends only into choices that it says complete a set.
    """
    span = range(req_bar + 1)
    ways = [[[int(w == s == 0) for s in span] for w in span]]
    for v in reversed(others):
        after, wv = ways[-1], weights[v]
        ways.append([
            [after[w][s] + (s and w >= wv and after[w - wv][s - 1]) for s in span]
            for w in span
        ])
    ways.reverse()
    count = sum(map(sum, ways[0]))
    if count > EXCLUSION_SET_CAP:
        raise InstanceTooLargeForEnumeration(
            f"{count} exclusion sets exceed the cap of {EXCLUSION_SET_CAP}"
        )

    def walk(j: int, w: int, s: int):
        if s == 0:
            yield ()
            return
        for i in range(j, len(others)):
            wv = weights[others[i]]
            if wv <= w and ways[i + 1][w - wv][s - 1]:
                for rest in walk(i + 1, w - wv, s - 1):
                    yield (others[i], *rest)

    for w in span:
        for s in span:
            if ways[0][w][s]:
                yield from walk(0, w, s)


def solve_xp_reqbar(problem: WeightMaxProblem) -> WeightMaxOutcome:
    """Enumerate light exclusion sets; solve full support on the rest.

    A witness tree missing weight ``req_bar`` at most leaves out a set X of
    voters with w(X) <= req_bar.  For each candidate X (lightest first) the
    remaining voters must form a spanning tree into the target.  An arc
    costs 0 where it keeps a delegation and 1 where it redirects one, so the
    cheapest spanning arborescence changes the fewest delegations; voters
    whose current proxy is excluded lose their zero-cost arc, so change
    counting stays exact.  Excluded voters keep their original delegations,
    which can never close a cycle with the rebuilt tree.
    """
    if problem.req_bar < 0:
        return _current_support_no(problem)
    if problem.req_bar > XP_EXCLUSION_LIMIT:
        raise ParameterTooLarge(
            f"excludable weight {problem.req_bar} exceeds the limit of {XP_EXCLUSION_LIMIT}"
        )
    if problem.k_eff < 0:
        return _current_support_no(problem)
    election = problem.election
    choices = election.profile.choices
    others = [v for v in range(election.n) if v != problem.target]
    for excluded in _exclusion_sets(others, election.weights, problem.req_bar):
        out = set(excluded)
        kept = [v for v in range(election.n) if v not in out]
        arcs = [
            (parent, child, 0 if choices[child] == parent else 1)
            for child in kept
            if child != problem.target
            for parent in election.network.out_neighbors[child]
            if parent not in out
        ]
        result = min_cost_root_arborescence(kept, problem.target, arcs)
        if result is not None and result[1] <= problem.k_eff:
            return _outcome(problem, result[0])
    return _current_support_no(problem)


# --- FPT in the missing weight (Monte-Carlo color coding) -------------------

# Table sentinel for "no such colorful tree".  An entry for a color set adds
# at most one vertex weight per color, below 2^61 in all (the solver refuses
# larger total weights), to either zero (a real tree) or the sentinel that
# every maximum starts from.  So missing entries lie in [_NEG, _NEG + 2^61),
# and the sum of two entries of disjoint color sets fits in int64 and is
# negative exactly when one side is missing.  No split fills a set without
# its root's color, nor the empty set, so those entries stay exactly _NEG.
_NEG = -(1 << 62)


def _collapsed_graph(problem: WeightMaxProblem, cost: CostedDigraph, tree: set[int]):
    """Shrink the target's tree (``tree``) in the cost graph to one super vertex.

    No voter outside the tree currently delegates into it (it would be a
    member), so every arc from an outsider to a tree member costs one change;
    the super vertex gets one such arc per outsider, and the least member the
    outsider may delegate to stands for it in the witness.  Tree members
    never profit from delegating outward, so the super vertex gets no
    in-arcs.
    """
    election = problem.election
    outside = [v for v in range(election.n) if v not in tree]
    index = {v: i for i, v in enumerate(outside)}
    super_idx = len(outside)
    vertex_weights = [election.weights[v] for v in outside] + [problem.base_support]
    representative: dict[int, int] = {}
    for member in sorted(tree):
        for child, _ in cost.out[member]:
            if child not in tree:
                representative.setdefault(index[child], member)
    arcs = [
        (index[parent], index[child], price)
        for parent in outside
        for child, price in cost.out[parent]
        if child not in tree
    ]
    arcs += [(super_idx, child, 1) for child in sorted(representative)]
    return outside, super_idx, vertex_weights, arcs, representative


def _arc_groups(arcs) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The ``(parent, child)`` rows of ``arcs``, stably sorted by parent,
    whether each arc costs a change (an ``(arcs, 1, 1)`` mask), and the
    start of each parent's run and that parent, so one reduceat folds arcs
    into parents."""
    arcs = np.array(sorted(arcs, key=lambda arc: arc[0]))
    parents = arcs[:, 0]
    starts = np.flatnonzero(np.concatenate(([True], parents[1:] != parents[:-1])))
    return arcs[:, :2], arcs[:, 2, None, None] == 1, starts, parents[starts]


@lru_cache(maxsize=None)
def _pair_splits(r: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """The splits of each size that an arc can join, per color pair.

    An arc from a vertex of color ``a`` to one of color ``b`` joins a tree
    at its parent, whose colors hold ``a``, to one hanging below its child,
    whose colors hold ``b``; every other split has a ``_NEG`` side.  Entry
    ``size - 2`` is ``(ends, place, masks)``: ``masks`` holds the sets of
    ``size`` colors, ascending; ``ends[a * r + b]`` is a ``(2, C(r - 2,
    size - 2), 2^(size - 2))`` array of the kept and the hanging part of
    each split of the sets that hold ``a`` and ``b``, sets ascending,
    hanging parts holding ``b`` and not ``a``; and ``place[a * r + b]``
    gives each of those sets' index in ``masks``.  A pair ``a == b`` joins
    nothing: its parts are the empty set, where no tree is.
    """
    colors = np.arange(r)
    other = ~np.eye(r, dtype=bool)
    levels = []
    for size in range(2, r + 1):
        masks = np.array([m for m in range(1 << r) if m.bit_count() == size], dtype=np.int64)
        subs = np.arange((1 << r) - 2, 0, -1)  # nonempty proper submasks, largest first
        keep = (subs & masks[:, None] == subs) & (subs < masks[:, None])
        subs = np.broadcast_to(subs, keep.shape)[keep].reshape(len(masks), -1)
        held = (masks >> colors[:, None] & 1).astype(bool)  # (color, set)
        hung = (subs >> colors[:, None, None] & 1).astype(bool)  # (color, set, split)
        sets = held[:, None] & held & other[..., None]  # (a, b, set)
        splits = sets[..., None] & hung & ~hung[:, None]  # (a, b, set, split)
        m = np.count_nonzero(sets[0, 1])
        h = np.count_nonzero(splits[0, 1]) // m
        place = np.zeros((r, r, m), dtype=np.int64)
        place[other] = np.nonzero(sets)[2].reshape(-1, m)
        place[~other] = np.arange(m)  # distinct, so each arc writes a set once
        ends = np.zeros((r, r, 2, m, h), dtype=np.int64)
        ends[other, 1] = np.broadcast_to(subs, splits.shape)[splits].reshape(-1, m, h)
        ends[other, 0] = ends[other, 1] ^ masks[place[other], None]
        ends, place = ends.reshape(r * r, 2, m, h), place.reshape(r * r, m)
        ends.flags.writeable = place.flags.writeable = False  # cached, shared
        levels.append((ends, place, masks))
    return tuple(levels)


def _colorful_tables(colorings, wts, arc_groups, r, cost_cap) -> np.ndarray:
    """Heaviest colorful trees for one batch of colorings.

    ``table[b, v, S, c]`` is the largest weight of a tree rooted at ``v``
    whose vertices carry each color of ``S`` exactly once under coloring
    ``b`` and whose arcs cost ``c`` changes; a negative entry means there is
    none, and it is exactly ``_NEG`` when ``S`` lacks ``v``'s color.  A set
    of two or more colors splits into the part kept at ``v`` and the part
    hanging below one arc; an arc joins only the splits that ``_pair_splits``
    lists for its ends' colors, 3^(r-2) in all, and none when they share a
    color.  Sets of one size depend only on smaller ones, so each size is
    filled in one pass over all its splits and ``arc_groups`` (see
    ``_arc_groups``).  The pass runs in chunks of whole colorings that hold
    about ``coalition_table.CHUNK_CELLS`` cells (read at each call); a
    coloring too large for that alone is split into chunks of its sets, and
    a set too large alone into chunks of its hanging parts.
    """
    colorings = np.array(colorings, dtype=np.int64)
    batch, n_vertices = colorings.shape
    slots = cost_cap + 1
    table = np.full((batch, n_vertices, 1 << r, slots), _NEG, dtype=np.int64)
    rows = table.reshape(-1, slots)
    ids = np.arange(batch * n_vertices).reshape(batch, n_vertices) << r
    rows[ids + (1 << colorings), 0] = wts
    ends, shifted, starts, tops = arc_groups
    n_arcs = len(ends)
    pairs = colorings.take(ends, axis=1) @ np.array((r, 1))  # a * r + b per arc
    end_rows, top_rows = ids.take(ends, axis=1), ids.take(tops, axis=1)
    chunk_cells = coalition_table.CHUNK_CELLS
    for split_ends, place, masks in _pair_splits(r):
        _, _, m, h = split_ends.shape
        width = len(masks)
        step = max(1, chunk_cells // (n_arcs * slots * max(m * h, width)))
        for lo in range(0, batch, step):
            part = slice(lo, lo + step)
            pair = pairs[part]
            index = end_rows[part, ..., None, None] + split_ends.take(pair, axis=0)
            split_cells = len(pair) * n_arcs * slots
            h_step = min(h, max(1, chunk_cells // split_cells))
            m_step = max(1, chunk_cells // (split_cells * h_step))
            if width > m:  # each arc fills its own sets of the size
                folded = np.full((len(pair), n_arcs, width, slots), _NEG, dtype=np.int64)
            for m_lo in range(0, m, m_step):
                sets = slice(m_lo, m_lo + m_step)
                best = np.full((len(pair), n_arcs, min(m_step, m - m_lo), slots), _NEG, dtype=np.int64)
                for h_lo in range(0, h, h_step):
                    both = rows.take(index[..., sets, h_lo : h_lo + h_step], axis=0)
                    left, right = both[:, :, 0], both[:, :, 1]
                    for c1 in range(slots):  # (max, +) convolution over the costs
                        joined = np.maximum.reduce(left[..., c1, None] + right[..., : slots - c1], axis=3)
                        np.maximum(best[..., c1:], joined, out=best[..., c1:])
                np.copyto(best[..., 1:], best[..., :-1], where=shifted)  # the arc's own change
                np.copyto(best[..., 0], _NEG, where=shifted[..., 0])
                if width > m:
                    at = np.arange(len(pair))[:, None, None], np.arange(n_arcs)[:, None]
                    folded[(*at, place[pair, sets])] = best
                else:  # the one set of all r colors
                    folded = best
            rows[top_rows[part, :, None] + masks] = np.maximum.reduceat(folded, starts, axis=1)
    return table


def _first_join(table, arc_groups, v, mask, c, value=None):
    """First candidate in one coloring's ``table`` that builds ``(v, mask, c)``.

    Candidates run in (split, arc, c1) order: the submask hanging below the
    arc runs downward, ``v``'s arcs keep their order in the arc list (their
    run in ``arc_groups``, see ``_arc_groups``), and ``c1`` is the cost kept
    at ``v``.  A candidate joins when both of its sides exist and, if
    ``value`` is given, sum to it.  The state must hold a tree of two or
    more vertices.  Returns ``(position, child, (own, c1), (sub, c2))``.
    """
    ends, shifted, starts, tops = arc_groups
    at = np.searchsorted(tops, v)
    run = slice(starts[at], starts[at + 1] if at + 1 < len(starts) else len(ends))
    children, costs = ends[run, 1], shifted[run, 0, 0]
    subs = np.arange(mask - 1, 0, -1)
    subs = subs[subs & mask == subs]
    c1 = np.arange(c + 1)
    c2 = c - costs[:, None] - c1
    left = table[v, (mask ^ subs)[:, None, None], c1]
    right = table[children[:, None], subs[:, None, None], np.maximum(c2, 0)]
    joins = (left >= 0) & (right >= 0) & (c2 >= 0)
    if value is not None:
        joins &= left + right == value
    i, j, k = np.unravel_index(np.flatnonzero(joins)[0], joins.shape)
    sub = int(subs[i])
    return (i, j, k), int(children[j]), (mask ^ sub, int(k)), (sub, int(c2[j, k]))


def _colorful_witness(table, arc_groups, root, r, tau) -> list[tuple[int, int]]:
    """Arcs of the first tree in one coloring's ``table`` that reaches ``tau``.

    The color set is the first in (size, value) order whose root reaches
    ``tau``; within it, the cost whose first joinable candidate comes first
    (ties to the lower cost); below that, every state takes its first
    candidate that attains its value.  ``arc_groups`` is ``_arc_groups`` of
    the table's arcs.  Only sets of two or more colors are read: the root
    alone must weigh less than ``tau``, and the empty set holds no tree.
    """
    order = np.concatenate([masks for *_, masks in _pair_splits(r)])
    mask = int(order[np.argmax((table[root, order] >= tau).any(axis=1))])
    reaching = np.flatnonzero(table[root, mask] >= tau)
    _, c = min((_first_join(table, arc_groups, root, mask, c)[0], c) for c in reaching)
    tree = []
    states = [(root, mask, int(c))]
    while states:
        v, mask, c = states.pop()
        if not mask & (mask - 1):
            continue  # a single vertex
        _, child, (own, c1), (sub, c2) = _first_join(
            table, arc_groups, v, mask, c, table[v, mask, c]
        )
        tree.append((v, child))
        states += [(v, own, c1), (child, sub, c2)]
    return tree


def solve_fpt_colorcoding(
    problem: WeightMaxProblem,
    *,
    delta: float = 0.01,
    seed: int = 0,
) -> WeightMaxOutcome:
    """Randomized search for a small set of outsiders covering the deficit.

    Any inclusion-minimal witness adds at most ``req`` outside voters (each
    weighs at least one), so random colorings with req+1 colors make some
    witness colorful with probability at least e^-(req+1); repeating
    ceil(e^(req+1) * ln(1/delta)) times bounds the miss probability by
    ``delta``.  Answers "yes" only after re-validating an extracted witness,
    so false positives cannot occur; "no" may be wrong with probability at
    most ``delta``.

    Colorings are drawn from one seeded stream and scored in batches of 1,
    2, 4, ..., 128 and then 128 at a time, so a yes-instance usually pays for
    a few colorings, and a no-instance for all of them, as before.  The
    witness is read back, in ``_colorful_witness``'s fixed tie-break order,
    from the first coloring in draw order that validates, so a seed fixes it
    whatever the batch sizes.  The tables hold int64 sums: a total weight of
    2^61 or more is refused with ``ParameterTooLarge``.
    """
    if not 0 < delta < 1:
        raise ValueError("delta must lie strictly between 0 and 1")
    if problem.req_bar < 0 or problem.k_eff < 0:
        return _current_support_no(problem)
    if problem.req > FPT_REQUIREMENT_LIMIT:
        raise ParameterTooLarge(
            f"missing weight {problem.req} exceeds the limit of {FPT_REQUIREMENT_LIMIT}"
        )
    election = problem.election
    if problem.req <= 0:
        return _outcome(problem, {})

    # sound refusals: a witness tree holds only voters within k_eff changes
    # of the target, and k_eff redirections of such voters bring at most
    # k_eff of their current subtrees from outside the target's tree
    cost = build_cost_graph(election)
    near = _reachable(cost, problem.target, problem.k_eff)
    if sum(election.weights[v] for v in near) < problem.tau:
        return _current_support_no(problem)
    forest = election.forest
    tree = set(forest.subtree_of(problem.target))
    outside_weights = sorted(
        (forest.subtree_weight[v] for v in near if v not in tree), reverse=True
    )
    if problem.base_support + sum(outside_weights[: problem.k_eff]) < problem.tau:
        return _current_support_no(problem)

    # past the refusals, some tree member has an arc to an outsider in reach
    outside, super_idx, wts, arcs, representative = _collapsed_graph(problem, cost, tree)
    if sum(wts) >= 1 << 61:
        raise ParameterTooLarge(
            f"total weight {sum(wts)} reaches 2^61, the bound of the int64 tables"
        )
    n_vertices = super_idx + 1
    r = problem.req + 1
    cost_cap = min(problem.k_eff, problem.req)
    rounds = ceil(exp(r) * -log(delta))  # 1 / delta overflows when subnormal
    rng = random.Random(seed)
    arc_groups = _arc_groups(arcs)

    done = 0
    while done < rounds:
        batch = min(done + 1, 128, rounds - done)  # 1, 2, 4, ..., 128, 128, ...
        colorings = [
            [rng.randrange(r) for _ in range(n_vertices)] for _ in range(batch)
        ]
        table = _colorful_tables(colorings, wts, arc_groups, r, cost_cap)
        reach = table[:, super_idx].reshape(batch, -1).max(axis=1)
        for b in np.flatnonzero(reach >= problem.tau):
            outcome = _outcome(problem, {
                outside[child]: (
                    representative[child] if parent == super_idx else outside[parent]
                )
                for parent, child in _colorful_witness(
                    table[b], arc_groups, super_idx, r, problem.tau
                )
            })
            if outcome.decision and outcome.changes <= problem.budget:
                return outcome
        done += batch
    return _current_support_no(problem)


# --- budget-relaxed approximation -------------------------------------------


def _reachable(cost: CostedDigraph, source: int, bound: int) -> set[int]:
    """The vertices within ``bound`` changes of ``source`` (0-1 BFS)."""
    dist = {source: 0}
    queue: deque[int] = deque([source])
    while queue:
        v = queue.popleft()
        for child, price in cost.out[v]:
            cand = dist[v] + price
            if cand < dist.get(child, bound + 1):
                dist[child] = cand
                if price:
                    queue.append(child)
                else:
                    queue.appendleft(child)
    return set(sorted(dist))  # filled in id order: the tree's arc order follows the set's


def _subtree_stats(root, children, weights, moved):
    """Weight and change count of each subtree of an arborescence; a voter
    in ``moved`` pays one change for the arc into it."""
    p_total: dict[int, int] = {}
    c_total: dict[int, int] = {}
    order = [root]
    for v in order:  # breadth first: every child after its parent
        order.extend(children.get(v, ()))
    for v in reversed(order):
        below = children.get(v, ())
        p_total[v] = weights[v] + sum(p_total[c] for c in below)
        c_total[v] = (v in moved) + sum(c_total[c] for c in below)
    return p_total, c_total


def _parent_closed_subsets(root, children):
    """All vertex sets of an arborescence that contain the root and every
    chosen vertex's parent."""
    subsets = [frozenset([root])]
    frontier = [(frozenset([root]), tuple(children.get(root, ())))]
    while frontier:
        base, options = frontier.pop()
        for i, v in enumerate(options):
            grown = base | {v}
            rest = options[i + 1 :] + tuple(children.get(v, ()))
            subsets.append(grown)
            frontier.append((grown, rest))
    return subsets


def vbamw(problem: WeightMaxProblem, epsilon) -> WeightMaxOutcome:
    """Weight-vs-budget approximation with a relaxed change budget.

    Builds the cheapest tree spanning every voter connectable to the target
    within the remaining budget B; if that tree already costs at most
    (1+eps)B it is returned whole, guaranteeing at least the optimum weight.
    Otherwise low-value subtrees are peeled off until the cost lands in
    [eps*B/2, (1+eps)B], preserving a weight of at least (eps^2*B/(8n))
    times the optimum.  Should the peel end with too poor a weight-per-change
    ratio, every parent-closed subset of the tree is searched for the best
    ratio in that window instead; a tree of more than ``TRIM_FALLBACK_LIMIT``
    voters is refused there with :class:`InstanceTooLargeForEnumeration`.
    Total changes never exceed (1+eps) times the budget.
    """
    eps = rational_field(epsilon, "epsilon")
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    if problem.k_eff < 0:
        return _current_support_no(problem)
    election = problem.election
    target = problem.target
    budget = problem.k_eff
    cost = build_cost_graph(election)
    reachable = _reachable(cost, target, budget)
    result = min_cost_root_arborescence(reachable, target, cost.arcs())
    if result is None:  # the BFS construction prevents this
        raise NoSpanningArborescence("no tree spans the budget-reachable voters")
    parent_of, tree_cost = result
    ceiling = (1 + eps) * budget
    if tree_cost <= ceiling:
        return _outcome(problem, parent_of)

    # trim: peel off the subtree with the worst weight-per-change ratio while
    # the remaining cost stays above eps*B/2.  The tree never changes: the
    # members stay closed under subtrees, so a peel changes only the totals
    # of the peeled subtree's ancestors.
    children: dict[int, list[int]] = {}
    for child, parent in parent_of.items():
        children.setdefault(parent, []).append(child)
    choices = election.profile.choices
    moved = {child for child, parent in parent_of.items() if choices[child] != parent}
    p_total, c_total = _subtree_stats(target, children, election.weights, moved)
    floor = eps * Fraction(budget) / 2
    ratio_start = Fraction(p_total[target], c_total[target])
    members = set(reachable)
    while c_total[target] > ceiling:
        peelable = [
            v
            for v in sorted(members)
            if v != target and c_total[v] >= 1 and c_total[target] - c_total[v] >= floor
        ]
        if not peelable:
            break
        candidate = min(peelable, key=lambda v: Fraction(p_total[v], c_total[v]))
        prize, price = p_total[candidate], c_total[candidate]
        v = candidate
        while v != target:
            v = parent_of[v]
            p_total[v] -= prize
            c_total[v] -= price
        dropped = [candidate]
        for v in dropped:
            dropped.extend(children.get(v, ()))
        members.difference_update(dropped)

    total_prize, total_cost = p_total[target], c_total[target]
    if not (
        floor <= total_cost <= ceiling
        and Fraction(total_prize, total_cost) >= eps * ratio_start / 4
    ):
        # the peel always ends inside the cost window, so it seeds an
        # exhaustive search over the tree's parent-closed subsets for the best
        # weight-per-change ratio in that window
        if len(reachable) > TRIM_FALLBACK_LIMIT:
            raise InstanceTooLargeForEnumeration(
                f"{len(reachable)} reachable voters exceed the trim fallback "
                f"limit of {TRIM_FALLBACK_LIMIT}"
            )
        best_ratio = Fraction(total_prize, total_cost)
        for subset in _parent_closed_subsets(target, children):
            c = len(subset & moved)
            if not floor <= c <= ceiling:
                continue
            ratio = Fraction(sum(election.weights[v] for v in subset), c)
            if ratio > best_ratio:
                members, best_ratio = subset, ratio
    return _outcome(problem, {v: parent_of[v] for v in members if v != target})
