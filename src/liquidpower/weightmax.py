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

This module holds the problem types, the cost graph and the three tree
routes (full support, xp, vbamw) in plain Python, and loads no numpy.  The
two numpy routes live in :mod:`~liquidpower.weightmax_exact` and
:mod:`~liquidpower.colorcoding`, and are served from here on first access.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from . import _lazy_submodule
from .core import (
    SELF,
    DelegationProfile,
    LiquidElection,
    integer_field,
    rational_field,
    voter_field,
)
from .errors import InstanceTooLargeForEnumeration, ParameterTooLarge

XP_EXCLUSION_LIMIT = 6
EXCLUSION_SET_CAP = 200_000
TRIM_FALLBACK_LIMIT = 12

# names read on this module (by bench/ too) -> the module that defines them.
# The numpy ones are registered unrun: in sys.modules, as after an import,
# but their code, and numpy, load only when a caller first uses them.
_ELSEWHERE = {
    "wmaxp_exact": "weightmax_exact",
    "solve_fpt_colorcoding": "colorcoding",
    "enumerate_neighborhood": "bribery",
}
_lazy_submodule("weightmax_exact")
_lazy_submodule("colorcoding")


def __getattr__(name: str):
    if name not in _ELSEWHERE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_lazy_submodule(_ELSEWHERE[name]), name)


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
    # the BFS reached every voter along arcs from the target, so a tree spans them
    parent_of, tree_cost = min_cost_root_arborescence(reachable, target, cost.arcs())
    ceiling = (1 + eps) * budget
    if tree_cost <= ceiling:
        return _outcome(problem, parent_of)

    # trim: peel off the subtree with the worst weight-per-change ratio while
    # the remaining cost stays above eps*B/2.  The tree never changes: the
    # members stay closed under subtrees, so a peel changes only the totals
    # of the peeled subtree's ancestors.  A member changed with no changed
    # member below it costs 1, and above the ceiling peeling it leaves at
    # least eps*B/2, so some subtree is always peelable.
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
