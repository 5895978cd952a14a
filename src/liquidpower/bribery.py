"""Buying power: change up to ``k`` delegations to move a voter's index.

The exact solver enumerates the whole feasible neighborhood — every acyclic
profile differing from the current one in at most ``k`` positions, each
delegation following a network arc — and optimizes the chosen measure of the
target voter in the chosen direction.  The greedy solver redirects the
heaviest ballot-holders toward the target and comes with a provable (if
weak) guarantee on complete networks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import combinations, product
from math import factorial

import numpy as np

from .coalition_table import batches, coalition_weight_table, swing_counts_from_table
from .core import (
    SELF,
    DelegationProfile,
    LiquidElection,
    build_forest,
    find_delegation_cycle,
)
from .dp import banzhaf_dp, shapley_dp
from .errors import InstanceTooLargeForEnumeration
from .exact import MeasureKind

ENUMERATION_VOTER_LIMIT = 10
NEIGHBORHOOD_CAP = 400_000


class BriberyObjective(str, Enum):
    """Direction and measure of the bribery optimization."""

    MAX_BANZHAF = "max-banzhaf"
    MAX_SHAPLEY = "max-shapley"
    MIN_BANZHAF = "min-banzhaf"
    MIN_SHAPLEY = "min-shapley"

    @property
    def kind(self) -> MeasureKind:
        return (
            MeasureKind.BANZHAF
            if self in (BriberyObjective.MAX_BANZHAF, BriberyObjective.MIN_BANZHAF)
            else MeasureKind.SHAPLEY
        )

    @property
    def maximize(self) -> bool:
        return self in (BriberyObjective.MAX_BANZHAF, BriberyObjective.MAX_SHAPLEY)


@dataclass(frozen=True)
class BriberyProblem:
    election: LiquidElection
    target: int
    budget: int
    threshold: Fraction
    objective: BriberyObjective

    def __post_init__(self):
        if self.budget < 0:
            raise ValueError("budget must be non-negative")
        if not 0 <= self.threshold <= 1:
            raise ValueError("threshold must lie in [0, 1]")
        if not 0 <= self.target < self.election.n:
            raise ValueError(f"target {self.target} out of range")


@dataclass(frozen=True)
class BriberyOutcome:
    """Decision plus the profile that optimizes the objective.

    ``value`` is the optimum (reported even on a "no"); ``profile`` is the
    witness and is only set when the decision is yes.  ``skipped_redirects``
    lists greedy redirects that failed for lack of a network arc.
    """

    decision: bool
    profile: DelegationProfile | None
    value: Fraction
    changes: int
    skipped_redirects: tuple[tuple[int, int], ...] = field(default=())


def _change_options(election: LiquidElection) -> list[tuple]:
    """Per voter: every legal choice different from the current one."""
    options = []
    for v, current in enumerate(election.profile.choices):
        opts = [] if current is SELF else [SELF]
        opts.extend(u for u in election.network.out_neighbors[v] if u != current)
        options.append(tuple(opts))
    return options


def neighborhood_size(election: LiquidElection, k: int) -> int:
    """Number of candidate profiles within budget ``k``, before the
    acyclicity filter (an upper bound on the enumeration effort)."""
    poly = [1]
    for opts in _change_options(election):
        m = len(opts)
        # multiply poly by (1 + m*x), truncated at degree k
        nxt = [0] * min(len(poly) + 1, k + 1)
        for deg, coeff in enumerate(poly):
            if deg < len(nxt):
                nxt[deg] += coeff
            if deg + 1 < len(nxt):
                nxt[deg + 1] += coeff * m
        poly = nxt
    return sum(poly)


def enumerate_neighborhood(election: LiquidElection, k: int):
    """Yield every acyclic profile differing from the current one in at most
    ``k`` positions (each changed voter gets a genuinely different choice),
    each profile exactly once.  The original profile comes first."""
    base = election.profile.choices
    n = len(base)
    options = _change_options(election)
    yield election.profile
    for size in range(1, min(k, n) + 1):
        for subset in combinations(range(n), size):
            pools = [options[v] for v in subset]
            if any(not pool for pool in pools):
                continue
            for combo in product(*pools):
                choices = list(base)
                for v, c in zip(subset, combo):
                    choices[v] = c
                if find_delegation_cycle(choices) is None:
                    yield DelegationProfile(tuple(choices))


def solve_bribery_exact(problem: BriberyProblem) -> BriberyOutcome:
    """Exhaustively optimal bribery over the feasible neighborhood.

    Ties broken by fewer changes, then lexicographically smaller profile.
    The decision compares the optimum against the threshold in the
    objective's direction.
    """
    election = problem.election
    n = election.n
    if n > ENUMERATION_VOTER_LIMIT:
        raise InstanceTooLargeForEnumeration(
            f"{n} voters exceed the bribery enumeration limit of {ENUMERATION_VOTER_LIMIT}"
        )
    bound = neighborhood_size(election, problem.budget)
    if bound > NEIGHBORHOOD_CAP:
        raise InstanceTooLargeForEnumeration(
            f"neighborhood of {bound} candidate profiles exceeds the cap of {NEIGHBORHOOD_CAP}"
        )
    banzhaf = problem.objective.kind is MeasureKind.BANZHAF
    sign = 1 if problem.objective.maximize else -1
    # integer scoring key avoids per-profile Fraction construction:
    # total swings for the penetration measure, sum of s!(n-1-s)!-weighted
    # counts (denominator n!, at most 16! under the table limit, so int64
    # holds it) for the pivotal-order measure
    size_weights = np.array(
        [factorial(s) * factorial(n - 1 - s) for s in range(n)], dtype=np.int64
    )
    base_choices = election.profile.choices

    # the winner minimizes (-key, changes, sort_key), a total order: per
    # chunk only the rows at the chunk's best key can hold it
    best_rank = best_profile = None
    for chunk in batches(enumerate_neighborhood(election, problem.budget), n):
        gamma = coalition_weight_table([p.choices for p in chunk], election.weights)
        counts = swing_counts_from_table(gamma, n, election.quota, problem.target)
        keys = sign * (counts.sum(axis=1) if banzhaf else counts @ size_weights)
        top = int(keys.max())
        for i in np.flatnonzero(keys == top):
            profile = chunk[i]
            changes = sum(a != b for a, b in zip(profile.choices, base_choices))
            rank = (-top, changes, profile.sort_key())
            if best_rank is None or rank < best_rank:
                best_rank, best_profile = rank, profile
    neg_key, best_changes, _ = best_rank
    denominator = 1 << n - 1 if banzhaf else factorial(n)
    value = Fraction(-sign * neg_key, denominator)
    if problem.objective.maximize:
        decision = value >= problem.threshold
    else:
        decision = value <= problem.threshold
    return BriberyOutcome(
        decision=decision,
        profile=best_profile if decision else None,
        value=value,
        changes=best_changes,
    )


def gamw(
    election: LiquidElection,
    target: int,
    budget: int,
    *,
    kind: MeasureKind = MeasureKind.BANZHAF,
    threshold: Fraction | None = None,
) -> BriberyOutcome:
    """Greedy power grab: route the heaviest ballots to the target.

    If the target votes personally, repeatedly redirect the remaining voter
    with the largest accumulated weight to the target, spending one change
    each time.  A delegating target is first made to vote personally (one
    change) when at least two changes are available; with a single change
    left, either the target's proxies already cover the quota — then the
    target votes personally — or the most weight-laden eligible voter is
    redirected to the target instead.

    Redirects without a supporting network arc are skipped (budget kept) and
    reported in ``skipped_redirects``.  The achieved value is computed with
    the counting tables, so large instances are fine.
    """
    if budget < 0:
        raise ValueError("budget must be non-negative")
    n = election.n
    choices = list(election.profile.choices)
    network = election.network
    weights = election.weights
    forest = election.forest
    k = budget
    skipped: list[tuple[int, int]] = []

    if k == 1 and choices[target] is not SELF:
        proxies = forest.chain[target][1:]
        if election.quota - sum(weights[p] for p in proxies) <= 0:
            choices[target] = SELF
            k -= 1
        else:
            # candidates: other tree roots, and voters feeding the target's
            # proxy chain; never the proxies themselves (redirecting one of
            # them to the target would close a delegation cycle)
            proxy_set = set(proxies)
            own_guru = forest.guru[target]
            candidates = {g for g in forest.gurus if g != own_guru}
            candidates.update(
                v
                for v in range(n)
                if choices[v] is not SELF and choices[v] in proxy_set
            )
            candidates -= proxy_set
            candidates.discard(target)
            for cand in sorted(
                candidates, key=lambda v: (-forest.subtree_weight[v], v)
            ):
                if network.has_arc(cand, target):
                    choices[cand] = target
                    k -= 1
                    break
                skipped.append((cand, target))
    elif k >= 2 and choices[target] is not SELF:
        choices[target] = SELF
        k -= 1

    if choices[target] is SELF and k > 0:
        current = build_forest(DelegationProfile(tuple(choices)), weights)
        for g in sorted(
            (g for g in current.gurus if g != target),
            key=lambda g: (-current.acc_weight[g], g),
        ):
            if k == 0:
                break
            if network.has_arc(g, target):
                choices[g] = target
                k -= 1
            else:
                skipped.append((g, target))

    profile = DelegationProfile(tuple(choices))
    bribed = election.with_profile(profile)
    value = (
        banzhaf_dp(bribed, target)
        if kind is MeasureKind.BANZHAF
        else shapley_dp(bribed, target)
    )
    changes = len(election.profile.changed_voters(profile))
    decision = True if threshold is None else value >= threshold
    return BriberyOutcome(
        decision=decision,
        profile=profile,
        value=value,
        changes=changes,
        skipped_redirects=tuple(skipped),
    )
