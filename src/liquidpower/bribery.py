"""Buying power: change up to ``k`` delegations to move a voter's index.

The exact solver enumerates the whole feasible neighborhood — every acyclic
profile differing from the current one in at most ``k`` positions, each
delegation following a network arc — and optimizes the chosen measure of the
target voter in the chosen direction.  The neighborhood is walked in numpy
blocks of parent rows: the cycle test and the chain masks of a whole block
come from one pointer-doubling pass, and each block is scored with
coalition tables of many profiles at once, with no per-profile Python.  The greedy solver redirects the
heaviest ballot-holders toward the target and comes with a provable (if
weak) guarantee on complete networks; it scores with the DP alone.

This module's body imports no numpy and calls
:mod:`~liquidpower.coalition_table` through its module, so where
``coalition_table`` is registered lazily (as the CLI does) only the exact
solver loads numpy, and the greedy one never does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import chain, combinations

from . import coalition_table
from .core import (
    SELF,
    DelegationProfile,
    LiquidElection,
    build_forest,
    integer_field,
    rational_field,
    voter_field,
)
from .dp import banzhaf_dp, shapley_dp
from .exact import MeasureKind, measure_weights


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
        object.__setattr__(self, "target", voter_field(self.target, self.election.n, "target"))
        object.__setattr__(self, "budget", integer_field(self.budget, "budget"))
        object.__setattr__(self, "threshold", rational_field(self.threshold, "threshold"))
        if self.budget < 0:
            raise ValueError("budget must be non-negative")
        if not 0 <= self.threshold <= 1:
            raise ValueError("threshold must lie in [0, 1]")
        object.__setattr__(self, "objective", BriberyObjective(self.objective))


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


def _change_options(election: LiquidElection) -> list[tuple[int, ...]]:
    """Per voter: every legal choice different from the current one, as a
    parent (voting personally as the voter's own id, as in a sort key)."""
    options = []
    for v, current in enumerate(election.profile.choices):
        opts = [] if current is SELF else [v]
        opts.extend(u for u in election.network.out_neighbors[v] if u != current)
        options.append(tuple(opts))
    return options


def neighborhood_size(election: LiquidElection, k: int) -> int:
    """Number of candidate profiles within budget ``k``, before the
    acyclicity filter (an upper bound on the enumeration effort); a negative
    budget leaves none."""
    if k < 0:
        return 0
    # sums[d]: the elementary symmetric sums of the option counts, up to k
    sums = [1] + [0] * min(k, election.n)
    for m in map(len, _change_options(election)):
        for d in range(len(sums) - 1, 0, -1):
            sums[d] += sums[d - 1] * m
    return sum(sums)


def enumerate_neighborhood(election: LiquidElection, k: int):
    """Yield the acyclic profiles within ``k`` changes of the current one as
    numpy blocks ``(parents, masks, changes)``.

    Each profile differs from the current one in at most ``k`` positions,
    each changed voter taking a genuinely different legal choice, and
    appears exactly once; the first is the current profile.  ``parents`` is
    a ``(P, n)`` intp array whose rows are the profiles' sort keys (a
    self-voter is its own parent), ``masks`` their ``(P, n)`` chain masks
    (:func:`coalition_table.chain_masks`) and ``changes`` the ``(P,)``
    change counts.  The neighbourhood is one product per subset of the
    voters (the subset's voters range over their changed options), walked
    by :func:`coalition_table.product_blocks`, which gets plain data: this
    module builds no numpy array.
    """
    n = election.n
    subsets = chain.from_iterable(combinations(range(n), s) for s in range(min(k, n) + 1))
    base, options = election.profile.sort_key(), _change_options(election)
    yield from coalition_table.product_blocks(base, options, subsets, coalition_table.chain_masks)


def solve_bribery_exact(problem: BriberyProblem) -> BriberyOutcome:
    """Exhaustively optimal bribery over the feasible neighborhood.

    Ties broken by fewer changes, then lexicographically smaller profile.
    The decision compares the optimum against the threshold in the
    objective's direction.  Up to 16 voters while the neighbourhood's table
    work fits (:func:`coalition_table.check_table_work`, which refuses).
    """
    election = problem.election
    n = election.n
    # lazy, so the voter limit refuses before the neighbourhood is counted
    coalition_table.check_table_work(
        (neighborhood_size(election, k) * (n + 1) for k in [problem.budget]), n
    )
    sign = 1 if problem.objective.maximize else -1
    # an integer scoring key avoids per-profile Fraction construction
    size_weights, denominator = measure_weights(problem.objective.kind, n)
    _, weights, quota = election.reduced

    def score(masks):
        keys = coalition_table.swing_counts(
            masks, weights, quota, [problem.target], size_weights
        )
        return sign * keys[:, 0]

    neighborhood = enumerate_neighborhood(election, problem.budget)
    neg_key, best_changes, best_parents = coalition_table.best_row(neighborhood, score)
    value = Fraction(-sign * neg_key, denominator)
    decision = sign * value >= sign * problem.threshold
    return BriberyOutcome(
        decision=decision,
        profile=DelegationProfile.from_parents(best_parents) if decision else None,
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
    the counting tables, so large instances are fine.  The target, budget
    and threshold are read as :class:`BriberyProblem` reads them; without a
    threshold the decision is yes, as every value reaches 0.
    """
    kind = MeasureKind(kind)
    threshold = 0 if threshold is None else threshold
    problem = BriberyProblem(election, target, budget, threshold, f"max-{kind.value}")
    target = problem.target
    n = election.n
    choices = list(election.profile.choices)
    network = election.network
    weights = election.weights
    forest = election.forest
    k = problem.budget
    skipped: list[tuple[int, int]] = []

    if k == 1 and choices[target] is not SELF:
        proxies = forest.proxies_of(target)
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
    return BriberyOutcome(
        decision=value >= problem.threshold,
        profile=profile,
        value=value,
        changes=changes,
        skipped_redirects=tuple(skipped),
    )
