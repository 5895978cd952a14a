"""Balancing power: pick the delegation profile that lifts the weakest voter.

Given a network, weights, a quota, and a prescribed number of ballot-casting
voters, search every acyclic delegation profile with exactly that many roots
and keep the one maximizing the minimum power measure across all voters.
A structural shortcut evaluates a single profile through its leaves only:
power never decreases along a delegation arc, so the minimum over all voters
is attained at a voter nobody delegates to.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import factorial

from .coalition_table import TABLE_LIMIT, all_swing_counts_fast
from .core import (
    SELF,
    DelegationProfile,
    LiquidElection,
    SocialNetwork,
    build_forest,
)
from .dp import banzhaf_dp
from .errors import (
    InstanceTooLargeForEnumeration,
    MeasureNotSupported,
    NoFeasibleProfile,
    NonPositiveWeight,
    QuotaOutOfRange,
)
from .exact import MeasureKind

BRUTEFORCE_VOTER_LIMIT = 8
PROFILE_CAP = 500_000


@dataclass(frozen=True)
class MaximinProblem:
    network: SocialNetwork
    weights: tuple[int, ...]
    quota: int
    gurus: int
    kind: MeasureKind = MeasureKind.BANZHAF

    def __post_init__(self):
        n = self.network.n
        if len(self.weights) != n:
            raise ValueError("one weight per voter required")
        for v, w in enumerate(self.weights):
            if w < 1:
                raise NonPositiveWeight(f"voter {v} has non-positive weight {w}")
        total = sum(self.weights)
        if not 1 <= self.quota <= total:
            raise QuotaOutOfRange(
                f"quota {self.quota} outside [1, {total}]"
            )
        if not 1 <= self.gurus <= n:
            raise ValueError(f"guru count {self.gurus} outside [1, {n}]")


@dataclass(frozen=True)
class MaximinSolution:
    profile: DelegationProfile
    mu: Fraction
    per_voter: tuple[Fraction, ...]


def _profiles_with_roots(network: SocialNetwork, roots: tuple[int, ...]):
    """Acyclic profiles whose personally-voting voters are exactly ``roots``.

    Non-roots take one out-neighbor each; chains then terminate at roots
    exactly when no cycle forms, which is pruned during assignment.
    """
    n = network.n
    root_set = set(roots)
    followers = [v for v in range(n) if v not in root_set]
    choices: list = [SELF] * n

    def acyclic_after(start: int) -> bool:
        seen = set()
        v = start
        while choices[v] is not SELF:
            if v in seen:
                return False
            seen.add(v)
            v = choices[v]
        return True

    def assign(i: int):
        if i == len(followers):
            yield DelegationProfile(tuple(choices))
            return
        v = followers[i]
        for u in network.out_neighbors[v]:
            choices[v] = u
            if acyclic_after(v):
                yield from assign(i + 1)
        choices[v] = SELF

    yield from assign(0)


def _min_measure_key(counts_per_voter, n: int, kind: MeasureKind, size_weights):
    """Integer scoring of min-over-voters (common denominator per kind)."""
    if kind is MeasureKind.BANZHAF:
        return min(sum(counts) for counts in counts_per_voter)
    return min(
        sum(w * c for w, c in zip(size_weights, counts) if c)
        for counts in counts_per_voter
    )


def mmwp_bruteforce(problem: MaximinProblem) -> MaximinSolution:
    """Exhaustive maximin search over profiles with the prescribed root count.

    Ties between equally good profiles break lexicographically.  Raises
    NoFeasibleProfile when no acyclic profile has exactly the requested
    number of roots (e.g. more voters without out-arcs than roots allowed).
    """
    n = problem.network.n
    if n > BRUTEFORCE_VOTER_LIMIT:
        raise InstanceTooLargeForEnumeration(
            f"{n} voters exceed the maximin enumeration limit of {BRUTEFORCE_VOTER_LIMIT}"
        )
    kind = problem.kind
    size_weights = [factorial(s) * factorial(n - 1 - s) for s in range(n)]
    # voters without out-arcs can never delegate, so every root set must
    # contain them
    forced = [v for v in range(n) if not problem.network.out_neighbors[v]]
    best_key = None
    best_profile = None
    seen = 0
    for roots in combinations(range(n), problem.gurus):
        if any(v not in roots for v in forced):
            continue
        for profile in _profiles_with_roots(problem.network, roots):
            seen += 1
            if seen > PROFILE_CAP:
                raise InstanceTooLargeForEnumeration(
                    f"more than {PROFILE_CAP} feasible profiles to evaluate"
                )
            counts = all_swing_counts_fast(
                profile.choices, problem.weights, problem.quota
            )
            key = _min_measure_key(counts, n, kind, size_weights)
            if (
                best_key is None
                or key > best_key
                or (
                    key == best_key
                    and profile.sort_key() < best_profile.sort_key()
                )
            ):
                best_key = key
                best_profile = profile
    if best_profile is None:
        raise NoFeasibleProfile(
            f"no acyclic profile with exactly {problem.gurus} personally-voting voters"
        )
    counts = all_swing_counts_fast(
        best_profile.choices, problem.weights, problem.quota
    )
    if kind is MeasureKind.BANZHAF:
        denominator = 1 << n - 1
        per_voter = tuple(Fraction(sum(c), denominator) for c in counts)
    else:
        denominator = factorial(n)
        per_voter = tuple(
            Fraction(sum(w * x for w, x in zip(size_weights, c) if x), denominator)
            for c in counts
        )
    return MaximinSolution(best_profile, min(per_voter), per_voter)


def mmwp_leafmin(
    profile: DelegationProfile,
    election: LiquidElection,
    kind: MeasureKind = MeasureKind.BANZHAF,
) -> Fraction:
    """Minimum of the swing-based measure, read off the forest's leaves.

    Power never decreases along a delegation arc, so the minimum over all
    voters is attained at a voter with no delegators (roots that stand alone
    included).  Only the swing-count measure enjoys this shortcut; the
    ordering-based measure must take the full minimum.  Small instances are
    cross-checked against the full minimum.
    """
    if kind is not MeasureKind.BANZHAF:
        raise MeasureNotSupported(
            "the leaf shortcut is only proven for the swing-count measure"
        )
    n = election.n
    forest = build_forest(profile, election.weights)
    leaves = [v for v in range(n) if forest.subtree_size[v] == 1]
    evaluated = election.with_profile(profile)
    if n <= TABLE_LIMIT:
        counts = all_swing_counts_fast(
            profile.choices, election.weights, election.quota
        )
        denominator = 1 << n - 1
        values = [Fraction(sum(counts[v]), denominator) for v in range(n)]
        leaf_min = min(values[v] for v in leaves)
        if leaf_min != min(values):
            raise RuntimeError("leaf minimum diverged from the full minimum")
        return leaf_min
    return min(banzhaf_dp(evaluated, v) for v in leaves)
