"""Balancing power: pick the delegation profile that lifts the weakest voter.

Given a network, weights, a quota, and a prescribed number of ballot-casting
voters, search every acyclic delegation profile with exactly that many roots
and keep the one maximizing the minimum power measure across all voters.
A structural shortcut evaluates a single profile through its leaves only:
power never decreases along a delegation arc, so the minimum over all voters
is attained at a voter nobody delegates to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import prod

from .coalition_table import (
    best_row,
    chain_masks,
    check_table_work,
    product_blocks,
    swing_counts,
)
from .core import DelegationProfile, LiquidElection, SocialNetwork, integer_field
from .dp import all_indices_dp
from .errors import InvariantViolated, MeasureNotSupported, NoFeasibleProfile
from .exact import MeasureKind, measure_weights


@dataclass(frozen=True)
class MaximinProblem:
    network: SocialNetwork
    weights: tuple[int, ...]
    quota: int
    gurus: int
    kind: MeasureKind = MeasureKind.BANZHAF
    election: LiquidElection = field(init=False, repr=False, compare=False)  # all self-voting

    def __post_init__(self):
        for name in ("quota", "gurus"):
            object.__setattr__(self, name, integer_field(getattr(self, name), name))
        weights = tuple(integer_field(w, "weights") for w in self.weights)
        object.__setattr__(self, "weights", weights)
        n = self.network.n
        # the election checks the sizes, the weights and the quota
        election = LiquidElection(self.network, weights, DelegationProfile.all_self(n), self.quota)
        object.__setattr__(self, "election", election)
        if not 1 <= self.gurus <= n:
            raise ValueError(f"guru count {self.gurus} outside [1, {n}]")
        object.__setattr__(self, "kind", MeasureKind(self.kind))


@dataclass(frozen=True)
class MaximinSolution:
    profile: DelegationProfile
    mu: Fraction
    per_voter: tuple[Fraction, ...]


def _profiles_with_roots(network: SocialNetwork, root_sets):
    """Acyclic profiles whose personally-voting voters are exactly one of
    ``root_sets``, as numpy blocks ``(parents, masks, free)``.

    Per root set the candidates are one product of the identity row, the
    root set's complement free over the out-neighbour lists (plain data:
    this module builds no numpy array).  A candidate is acyclic exactly when
    every chain ends at a root, so the acyclic rows of
    :func:`coalition_table.product_blocks` are the wanted profiles; a block
    may span root sets.  ``parents`` and ``masks`` are ``(P, n)`` arrays of
    parent rows (sort keys) and chain masks, ``free`` each row's count of
    non-roots (the same for every row of one search, so it leaves the
    tie-break to the rows).
    """
    n = network.n
    frees = ([v for v in range(n) if v not in roots] for roots in root_sets)
    yield from product_blocks(range(n), network.out_neighbors, frees, chain_masks)


def _count_profiles_with_roots(network: SocialNetwork, roots: tuple[int, ...]) -> int:
    """Number of profiles :func:`_profiles_with_roots` yields for one root
    set, without enumerating them.

    Those profiles are the spanning in-forests rooted at ``roots``; by the
    directed matrix-tree theorem they number ``det((D_out - A)[V-R, V-R])``,
    computed exactly by Bareiss elimination.  The matrix is weakly
    diagonally dominant by rows with a nonnegative diagonal, and elimination
    keeps it so; a zero pivot therefore means a zero row and a count of 0
    (as for a non-root without out-arcs), and no row swaps are needed.
    """
    root_set = set(roots)
    rest = [v for v in range(network.n) if v not in root_set]
    index = {v: i for i, v in enumerate(rest)}
    a = []
    for v in rest:
        row = [0] * len(rest)
        row[index[v]] = len(network.out_neighbors[v])
        for u in network.out_neighbors[v]:
            if u in index:
                row[index[u]] -= 1
        a.append(row)
    m = len(a)
    previous = 1
    for k in range(m - 1):
        if a[k][k] == 0:
            return 0
        for i in range(k + 1, m):
            for j in range(k + 1, m):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // previous
        previous = a[k][k]
    return a[-1][-1] if m else 1


def mmwp_bruteforce(problem: MaximinProblem) -> MaximinSolution:
    """Exhaustive maximin search over profiles with the prescribed root count.

    Ties between equally good profiles break lexicographically.  Raises
    NoFeasibleProfile when no acyclic profile has exactly the requested
    number of roots (e.g. more voters without out-arcs than roots allowed).
    Up to 16 voters while the work fits: scoring the qualifying profiles,
    counted by the matrix-tree theorem, and walking every candidate of their
    root sets' products, cyclic ones included
    (:func:`coalition_table.check_table_work`, which refuses before either).
    """
    network = problem.network
    n = network.n
    counts = {}  # profiles per root set, filled as the guard reads them

    def passes(roots):
        count = counts[roots] = _count_profiles_with_roots(network, roots)
        walked = prod(len(network.out_neighbors[v]) for v in range(n) if v not in roots)
        return count * 2 * n + walked if count else 0

    check_table_work(map(passes, combinations(range(n), problem.gurus)), n)
    root_sets = [roots for roots, count in counts.items() if count]
    if not root_sets:
        raise NoFeasibleProfile(
            f"no acyclic profile with exactly {problem.gurus} personally-voting voters"
        )
    # an integer scoring key per voter avoids per-profile Fractions
    size_weights, denominator = measure_weights(problem.kind, n)
    _, weights, quota = problem.election.reduced
    voters = range(n)

    def keys(masks):
        return swing_counts(masks, weights, quota, voters, size_weights)

    # the highest minimum key wins, ties going to the smallest parent row
    stream = _profiles_with_roots(network, root_sets)
    _, _, parents = best_row(stream, lambda masks: keys(masks).min(axis=1))
    winner_keys = keys(chain_masks([parents])[0])[0]
    per_voter = tuple(Fraction(int(key), denominator) for key in winner_keys)
    return MaximinSolution(DelegationProfile.from_parents(parents), min(per_voter), per_voter)


def mmwp_leafmin(
    profile: DelegationProfile,
    election: LiquidElection,
    kind: MeasureKind = MeasureKind.BANZHAF,
) -> Fraction:
    """Minimum of the swing-based measure, read off the forest's leaves.

    Power never decreases along a delegation arc, so the minimum over all
    voters is attained at a voter with no delegators (roots that stand alone
    included).  Only the swing-count measure enjoys this shortcut; the
    ordering-based measure must take the full minimum.  One DP walk gives
    every voter's value, so the leaf minimum is checked against the full
    minimum.
    """
    if MeasureKind(kind) is not MeasureKind.BANZHAF:
        raise MeasureNotSupported(
            "the leaf shortcut is only proven for the swing-count measure"
        )
    evaluated = election.with_profile(profile)
    values = all_indices_dp(evaluated, MeasureKind.BANZHAF).values
    subtree_size = evaluated.forest.subtree_size
    leaf_min = min(x for x, size in zip(values, subtree_size) if size == 1)
    if leaf_min != min(values):
        raise InvariantViolated("leaf minimum diverged from the full minimum")
    return leaf_min
