"""Shared fixtures and random-instance generators for the tests."""

import random

from liquidpower.core import (
    SELF,
    DelegationProfile,
    LiquidElection,
    SocialNetwork,
    validate,
)
from liquidpower.bribery import enumerate_neighborhood
from liquidpower.exact import MeasureKind, power_index


def banzhaf_of(game, voter):
    """Swing-count power of one voter, by enumeration."""
    return power_index(game, voter, MeasureKind.BANZHAF)


def shapley_of(game, voter):
    """Ordering power of one voter, by enumeration."""
    return power_index(game, voter, MeasureKind.SHAPLEY)


def _expand(sub: int, voter: int) -> int:
    """Spread an index over ``n-1`` voters into a mask skipping ``voter``'s bit."""
    low = sub & (1 << voter) - 1
    high = sub >> voter << voter + 1
    return low | high


def _swing_counts_plain(game, voter: int) -> list[int]:
    """Per-size swing counts of one voter of any game, by plain enumeration:
    two ``value_of`` calls per coalition of the other voters.  The reference
    that the bit-sliced counts of :mod:`liquidpower.exact` are checked
    against."""
    n = game.n_voters
    counts = [0] * n
    bit = 1 << voter
    for sub in range(1 << n - 1):
        mask = _expand(sub, voter)
        if game.value_of(mask) == 0 and game.value_of(mask | bit) == 1:
            counts[mask.bit_count()] += 1
    return counts


def eight_voter_election() -> LiquidElection:
    """Two delegation trees over eight unit-weight voters, quota 3.

    Tree one: voters 0 and 1 delegate to 2, who votes personally (3 ballots).
    Tree two: 3 and 5 delegate to 6, 4 delegates to 5, 6 delegates to 7, who
    votes personally (5 ballots).  The network carries a handful of extra
    arcs beyond the ones in use.
    """
    delegation_arcs = [(0, 2), (1, 2), (3, 6), (4, 5), (5, 6), (6, 7)]
    extra_arcs = [(5, 4), (6, 3), (1, 6), (2, 7), (2, 1), (0, 3)]
    network = SocialNetwork.from_arcs(8, delegation_arcs + extra_arcs)
    profile = DelegationProfile((2, 2, SELF, 6, 5, 6, 7, SELF))
    return validate(network, (1,) * 8, profile, 3)


def neighborhood_profiles(election: LiquidElection, k: int) -> list[DelegationProfile]:
    """The profiles of ``enumerate_neighborhood``'s blocks, in order."""
    return [
        DelegationProfile.from_parents(row)
        for parents, _masks, _changes in enumerate_neighborhood(election, k)
        for row in parents.tolist()
    ]


def three_voter_line_election(delegate_third: bool) -> LiquidElection:
    """Three unit-weight voters, quota 2; voter 1 delegates to voter 0.

    With ``delegate_third`` the last voter delegates to voter 1 (lengthening
    the chain); otherwise it votes personally.
    """
    network = SocialNetwork.from_arcs(3, [(1, 0), (2, 1)])
    profile = DelegationProfile((SELF, 0, 1 if delegate_third else SELF))
    return validate(network, (1, 1, 1), profile, 2)


# A skewed-weight instance whose peel lands in the cost window with too poor a
# weight-per-change ratio, so vbamw falls back to searching the spanning tree.
TRIM_FALLBACK_INSTANCE = {
    "n": 6,
    "weights": [15, 3, 10, 27, 45, 1],
    "arcs": [
        [1, 2], [1, 3], [1, 4], [1, 5], [2, 1], [2, 4], [2, 5], [2, 6],
        [3, 1], [3, 4], [3, 5], [4, 1], [4, 3], [4, 5], [4, 6], [5, 1],
        [5, 3], [6, 1], [6, 2], [6, 3], [6, 4], [6, 5],
    ],
    "delegations": {"1": 5},
    "quota": 51,
}


def random_network(rng: random.Random, n: int, arc_prob: float = 0.5) -> SocialNetwork:
    arcs = [
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j and rng.random() < arc_prob
    ]
    return SocialNetwork.from_arcs(n, arcs)


def random_profile(
    rng: random.Random, network: SocialNetwork, delegate_prob: float = 0.6
) -> DelegationProfile:
    """Random acyclic profile along the network's arcs.

    Voters may only delegate to predecessors in a random permutation, which
    rules out cycles while reaching every forest shape.
    """
    n = network.n
    order = list(range(n))
    rng.shuffle(order)
    rank = {v: i for i, v in enumerate(order)}
    choices = [SELF] * n
    for v in range(n):
        candidates = [u for u in network.out_neighbors[v] if rank[u] < rank[v]]
        if candidates and rng.random() < delegate_prob:
            choices[v] = rng.choice(candidates)
    return DelegationProfile(tuple(choices))


def random_election(
    rng: random.Random,
    n_min: int = 2,
    n_max: int = 10,
    w_max: int = 4,
    arc_prob: float = 0.5,
    delegate_prob: float = 0.6,
    complete: bool = False,
) -> LiquidElection:
    n = rng.randint(n_min, n_max)
    network = (
        SocialNetwork.complete(n) if complete else random_network(rng, n, arc_prob)
    )
    weights = tuple(rng.randint(1, w_max) for _ in range(n))
    profile = random_profile(rng, network, delegate_prob)
    total = sum(weights)
    # bias toward majority quotas but cover the whole legal band
    lo = total // 2 + 1 if rng.random() < 0.7 else 1
    quota = rng.randint(min(lo, total), total)
    return validate(network, weights, profile, quota)


def random_composable_pair(rng: random.Random, joint_max: int = 10, w_max: int = 3):
    """Two elections sharing voters on which they agree, plus the pairing.

    The shared voters of the first election are a delegation-closed set (any
    shared delegator's target is shared too); the second election replicates
    their weights and delegation pattern and adds fresh voters around them.
    Returns ``(e1, e2, shared)`` with ``shared`` mapping part-one ids to
    part-two ids.
    """
    n1 = rng.randint(2, max(2, joint_max - 2))
    e1 = random_election(rng, n_min=n1, n_max=n1, w_max=w_max)
    # delegation-closed shared set: seed voters plus everyone their ballots pass through
    seeds = rng.sample(range(n1), rng.randint(1, min(2, n1)))
    shared1: set[int] = set()
    for s in seeds:
        shared1.update(e1.forest.chain_of(s))
    shared1_list = sorted(shared1)
    r = len(shared1_list)
    n2 = min(joint_max - n1 + r, r + rng.randint(1, 3))
    n2 = max(n2, r)
    to_two = {v: i for i, v in enumerate(shared1_list)}  # shared go first in e2

    choices2: list = [SELF] * n2
    for v in shared1_list:
        c = e1.profile.choices[v]
        choices2[to_two[v]] = SELF if c is SELF else to_two[c]
    fresh = list(range(r, n2))
    rng.shuffle(fresh)
    rank = {v: i for i, v in enumerate(fresh)}
    for v in fresh:
        pool = [u for u in range(n2) if u < r or (u in rank and rank[u] < rank[v])]
        if pool and rng.random() < 0.6:
            choices2[v] = rng.choice([u for u in pool if u != v])
    weights2 = tuple(
        e1.weights[shared1_list[i]] if i < r else rng.randint(1, w_max)
        for i in range(n2)
    )
    arcs2 = {(v, c) for v, c in enumerate(choices2) if c is not SELF}
    for _ in range(n2):
        a, b = rng.randrange(n2), rng.randrange(n2)
        if a != b:
            arcs2.add((a, b))
    total2 = sum(weights2)
    quota2 = rng.randint(total2 // 2 + 1, total2)
    e2 = validate(
        SocialNetwork.from_arcs(n2, arcs2),
        weights2,
        DelegationProfile(tuple(choices2)),
        quota2,
    )
    return e1, e2, to_two
