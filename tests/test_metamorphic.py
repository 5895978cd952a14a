"""The paper's Join lemma and leaf observation as properties at every size.

``Join(V, x, y)`` is the game ``V`` in which voter ``x``, a guru, now
delegates to voter ``y``; on a complete network that arc always exists.  Both
statements compare one voter's power ``f_u`` across two joins:

* the lemma: for voters ``u``, ``j`` and ``g`` whose gurus differ from
  ``u``'s, ``f_u(Join(V, d*_u, j)) <= f_u(Join(V, g, j))``.  Join's second
  argument is read as a guru here, so ``g`` is one (other than ``j``'s,
  which would close a cycle).  Read with ``g`` a voter that re-delegates,
  the inequality fails; the pinned counterexample below shows it;
* the observation: for a leaf ``l`` outside ``u``'s tree and any ``v`` on
  ``l``'s chain up to its guru, ``f_u(Join(V, d*_u, l)) <= f_u(Join(V,
  d*_u, v))``.

A third relation is scale-freeness: multiplying every weight by ``k`` and
taking the quota ``k*q - r`` (``0 <= r < k``) wins the same coalitions, so
every route's answer stays, a weight-max support times ``k`` (Matsui and
Matsui, 2000).  Every route counts the gcd-reduced game
``LiquidElection.reduced``, so one slip in that rule would move them all.

Each Join property runs on the walk's all-voter route and on its single-voter
route, for Banzhaf (n up to 200) and Shapley (n up to 60), comparing
``Fraction``s.  Runs are derandomized with a fixed example count, so they are
the same on every machine.
"""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from liquidpower.bribery import BriberyObjective, BriberyProblem, solve_bribery_exact
from liquidpower.core import SELF, DelegationProfile, SocialNetwork, validate
from liquidpower.dp import all_indices_dp, banzhaf_dp, shapley_dp
from liquidpower.exact import MeasureKind, all_indices_exact
from liquidpower.maximin import MaximinProblem, mmwp_bruteforce
from liquidpower.weightmax import WeightMaxProblem, wmaxp_exact

KINDS = {MeasureKind.BANZHAF: (banzhaf_dp, 200), MeasureKind.SHAPLEY: (shapley_dp, 60)}


def _all_voter(election, voter, kind):
    return all_indices_dp(election, kind).values[voter]


def _single_voter(election, voter, kind):
    return KINDS[kind][0](election, voter)


ROUTES = [_all_voter, _single_voter]


def join(election, x, y):
    """``election`` with voter ``x`` now delegating to voter ``y``."""
    choices = list(election.profile.choices)
    choices[x] = y
    return election.with_profile(DelegationProfile(tuple(choices)))


@st.composite
def games(draw, n_max):
    """A game on a complete network with at least three delegation trees:
    weights 1, 1-3 or 1-8, forests from flat to deep, any quota."""
    n = draw(st.integers(3, n_max))
    w_max = draw(st.sampled_from([1, 3, 8]))
    density = draw(st.sampled_from([0.3, 0.7, 0.95]))
    rng = draw(st.randoms(use_true_random=False))
    weights = [rng.randint(1, w_max) for _ in range(n)]
    # voters delegate only to voters earlier in a random order, and the
    # first three of that order vote: acyclic, with three trees or more
    order = rng.sample(range(n), n)
    choices = [SELF] * n
    for p, v in enumerate(order[3:], start=3):
        if rng.random() < density:
            choices[v] = order[rng.randrange(p)]
    quota = rng.randint(1, sum(weights))
    profile = DelegationProfile(tuple(choices))
    return validate(SocialNetwork.complete(n), weights, profile, quota), rng


def _fixed(examples: int):
    return settings(
        derandomize=True,
        database=None,
        max_examples=examples,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )


@pytest.mark.parametrize("kind", list(KINDS))
@_fixed(25)
@given(data=st.data())
def test_join_lemma_holds_with_g_a_guru(kind, data):
    election, rng = data.draw(games(KINDS[kind][1]))
    guru = election.forest.guru
    u = rng.randrange(election.n)
    j = rng.choice([v for v in range(election.n) if guru[v] != guru[u]])
    g = rng.choice([r for r in election.forest.gurus if r not in (guru[u], guru[j])])
    by_u, by_g = join(election, guru[u], j), join(election, g, j)
    for route in ROUTES:
        assert route(by_u, u, kind) <= route(by_g, u, kind)


@pytest.mark.parametrize("kind", list(KINDS))
@_fixed(25)
@given(data=st.data())
def test_joining_a_leaf_lowers_power_more_than_its_chain(kind, data):
    election, rng = data.draw(games(KINDS[kind][1]))
    forest = election.forest
    u = rng.randrange(election.n)
    leaves = [v for v in range(election.n) if not forest.delegators[v]]
    leaves = [v for v in leaves if forest.guru[v] != forest.guru[u]]
    # a leaf that delegates has a chain above it; v = leaf is the trivial case
    leaf = rng.choice([v for v in leaves if forest.parent[v] != v] or leaves)
    v = rng.choice(forest.chain_of(leaf)[1:] or (leaf,))
    to_leaf, to_v = join(election, forest.guru[u], leaf), join(election, forest.guru[u], v)
    for route in ROUTES:
        assert route(to_leaf, u, kind) <= route(to_v, u, kind)


@pytest.mark.parametrize("route", ROUTES)
def test_join_lemma_fails_when_g_re_delegates(route):
    # g = 1 delegates to 5, so d*_g = 5, d*_u = 0 and d*_j = 2 all differ,
    # yet u = 0 keeps more power when its own guru joins j than when g does
    profile = DelegationProfile((SELF, 5, SELF, 0, 3, SELF, 3))
    election = validate(SocialNetwork.complete(7), (1, 3, 7, 1, 1, 1, 2), profile, 8)
    u, j, g = 0, 2, 1
    assert election.forest.guru[g] not in (election.forest.guru[u], election.forest.guru[j])
    by_u, by_g = join(election, u, j), join(election, g, j)
    assert route(by_u, u, MeasureKind.BANZHAF) == Fraction(1, 4)
    assert route(by_g, u, MeasureKind.BANZHAF) == Fraction(1, 8)


@st.composite
def scalings(draw):
    """A factor ``k`` and a quota shortfall ``r`` with ``0 <= r < k``."""
    k = draw(st.sampled_from([2, 3, 2**40]))
    return k, draw(st.integers(0, k - 1))


def scaled(election, k: int, r: int):
    """``election`` with every weight times ``k`` and the quota ``k*q - r``."""
    weights = [w * k for w in election.weights]
    return validate(election.network, weights, election.profile, k * election.quota - r)


@pytest.mark.parametrize("kind", list(KINDS))
@_fixed(40)
@given(data=st.data())
def test_scaling_the_weights_keeps_every_index(kind, data):
    election, rng = data.draw(games(16))
    k, r = data.draw(scalings())
    big = scaled(election, k, r)
    assert all_indices_dp(big, kind) == all_indices_dp(election, kind)
    u = rng.randrange(election.n)
    assert _single_voter(big, u, kind) == _single_voter(election, u, kind)
    if election.n <= 12:
        assert all_indices_exact(big, kind) == all_indices_exact(election, kind)


@_fixed(40)
@given(data=st.data())
def test_scaling_the_weights_keeps_every_search_answer(data):
    election, rng = data.draw(games(6))
    k, r = data.draw(scalings())
    big = scaled(election, k, r)
    n, target, budget = election.n, rng.randrange(election.n), rng.randint(1, 2)
    threshold, objective = Fraction(rng.randint(0, 4), 4), rng.choice(list(BriberyObjective))

    def bribe(game):
        return solve_bribery_exact(BriberyProblem(game, target, budget, threshold, objective))

    assert bribe(big) == bribe(election)
    gurus, kind = rng.randint(1, n), rng.choice(list(MeasureKind))

    def maximin(game):
        return mmwp_bruteforce(MaximinProblem(game.network, game.weights, game.quota, gurus, kind))

    assert maximin(big) == maximin(election)
    # the threshold scales as the quota does; the support is in weight units
    tau = rng.randint(1, election.total_weight)
    small = wmaxp_exact(WeightMaxProblem(election, target, budget, tau))
    large = wmaxp_exact(WeightMaxProblem(big, target, budget, k * tau - r))
    assert large == replace(small, support=k * small.support)
