"""Top-level acceptance suite: one test per shipped guarantee.

Each test is a single pass/fail gate.  Shared random corpora are built once
per session; every expected value is either a frozen fixture value or a
cross-check between two independently implemented routes.
"""

import random
import time
from fractions import Fraction
from itertools import product

import pytest

from liquidpower import (
    SELF,
    DelegationProfile,
    SocialNetwork,
    find_delegation_cycle,
    validate,
)
from liquidpower.bribery import BriberyObjective, BriberyProblem, gamw, solve_bribery_exact
from liquidpower.dp import banzhaf_dp, shapley_dp
from liquidpower.exact import MeasureKind
from liquidpower.maximin import mmwp_leafmin
from liquidpower.semantics import compose
from liquidpower.weightmax import (
    WeightMaxProblem,
    build_cost_graph,
    solve_fpt_colorcoding,
    solve_full_support,
    solve_xp_reqbar,
    vbamw,
    wmaxp_exact,
)
from support import (
    _swing_counts_plain,
    banzhaf_of,
    eight_voter_election,
    random_composable_pair,
    random_election,
    random_profile,
    shapley_of,
    three_voter_line_election,
)

FACTORIALS = [1]
for _k in range(1, 12):
    FACTORIALS.append(FACTORIALS[-1] * _k)


@pytest.fixture(scope="session")
def corpus():
    """500 random elections with per-voter table-route values, built once."""
    rng = random.Random(20_260_816)
    records = []
    for _ in range(500):
        election = random_election(rng, n_min=2, n_max=10, w_max=4)
        db = tuple(banzhaf_dp(election, v) for v in range(election.n))
        ds = tuple(shapley_dp(election, v) for v in range(election.n))
        records.append((election, db, ds))
    return records


def test_criterion_01_fixture_values_via_both_routes_under_one_second():
    election = eight_voter_election()
    started = time.perf_counter()
    values = {
        ("enum", 7): banzhaf_of(election, 7),
        ("enum", 5): banzhaf_of(election, 5),
        ("tables", 7): banzhaf_dp(election, 7),
        ("tables", 5): banzhaf_dp(election, 5),
    }
    elapsed = time.perf_counter() - started
    assert values[("enum", 7)] == Fraction(1, 2)
    assert values[("tables", 7)] == Fraction(1, 2)
    assert values[("enum", 5)] == Fraction(1, 16)
    assert values[("tables", 5)] == Fraction(1, 16)
    assert elapsed < 1.0


def test_criterion_02_tables_match_enumeration_on_500_instances(corpus):
    started = time.perf_counter()
    instances = 0
    for election, db, ds in corpus:
        for v in range(election.n):
            assert db[v] == banzhaf_of(election, v)
            assert ds[v] == shapley_of(election, v)
        instances += 1
    elapsed = time.perf_counter() - started
    assert instances >= 500
    assert elapsed < 300.0


def test_criterion_03_ordering_measure_sums_to_one(corpus):
    for _election, _db, ds in corpus:
        assert sum(ds, Fraction(0)) == 1


def _with_extra_arc(election, source, target):
    """The same election over a network additionally carrying (source, target)."""
    arcs = set(election.network.arcs()) | {(source, target)}
    network = SocialNetwork.from_arcs(election.n, arcs)
    return validate(network, election.weights, election.profile, election.quota)


def _redirected(election, voter, choice):
    """The same election with ``voter``'s delegation set to ``choice``."""
    choices = list(election.profile.choices)
    choices[voter] = choice
    return election.with_profile(DelegationProfile(tuple(choices)))


def test_criterion_04_redirection_axioms_and_the_paradox_fixture():
    rng = random.Random(44_001)

    # direct redirection toward a voter never lowers that voter's measures
    direct_events = 0
    while direct_events < 200:
        election = random_election(rng, n_min=3, n_max=8, w_max=3)
        i = rng.randrange(election.n)
        chain = election.forest.chain_of(i)
        outside = [j for j in range(election.n) if j != i and j not in chain]
        if not outside:
            continue
        j = rng.choice(outside)
        before = _with_extra_arc(election, j, i)
        after = _redirected(before, j, i)
        assert banzhaf_dp(before, i) <= banzhaf_dp(after, i)
        assert shapley_dp(before, i) <= shapley_dp(after, i)
        direct_events += 1

    # skipping intermediaries on one's own chain never lowers the measures
    # of anyone the ballot still passes through
    shortcut_events = 0
    while shortcut_events < 200:
        election = random_election(
            rng, n_min=3, n_max=8, w_max=3, delegate_prob=0.8
        )
        chain_of = election.forest.chain_of
        candidates = [
            (j, k)
            for j in range(election.n)
            for k in chain_of(j)[2:]  # strictly beyond j's current proxy
        ]
        if not candidates:
            continue
        for j, k in rng.sample(candidates, min(4, len(candidates))):
            before = _with_extra_arc(election, j, k)
            after = _redirected(before, j, k)
            for i in chain_of(k):
                assert banzhaf_dp(before, i) <= banzhaf_dp(after, i)
                assert shapley_dp(before, i) <= shapley_dp(after, i)
            shortcut_events += 1

    # ...but receiving a longer chain can strictly hurt: frozen 3-voter fixture
    before = three_voter_line_election(delegate_third=False)
    after = three_voter_line_election(delegate_third=True)
    assert banzhaf_dp(after, 0) < banzhaf_dp(before, 0)
    assert shapley_dp(after, 0) < shapley_dp(before, 0)


def test_criterion_05_conjunction_disjunction_sum_identity():
    rng = random.Random(55_001)
    pairs = 0
    while pairs < 50:
        e1, e2, shared = random_composable_pair(rng, joint_max=10)
        both = compose(e1, e2, "and", shared)
        either = compose(e1, e2, "or", shared)
        back_of = {}
        for two_id in range(e2.n):
            back_of[both.joint_of_two[two_id]] = two_id
        for joint in range(both.n_voters):
            split = Fraction(0)
            if joint < e1.n:
                split += shapley_of(e1, joint)
            if joint in back_of:
                split += shapley_of(e2, back_of[joint])
            assert shapley_of(both, joint) + shapley_of(either, joint) == split
        pairs += 1


def test_criterion_06_arc_monotonicity_and_leaf_minimum(corpus):
    # power never decreases along a delegation arc
    for election, db, _ds in corpus:
        for v, choice in enumerate(election.profile.choices):
            if choice is not SELF:
                assert db[v] <= db[choice]

    # the minimum sits on a childless voter, across enumerated profiles
    rng = random.Random(66_001)
    profiles_checked = 0
    for _ in range(12):
        election = random_election(rng, n_min=2, n_max=8, w_max=3, arc_prob=0.4)
        n = election.n
        denominator = 1 << n - 1
        pools = [[SELF, *election.network.out_neighbors[v]] for v in range(n)]
        enumerated = 0
        for combo in product(*pools):
            if find_delegation_cycle(combo) is not None:
                continue
            profile = DelegationProfile(combo)
            evaluated = election.with_profile(profile)
            full_min = min(
                Fraction(sum(_swing_counts_plain(evaluated, v)), denominator)
                for v in range(n)
            )
            assert mmwp_leafmin(profile, election) == full_min
            enumerated += 1
            if enumerated >= 400:
                break
        profiles_checked += enumerated
    assert profiles_checked >= 1000


def test_criterion_07_greedy_bribery_guarantee():
    rng = random.Random(77_001)
    for _ in range(200):
        n = rng.randint(3, 8)
        election = random_election(rng, n_min=n, n_max=n, w_max=4, complete=True)
        target = rng.randrange(n)
        budget = rng.randint(1, 3)
        for objective in (BriberyObjective.MAX_BANZHAF, BriberyObjective.MAX_SHAPLEY):
            problem = BriberyProblem(
                election, target, budget, Fraction(1, 2), objective
            )
            optimum = solve_bribery_exact(problem).value
            achieved = gamw(election, target, budget, kind=objective.kind).value
            assert achieved <= optimum
            if objective.kind is MeasureKind.BANZHAF:
                assert achieved >= optimum / (1 << n - 1)
            else:
                assert achieved >= optimum / FACTORIALS[n]


def _labeled_weightmax_instances(rng, count, slack_kind):
    """Instances with ground-truth decisions from the enumeration solver."""
    made = 0
    while made < count:
        complete = made % 2 == 0
        election = random_election(
            rng, n_min=2, n_max=8, w_max=3, complete=complete
        )
        target = rng.randrange(election.n)
        total = election.total_weight
        if slack_kind == "full":
            tau = total
        elif slack_kind == "reqbar":
            tau = max(1, total - rng.randint(0, 3))
        else:  # bounded extra requirement
            base = WeightMaxProblem(election, target, 0, 1).base_support
            tau = max(1, base + rng.randint(0, 4))
            if tau > total:
                continue
        # keep the ground-truth enumeration within its neighborhood cap
        budget = rng.randint(0, 3)
        problem = WeightMaxProblem(election, target, budget, tau)
        made += 1
        yield problem, wmaxp_exact(problem)


def test_criterion_08_threshold_solvers_agree_with_enumeration():
    rng = random.Random(88_001)

    agreements = 0
    yes_seen = 0
    for problem, truth in _labeled_weightmax_instances(rng, 300, "full"):
        got = solve_full_support(problem)
        assert got.decision == truth.decision
        if got.decision:
            yes_seen += 1
            assert got.support >= problem.tau
            assert got.changes <= problem.budget
        agreements += 1
    assert agreements == 300 and yes_seen >= 20

    yes_seen = 0
    for problem, truth in _labeled_weightmax_instances(rng, 300, "reqbar"):
        got = solve_xp_reqbar(problem)
        assert got.decision == truth.decision
        if got.decision:
            yes_seen += 1
            assert got.support >= problem.tau
            assert got.changes <= problem.budget
        agreements += 1
    assert yes_seen >= 20

    false_negatives = 0
    yes_seen = 0
    for problem, truth in _labeled_weightmax_instances(rng, 300, "req"):
        got = solve_fpt_colorcoding(problem, delta=0.01, seed=1729)
        if got.decision:
            yes_seen += 1
            # a yes must never be invented
            assert truth.decision
            assert got.support >= problem.tau
            assert got.changes <= problem.budget
        elif truth.decision:
            false_negatives += 1
    assert yes_seen >= 20
    assert false_negatives <= 6  # two percent of 300


def _reachable_weight(election, target, budget):
    """Total weight attachable to the target within the change budget."""
    from collections import deque

    cost = build_cost_graph(election)
    dist = {target: 0}
    queue = deque([target])
    while queue:
        u = queue.popleft()
        for v, c in cost.out[u]:
            d = dist[u] + c
            if v not in dist or d < dist[v]:
                dist[v] = d
                if c == 0:
                    queue.appendleft(v)
                else:
                    queue.append(v)
    return sum(
        election.weights[v] for v, d in dist.items() if d <= budget
    )


def test_criterion_09_budget_relaxed_approximation_bounds():
    rng = random.Random(99_001)
    instances = 0
    trims_seen = 0
    while instances < 150:
        election = random_election(rng, n_min=3, n_max=9, w_max=4)
        gurus = election.forest.gurus
        target = rng.choice(list(gurus))
        budget = rng.randint(0, 3)
        problem = WeightMaxProblem(election, target, budget, 1)
        optimum = wmaxp_exact(
            WeightMaxProblem(election, target, budget, election.total_weight)
        ).support
        whole_weight = _reachable_weight(election, target, budget)
        for epsilon in (Fraction(1, 4), Fraction(1, 2), Fraction(1)):
            outcome = vbamw(problem, epsilon)
            assert outcome.changes <= (1 + epsilon) * budget
            n = election.n
            assert outcome.support >= (epsilon**2 * budget * optimum) / (8 * n)
            if outcome.support < whole_weight:  # trimming dropped someone
                trims_seen += 1
                assert outcome.changes >= epsilon * budget / 2
        instances += 1
    assert trims_seen >= 10


def test_criterion_10_sixty_voter_scale_smoke():
    rng = random.Random(10_001)
    election = random_election(
        rng, n_min=60, n_max=60, w_max=8, delegate_prob=0.75
    )
    assert election.n == 60

    started = time.perf_counter()
    swing_values = [banzhaf_dp(election, v) for v in range(60)]
    swing_elapsed = time.perf_counter() - started

    started = time.perf_counter()
    order_values = [shapley_dp(election, v) for v in range(60)]
    order_elapsed = time.perf_counter() - started

    assert swing_elapsed < 60.0
    assert order_elapsed < 60.0
    assert sum(order_values, Fraction(0)) == 1
    assert all(value >= 0 for value in swing_values)
