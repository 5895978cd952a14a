"""Weight-maximization: exact, branching, exclusion-XP, color coding, vbamw."""

import hashlib
import random
import time
from fractions import Fraction
from itertools import product
from math import ceil, exp, log, prod

import numpy as np
import pytest

import oracle
from liquidpower import (
    SELF,
    DelegationProfile,
    InstanceTooLargeForEnumeration,
    ParameterTooLarge,
    SocialNetwork,
    election_from_json,
    find_delegation_cycle,
    validate,
)
from liquidpower import build_forest, coalition_table, colorcoding, weightmax_exact
from liquidpower.bribery import neighborhood_size
from liquidpower.weightmax import (
    WeightMaxOutcome,
    WeightMaxProblem,
    build_cost_graph,
    solve_fpt_colorcoding,
    solve_full_support,
    solve_xp_reqbar,
    vbamw,
    wmaxp_exact,
)
from support import (
    TRIM_FALLBACK_INSTANCE,
    eight_voter_election,
    neighborhood_profiles,
    random_election,
    three_voter_line_election,
)


def _assert_witness_ok(problem, outcome, *, budget=None):
    """A yes-outcome's profile must revalidate and honor its own numbers."""
    assert outcome.decision
    witness = outcome.profile
    rebuilt = problem.election.with_profile(witness)
    assert rebuilt.forest.subtree_weight[problem.target] == outcome.support
    assert outcome.support >= problem.tau
    assert witness.choices[problem.target] is SELF
    changed = problem.election.profile.changed_voters(witness)
    assert len(changed) == outcome.changes
    assert outcome.changes <= (problem.budget if budget is None else budget)


@pytest.mark.parametrize(
    "field, value, expected",
    [
        ("target", np.int64(7), 7),
        ("budget", np.int32(1), 1),
        ("tau", np.uint8(3), 3),
        ("target", True, TypeError),
        ("budget", 1.5, TypeError),
        ("tau", 3.5, TypeError),
        ("tau", "3", TypeError),
    ],
)
def test_problem_fields_are_coerced_or_refused(field, value, expected):
    fields = {"election": eight_voter_election(), "target": 7, "budget": 1, "tau": 3}
    fields[field] = value
    if isinstance(expected, type):
        with pytest.raises(expected, match=field):
            WeightMaxProblem(**fields)
    else:
        coerced = getattr(WeightMaxProblem(**fields), field)
        assert coerced == expected and type(coerced) is int


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("tau", 0, "threshold must be at least 1"),
        ("budget", -1, "budget must be non-negative"),
        ("target", -1, "target -1 out of range"),
        ("target", 8, "target 8 out of range"),
    ],
)
def test_problem_fields_out_of_range_are_refused(field, value, message):
    fields = {"election": eight_voter_election(), "target": 7, "budget": 1, "tau": 3}
    fields[field] = value
    with pytest.raises(ValueError, match=message):
        WeightMaxProblem(**fields)


@pytest.mark.parametrize("delta", [0, 1, -0.5, 1.5])
def test_colour_coding_refuses_a_delta_outside_the_unit_interval(delta):
    problem = WeightMaxProblem(eight_voter_election(), 7, 1, 3)
    with pytest.raises(ValueError, match="delta must lie strictly between 0 and 1"):
        solve_fpt_colorcoding(problem, delta=delta)


@pytest.mark.parametrize(
    "epsilon, expected",
    [
        ("1/2", None),
        (0.5, None),
        (True, TypeError),
        (None, TypeError),
        ("half", ValueError),
        (0, ValueError),
        (Fraction(-1, 2), ValueError),
        ("-1/2", ValueError),
    ],
)
def test_vbamw_epsilon_is_coerced_or_refused(epsilon, expected):
    problem = WeightMaxProblem(eight_voter_election(), 2, 2, 6)
    if expected is None:
        assert vbamw(problem, epsilon) == vbamw(problem, Fraction(1, 2))
    else:
        with pytest.raises(expected, match="epsilon"):
            vbamw(problem, epsilon)


# --- cost graph -----------------------------------------------------------


def test_cost_graph_on_independent_voters():
    election = validate(
        SocialNetwork.complete(3), (1, 1, 1), DelegationProfile.all_self(3), 2
    )
    cost = build_cost_graph(election)
    arcs = list(cost.arcs())
    assert len(arcs) == 6
    assert all(price == 1 for _, _, price in arcs)


def test_cost_graph_orientation_and_zero_costs():
    election = eight_voter_election()
    cost = build_cost_graph(election)
    arcs = set(cost.arcs())
    assert len(arcs) == 12  # one per network arc, reversed
    zero = {(p, c) for p, c, price in arcs if price == 0}
    # exactly the delegations in use, seen parent-to-child
    assert zero == {(2, 0), (2, 1), (6, 3), (5, 4), (6, 5), (7, 6)}
    assert (4, 5, 1) in arcs  # the unused arc (5, 4), priced as a change


# --- exhaustive solver ------------------------------------------------------


def test_exact_gathers_every_ballot_on_the_fixture():
    election = eight_voter_election()
    problem = WeightMaxProblem(election, 7, 1, 8)
    outcome = wmaxp_exact(problem)
    assert outcome.decision
    assert outcome.support == 8
    assert outcome.changes == 1
    assert outcome.profile.choices[2] == 7
    _assert_witness_ok(problem, outcome)


def test_exact_follower_without_budget_casts_nothing():
    election = eight_voter_election()
    outcome = wmaxp_exact(WeightMaxProblem(election, 3, 0, 1))
    assert not outcome.decision
    assert outcome.support == 0
    assert outcome.profile is None


def test_exact_matches_brute_force_support():
    rng = random.Random(9_001)
    for _ in range(10):
        election = random_election(rng, n_min=2, n_max=5)
        target = rng.randrange(election.n)
        k = rng.randint(0, 2)
        base = election.profile.choices
        best = -1
        pools = [[SELF, *election.network.out_neighbors[v]] for v in range(election.n)]
        for combo in product(*pools):
            changes = sum(a != b for a, b in zip(combo, base))
            if changes <= k and find_delegation_cycle(combo) is None:
                best = max(
                    best,
                    oracle.accumulated_weight(combo, election.weights, target),
                )
        outcome = wmaxp_exact(WeightMaxProblem(election, target, k, 1))
        assert outcome.support == best


def _spy_walks(monkeypatch):
    """Record every walk ``wmaxp_exact`` makes: per run of classes, its
    products ``(free voters, candidates)`` and the rows and blocks kept."""
    walks = []

    def spy(products, n, resolve):
        products = [(base, tuple(free), pools) for base, free, pools in products]
        sizes = [(free, prod(map(len, pools))) for _, free, pools in products]
        walk = {"products": sizes, "rows": [], "blocks": 0}
        walks.append(walk)
        for block in coalition_table.product_blocks(products, n, resolve):
            walk["rows"] += map(tuple, block[0].tolist())
            walk["blocks"] += 1
            yield block

    monkeypatch.setattr(weightmax_exact, "product_blocks", spy)
    return walks


def test_exact_chunk_boundaries_change_no_outcome(monkeypatch):
    # equal supports must resolve the same way whether the candidates share
    # a block or not; one-row blocks also meet all-cyclic (skipped) blocks
    rng = random.Random(9_002)
    skipped = 0
    for _ in range(12):
        n = rng.randint(2, 7)
        election = random_election(
            rng, n_min=n, n_max=n, w_max=3, complete=rng.random() < 0.5
        )
        target = rng.randrange(n)
        budget = rng.randint(1, 3)
        problem = WeightMaxProblem(election, target, budget, 1)
        outcomes = []
        for chunk_cells in (coalition_table.CHUNK_CELLS, 3 << n, 1):
            monkeypatch.setattr(coalition_table, "CHUNK_CELLS", chunk_cells)
            walks = _spy_walks(monkeypatch)
            outcomes.append(wmaxp_exact(problem))
        # wmaxp_exact's own walk at one cell a chunk, so one row a block:
        # each skipped block is a row that is cyclic or leaves a redirected
        # voter outside the target's tree
        skipped += sum(sum(c for _, c in w["products"]) - w["blocks"] for w in walks)
        monkeypatch.undo()
        assert outcomes[1] == outcomes[0]
        assert outcomes[2] == outcomes[0]
    assert skipped > 0


def test_exact_with_large_weights_is_exact():
    # coalition weights of 3 * 2**62 overflow int64 unless the weights are
    # divided by their gcd first
    network = SocialNetwork.complete(3)
    election = validate(network, (1 << 62,) * 3, DelegationProfile.all_self(3), 1 << 63)
    outcome = wmaxp_exact(WeightMaxProblem(election, 0, 2, 3 << 62))
    assert (outcome.decision, outcome.support, outcome.changes) == (True, 3 << 62, 2)
    assert outcome.profile.choices == (SELF, 0, 0)
    outcome = wmaxp_exact(WeightMaxProblem(election, 0, 0, 1 << 62))
    assert (outcome.decision, outcome.support) == (True, 1 << 62)
    weights = (1 << 62, (1 << 62) + 1, 1 << 62)  # gcd 1, total above 2**63
    election = validate(network, weights, DelegationProfile.all_self(3), 1 << 63)
    with pytest.raises(InstanceTooLargeForEnumeration):
        wmaxp_exact(WeightMaxProblem(election, 0, 2, 1))


def _reference_exact(problem):
    """``wmaxp_exact``'s outcome from a scan of the whole change
    neighbourhood, every forest built in plain Python."""
    election = problem.election
    t = problem.target
    base = election.profile.sort_key()
    best = None
    for profile in neighborhood_profiles(election, problem.budget):
        parents = profile.sort_key()
        support = 0
        if parents[t] == t:
            for v in range(election.n):
                root = v
                while parents[root] != root:
                    root = parents[root]
                if root == t:
                    support += election.weights[v]
        changes = sum(a != b for a, b in zip(parents, base))
        rank = (-support, changes, parents)
        if best is None or rank < best:
            best = rank
    neg_support, changes, parents = best
    decision = -neg_support >= problem.tau
    return WeightMaxOutcome(
        decision,
        DelegationProfile.from_parents(parents) if decision else None,
        -neg_support,
        changes if decision else 0,
    )


def test_exact_equals_a_scan_of_the_whole_neighbourhood(monkeypatch):
    # wmaxp_exact walks only redirect sets of the best classes; the winner,
    # ties included, must be the full scan's
    rng = random.Random(13_001)
    kinds = set()
    several = 0
    for _ in range(300):
        n = rng.randint(1, 8)
        election = random_election(
            rng,
            n_min=n,
            n_max=n,
            w_max=rng.choice((1, 1, 2)),  # unit weights: many equal supports
            arc_prob=rng.choice((0.5, 0.8)),
            delegate_prob=rng.random(),
        )
        target = rng.randrange(n)
        k = rng.randint(0, 3)
        tau = rng.randint(1, election.total_weight)
        problem = WeightMaxProblem(election, target, k, tau)
        kinds.add((problem.is_follower, k > 0))
        walks = _spy_walks(monkeypatch)
        assert wmaxp_exact(problem) == _reference_exact(problem)
        monkeypatch.undo()
        # each run of classes walked yields exactly, and once each, the
        # neighbourhood's rows where the target votes, the redirected voters
        # form one of the run's sets, and all of them end under the target
        choices = election.profile.choices
        kept = {}  # the redirect set of each such row
        for p in neighborhood_profiles(election, k):
            moved = tuple(v for v in range(n) if v != target and p.choices[v] != choices[v])
            guru = build_forest(p, election.weights).guru
            if p.choices[target] is SELF and all(guru[v] == target for v in moved):
                kept[p.sort_key()] = moved
        for walk in walks:
            sets = {free for free, _ in walk["products"]}
            want = [row for row, moved in kept.items() if moved in sets]
            assert sorted(walk["rows"]) == sorted(want)
        several += len(walks) > 1
    assert kinds == {(False, False), (False, True), (True, False), (True, True)}
    assert several > 0  # some searches walk past a class that keeps no row


def test_reference_winners_redirect_only_outside_voters_into_the_target():
    # the exchange facts wmaxp_exact rests on, checked on the full scan alone:
    # a winner redirects no voter of the target's tree, every voter it
    # redirects ends under the target, and its support is the target's tree
    # plus the subtrees, with the target voting, of the voters it redirects
    rng = random.Random(13_004)
    redirected = delegating = 0
    for _ in range(300):
        n = rng.randint(1, 8)
        election = random_election(
            rng,
            n_min=n,
            n_max=n,
            w_max=rng.choice((1, 1, 3)),
            arc_prob=rng.choice((0.5, 0.8)),
            delegate_prob=rng.random(),
        )
        target = rng.randrange(n)
        choices = election.profile.choices
        follower = choices[target] is not SELF
        problem = WeightMaxProblem(election, target, rng.randint(follower, 3), 1)
        winner = _reference_exact(problem).profile
        moved = [v for v in range(n) if v != target and winner.choices[v] != choices[v]]
        tree = set(election.forest.subtree_of(target))
        assert tree.isdisjoint(moved)
        forest = build_forest(winner, election.weights)
        assert all(forest.guru[v] == target for v in moved)
        base = build_forest(election.profile.with_choice(target, SELF), election.weights)
        pulled = tree.union(*(base.subtree_of(v) for v in moved))
        assert forest.subtree_weight[target] == sum(election.weights[v] for v in pulled)
        redirected += bool(moved)
        delegating += follower and bool(moved)
    assert redirected > 100 and delegating > 20


# Voter 1 delegates to 2, behind whom 3 also votes; voter 4 votes alone and
# may delegate to 3 (the CI console-script fixture)
PULLED_SUBTREE_INSTANCE = {
    "n": 4,
    "weights": [1, 2, 3, 4],
    "arcs": [[1, 2], [3, 2], [2, 1], [4, 3]],
    "delegations": {"1": 2, "3": 2},
    "quota": 6,
}


def test_exact_redirects_the_former_proxy_and_into_a_pulled_subtree():
    # budget 2: the target votes and its former proxy joins it, bringing
    # voter 3; budget 3: voter 4 joins under 3, inside the pulled-in subtree
    election = election_from_json(PULLED_SUBTREE_INSTANCE)
    cases = {(2, 6): (6, 2, (SELF, 0, 1, SELF)), (3, 10): (10, 3, (SELF, 0, 1, 2))}
    for (budget, tau), (support, changes, choices) in cases.items():
        problem = WeightMaxProblem(election, 0, budget, tau)
        outcome = wmaxp_exact(problem)
        assert outcome == _reference_exact(problem)
        assert outcome == WeightMaxOutcome(True, DelegationProfile(choices), support, changes)


def test_exact_follower_without_budget_enumerates_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerated")

    monkeypatch.setattr(weightmax_exact, "_redirect_runs", refuse)
    monkeypatch.setattr(weightmax_exact, "product_blocks", refuse)
    monkeypatch.setattr(weightmax_exact, "neighborhood_size", refuse)
    problem = WeightMaxProblem(eight_voter_election(), 0, 0, 1)
    assert wmaxp_exact(problem) == WeightMaxOutcome(False, None, 0, 0)
    monkeypatch.undo()
    assert _reference_exact(problem) == WeightMaxOutcome(False, None, 0, 0)


def _few_tree_election(rng, n):
    """A random ``n``-voter election of one to three delegation trees, with
    about two spare out-arcs per voter, so that two changes often gather
    every ballot."""
    order = rng.sample(range(n), n)
    roots = rng.randint(1, 3)
    choices = [SELF] * n
    arcs = set()
    for i in range(roots, n):
        choices[order[i]] = order[rng.randrange(i)]
        arcs.add((order[i], choices[order[i]]))
    for _ in range(2 * n):
        arcs.add(tuple(rng.sample(range(n), 2)))
    weights = tuple(rng.randint(1, 3) for _ in range(n))
    total = sum(weights)
    profile = DelegationProfile(tuple(choices))
    network = SocialNetwork.from_arcs(n, arcs)
    return validate(network, weights, profile, rng.randint(total // 2 + 1, total))


def test_exact_beyond_ten_voters_agrees_with_the_other_routes():
    rng = random.Random(13_002)
    yes = {"full": 0, "xp": 0, "cc": 0}
    for n in (12, 16, 20, 24, 30, 40):
        for _ in range(3):
            election = _few_tree_election(rng, n)
            gurus = election.forest.gurus
            target = rng.choice(gurus) if rng.random() < 0.7 else rng.randrange(n)
            k = rng.randint(1, 2)
            total = election.total_weight
            full = WeightMaxProblem(election, target, k, total)
            exact, want = wmaxp_exact(full), solve_full_support(full)
            assert exact.decision == want.decision
            if want.decision:
                assert (exact.support, exact.changes) == (total, want.changes)
            yes["full"] += want.decision
            problem = WeightMaxProblem(election, target, k, total - rng.randint(0, 3))
            if problem.req_bar >= 0:
                want = solve_xp_reqbar(problem)
                assert wmaxp_exact(problem).decision == want.decision
                yes["xp"] += want.decision
            tau = min(total, full.base_support + rng.randint(1, 3))
            problem = WeightMaxProblem(election, target, k, tau)
            if solve_fpt_colorcoding(problem, seed=n).decision:
                assert wmaxp_exact(problem).decision
                yes["cc"] += 1
    assert min(yes.values()) > 0


def test_exact_beyond_ten_voters_equals_the_full_scan():
    rng = random.Random(13_003)
    for _ in range(3):
        election = _few_tree_election(rng, 12)
        for target in rng.sample(range(12), 3):
            tau = rng.randint(1, election.total_weight)
            problem = WeightMaxProblem(election, target, 2, tau)
            assert wmaxp_exact(problem) == _reference_exact(problem)


def test_exact_refuses_above_the_profile_cap(monkeypatch):
    election = eight_voter_election()
    for target in (3, 7):  # a follower and a voter who votes already
        problem = WeightMaxProblem(election, target, 2, 1)
        count = neighborhood_size(election, 2, voting=target)
        monkeypatch.setattr(weightmax_exact, "NEIGHBORHOOD_CAP", count)
        assert wmaxp_exact(problem) == _reference_exact(problem)
        monkeypatch.setattr(weightmax_exact, "NEIGHBORHOOD_CAP", count - 1)
        with pytest.raises(InstanceTooLargeForEnumeration) as refused:
            wmaxp_exact(problem)
        assert f"{count} " in str(refused.value) and f"cap of {count - 1}" in str(refused.value)
        monkeypatch.undo()


# --- full support -----------------------------------------------------------


def test_full_support_rejects_other_thresholds():
    election = eight_voter_election()
    with pytest.raises(ValueError):
        solve_full_support(WeightMaxProblem(election, 7, 1, 5))


def test_full_support_around_a_directed_cycle():
    network = SocialNetwork.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
    election = validate(network, (1, 1, 1), DelegationProfile.all_self(3), 2)
    problem = WeightMaxProblem(election, 0, 2, 3)
    outcome = solve_full_support(problem)
    assert outcome.decision
    assert outcome.profile.choices == (SELF, 2, 0)
    assert outcome.changes == 2
    _assert_witness_ok(problem, outcome)
    assert not solve_full_support(WeightMaxProblem(election, 0, 1, 3)).decision


def test_full_support_star_needs_a_change_per_voter():
    election = validate(
        SocialNetwork.complete(5), (1,) * 5, DelegationProfile.all_self(5), 3
    )
    yes = solve_full_support(WeightMaxProblem(election, 0, 4, 5))
    assert yes.decision and yes.changes == 4
    assert all(c == 0 for v, c in enumerate(yes.profile.choices) if v != 0)
    assert not solve_full_support(WeightMaxProblem(election, 0, 3, 5)).decision


def test_full_support_fails_when_a_voter_cannot_delegate():
    network = SocialNetwork.from_arcs(3, [(1, 0)])  # voter 2 has no out-arcs
    election = validate(network, (1, 1, 1), DelegationProfile.all_self(3), 2)
    outcome = solve_full_support(WeightMaxProblem(election, 0, 99, 3))
    assert not outcome.decision
    assert outcome.profile is None


def test_full_support_keeps_current_delegations():
    election = eight_voter_election()
    problem = WeightMaxProblem(election, 7, 1, 8)
    outcome = solve_full_support(problem)
    assert outcome.decision
    assert outcome.changes == 1  # only voter 2 needs to move
    _assert_witness_ok(problem, outcome)
    assert not solve_full_support(WeightMaxProblem(election, 7, 0, 8)).decision


def test_full_support_can_reverse_an_existing_chain():
    # voter 1 currently delegates away from the target and must be flipped
    network = SocialNetwork.from_arcs(3, [(1, 0), (2, 1), (0, 1), (1, 2)])
    election = validate(
        network, (1, 1, 1), DelegationProfile((SELF, 0, SELF)), 2
    )
    problem = WeightMaxProblem(election, 2, 2, 3)
    outcome = solve_full_support(problem)
    assert outcome.decision
    assert outcome.profile.choices == (1, 2, SELF)
    assert outcome.changes == 2
    _assert_witness_ok(problem, outcome)
    assert not solve_full_support(WeightMaxProblem(election, 2, 1, 3)).decision


# --- XP in the excluded weight ----------------------------------------------


def test_xp_guard_on_large_excludable_weight():
    election = validate(
        SocialNetwork.complete(8), (1,) * 8, DelegationProfile.all_self(8), 5
    )
    with pytest.raises(ParameterTooLarge):
        solve_xp_reqbar(WeightMaxProblem(election, 0, 3, 1))


def test_xp_says_no_beyond_the_total_weight():
    election = eight_voter_election()
    outcome = solve_xp_reqbar(WeightMaxProblem(election, 7, 3, 9))
    assert not outcome.decision


def test_xp_leaves_out_an_unreachable_heavy_voter():
    # voter 3 can never delegate; reaching 3 ballots means excluding it
    network = SocialNetwork.from_arcs(4, [(1, 0), (2, 0)])
    election = validate(
        network, (1, 1, 1, 2), DelegationProfile.all_self(4), 3
    )
    problem = WeightMaxProblem(election, 0, 2, 3)
    outcome = solve_xp_reqbar(problem)
    assert outcome.decision
    assert outcome.support == 3
    assert outcome.profile.choices == (SELF, 0, 0, SELF)
    _assert_witness_ok(problem, outcome)


def test_xp_counts_its_exclusion_sets_before_building_any():
    # everyone already delegates to voter 0: the empty exclusion set answers
    # at slack 5 (146,596 sets), and slack 6 (621,616 sets) is refused at once
    n = 30
    election = validate(
        SocialNetwork.complete(n), (1,) * n, DelegationProfile((SELF, *[0] * (n - 1))), 16
    )
    started = time.perf_counter()
    outcome = solve_xp_reqbar(WeightMaxProblem(election, 0, 1, n - 5))
    assert (outcome.decision, outcome.support, outcome.changes) == (True, n, 0)
    with pytest.raises(InstanceTooLargeForEnumeration, match="exclusion sets"):
        solve_xp_reqbar(WeightMaxProblem(election, 0, 1, n - 6))
    assert time.perf_counter() - started < 0.2


def test_xp_agrees_with_the_exhaustive_answer():
    rng = random.Random(9_002)
    checked_yes = 0
    for _ in range(40):
        election = random_election(rng, n_min=2, n_max=7, w_max=3)
        target = rng.randrange(election.n)
        tau = max(1, election.total_weight - rng.randint(0, 3))
        k = rng.randint(0, 3)
        problem = WeightMaxProblem(election, target, k, tau)
        expected = wmaxp_exact(problem)
        got = solve_xp_reqbar(problem)
        assert got.decision == expected.decision
        if got.decision:
            checked_yes += 1
            _assert_witness_ok(problem, got)
    assert checked_yes >= 3


def test_xp_witnesses_are_pinned():
    # the digest of 1,410 outcomes (560 yes) at slack 0-4 and budget 0-4,
    # built with the arcs in the voters' own ids: a change of arc order or
    # of witness assembly shows here, not only a change of decision
    rng = random.Random(10_057)
    rows = []
    for _ in range(60):
        election = random_election(rng, n_min=1, n_max=8, arc_prob=rng.random())
        target = rng.randrange(election.n)
        for k in range(5):
            for tau in range(max(1, election.total_weight - 4), election.total_weight + 1):
                outcome = solve_xp_reqbar(WeightMaxProblem(election, target, k, tau))
                choices = None if outcome.profile is None else outcome.profile.choices
                rows.append((outcome.decision, choices, outcome.support, outcome.changes))
    assert (len(rows), sum(row[0] for row in rows)) == (1410, 560)
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == "6ef9c8ab5fbbf05d8201587479a7ab4b23820e9662b26598b96422cc3d9d8940"


# --- color coding -----------------------------------------------------------


def test_colorcoding_immediate_yes_without_deficit():
    election = eight_voter_election()
    problem = WeightMaxProblem(election, 7, 0, 5)
    outcome = solve_fpt_colorcoding(problem)
    assert outcome.decision
    assert outcome.support == 5
    assert outcome.changes == 0


def test_colorcoding_guard_on_large_deficit():
    election = validate(
        SocialNetwork.complete(12), (1,) * 12, DelegationProfile.all_self(12), 7
    )
    with pytest.raises(ParameterTooLarge):
        solve_fpt_colorcoding(WeightMaxProblem(election, 0, 11, 10))


def test_colorcoding_refuses_unreachable_thresholds():
    network = SocialNetwork.from_arcs(3, [(1, 0)])  # voter 2 cut off
    election = validate(network, (1, 1, 1), DelegationProfile.all_self(3), 2)
    outcome = solve_fpt_colorcoding(WeightMaxProblem(election, 0, 3, 3))
    assert not outcome.decision


def test_colorcoding_attaches_through_the_existing_tree():
    # voter 2 can only reach the target through tree member 1
    network = SocialNetwork.from_arcs(3, [(1, 0), (2, 1)])
    election = validate(
        network, (1, 1, 1), DelegationProfile((SELF, 0, SELF)), 2
    )
    problem = WeightMaxProblem(election, 0, 1, 3)
    outcome = solve_fpt_colorcoding(problem, seed=5)
    assert outcome.decision
    assert outcome.profile.choices == (SELF, 0, 1)
    assert outcome.changes == 1
    _assert_witness_ok(problem, outcome)


def test_colorcoding_never_claims_an_impossible_threshold():
    rng = random.Random(9_003)
    for _ in range(25):
        election = random_election(rng, n_min=2, n_max=6, w_max=3)
        target = rng.randrange(election.n)
        k = rng.randint(0, 2)
        problem = WeightMaxProblem(election, target, k, 1)
        optimum = wmaxp_exact(problem).support
        forest = election.forest
        deficit_tau = forest.subtree_weight[target] + rng.randint(1, 4)
        hard = WeightMaxProblem(election, target, k, deficit_tau)
        if deficit_tau <= optimum:
            continue  # not a no-instance
        outcome = solve_fpt_colorcoding(hard, seed=7)
        assert not outcome.decision


def test_colorcoding_finds_reachable_thresholds():
    # misses are possible with probability delta; the fixed seed makes the
    # run deterministic and it was observed to find every witness
    rng = random.Random(9_004)
    found = 0
    for _ in range(25):
        election = random_election(rng, n_min=3, n_max=7, w_max=3)
        target = rng.randrange(election.n)
        k = rng.randint(1, 3)
        problem = WeightMaxProblem(election, target, k, 1)
        optimum = wmaxp_exact(problem)
        base = election.forest.subtree_weight[target]
        if optimum.support <= base or optimum.support - base > 4:
            continue
        goal = WeightMaxProblem(election, target, k, optimum.support)
        outcome = solve_fpt_colorcoding(goal, delta=0.01, seed=11)
        assert outcome.decision
        _assert_witness_ok(goal, outcome)
        found += 1
    assert found >= 5


def test_colorcoding_tables_hold_weights_below_two_to_the_61():
    # voter 1 already follows the target; voter 2 joins with one change
    network = SocialNetwork.from_arcs(3, [(1, 0), (2, 0)])
    profile = DelegationProfile((SELF, 0, SELF))
    heavy = 1 << 60
    election = validate(network, (1, heavy, heavy - 2), profile, 1)
    problem = WeightMaxProblem(election, 0, 1, heavy + 2)
    outcome = solve_fpt_colorcoding(problem, seed=3)
    assert (outcome.support, outcome.changes) == (2 * heavy - 1, 1)
    _assert_witness_ok(problem, outcome)
    election = validate(network, (1, heavy, heavy - 1), profile, 1)
    with pytest.raises(ParameterTooLarge, match="2\\^61"):
        solve_fpt_colorcoding(WeightMaxProblem(election, 0, 1, heavy + 2))
    # seven weights up to 2^58 keep every table entry below 2^61
    rng = random.Random(10_061)
    for seed in range(12):
        small = random_election(rng, n_min=3, n_max=7, w_max=3)
        weights = tuple(rng.randint(1 << 57, 1 << 58) for _ in range(small.n))
        election = validate(small.network, weights, small.profile, 1)
        target = rng.randrange(election.n)
        tau = election.forest.subtree_weight[target] + rng.randint(1, 3)
        problem = WeightMaxProblem(election, target, rng.randint(1, 3), tau)
        outcome = solve_fpt_colorcoding(problem, seed=seed)
        assert outcome.decision == wmaxp_exact(problem).decision
        if outcome.decision:
            _assert_witness_ok(problem, outcome)
    # a weight beyond int64 is refused too, not an OverflowError
    arcs = [[2, 1], [3, 1], [3, 2]]
    election = election_from_json(
        {"n": 3, "weights": [1, 1 << 64, 1], "arcs": arcs, "quota": 2}
    )
    with pytest.raises(ParameterTooLarge):
        solve_fpt_colorcoding(WeightMaxProblem(election, 0, 2, 4))


def test_colorcoding_witnesses_are_pinned_per_seed():
    # a seed fixes the witness: it must not change with how the colorful
    # table is filled or read back, and the digest pins 30 of them
    rng = random.Random(10_056)
    problems = []
    while len(problems) < 30:
        election = random_election(rng, n_min=3, n_max=7, w_max=3)
        target = rng.randrange(election.n)
        k = rng.randint(1, 4)
        base = election.forest.subtree_weight[target]
        best = wmaxp_exact(WeightMaxProblem(election, target, k, 1)).support
        if best == base:
            continue
        req = rng.randint(1, min(5, best - base))
        problems.append(WeightMaxProblem(election, target, k, base + req))
    assert {p.req for p in problems} == {1, 2, 3, 4, 5}
    rows = []
    for seed, problem in enumerate(problems):
        outcome = solve_fpt_colorcoding(problem, seed=seed)
        assert outcome.decision
        _assert_witness_ok(problem, outcome)
        choices = outcome.profile.choices
        rows.append((outcome.decision, choices, outcome.support, outcome.changes))
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == "069c7ba4e729621e30387f1bceb95ad053b4d220c53fc923d57a5482321ac902"


def test_colorcoding_scores_colorings_in_doubling_batches(monkeypatch):
    sizes = []
    fill = colorcoding._colorful_tables

    def counting(colorings, *args):
        sizes.append(len(colorings))
        return fill(colorings, *args)

    monkeypatch.setattr(colorcoding, "_colorful_tables", counting)
    # the target delegates to voter 1, so one of two changes makes it vote
    # and one more brings in one unit voter: support 4 of 7, though voter
    # 1's current subtree, which holds the target (weight 4), passes the
    # subtree refusal
    network = SocialNetwork.from_arcs(5, [(0, 1), (1, 0), (2, 0), (3, 0), (4, 0)])
    profile = DelegationProfile((1, SELF, SELF, SELF, SELF))
    election = validate(network, (3, 1, 1, 1, 1), profile, 1)
    problem = WeightMaxProblem(election, 0, 2, 7)
    assert not wmaxp_exact(problem).decision and wmaxp_exact(problem).support == 4
    assert not solve_fpt_colorcoding(problem, delta=0.01).decision
    r = problem.req + 1
    assert sum(sizes) == ceil(exp(r) * log(1 / 0.01)) == 684
    assert sizes == [1, 2, 4, 8, 16, 32, 64, 128, 128, 128, 128, 45]
    # a yes-instance whose first coloring is colorful scores no other
    network = SocialNetwork.from_arcs(3, [(1, 0), (2, 1)])
    election = validate(network, (1, 1, 1), DelegationProfile((SELF, 0, SELF)), 2)
    sizes.clear()
    assert solve_fpt_colorcoding(WeightMaxProblem(election, 0, 1, 3), seed=4).decision
    assert sizes == [1]


def test_colorcoding_takes_a_subnormal_delta():
    network = SocialNetwork.from_arcs(3, [(1, 0), (2, 1)])
    election = validate(network, (1, 1, 1), DelegationProfile((SELF, 0, SELF)), 2)
    problem = WeightMaxProblem(election, 0, 1, 3)
    for delta in (1e-320, 5e-324):
        # the same colorings in the same order: the same witness
        outcome = solve_fpt_colorcoding(problem, delta=delta, seed=5)
        assert outcome == solve_fpt_colorcoding(problem, seed=5)
        _assert_witness_ok(problem, outcome)


def test_pair_splits_are_exactly_the_splits_an_arc_can_join():
    # an arc from color a to color b joins a tree at its parent, holding a,
    # to one below its child, holding b and not a: 3^(r-2) splits per pair
    for r in range(2, 10):
        splits = [
            (whole, part)
            for whole in range(1 << r)
            for part in range(1, whole)
            if part & whole == part
        ]
        levels = colorcoding._pair_splits(r)
        assert [len(masks) for _, _, masks in levels] == [
            sum(m.bit_count() == size for m in range(1 << r)) for size in range(2, r + 1)
        ]
        for a, b in product(range(r), repeat=2):
            listed = []
            for size, (ends, place, masks) in enumerate(levels, 2):
                kept, hung = ends[a * r + b]
                if a == b:  # the empty set on both sides: no tree
                    assert not kept.any() and not hung.any()
                    continue
                assert not (kept & hung).any()
                sets = kept | hung
                assert (masks[place[a * r + b], None] == sets).all()
                assert all(s.bit_count() == size for s in sets[:, 0].tolist())
                listed += zip(sets.ravel().tolist(), hung.ravel().tolist())
            if a != b:
                want = [(s, t) for s, t in splits if s >> a & 1 and t >> b & 1 and not t >> a & 1]
                assert len(listed) == 3 ** (r - 2)
                assert sorted(listed) == sorted(want)


def test_colorful_tables_match_the_plain_recurrence(monkeypatch):
    # each color-set size is filled in one chunked pass; the plain per-set
    # recurrence must give the same tables for every chunk size
    rng = random.Random(10_012)
    arcs = [(4, 0, 1), (4, 1, 1), (0, 1, 0), (1, 2, 1), (2, 3, 0), (0, 3, 1), (3, 0, 1), (1, 0, 1)]
    wts = [1, 2, 1, 3, 2]
    arc_groups = colorcoding._arc_groups(arcs)
    read = []

    class Cells(int):
        """A chunk size that records each division the fill makes by it."""

        def __floordiv__(self, other):
            read.append(int(self))
            return int(self) // other

    for r, cost_cap in product(range(2, 7), range(4)):
        # every cap meets a full batch of 128 at one r
        for batch in (1, 3, 128) if cost_cap == r % 4 else (1, 3):
            colorings = [[rng.randrange(r) for _ in wts] for _ in range(batch)]
            want = np.full((batch, len(wts), 1 << r, cost_cap + 1), -1)
            for b, coloring in enumerate(colorings):
                trees = oracle.colorful_trees(coloring, wts, arcs, r, cost_cap)
                for key, weight in trees.items():
                    want[(b, *key)] = weight
            for chunk_cells in (coalition_table.CHUNK_CELLS, 1 << 12, 1):
                monkeypatch.setattr(coalition_table, "CHUNK_CELLS", Cells(chunk_cells))
                read.clear()
                table = colorcoding._colorful_tables(colorings, wts, arc_groups, r, cost_cap)
                monkeypatch.undo()
                assert read and set(read) == {chunk_cells}  # the size reached the fill
                assert np.array_equal(np.where(table >= 0, table, -1), want)
    # one coloring each for the largest color counts, up to the requirement
    # limit's nine; each colors the ends of one arc alike
    for r, coloring, cost_cap in ((7, [2, 2, 5, 0, 6], 3), (8, [1, 7, 4, 4, 0], 2), (9, [8, 3, 0, 5, 8], 3)):
        want = np.full((1, len(wts), 1 << r, cost_cap + 1), -1)
        for key, weight in oracle.colorful_trees(coloring, wts, arcs, r, cost_cap).items():
            want[(0, *key)] = weight
        for chunk_cells in (coalition_table.CHUNK_CELLS, 1):
            monkeypatch.setattr(coalition_table, "CHUNK_CELLS", chunk_cells)
            table = colorcoding._colorful_tables([coloring], wts, arc_groups, r, cost_cap)
            monkeypatch.undo()
            assert np.array_equal(np.where(table >= 0, table, -1), want)
            masks = np.arange(1 << r)
            for v, color in enumerate(coloring):  # no tree at v lacks v's color
                assert (table[0, v, masks >> color & 1 == 0] == colorcoding._NEG).all()


# --- budget-relaxed approximation -------------------------------------------


def test_vbamw_normalizes_with_an_empty_effective_budget():
    election = eight_voter_election()
    problem = WeightMaxProblem(election, 3, 1, 1)
    outcome = vbamw(problem, Fraction(1, 2))
    assert outcome.decision
    assert outcome.support == 1
    assert outcome.changes == 1
    assert outcome.profile.choices[3] is SELF


def test_vbamw_returns_the_whole_reachable_set_when_cheap():
    election = eight_voter_election()
    problem = WeightMaxProblem(election, 7, 3, 8)
    outcome = vbamw(problem, Fraction(1, 2))
    assert outcome.decision
    assert outcome.support == 8
    # voters 0 and 1 ride their existing delegations through 2; only 2 moves
    assert outcome.changes == 1
    _assert_witness_ok(problem, outcome, budget=4)  # (1 + eps) * 3 floored


def test_vbamw_trims_an_expensive_star():
    election = validate(
        SocialNetwork.complete(7), (1,) * 7, DelegationProfile.all_self(7), 4
    )
    problem = WeightMaxProblem(election, 0, 2, 7)
    eps = Fraction(1, 4)
    outcome = vbamw(problem, eps)
    # the full star costs 6 > (1+eps)*2, so subtrees are peeled down to the
    # budget window; two direct supporters remain
    assert outcome.support == 3
    assert outcome.changes == 2
    assert outcome.changes <= (1 + eps) * 2
    assert outcome.changes >= eps * 2 / 2


def test_vbamw_trim_fallback_meets_its_bounds():
    election = election_from_json(TRIM_FALLBACK_INSTANCE)
    problem = WeightMaxProblem(election, 1, 2, 1)
    eps = Fraction(2, 3)
    outcome = vbamw(problem, eps)
    optimum = wmaxp_exact(
        WeightMaxProblem(election, 1, 2, election.total_weight)
    ).support
    assert outcome.support == 31
    assert outcome.changes == 2
    assert eps * 2 / 2 <= outcome.changes <= (1 + eps) * 2
    assert outcome.support >= Fraction(eps**2 * 2, 8 * election.n) * optimum
    _assert_witness_ok(problem, outcome, budget=3)  # (1 + eps) * 2 floored


def test_vbamw_trim_fallback_refuses_a_large_tree(monkeypatch):
    monkeypatch.setattr("liquidpower.weightmax.TRIM_FALLBACK_LIMIT", 5)
    election = election_from_json(TRIM_FALLBACK_INSTANCE)
    with pytest.raises(InstanceTooLargeForEnumeration):
        vbamw(WeightMaxProblem(election, 1, 2, 1), Fraction(2, 3))


def test_vbamw_keeps_its_guarantees_on_randoms():
    rng = random.Random(9_005)
    tested = 0
    for _ in range(30):
        election = random_election(rng, n_min=3, n_max=7, w_max=3)
        roots = list(election.forest.gurus)
        target = rng.choice(roots)  # already casting: budget stays intact
        k = rng.randint(1, 3)
        problem = WeightMaxProblem(election, target, k, 1)
        optimum = wmaxp_exact(problem).support
        for eps in (Fraction(1, 4), Fraction(1), Fraction(2)):
            outcome = vbamw(problem, eps)
            n = election.n
            assert outcome.changes <= (1 + eps) * k
            assert outcome.support >= Fraction(eps**2 * k, 8 * n) * optimum
            rebuilt = election.with_profile(outcome.profile)
            assert rebuilt.forest.subtree_weight[target] == outcome.support
        tested += 1
    assert tested == 30


def _reachable_weight(problem):
    """Weight of the voters within ``k_eff`` changes of the target, by
    relaxing every arc until no distance shrinks (a change costs one)."""
    election = problem.election
    choices = election.profile.choices
    dist = {problem.target: 0}
    changed = True
    while changed:
        changed = False
        for child in range(election.n):
            for parent in election.network.out_neighbors[child]:
                if parent in dist and child != problem.target:
                    d = dist[parent] + (choices[child] != parent)
                    if d < dist.get(child, d + 1):
                        dist[child] = d
                        changed = True
    return sum(election.weights[v] for v, d in dist.items() if d <= problem.k_eff)


def test_vbamw_outcomes_are_pinned():
    # the digest of 1,501 outcomes: 300 seeded problems under five epsilons,
    # at least 100 of them trimmed below the weight reachable within budget,
    # plus the instance whose peel falls back to the subset search
    rng = random.Random(19)
    rows = []
    trimmed = 0
    for _ in range(300):
        election = random_election(
            rng, n_min=4, n_max=10, w_max=rng.choice((3, 8, 50)),
            arc_prob=rng.choice((0.3, 0.6, 0.9)),
        )
        problem = WeightMaxProblem(election, rng.randrange(election.n), rng.randint(1, 6), 1)
        reachable = _reachable_weight(problem)
        for eps in (Fraction(1, 4), Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(3)):
            outcome = vbamw(problem, eps)
            trimmed += outcome.support < reachable
            rows.append((outcome.decision, outcome.profile.choices, outcome.support, outcome.changes))
    assert trimmed >= 100, trimmed
    fallback = WeightMaxProblem(election_from_json(TRIM_FALLBACK_INSTANCE), 1, 2, 1)
    outcome = vbamw(fallback, Fraction(2, 3))
    rows.append((outcome.decision, outcome.profile.choices, outcome.support, outcome.changes))
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == "2d16df111c7859389fac2e21b167bae4e6600dc32574272babc1a4fd90cb0a1e"


# --- cheapest rooted spanning tree ------------------------------------------


def _brute_min_arborescence(nodes, root, arcs):
    """Reference search over all parent assignments (tiny graphs only)."""
    from itertools import product as iproduct

    rest = [v for v in nodes if v != root]
    in_options = {v: [] for v in rest}
    for parent, child, price in arcs:
        if child != root and parent != child:
            in_options[child].append((parent, price))
    if any(not opts for opts in in_options.values()):
        return None
    best = None
    for combo in iproduct(*[in_options[v] for v in rest]):
        parent = {v: pw[0] for v, pw in zip(rest, combo)}
        ok = True
        for v in rest:
            seen, u = set(), v
            while u != root:
                if u in seen or u not in parent:
                    ok = False
                    break
                seen.add(u)
                u = parent[u]
            if not ok:
                break
        if ok:
            cost = sum(pw[1] for pw in combo)
            if best is None or cost < best:
                best = cost
    return best


def test_rooted_tree_cost_matches_brute_force():
    from liquidpower.weightmax import min_cost_root_arborescence

    rng = random.Random(13_101)
    solved = 0
    for _ in range(250):
        n = rng.randint(2, 6)
        arcs = [
            (p, c, rng.choice([0, 1, 1, 2]))
            for p in range(n)
            for c in range(n)
            if p != c and rng.random() < 0.5
        ]
        root = rng.randrange(n)
        want = _brute_min_arborescence(range(n), root, arcs)
        got = min_cost_root_arborescence(range(n), root, arcs)
        if want is None:
            assert got is None
            continue
        parents, cost = got
        assert cost == want
        # the parent map really is a spanning tree toward the root
        assert set(parents) == set(range(n)) - {root}
        for v in parents:
            seen, u = set(), v
            while u != root:
                assert u not in seen
                seen.add(u)
                u = parents[u]
        solved += 1
    assert solved >= 100


def test_rooted_tree_tie_breaks_are_pinned():
    # xp's and vbamw's witnesses follow the arborescence's choice among
    # equal-cost trees and vbamw its dict order: the first cheapest in-arc
    # in arc-list order, contracted arcs in the order of their originals
    from liquidpower.weightmax import min_cost_root_arborescence

    rng = random.Random(13_102)
    rows = []
    for _ in range(400):
        n = rng.randint(2, 9)
        arcs = [
            (p, c, rng.choice((0, 1, 1, 2)))
            for p in range(n)
            for c in range(n)
            if p != c and rng.random() < 0.5
        ]
        rng.shuffle(arcs)
        root = rng.randrange(n)
        got = min_cost_root_arborescence(range(n), root, arcs)
        if got is not None:
            parents, cost = got
            rows.append((list(parents.items()), cost))
    assert len(rows) == 304
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == "500c357179f698e0c3cee269bf052fdfd441d98b356ac541fd90b0f2679badd9"


def test_rooted_tree_on_a_once_misbehaving_graph():
    # frozen instance on which a library solver wrongly reported no tree
    from liquidpower.weightmax import min_cost_root_arborescence

    arcs = [
        (0, 1, 1), (0, 4, 1), (0, 6, 1), (1, 4, 1), (1, 6, 1), (1, 7, 1),
        (2, 1, 0), (2, 4, 1), (2, 5, 0), (2, 6, 1), (2, 7, 0), (3, 1, 1),
        (4, 0, 1), (4, 1, 1), (4, 5, 1), (4, 7, 1), (5, 4, 0), (6, 1, 1),
        (6, 4, 1), (6, 7, 1), (7, 0, 0), (7, 1, 1), (7, 2, 1), (7, 6, 0),
    ]
    result = min_cost_root_arborescence(range(8), 3, arcs)
    assert result is not None
    parents, cost = result
    assert cost == 3
    assert set(parents) == set(range(8)) - {3}
