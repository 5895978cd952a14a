"""Bribery: exhaustive neighborhood optimization and the greedy redirecter."""

import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

import oracle
from liquidpower import (
    SELF,
    DelegationProfile,
    InstanceTooLargeForEnumeration,
    SocialNetwork,
    find_delegation_cycle,
    validate,
)
from liquidpower import bribery, coalition_table
from liquidpower.bribery import (
    BriberyObjective,
    BriberyProblem,
    BriberyOutcome,
    enumerate_neighborhood,
    gamw,
    neighborhood_size,
    solve_bribery_exact,
)
from liquidpower.dp import banzhaf_dp, shapley_dp
from liquidpower.exact import MeasureKind, power_index
from support import banzhaf_of, eight_voter_election, neighborhood_profiles, random_election


def _three_self_voters(quota=2):
    network = SocialNetwork.complete(3)
    return validate(network, (1, 1, 1), DelegationProfile.all_self(3), quota)


def _brute_neighborhood(election, k):
    """Independent enumeration: filter the full product of legal choices."""
    base = election.profile.choices
    n = election.n
    pools = [
        [SELF, *election.network.out_neighbors[v]] for v in range(n)
    ]
    found = set()
    for combo in product(*pools):
        changes = sum(a != b for a, b in zip(combo, base))
        if changes <= k and find_delegation_cycle(combo) is None:
            found.add(combo)
    return found


# --- neighborhood enumeration -------------------------------------------


def test_zero_budget_neighborhood_is_the_original():
    election = _three_self_voters()
    profiles = neighborhood_profiles(election, 0)
    assert profiles == [election.profile]


def test_three_voters_one_change_gives_seven_profiles():
    election = _three_self_voters()
    profiles = neighborhood_profiles(election, 1)
    assert len(profiles) == 7  # the original plus 3 voters x 2 targets
    assert len({p.choices for p in profiles}) == 7


def test_three_voters_two_changes_match_brute_filter():
    election = _three_self_voters()
    ours = {p.choices for p in neighborhood_profiles(election, 2)}
    brute = _brute_neighborhood(election, 2)
    assert ours == brute
    assert len(ours) == 16  # 1 + 6 singles + 9 acyclic pairs
    # and each profile was produced exactly once
    assert len(neighborhood_profiles(election, 2)) == 16


def test_enumeration_matches_brute_filter_on_randoms():
    rng = random.Random(7_301)
    for _ in range(20):
        election = random_election(rng, n_min=2, n_max=5)
        k = rng.randint(0, 2)
        ours = [p.choices for p in neighborhood_profiles(election, k)]
        assert len(ours) == len(set(ours))
        assert set(ours) == _brute_neighborhood(election, k)


def test_neighborhood_size_is_a_tight_upper_bound():
    election = _three_self_voters()
    assert neighborhood_size(election, 1) == 7  # no cycles possible: exact
    assert neighborhood_size(election, 2) == 19  # 16 survive the cycle filter
    rng = random.Random(7_302)
    for _ in range(10):
        e = random_election(rng, n_min=2, n_max=5)
        k = rng.randint(0, 2)
        assert neighborhood_size(e, k) >= len(neighborhood_profiles(e, k))


def test_a_negative_budget_leaves_no_profile():
    assert neighborhood_size(eight_voter_election(), -1) == 0


def test_blocks_stay_within_the_row_bound(monkeypatch):
    rng = random.Random(7_303)
    for _ in range(12):
        n = rng.randint(2, 7)
        election = random_election(rng, n_min=n, n_max=n, complete=rng.random() < 0.5)
        k = rng.randint(1, 3)
        expected = neighborhood_profiles(election, k)
        for chunk_cells in (coalition_table.CHUNK_CELLS, 5 << n, 3 << n, 1):
            monkeypatch.setattr(coalition_table, "CHUNK_CELLS", chunk_cells)
            profiles = []
            for parents, masks, changes in enumerate_neighborhood(election, k):
                assert 1 <= len(parents) <= coalition_table.walk_rows(n)
                assert masks.shape == parents.shape == (len(changes), n)
                for row, row_masks, row_changes in zip(parents, masks, changes):
                    profile = DelegationProfile.from_parents(row)
                    forest = election.with_profile(profile).forest
                    assert row_masks.tolist() == list(forest.chain_mask)
                    assert row_changes == len(election.profile.changed_voters(profile))
                    profiles.append(profile)
            assert profiles == expected
        monkeypatch.undo()


# --- exact solver ---------------------------------------------------------


def test_objective_enum_wiring():
    assert BriberyObjective.MAX_BANZHAF.kind is MeasureKind.BANZHAF
    assert BriberyObjective.MIN_SHAPLEY.kind is MeasureKind.SHAPLEY
    assert BriberyObjective.MAX_SHAPLEY.maximize
    assert not BriberyObjective.MIN_BANZHAF.maximize


def test_string_objectives_take_the_enum_branch():
    election = eight_voter_election()
    for objective in BriberyObjective:
        problem = BriberyProblem(election, 5, 1, Fraction(1, 2), objective.value)
        assert problem.objective is objective
        direct = BriberyProblem(election, 5, 1, Fraction(1, 2), objective)
        assert solve_bribery_exact(problem) == solve_bribery_exact(direct)
    with pytest.raises(ValueError):
        BriberyProblem(election, 5, 1, Fraction(1, 2), "max-penrose")


@pytest.mark.parametrize(
    "field, value, expected",
    [
        ("target", np.int64(5), 5),
        ("budget", np.int32(1), 1),
        ("threshold", "1/2", Fraction(1, 2)),
        ("threshold", 0.25, Fraction(1, 4)),
        ("target", True, TypeError),
        ("budget", 1.0, TypeError),
        ("budget", "1", TypeError),
        ("threshold", True, TypeError),
        ("threshold", None, TypeError),
        ("threshold", "half", ValueError),
    ],
)
def test_problem_fields_are_coerced_or_refused(field, value, expected):
    fields = {
        "election": eight_voter_election(),
        "target": 5,
        "budget": 1,
        "threshold": Fraction(1, 2),
        "objective": "max-banzhaf",
        field: value,
    }
    if isinstance(expected, type):
        with pytest.raises(expected, match=field):
            BriberyProblem(**fields)
    else:
        coerced = getattr(BriberyProblem(**fields), field)
        assert coerced == expected and type(coerced) is type(expected)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("budget", -1, "budget must be non-negative"),
        ("threshold", Fraction(-1, 8), r"threshold must lie in \[0, 1\]"),
        ("threshold", "9/8", r"threshold must lie in \[0, 1\]"),
        ("target", -1, "target -1 out of range"),
        ("target", 8, "target 8 out of range"),
    ],
)
def test_problem_fields_out_of_range_are_refused(field, value, message):
    fields = {
        "election": eight_voter_election(),
        "target": 5,
        "budget": 1,
        "threshold": Fraction(1, 2),
        "objective": "max-banzhaf",
        field: value,
    }
    with pytest.raises(ValueError, match=message):
        BriberyProblem(**fields)


@pytest.mark.parametrize(
    "field, value, expected",
    [
        ("budget", np.int64(2), None),
        ("threshold", "1/2", None),
        ("threshold", 0.5, None),
        ("budget", 2.0, TypeError),
        ("budget", 2.5, TypeError),
        ("budget", True, TypeError),
        ("budget", -1, ValueError),
        ("threshold", True, TypeError),
        ("threshold", "half", ValueError),
        ("threshold", 2, ValueError),
        ("threshold", -1, ValueError),
    ],
)
def test_gamw_arguments_are_coerced_or_refused(field, value, expected):
    election = eight_voter_election()
    arguments = {"budget": 2, "threshold": Fraction(1, 2)}
    want = gamw(election, 4, **arguments)
    arguments[field] = value
    if expected is None:
        assert gamw(election, 4, **arguments) == want
    else:
        with pytest.raises(expected, match=field):
            gamw(election, 4, **arguments)


def test_zero_budget_reports_the_current_value():
    election = eight_voter_election()
    problem = BriberyProblem(
        election, 7, 0, Fraction(1), BriberyObjective.MAX_BANZHAF
    )
    outcome = solve_bribery_exact(problem)
    assert outcome.value == Fraction(1, 2)
    assert outcome.changes == 0
    assert outcome.decision is False  # 1/2 < 1
    assert outcome.profile is None


def test_minimization_with_threshold_one_is_always_yes():
    election = _three_self_voters()
    problem = BriberyProblem(
        election, 0, 0, Fraction(1), BriberyObjective.MIN_BANZHAF
    )
    outcome = solve_bribery_exact(problem)
    assert outcome.decision is True
    assert outcome.profile == election.profile


def test_dictator_already_meets_threshold_one():
    network = SocialNetwork.complete(3)
    election = validate(
        network, (3, 1, 1), DelegationProfile.all_self(3), 3
    )
    problem = BriberyProblem(
        election, 0, 2, Fraction(1), BriberyObjective.MAX_BANZHAF
    )
    outcome = solve_bribery_exact(problem)
    assert outcome.decision is True
    assert outcome.value == 1
    # ties break toward fewer changes: the original profile already wins
    assert outcome.changes == 0
    assert outcome.profile == election.profile


def _brute_optimum(election, target, k, measure, maximize):
    values = []
    for choices in _brute_neighborhood(election, k):
        fn = oracle.banzhaf if measure is MeasureKind.BANZHAF else oracle.shapley
        values.append(fn(choices, election.weights, election.quota, target))
    return max(values) if maximize else min(values)


def test_exact_solver_matches_brute_force_on_four_voters():
    rng = random.Random(7_303)
    for _ in range(12):
        election = random_election(rng, n_min=3, n_max=4, complete=rng.random() < 0.5)
        target = rng.randrange(election.n)
        for objective in BriberyObjective:
            problem = BriberyProblem(election, target, 1, Fraction(1, 2), objective)
            outcome = solve_bribery_exact(problem)
            expected = _brute_optimum(
                election, target, 1, objective.kind, objective.maximize
            )
            assert outcome.value == expected


def test_optimum_brackets_the_current_value():
    rng = random.Random(7_304)
    for _ in range(10):
        election = random_election(rng, n_min=2, n_max=6)
        target = rng.randrange(election.n)
        current = banzhaf_of(election, target)
        lo = solve_bribery_exact(
            BriberyProblem(election, target, 2, Fraction(0), BriberyObjective.MIN_BANZHAF)
        ).value
        hi = solve_bribery_exact(
            BriberyProblem(election, target, 2, Fraction(1), BriberyObjective.MAX_BANZHAF)
        ).value
        assert lo <= current <= hi


def test_larger_budgets_never_hurt():
    rng = random.Random(7_305)
    for _ in range(8):
        election = random_election(rng, n_min=3, n_max=5)
        target = rng.randrange(election.n)
        values = [
            solve_bribery_exact(
                BriberyProblem(
                    election, target, k, Fraction(1), BriberyObjective.MAX_SHAPLEY
                )
            ).value
            for k in range(3)
        ]
        assert values[0] <= values[1] <= values[2]


def test_witness_revalidates():
    rng = random.Random(7_306)
    seen_yes = 0
    for _ in range(15):
        election = random_election(rng, n_min=3, n_max=6)
        target = rng.randrange(election.n)
        problem = BriberyProblem(
            election, target, 2, Fraction(1, 4), BriberyObjective.MAX_BANZHAF
        )
        outcome = solve_bribery_exact(problem)
        if not outcome.decision:
            continue
        seen_yes += 1
        witness = outcome.profile
        assert len(election.profile.changed_voters(witness)) <= 2
        rebuilt = election.with_profile(witness)  # revalidates arcs + acyclicity
        assert banzhaf_of(rebuilt, target) == outcome.value
    assert seen_yes >= 3


def test_chunk_boundaries_change_no_outcome(monkeypatch):
    # ties between equal keys must resolve the same way whether the
    # candidates share a scoring chunk or sit in different ones
    rng = random.Random(7_307)
    for _ in range(10):
        n = rng.randint(2, 7)
        complete = rng.random() < 0.5
        election = random_election(rng, n_min=n, n_max=n, w_max=3, complete=complete)
        target = rng.randrange(n)
        budget = rng.randint(1, 2)
        for objective in BriberyObjective:
            # a threshold every profile meets, so the witness is reported
            threshold = Fraction(0) if objective.maximize else Fraction(1)
            problem = BriberyProblem(election, target, budget, threshold, objective)
            outcomes = []
            for chunk_cells in (coalition_table.CHUNK_CELLS, 3 << n, 1):
                monkeypatch.setattr(coalition_table, "CHUNK_CELLS", chunk_cells)
                outcomes.append(solve_bribery_exact(problem))
            monkeypatch.undo()
            assert outcomes[1] == outcomes[0]
            assert outcomes[2] == outcomes[0]


def test_large_weights_give_the_exact_value():
    # three voters of weight 2**62 and quota 2**63: their coalition weights
    # overflow int64 unless the weights are divided by their gcd first
    network = SocialNetwork.complete(3)
    election = validate(network, (1 << 62,) * 3, DelegationProfile.all_self(3), 1 << 63)
    problem = BriberyProblem(election, 0, 0, Fraction(1, 2), BriberyObjective.MAX_BANZHAF)
    outcome = solve_bribery_exact(problem)
    assert outcome.value == banzhaf_of(election, 0) == Fraction(1, 2)
    assert outcome.profile == election.profile


def test_weights_that_overflow_even_reduced_are_refused():
    weights = (1 << 62, (1 << 62) + 1, 1 << 62)  # gcd 1, total above 2**63
    network = SocialNetwork.complete(3)
    election = validate(network, weights, DelegationProfile.all_self(3), 1 << 63)
    problem = BriberyProblem(election, 0, 1, Fraction(1, 2), BriberyObjective.MAX_BANZHAF)
    with pytest.raises(InstanceTooLargeForEnumeration):
        solve_bribery_exact(problem)


def _dp_scan(problem):
    """``(value, changes, sort key)`` of the best neighbourhood profile, each
    scored on its own by the DP, under the solver's tie-break."""
    election = problem.election
    measure = banzhaf_dp if problem.objective.kind is MeasureKind.BANZHAF else shapley_dp
    sign = 1 if problem.objective.maximize else -1
    key, changes, row = min(
        (
            -sign * measure(election.with_profile(profile), problem.target),
            len(election.profile.changed_voters(profile)),
            profile.sort_key(),
        )
        for profile in neighborhood_profiles(election, problem.budget)
    )
    return -sign * key, changes, row


def _assert_like_the_scan(problem):
    outcome = solve_bribery_exact(problem)
    assert outcome.decision
    assert (outcome.value, outcome.changes, outcome.profile.sort_key()) == _dp_scan(problem)


def test_eleven_voters_are_searched_like_the_dp_scan():
    # one change on the complete 11-voter network is 111 profiles
    n = 11
    election = validate(
        SocialNetwork.complete(n), (1,) * n, DelegationProfile.all_self(n), 6
    )
    assert neighborhood_size(election, 1) == 111
    _assert_like_the_scan(
        BriberyProblem(election, 0, 1, Fraction(0), BriberyObjective.MAX_BANZHAF)
    )


def test_sixteen_voters_are_searched_like_the_dp_scan():
    rng = random.Random(7_311)
    for n, budget in ((11, 2), (12, 2), (13, 1), (14, 1), (16, 1)):
        election = random_election(rng, n_min=n, n_max=n, w_max=4, arc_prob=2 / n)
        target = rng.randrange(n)
        for objective in BriberyObjective:
            threshold = Fraction(0) if objective.maximize else Fraction(1)
            _assert_like_the_scan(
                BriberyProblem(election, target, budget, threshold, objective)
            )


def test_the_work_cap_is_inclusive(monkeypatch):
    n = 11
    election = validate(
        SocialNetwork.complete(n), (1,) * n, DelegationProfile.all_self(n), 6
    )
    problem = BriberyProblem(election, 0, 1, Fraction(0), BriberyObjective.MAX_SHAPLEY)
    estimate = 111 * (n + 1) << n
    monkeypatch.setattr(coalition_table, "WORK_CAP", estimate)
    answered = solve_bribery_exact(problem)
    assert answered.value == _dp_scan(problem)[0]

    def no_tables(*_args):
        raise AssertionError("the refusal must come before any table")

    monkeypatch.setattr(coalition_table, "WORK_CAP", estimate - 1)
    monkeypatch.setattr(coalition_table, "coalition_weight_table", no_tables)
    with pytest.raises(InstanceTooLargeForEnumeration, match=str(estimate)):
        solve_bribery_exact(problem)


def test_more_voters_than_a_table_holds_are_refused():
    n = coalition_table.TABLE_LIMIT + 1
    election = validate(
        SocialNetwork.complete(n), (1,) * n, DelegationProfile.all_self(n), n
    )
    with pytest.raises(InstanceTooLargeForEnumeration, match="coalition-table limit"):
        solve_bribery_exact(
            BriberyProblem(election, 0, 0, Fraction(0), BriberyObjective.MAX_BANZHAF)
        )


def test_the_voter_limit_refuses_before_the_neighbourhood_is_counted(monkeypatch):
    n = coalition_table.TABLE_LIMIT + 1
    election = validate(
        SocialNetwork.complete(n), (1,) * n, DelegationProfile.all_self(n), n
    )

    def no_count(*_args, **_kwargs):
        raise AssertionError("the voter limit must refuse before the count")

    monkeypatch.setattr(bribery, "neighborhood_size", no_count)
    limit = f"coalition-table limit of {coalition_table.TABLE_LIMIT}"
    with pytest.raises(InstanceTooLargeForEnumeration, match=limit):
        solve_bribery_exact(
            BriberyProblem(election, 0, n, Fraction(0), BriberyObjective.MAX_BANZHAF)
        )


def test_neighborhood_cap_guard():
    n = 10
    election = validate(
        SocialNetwork.complete(n), (1,) * n, DelegationProfile.all_self(n), 6
    )
    with pytest.raises(InstanceTooLargeForEnumeration):
        solve_bribery_exact(
            BriberyProblem(election, 0, 10, Fraction(1), BriberyObjective.MAX_BANZHAF)
        )


# --- greedy redirecter ----------------------------------------------------


def test_greedy_zero_budget_is_a_no_op():
    election = eight_voter_election()
    outcome = gamw(election, 7, 0)
    assert outcome.profile == election.profile
    assert outcome.changes == 0
    assert outcome.value == Fraction(1, 2)


def test_greedy_takes_string_kinds_as_the_enum():
    election = eight_voter_election()
    for kind in MeasureKind:
        assert gamw(election, 5, 1, kind=kind.value) == gamw(election, 5, 1, kind=kind)
    banzhaf = gamw(election, 5, 1, kind="banzhaf").value
    assert banzhaf != gamw(election, 5, 1, kind="shapley").value
    with pytest.raises(ValueError):
        gamw(election, 5, 1, kind="penrose")


def test_greedy_redirects_the_heaviest_root_first():
    # roots 0 (five ballots) and 5 (three ballots); the greedy step must
    # pick voter 0 for the single available change
    n = 9
    choices = [SELF] * n
    for v in (1, 2, 3, 4):
        choices[v] = 0
    for v in (6, 7):
        choices[v] = 5
    election = validate(
        SocialNetwork.complete(n), (1,) * n, DelegationProfile(tuple(choices)), 5
    )
    outcome = gamw(election, 8, 1)
    assert outcome.profile.choices[0] == 8
    assert outcome.changes == 1
    assert outcome.skipped_redirects == ()
    rebuilt = election.with_profile(outcome.profile)
    assert outcome.value == banzhaf_of(rebuilt, 8)
    assert outcome.value > banzhaf_of(election, 8)


def test_greedy_root_ties_break_to_the_smaller_id():
    n = 7
    choices = [SELF] * n
    choices[1] = choices[2] = 0
    choices[4] = choices[5] = 3
    election = validate(
        SocialNetwork.complete(n), (1,) * n, DelegationProfile(tuple(choices)), 4
    )
    outcome = gamw(election, 6, 1)
    assert outcome.profile.choices[0] == 6
    assert outcome.profile.choices[3] == 3 or outcome.profile.choices[3] is SELF


def test_greedy_reports_missing_arcs_and_keeps_the_budget():
    election = eight_voter_election()
    outcome = gamw(election, 2, 1)  # only other root is 7; arc (7, 2) absent
    assert outcome.profile == election.profile
    assert outcome.changes == 0
    assert outcome.skipped_redirects == ((7, 2),)


def test_greedy_follower_with_covering_proxies_votes_personally():
    election = eight_voter_election()
    # voter 4's ballot passes through 5, 6, 7 (weight 3 >= quota 3)
    outcome = gamw(election, 4, 1)
    assert outcome.profile.choices[4] is SELF
    assert outcome.changes == 1


def test_greedy_follower_single_change_redirects_a_feeder():
    # target 3 delegates to 4; candidate 0 carries three ballots and the
    # network offers the arc (0, 3)
    network = SocialNetwork.from_arcs(5, [(1, 0), (2, 0), (3, 4), (0, 3)])
    profile = DelegationProfile((SELF, 0, 0, 4, SELF))
    election = validate(network, (1,) * 5, profile, 4)
    outcome = gamw(election, 3, 1)
    assert outcome.profile.choices[3] == 4  # target keeps delegating
    assert outcome.profile.choices[0] == 3
    assert outcome.changes == 1


def test_greedy_follower_single_change_skips_candidates_without_arcs():
    election = eight_voter_election()
    # target 3: proxies {6, 7} weigh 2 < quota; candidates are root 2 and
    # feeder 5, but neither (2, 3) nor (5, 3) is a network arc
    outcome = gamw(election, 3, 1)
    assert outcome.profile == election.profile
    assert outcome.changes == 0
    assert outcome.skipped_redirects == ((2, 3), (5, 3))


def test_greedy_follower_with_two_changes_votes_personally_then_grabs_roots():
    network = SocialNetwork.complete(5)
    profile = DelegationProfile((SELF, 0, 0, SELF, 3))
    election = validate(network, (1,) * 5, profile, 3)
    outcome = gamw(election, 4, 2)
    assert outcome.profile.choices[4] is SELF
    assert outcome.profile.choices[0] == 4  # heaviest remaining root
    assert outcome.changes == 2
    assert outcome.value == banzhaf_of(election.with_profile(outcome.profile), 4)


def test_greedy_follower_two_changes_ranks_roots_after_normalization():
    election = eight_voter_election()
    outcome = gamw(election, 3, 2)
    # after 3 votes personally, roots 7 (four ballots) and 2 (three) are
    # tried in that order; neither arc exists
    assert outcome.profile.choices[3] is SELF
    assert outcome.changes == 1
    assert outcome.skipped_redirects == ((7, 3), (2, 3))


def test_greedy_threshold_controls_the_decision():
    election = eight_voter_election()
    yes = gamw(election, 7, 0, threshold=Fraction(1, 2))
    no = gamw(election, 7, 0, threshold=Fraction(3, 4))
    assert yes.decision is True
    assert no.decision is False


def test_greedy_value_agrees_with_exact_measures():
    rng = random.Random(7_307)
    for _ in range(10):
        election = random_election(rng, n_min=3, n_max=7, complete=True)
        target = rng.randrange(election.n)
        k = rng.randint(0, 2)
        for kind in MeasureKind:
            outcome = gamw(election, target, k, kind=kind)
            assert outcome.changes <= k
            rebuilt = election.with_profile(outcome.profile)
            assert power_index(rebuilt, target, kind) == outcome.value


def test_greedy_guarantee_on_complete_networks():
    rng = random.Random(7_308)
    for _ in range(20):
        election = random_election(rng, n_min=3, n_max=6, w_max=3, complete=True)
        n = election.n
        target = rng.randrange(n)
        k = rng.randint(1, 2)
        greedy = gamw(election, target, k).value
        optimum = solve_bribery_exact(
            BriberyProblem(
                election, target, k, Fraction(1), BriberyObjective.MAX_BANZHAF
            )
        ).value
        assert greedy >= optimum / (1 << n - 1)
