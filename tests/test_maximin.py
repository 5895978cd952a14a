"""Maximin power distribution: exhaustive search and the leaf shortcut."""

import random
import re
import time
from fractions import Fraction
from itertools import combinations, product
from math import prod
from types import SimpleNamespace

import numpy as np
import pytest

import oracle
from liquidpower import (
    SELF,
    DelegationProfile,
    InstanceTooLargeForEnumeration,
    InvariantViolated,
    LiquidPowerError,
    MeasureNotSupported,
    NoFeasibleProfile,
    NonPositiveWeight,
    QuotaOutOfRange,
    SocialNetwork,
    build_forest,
    find_delegation_cycle,
    validate,
)
from liquidpower import coalition_table, maximin
from liquidpower.dp import all_indices_dp
from liquidpower.exact import MeasureKind
from liquidpower.maximin import MaximinProblem, mmwp_bruteforce, mmwp_leafmin
from support import banzhaf_of, eight_voter_election, random_election, random_profile


def _two_triangle_network() -> SocialNetwork:
    # voters 0, 1 feed chains toward sinks 4 and 5; voter 1 may switch lanes
    return SocialNetwork.from_arcs(6, [(0, 2), (2, 4), (1, 3), (3, 5), (1, 2)])


def test_two_triangles_balance_at_an_eighth():
    problem = MaximinProblem(_two_triangle_network(), (1,) * 6, 3, 2)
    solution = mmwp_bruteforce(problem)
    assert solution.mu == Fraction(1, 8)
    assert solution.profile.choices == (2, 3, 4, 5, SELF, SELF)
    assert solution.per_voter == (
        Fraction(1, 8),
        Fraction(1, 8),
        Fraction(1, 4),
        Fraction(1, 4),
        Fraction(3, 8),
        Fraction(3, 8),
    )
    forest = build_forest(solution.profile, (1,) * 6)
    assert sorted(forest.subtree_size[g] for g in forest.gurus) == [3, 3]


def test_all_voters_casting_leaves_one_profile():
    problem = MaximinProblem(SocialNetwork.complete(3), (1, 1, 1), 2, 3)
    solution = mmwp_bruteforce(problem)
    assert solution.profile == DelegationProfile.all_self(3)
    assert solution.per_voter == (Fraction(1, 2),) * 3
    assert solution.mu == Fraction(1, 2)


def test_infeasible_root_counts():
    # nobody can delegate: all three voters must cast personally
    isolated = SocialNetwork.from_arcs(3, [])
    with pytest.raises(NoFeasibleProfile):
        mmwp_bruteforce(MaximinProblem(isolated, (1, 1, 1), 2, 2))
    # both sinks of the two-triangle network must cast, so one root is too few
    with pytest.raises(NoFeasibleProfile):
        mmwp_bruteforce(MaximinProblem(_two_triangle_network(), (1,) * 6, 3, 1))


def test_problem_validation():
    network = SocialNetwork.complete(3)
    with pytest.raises(ValueError):
        MaximinProblem(network, (1, 1, 1), 2, 0)
    with pytest.raises(ValueError):
        MaximinProblem(network, (1, 1, 1), 2, 4)
    with pytest.raises(QuotaOutOfRange):
        MaximinProblem(network, (1, 1, 1), 4, 2)
    with pytest.raises(NonPositiveWeight):
        MaximinProblem(network, (1, 0, 1), 2, 2)


@pytest.mark.parametrize(
    "field, value, expected",
    [
        ("quota", np.int64(3), 3),
        ("gurus", np.int16(2), 2),
        ("gurus", True, TypeError),
        ("gurus", 2.0, TypeError),
        ("quota", 3.0, TypeError),
        ("quota", "3", TypeError),
        ("weights", (True,) + (1,) * 5, TypeError),
        ("weights", (1.5,) + (1,) * 5, TypeError),
    ],
)
def test_problem_fields_are_coerced_or_refused(field, value, expected):
    fields = {"network": _two_triangle_network(), "weights": (1,) * 6, "quota": 3, "gurus": 2}
    fields[field] = value
    if isinstance(expected, type):
        with pytest.raises(expected, match=field):
            MaximinProblem(**fields)
    else:
        coerced = getattr(MaximinProblem(**fields), field)
        assert coerced == expected and type(coerced) is int


@pytest.mark.parametrize("weights", [(1,) * 5, (1,) * 7])
def test_a_weight_count_other_than_the_voter_count_is_refused(weights):
    message = f"size mismatch: network has 6 voters, {len(weights)} weights, profile of size 6"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        MaximinProblem(_two_triangle_network(), weights, 3, 2)


def test_table_work_cap_refuses_a_complete_nine_voter_search():
    network = SocialNetwork.complete(9)
    with pytest.raises(InstanceTooLargeForEnumeration, match="units of table work"):
        mmwp_bruteforce(MaximinProblem(network, (1,) * 9, 5, 3))


def test_profile_count_matches_the_enumeration():
    rng = random.Random(11_004)
    for _ in range(40):
        election = random_election(rng, n_min=1, n_max=6, arc_prob=rng.random())
        network = election.network
        for k in range(1, network.n + 1):
            for roots in combinations(range(network.n), k):
                expected = sum(
                    len(parents)
                    for parents, _, _ in maximin._profiles_with_roots(network, [roots])
                )
                assert maximin._count_profiles_with_roots(network, roots) == expected


def test_root_set_blocks_hold_each_rooted_profile_once(monkeypatch):
    rng = random.Random(11_006)
    for _ in range(25):
        election = random_election(rng, n_min=1, n_max=7, arc_prob=rng.random())
        network, n = election.network, election.network.n
        k = rng.randint(1, n)
        root_sets = list(combinations(range(n), k))
        for chunk_cells in (coalition_table.CHUNK_CELLS, 3 << n, 1):
            monkeypatch.setattr(coalition_table, "CHUNK_CELLS", chunk_cells)
            every_row = []
            for roots in root_sets:
                rows = []
                for parents, masks, free in maximin._profiles_with_roots(network, [roots]):
                    assert 1 <= len(parents) <= coalition_table.walk_rows(n)
                    assert masks.shape == parents.shape == (len(parents), n)
                    assert free.tolist() == [n - k] * len(parents)
                    for row, row_masks in zip(parents.tolist(), masks.tolist()):
                        assert [v for v in range(n) if row[v] == v] == list(roots)
                        forest = build_forest(DelegationProfile.from_parents(row), (1,) * n)
                        assert row_masks == list(forest.chain_mask)
                        rows.append(tuple(row))
                assert len(set(rows)) == len(rows)
                assert len(rows) == maximin._count_profiles_with_roots(network, roots)
                every_row += rows
            # blocks may span root sets but hold the same rows in the same order
            spanning = [
                tuple(row)
                for parents, _, _ in maximin._profiles_with_roots(network, root_sets)
                for row in parents.tolist()
            ]
            assert spanning == every_row
        monkeypatch.undo()


def test_string_kinds_take_the_enum_branch():
    network = SocialNetwork.complete(4)
    by_kind = {}
    for kind in MeasureKind:
        solution = mmwp_bruteforce(MaximinProblem(network, (1, 2, 3, 4), 6, 2, kind))
        problem = MaximinProblem(network, (1, 2, 3, 4), 6, 2, kind.value)
        assert problem.kind is kind
        assert mmwp_bruteforce(problem) == solution
        by_kind[kind] = solution.mu
    assert by_kind == {MeasureKind.BANZHAF: Fraction(1, 4), MeasureKind.SHAPLEY: Fraction(1, 6)}
    election = eight_voter_election()
    assert mmwp_leafmin(election.profile, election, "banzhaf") == 0
    with pytest.raises(MeasureNotSupported):
        mmwp_leafmin(election.profile, election, "shapley")
    with pytest.raises(ValueError):
        MaximinProblem(network, (1, 2, 3, 4), 6, 2, "penrose")


def test_leafmin_refuses_a_leaf_minimum_below_the_full_minimum(monkeypatch):
    # a delegate weaker than every leaf breaks the lemma the shortcut rests on
    election = eight_voter_election()
    values = tuple(Fraction(int(size == 1)) for size in election.forest.subtree_size)
    monkeypatch.setattr(maximin, "all_indices_dp", lambda *args: SimpleNamespace(values=values))
    with pytest.raises(RuntimeError, match="leaf minimum diverged"):
        mmwp_leafmin(election.profile, election, "banzhaf")
    # the package's own error type, so a caller can catch it with the rest
    with pytest.raises(InvariantViolated) as raised:
        mmwp_leafmin(election.profile, election, "banzhaf")
    assert isinstance(raised.value, LiquidPowerError)


def test_oversized_search_is_refused_before_scoring(monkeypatch):
    # each root pair of the complete 8-voter network roots 2 * 8**5 forests
    # (Cayley), 1,835,008 profiles in all
    def no_scoring(*_args):
        raise AssertionError("the refusal must come before any scoring")

    monkeypatch.setattr(coalition_table, "coalition_weight_table", no_scoring)
    network = SocialNetwork.complete(8)
    assert sum(
        maximin._count_profiles_with_roots(network, roots)
        for roots in combinations(range(8), 2)
    ) == 1_835_008
    with pytest.raises(InstanceTooLargeForEnumeration):
        mmwp_bruteforce(MaximinProblem(network, (1,) * 8, 5, 2))


def test_chunk_boundaries_change_no_solution(monkeypatch):
    rng = random.Random(11_005)
    for _ in range(10):
        n = rng.randint(2, 6)
        election = random_election(rng, n_min=n, n_max=n, w_max=3)
        network, weights, quota = election.network, election.weights, election.quota
        k = rng.randint(1, n)
        for kind in MeasureKind:
            problem = MaximinProblem(network, weights, quota, k, kind)
            solutions = []
            for chunk_cells in (coalition_table.CHUNK_CELLS, 3 << n, 1):
                monkeypatch.setattr(coalition_table, "CHUNK_CELLS", chunk_cells)
                try:
                    solutions.append(mmwp_bruteforce(problem))
                except NoFeasibleProfile:
                    solutions.append(None)
            monkeypatch.undo()
            assert solutions[1] == solutions[0]
            assert solutions[2] == solutions[0]


def _brute_reference(network, weights, quota, k, kind):
    """Independent enumeration of every exactly-k-root acyclic profile."""
    n = network.n
    fn = oracle.banzhaf if kind is MeasureKind.BANZHAF else oracle.shapley
    pools = [[SELF, *network.out_neighbors[v]] for v in range(n)]
    best = None
    for combo in product(*pools):
        if sum(c is SELF for c in combo) != k:
            continue
        if find_delegation_cycle(combo) is not None:
            continue
        mu = min(fn(combo, weights, quota, v) for v in range(n))
        key = DelegationProfile(combo).sort_key()
        if best is None or mu > best[0] or (mu == best[0] and key < best[2]):
            best = (mu, combo, key)
    return best


def test_bruteforce_matches_reference_enumeration():
    rng = random.Random(11_001)
    checked = 0
    for _ in range(12):
        election = random_election(rng, n_min=2, n_max=5, w_max=3)
        network, weights, quota = election.network, election.weights, election.quota
        k = rng.randint(1, network.n)
        kind = rng.choice([MeasureKind.BANZHAF, MeasureKind.SHAPLEY])
        reference = _brute_reference(network, weights, quota, k, kind)
        problem = MaximinProblem(network, weights, quota, k, kind)
        if reference is None:
            with pytest.raises(NoFeasibleProfile):
                mmwp_bruteforce(problem)
            continue
        solution = mmwp_bruteforce(problem)
        assert solution.mu == reference[0]
        assert solution.profile.choices == reference[1]
        checked += 1
    assert checked >= 6


def _dp_scan(network, weights, quota, gurus, kind):
    """``(mu, sort key)`` of the best profile with ``gurus`` roots: every
    candidate of every root set's out-neighbour product, cycles dropped,
    scored by one DP walk each."""
    n = network.n
    best = None
    for roots in combinations(range(n), gurus):
        free = [v for v in range(n) if v not in roots]
        for picks in product(*(network.out_neighbors[v] for v in free)):
            choices = [SELF] * n
            for v, u in zip(free, picks):
                choices[v] = u
            if find_delegation_cycle(choices) is not None:
                continue
            profile = DelegationProfile(tuple(choices))
            election = validate(network, weights, profile, quota)
            rank = (-min(all_indices_dp(election, kind).values), profile.sort_key())
            best = rank if best is None else min(best, rank)
    return -best[0], best[1]


def test_nine_to_twelve_voters_match_the_dp_scan():
    rng = random.Random(11_006)
    for n, free in ((9, 3), (10, 2), (11, 2), (12, 2)):
        election = random_election(rng, n_min=n, n_max=n, w_max=4, arc_prob=2.5 / n)
        network, weights, quota = election.network, election.weights, election.quota
        for kind in MeasureKind:
            solution = mmwp_bruteforce(MaximinProblem(network, weights, quota, n - free, kind))
            assert (solution.mu, solution.profile.sort_key()) == _dp_scan(
                network, weights, quota, n - free, kind
            )
            assert solution.mu == min(solution.per_voter)


def test_the_work_cap_is_inclusive(monkeypatch):
    rng = random.Random(11_007)
    election = random_election(rng, n_min=10, n_max=10, w_max=4, arc_prob=0.3)
    network, weights, quota = election.network, election.weights, election.quota
    problem = MaximinProblem(network, weights, quota, 7)
    passes = 0
    for roots in combinations(range(10), 7):
        if count := maximin._count_profiles_with_roots(network, roots):
            free = [v for v in range(10) if v not in roots]
            passes += count * 20 + prod(len(network.out_neighbors[v]) for v in free)
    assert passes > 0
    estimate = passes << 10
    monkeypatch.setattr(coalition_table, "WORK_CAP", estimate)
    answered = mmwp_bruteforce(problem)
    assert (answered.mu, answered.profile.sort_key()) == _dp_scan(
        network, weights, quota, 7, MeasureKind.BANZHAF
    )

    def no_tables(*_args):
        raise AssertionError("the refusal must come before any table")

    monkeypatch.setattr(coalition_table, "WORK_CAP", estimate - 1)
    monkeypatch.setattr(coalition_table, "coalition_weight_table", no_tables)
    with pytest.raises(InstanceTooLargeForEnumeration, match=str(estimate)):
        mmwp_bruteforce(problem)


def test_a_walk_of_mostly_cyclic_candidates_is_refused_at_once(monkeypatch):
    # v0 casts; v_i delegates to v_{i-1} or to any later voter.  Only v0 can
    # be the one guru, and it roots a single acyclic profile, but the walk
    # meets 15! candidate rows
    n = 16
    arcs = [(v, u) for v in range(1, n) for u in [v - 1, *range(v + 1, n)]]
    problem = MaximinProblem(SocialNetwork.from_arcs(n, arcs), (1,) * n, n // 2, 1)
    assert maximin._count_profiles_with_roots(problem.network, (0,)) == 1

    def no_walk(*_args):
        raise AssertionError("the refusal must come before the walk")

    monkeypatch.setattr(maximin, "product_blocks", no_walk)
    started = time.perf_counter()
    with pytest.raises(InstanceTooLargeForEnumeration, match="table work"):
        mmwp_bruteforce(problem)
    assert time.perf_counter() - started < 1


def test_more_voters_than_a_table_holds_are_refused_before_counting(monkeypatch):
    def no_counting(*_args):
        raise AssertionError("the refusal must come before any count")

    monkeypatch.setattr(maximin, "_count_profiles_with_roots", no_counting)
    n = coalition_table.TABLE_LIMIT + 1
    with pytest.raises(InstanceTooLargeForEnumeration, match="coalition-table limit"):
        mmwp_bruteforce(MaximinProblem(SocialNetwork.complete(n), (1,) * n, n, 2))


def test_leafmin_on_the_fixture():
    election = eight_voter_election()
    # the distant voter 4 is itself a leaf, so the minimum (zero) shows up
    value = mmwp_leafmin(election.profile, election)
    assert value == 0
    assert value == min(banzhaf_of(election, v) for v in range(8))


def test_leafmin_on_a_chain_is_the_tail():
    network = SocialNetwork.from_arcs(3, [(1, 0), (2, 1)])
    election = validate(network, (1, 1, 1), DelegationProfile((SELF, 0, 1)), 2)
    assert mmwp_leafmin(election.profile, election) == banzhaf_of(election, 2)


def test_leafmin_on_a_star_is_any_spoke():
    network = SocialNetwork.complete(4)
    election = validate(network, (1,) * 4, DelegationProfile((SELF, 0, 0, 0)), 3)
    assert mmwp_leafmin(election.profile, election) == banzhaf_of(election, 1)


def test_leafmin_rejects_the_ordering_measure():
    election = eight_voter_election()
    with pytest.raises(MeasureNotSupported):
        mmwp_leafmin(election.profile, election, MeasureKind.SHAPLEY)


def test_leafmin_equals_full_min_on_randoms():
    rng = random.Random(11_002)
    for _ in range(25):
        election = random_election(rng, n_min=2, n_max=7, w_max=3)
        profile = random_profile(rng, election.network)
        # the built-in cross-check assertion runs on every call
        value = mmwp_leafmin(profile, election)
        evaluated = election.with_profile(profile)
        assert value == min(banzhaf_of(evaluated, v) for v in range(election.n))


def test_power_never_drops_along_a_delegation():
    rng = random.Random(11_003)
    for _ in range(15):
        election = random_election(rng, n_min=2, n_max=7, w_max=3)
        for v, choice in enumerate(election.profile.choices):
            if choice is not SELF:
                assert banzhaf_of(election, v) <= banzhaf_of(election, choice)
