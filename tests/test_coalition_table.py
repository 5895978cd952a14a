"""Vectorized coalition-weight tables against the reference oracle."""

import random
from fractions import Fraction
from math import factorial

import numpy as np
import pytest

import oracle
from liquidpower import (
    DelegationProfile,
    InstanceTooLargeForEnumeration,
    NoFeasibleProfile,
    build_forest,
    find_delegation_cycle,
)
from liquidpower import coalition_table
from liquidpower.bribery import BriberyObjective, BriberyProblem, solve_bribery_exact
from liquidpower.coalition_table import (
    TABLE_LIMIT,
    chain_masks,
    coalition_weight_table,
    swing_counts,
    swing_counts_from_table,
    table_dtype,
)
from liquidpower.core import SELF, SocialNetwork, validate
from liquidpower.dp import swing_counts_dp
from liquidpower.exact import MeasureKind, measure_weights, swing_size_counts
from liquidpower.maximin import MaximinProblem, mmwp_bruteforce
from support import _swing_counts_plain, eight_voter_election, random_election, random_profile


def _masks(choices_rows):
    """Chain masks of acyclic profiles given by their choices."""
    parents = [DelegationProfile(choices).sort_key() for choices in choices_rows]
    masks, acyclic = chain_masks(parents)
    assert acyclic.all()
    return masks


def _plain_counts(election, choices):
    """Per-size swing counts of every voter under a profile, by enumeration."""
    game = election.with_profile(DelegationProfile(choices))
    return [_swing_counts_plain(game, v) for v in range(game.n)]


def _per_size(election, voters):
    """Per-size swing counts of some voters from the election's own table."""
    gamma = coalition_weight_table(_masks([election.profile.choices]), election.weights)
    n = election.n
    return swing_counts_from_table(gamma, n, election.quota, voters, np.eye(n, dtype=int))[0]


def test_chain_masks_on_fixture():
    election = eight_voter_election()
    masks = _masks([election.profile.choices])[0]
    # voter 0 delegates through 2; voter 4 through 5 -> 6 -> 7
    assert masks[0] == (1 << 0) | (1 << 2)
    assert masks[2] == 1 << 2
    assert masks[4] == (1 << 4) | (1 << 5) | (1 << 6) | (1 << 7)


def test_chain_masks_agree_with_the_forest_on_random_rows():
    # random parent rows, cyclic ones included: the kernel's acyclic flag
    # is the cycle finder's verdict, and its masks the forest's
    rng = random.Random(20_404)
    for n in range(1, 11):
        rows = [[rng.randrange(n) for _ in range(n)] for _ in range(60)]
        rows += [list(range(n))]  # everyone votes personally
        masks, acyclic = chain_masks(rows)
        assert masks.shape == (len(rows), n) and acyclic.shape == (len(rows),)
        for row, row_masks, row_acyclic in zip(rows, masks, acyclic):
            profile = DelegationProfile.from_parents(row)
            cycle = find_delegation_cycle(profile.choices)
            assert row_acyclic == (cycle is None)
            if cycle is None:
                forest = build_forest(profile, (1,) * n)
                assert row_masks.tolist() == list(forest.chain_mask)
        assert acyclic[-1]


def test_weight_table_matches_oracle():
    rng = random.Random(20_401)
    for _ in range(25):
        election = random_election(rng, n_min=2, n_max=7)
        gamma = coalition_weight_table(_masks([election.profile.choices]), election.weights)[0]
        for mask in range(1 << election.n):
            members = {v for v in range(election.n) if mask >> v & 1}
            assert gamma[mask] == oracle.coalition_weight(
                election.profile.choices, election.weights, members
            )


def test_swing_counts_match_exact_route():
    rng = random.Random(20_402)
    for _ in range(40):
        election = random_election(rng, n_min=2, n_max=8)
        voter = rng.randrange(election.n)
        counts = _per_size(election, [voter])[0].tolist()
        assert counts == _swing_counts_plain(election, voter)


def test_all_voters_share_one_table():
    election = eight_voter_election()
    per_voter = _per_size(election, range(8))
    assert per_voter.shape == (8, 8)
    assert per_voter[7].sum() == 64  # half of the 2^7 coalitions
    assert per_voter[4].sum() == 0  # distant voter never swings


def test_banzhaf_from_the_table_on_fixture():
    from fractions import Fraction

    election = eight_voter_election()
    gamma = coalition_weight_table(_masks([election.profile.choices]), election.weights)
    keys = swing_counts_from_table(gamma, 8, election.quota, [7, 5], [1] * 8)[0]
    denominator = 1 << election.n - 1
    assert Fraction(int(keys[0]), denominator) == Fraction(1, 2)
    assert Fraction(int(keys[1]), denominator) == Fraction(1, 16)


def test_table_size_guard():
    n = TABLE_LIMIT + 1
    with pytest.raises(InstanceTooLargeForEnumeration):
        coalition_weight_table(_masks([(None,) * n]), (1,) * n)
    # an int64 chain mask holds 63 voters
    with pytest.raises(InstanceTooLargeForEnumeration, match="64 voters exceed the 63 bits"):
        chain_masks([list(range(64))])


def test_table_weight_overflow_guard():
    # the coalition of all three would weigh 3 * 2**62, past int64
    with pytest.raises(InstanceTooLargeForEnumeration):
        coalition_weight_table(_masks([(None,) * 3]), (1 << 62,) * 3)
    # exact divides the weights by their gcd before it sums them
    profile = DelegationProfile.all_self(3)
    election = validate(SocialNetwork.complete(3), (1 << 62,) * 3, profile, 1 << 63)
    assert [swing_size_counts(election, v) for v in range(3)] == [[0, 2, 0]] * 3


def test_batched_tables_stack_the_single_profile_tables():
    rng = random.Random(20_403)
    for _ in range(10):
        n = rng.randint(2, 7)
        election = random_election(rng, n_min=n, n_max=n)
        rows = [random_profile(rng, election.network).choices for _ in range(5)]
        gamma = coalition_weight_table(_masks(rows), election.weights)
        assert gamma.shape == (5, 1 << n)
        for p, choices in enumerate(rows):
            single = coalition_weight_table(_masks([choices]), election.weights)[0]
            assert (gamma[p] == single).all()
            for mask in range(1 << n):
                members = {v for v in range(n) if mask >> v & 1}
                assert gamma[p, mask] == oracle.coalition_weight(
                    choices, election.weights, members
                )
        voter = rng.randrange(n)
        # unit size weights pick out one coalition size per call, and the
        # identity all sizes at once on a trailing axis
        counts = np.column_stack([
            swing_counts_from_table(gamma, n, election.quota, [voter], np.eye(n, dtype=int)[s])
            for s in range(n)
        ])
        assert counts.shape == (5, n)
        sizes = swing_counts_from_table(gamma, n, election.quota, [voter], np.eye(n, dtype=int))
        assert sizes.shape == (5, 1, n) and (sizes[:, 0] == counts).all()
        for p, choices in enumerate(rows):
            assert counts[p].tolist() == _plain_counts(election, choices)[voter]


def test_swing_kernel_weights_every_voter_like_the_single_profile_counts():
    # all-ones weights give swing totals, factorial weights the Shapley
    # numerator, unit vectors the count of one size; n=1 has one coalition
    # without the voter (2**(n-1) == 1)
    rng = random.Random(20_405)
    for n in range(1, 9):
        election = random_election(rng, n_min=n, n_max=n)
        rows = [random_profile(rng, election.network).choices for _ in range(6)]
        gamma = coalition_weight_table(_masks(rows), election.weights)
        expected = [_plain_counts(election, choices) for choices in rows]
        shapley = [factorial(s) * factorial(n - 1 - s) for s in range(n)]
        for size_weights in [[1] * n, shapley, *np.eye(n, dtype=int).tolist()]:
            keys = swing_counts_from_table(
                gamma, n, election.quota, range(n), size_weights
            )
            assert keys.shape == (len(rows), n) and keys.dtype == np.int64
            for row_keys, counts in zip(keys.tolist(), expected):
                assert row_keys == [
                    sum(c * w for c, w in zip(voter_counts, size_weights))
                    for voter_counts in counts
                ]
        # weights whose sums outgrow int32 are summed in int64
        big = swing_counts_from_table(gamma, n, election.quota, range(n), [1 << 40] * n)
        ones = swing_counts_from_table(gamma, n, election.quota, range(n), [1] * n)
        assert (big == ones << 40).all()
        # a subset of voters, in any order, gives the matching columns
        voters = rng.sample(range(n), rng.randint(1, n))
        subset = swing_counts_from_table(gamma, n, election.quota, voters, [1] * n)
        assert (subset == ones[:, voters]).all()


def test_swing_counts_scores_a_block_in_tables_of_table_rows(monkeypatch):
    # a block of any size is scored as its rows' own tables would score it,
    # over the gcd-reduced game, with no table above table_rows(n) rows
    rng = random.Random(20_406)
    real_table = coalition_table.coalition_weight_table
    built = []

    def recording_table(masks, weights):
        built.append(len(masks))
        return real_table(masks, weights)

    for _ in range(10):
        n = rng.randint(2, 7)
        election = random_election(rng, n_min=n, n_max=n)
        scale = rng.randint(1, 4)
        weights = [w * scale for w in election.weights]
        quota = election.quota * scale - rng.randrange(scale)
        rows = [random_profile(rng, election.network).choices for _ in range(rng.randint(1, 9))]
        masks = _masks(rows)
        scaled = validate(election.network, weights, election.profile, quota)
        g, reduced, reduced_quota = scaled.reduced
        assert g % scale == 0 and reduced_quota == -(-quota // g)
        want = swing_counts_from_table(
            coalition_weight_table(masks, weights), n, quota, range(n), [1] * n
        )
        monkeypatch.setattr(coalition_table, "CHUNK_CELLS", 2 << n)
        monkeypatch.setattr(coalition_table, "coalition_weight_table", recording_table)
        built.clear()
        got = swing_counts(masks, reduced, reduced_quota, range(n), [1] * n)
        monkeypatch.undo()
        assert np.array_equal(got, want)
        assert sum(built) == len(rows) and max(built) <= 2


# one total on each side of every table type's edge: four small co-prime
# weights and one that brings the total to the edge
TYPE_EDGES = [
    (127, np.int8),
    (128, np.int16),
    ((1 << 15) - 1, np.int16),
    (1 << 15, np.int32),
    ((1 << 31) - 1, np.int32),
    (1 << 31, np.int64),
    ((1 << 63) - 1, np.int64),
]


@pytest.mark.parametrize("total, dtype", TYPE_EDGES)
def test_tables_take_the_narrowest_type_that_holds_the_total(total, dtype):
    weights = (1, 2, 4, 8, total - 15)
    # the heavy voter delegates to voter 0 and voter 1 to voter 2, so the
    # heavy weight counts only in coalitions with voters 0 and 4
    profile = DelegationProfile((SELF, 2, SELF, SELF, 0))
    assert table_dtype(weights) == dtype
    gamma = coalition_weight_table(_masks([profile.choices]), weights)
    assert gamma.dtype == dtype and int(gamma[0, -1]) == total
    assert int(gamma.min()) == 0
    network = SocialNetwork.complete(5)
    # the DP's tables grow with the quota, so it checks the small quotas
    for quota in (1, 16, 17, total - 8, total):
        election = validate(network, weights, profile, quota)
        counts = swing_counts_from_table(gamma, 5, quota, range(5), np.eye(5, dtype=int))[0]
        assert counts.dtype == np.int64
        for voter in range(5):
            assert counts[voter].tolist() == _swing_counts_plain(election, voter)
            if quota <= 1 << 16:
                assert tuple(counts[voter].tolist()) == swing_counts_dp(election, voter)


def test_a_total_past_int64_is_refused_by_the_type_choice():
    with pytest.raises(InstanceTooLargeForEnumeration):
        table_dtype((1 << 62, 1 << 62))
    with pytest.raises(InstanceTooLargeForEnumeration):
        coalition_weight_table(_masks([(SELF,) * 2]), (1 << 62, 1 << 62))


@pytest.mark.parametrize("kind", list(MeasureKind))
def test_swing_count_keys_stay_int64_at_sixteen_voters(kind):
    # byte tables, but Shapley's keys reach 15! per swing
    rng = random.Random(20_407)
    election = random_election(rng, n_min=16, n_max=16, w_max=4)
    _, weights, quota = election.reduced
    masks = _masks([election.profile.choices])
    assert table_dtype(weights) == np.int8
    size_weights, _ = measure_weights(kind, 16)
    keys = swing_counts(masks, weights, quota, range(16), size_weights)
    assert keys.dtype == np.int64
    assert keys[0].tolist() == [
        sum(w * c for w, c in zip(size_weights, swing_counts_dp(election, v)))
        for v in range(16)
    ]


def _search_problems(rng, count):
    """Seeded exact-bribery and maximin problems of 5-8 voters, both
    measures; weights up to 4, 40, 1000, 10**4 or 2**16 put the tables in
    int8, int16 and int32, with totals on both sides of the int8 and int16
    edges."""
    objectives = {
        MeasureKind.BANZHAF: (BriberyObjective.MAX_BANZHAF, BriberyObjective.MIN_BANZHAF),
        MeasureKind.SHAPLEY: (BriberyObjective.MAX_SHAPLEY, BriberyObjective.MIN_SHAPLEY),
    }
    for i in range(count):
        kind = list(MeasureKind)[i // 2 % 2]
        w_max = (4, 40, 1000, 10**4, 1 << 16)[i % 5]
        if i % 2:
            election = random_election(rng, n_min=5, n_max=8, w_max=w_max, arc_prob=0.4)
            yield solve_bribery_exact, BriberyProblem(
                election,
                rng.randrange(election.n),
                rng.randint(1, 2),
                Fraction(rng.randint(0, 4), 4),
                rng.choice(objectives[kind]),
            )
        else:
            election = random_election(rng, n_min=5, n_max=7, w_max=w_max, arc_prob=0.3)
            yield mmwp_bruteforce, MaximinProblem(
                election.network, election.weights, election.quota, rng.randint(1, 2), kind
            )


def _answers(problems, monkeypatch, pick_type):
    """Each problem's outcome (or refusal type) with tables typed by
    ``pick_type``, and the set of types the tables took."""
    used = set()

    def recording_type(weights):
        dtype = pick_type(weights)
        used.add(dtype)
        return dtype

    monkeypatch.setattr(coalition_table, "table_dtype", recording_type)
    answers = []
    for solve, problem in problems:
        try:
            answers.append(solve(problem))
        except NoFeasibleProfile as error:
            answers.append(type(error))
    monkeypatch.undo()
    return answers, used


def test_narrow_tables_answer_every_search_like_int64_tables(monkeypatch):
    # every outcome field, witness profile included, equals what int64
    # tables give
    problems = list(_search_problems(random.Random(20_408), 540))
    narrow, used = _answers(problems, monkeypatch, table_dtype)
    assert used == {np.dtype(t) for t in (np.int8, np.int16, np.int32)}
    wide, used = _answers(problems, monkeypatch, lambda weights: np.dtype(np.int64))
    assert used == {np.dtype(np.int64)}
    assert narrow == wide
