import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from liquidpower.core import DelegationProfile, SocialNetwork, validate
from liquidpower.dp import (
    all_indices_dp,
    banzhaf_dp,
    dfs_order,
    fill_table,
    shapley_dp,
    swing_counts_dp,
)
from liquidpower.exact import (
    MeasureKind,
    banzhaf_exact,
    shapley_exact,
    swing_size_counts,
)

from support import eight_voter_election, random_election


def test_ordering_on_the_eight_voter_fixture():
    e = eight_voter_election()
    order = dfs_order(e.forest, 7)
    assert order.sequence == (0, 1, 2, 3, 4, 5, 6, 7)
    assert order.boundary == 3
    assert order.block_size == (1, 1, 3, 1, 1, 2, 4, 5)
    # querying a voter of the first tree flips the tree order
    order3 = dfs_order(e.forest, 2)
    assert order3.sequence == (3, 4, 5, 6, 7, 0, 1, 2)
    assert order3.boundary == 5


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6))
def test_every_subtree_is_a_contiguous_block(seed):
    rng = random.Random(seed)
    e = random_election(rng, n_min=1, n_max=10)
    order = dfs_order(e.forest, rng.randrange(e.n))
    for p, v in enumerate(order.sequence):
        t = order.block_size[p]
        block = set(order.sequence[p - t + 1 : p + 1])
        assert block == set(e.forest.subtree[v])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_uncapped_rows_count_all_subsets(seed):
    rng = random.Random(seed)
    e = random_election(rng, n_min=1, n_max=8)
    order = dfs_order(e.forest, rng.randrange(e.n))
    weights = [e.weights[v] for v in order.sequence]
    rows = fill_table(weights, list(order.block_size))
    for j, row in enumerate(rows):
        assert sum(row) == 1 << j
    # with a slot wider than any count, sizes stay apart: (1 + y)**j
    slot_bits = e.n + 2
    y = 1 << slot_bits
    rows = fill_table(weights, list(order.block_size), slot_bits=slot_bits)
    for j, row in enumerate(rows):
        assert sum(row) == (1 + y) ** j


def test_eight_voter_reference_values_via_tables():
    e = eight_voter_election()
    assert banzhaf_dp(e, 7) == Fraction(1, 2)
    assert banzhaf_dp(e, 5) == Fraction(1, 16)
    assert shapley_dp(e, 7) == Fraction(19, 60)
    assert shapley_dp(e, 5) == Fraction(1, 30)
    assert swing_counts_dp(e, 7).per_size == (0, 0, 5, 18, 24, 14, 3, 0)


def test_single_voter_is_a_dictator():
    e = validate(
        SocialNetwork.from_arcs(1, []),
        (3,),
        DelegationProfile((None,)),
        3,
    )
    assert banzhaf_dp(e, 0) == 1
    assert shapley_dp(e, 0) == 1


def test_quota_heavy_proxies_zero_out_a_voter():
    e = eight_voter_election()
    assert banzhaf_dp(e, 4) == 0
    assert shapley_dp(e, 4) == 0
    assert swing_counts_dp(e, 4).total == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_tables_match_enumeration_everywhere(seed):
    rng = random.Random(seed)
    e = random_election(rng, n_min=1, n_max=9, w_max=4)
    for v in range(e.n):
        counts = swing_counts_dp(e, v)
        assert list(counts.per_size) == swing_size_counts(e, v)
        assert banzhaf_dp(e, v) == banzhaf_exact(e, v)
        assert shapley_dp(e, v) == shapley_exact(e, v)


def test_report_matches_exact_report():
    e = eight_voter_election()
    for kind in MeasureKind:
        dp_report = all_indices_dp(e, kind)
        assert dp_report.values == tuple(
            (banzhaf_exact if kind is MeasureKind.BANZHAF else shapley_exact)(e, v)
            for v in range(8)
        )


def test_moderate_instance_smoke():
    # a 25-voter instance is far beyond enumeration but easy for the tables
    rng = random.Random(7)
    e = random_election(rng, n_min=25, n_max=25, w_max=5)
    values = [banzhaf_dp(e, v) for v in range(e.n)]
    assert all(0 <= v <= 1 for v in values)
    assert sum(all_indices_dp(e, MeasureKind.SHAPLEY).values) == 1
