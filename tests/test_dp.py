import hashlib
import random
import sys
import time
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liquidpower import dp
from liquidpower.core import SELF, DelegationProfile, SocialNetwork, validate
from liquidpower.errors import InstanceTooLargeForEnumeration
from liquidpower.dp import (
    TABLE_SLOT_CAP,
    all_indices_dp,
    banzhaf_dp,
    fill_table,
    shapley_dp,
    swing_counts_dp,
)
from liquidpower.exact import MeasureKind, all_indices_exact, power_index, swing_size_counts

import oracle
from support import banzhaf_of, eight_voter_election, random_election, shapley_of


def _cells(row, cell_bits):
    """The cells of a packed int, lowest first, up to its last nonzero one."""
    mask = (1 << cell_bits) - 1
    return [row >> w * cell_bits & mask for w in range(-(-row.bit_length() // cell_bits))]


def test_ordering_on_the_eight_voter_fixture():
    e = eight_voter_election()
    order = list(e.forest.order)
    assert order == [0, 1, 2, 3, 4, 5, 6, 7]
    assert [e.forest.subtree_size[v] for v in order] == [1, 1, 3, 1, 1, 2, 4, 5]


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6))
def test_every_subtree_is_a_contiguous_block(seed):
    rng = random.Random(seed)
    e = random_election(rng, n_min=1, n_max=10)
    order = list(e.forest.order)
    assert sorted(order) == list(range(e.n))
    for p, v in enumerate(order):
        t = e.forest.subtree_size[v]
        block = set(order[p - t + 1 : p + 1])
        assert block == set(e.forest.subtree[v])
        assert order[e.forest.end[v] - 1] == v
        assert e.forest.subtree_of(v) == e.forest.subtree[v]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_uncapped_rows_count_all_subsets(seed):
    rng = random.Random(seed)
    e = random_election(rng, n_min=1, n_max=8)
    order = list(e.forest.order)
    weights = [e.weights[v] for v in order]
    sizes = [e.forest.subtree_size[v] for v in order]
    total, bits = sum(weights), e.n + 2
    rows = fill_table(weights, sizes, total, 0, start=1, cell_bits=bits)
    for j, row in enumerate(rows):
        assert sum(_cells(row, bits)) == 1 << j
    # with a slot wider than any count, sizes stay apart: (1 + y)**j
    slot_bits = e.n + 2
    y = 1 << slot_bits
    rows = fill_table(weights, sizes, total, slot_bits, start=[1], cell_bits=bits)
    for j, row in enumerate(rows):
        assert sum(row) == (1 + y) ** j


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_a_fill_continued_from_a_start_row_equals_one_fill(seed):
    rng = random.Random(seed)
    e = random_election(rng, n_min=2, n_max=9)
    order = list(e.forest.order)
    weights = [e.weights[v] for v in order]
    sizes = [e.forest.subtree_size[v] for v in order]
    # split between whole trees, so both parts are runs of whole blocks
    ends = [p + 1 for p, v in enumerate(order) if e.forest.guru[v] == v]
    split = rng.choice([0] + ends)
    total = sum(weights)  # the cap of an uncapped fill
    cap = rng.choice([total, rng.randint(0, total)])
    slot_bits = rng.choice([0, e.n + 2])
    cell_bits = e.n + 2  # the packed rows' width, for every part
    empty = [1] if slot_bits else 1
    head = fill_table(
        weights[:split], sizes[:split], cap, slot_bits, start=empty, cell_bits=cell_bits
    )[-1]
    tail = fill_table(
        weights[split:], sizes[split:], cap, slot_bits, start=head, cell_bits=cell_bits
    )
    whole = fill_table(weights, sizes, cap, slot_bits, start=empty, cell_bits=cell_bits)
    assert tail == whole[split:]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_packed_rows_are_the_sized_rows_at_y_equal_1(seed):
    rng = random.Random(seed)
    e = random_election(rng, n_min=1, n_max=9)
    order = list(e.forest.order)
    weights = [e.weights[v] for v in order]
    sizes = [e.forest.subtree_size[v] for v in order]
    ends = [p + 1 for p, v in enumerate(order) if e.forest.guru[v] == v]
    split = rng.choice([0] + ends)
    total = sum(weights)  # the cap of an uncapped fill
    cap = rng.choice([total, rng.randint(0, total)])
    bits = e.n + 2  # both the sized rows' slots and the packed rows' cells
    sized = fill_table(weights[:split], sizes[:split], cap, bits, start=[1], cell_bits=bits)[-1]
    sized = fill_table(weights[split:], sizes[split:], cap, bits, start=sized, cell_bits=bits)
    packed = fill_table(weights[:split], sizes[:split], cap, 0, start=1, cell_bits=bits)[-1]
    packed = fill_table(weights[split:], sizes[split:], cap, 0, start=packed, cell_bits=bits)
    assert len(packed) == len(sized)
    for packed_row, sized_row in zip(packed, sized):
        at_one = [sum(_cells(cell, bits)) for cell in sized_row]
        cells = _cells(packed_row, bits)
        assert cells + [0] * (len(at_one) - len(cells)) == at_one


def test_eight_voter_reference_values_via_tables():
    e = eight_voter_election()
    assert banzhaf_dp(e, 7) == Fraction(1, 2)
    assert banzhaf_dp(e, 5) == Fraction(1, 16)
    assert shapley_dp(e, 7) == Fraction(19, 60)
    assert shapley_dp(e, 5) == Fraction(1, 30)
    assert swing_counts_dp(e, 7) == (0, 0, 5, 18, 24, 14, 3, 0)


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
    assert sum(swing_counts_dp(e, 4)) == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_tables_match_enumeration_everywhere(seed):
    rng = random.Random(seed)
    e = random_election(rng, n_min=1, n_max=9, w_max=4)
    for v in range(e.n):
        assert list(swing_counts_dp(e, v)) == swing_size_counts(e, v)
        assert banzhaf_dp(e, v) == banzhaf_of(e, v)
        assert shapley_dp(e, v) == shapley_of(e, v)


def test_report_matches_exact_report():
    e = eight_voter_election()
    for kind in MeasureKind:
        dp_report = all_indices_dp(e, kind)
        assert dp_report.values == tuple(power_index(e, v, kind) for v in range(8))


def test_moderate_instance_smoke():
    # a 25-voter instance is far beyond enumeration but easy for the tables
    rng = random.Random(7)
    e = random_election(rng, n_min=25, n_max=25, w_max=5)
    values = [banzhaf_dp(e, v) for v in range(e.n)]
    assert all(0 <= v <= 1 for v in values)
    assert sum(all_indices_dp(e, MeasureKind.SHAPLEY).values) == 1


def _with_quota(e, quota):
    return validate(e.network, e.weights, e.profile, quota)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_all_voter_report_matches_enumeration(seed):
    rng = random.Random(seed)
    e = random_election(rng, n_min=1, n_max=9, w_max=5)
    # any legal quota, so dummies and near-dictators both occur
    e = _with_quota(e, rng.randint(1, sum(e.weights)))
    banzhaf = tuple(banzhaf_of(e, v) for v in range(e.n))
    shapley = tuple(shapley_of(e, v) for v in range(e.n))
    assert all_indices_dp(e, MeasureKind.BANZHAF).values == banzhaf
    assert all_indices_dp(e, MeasureKind.SHAPLEY).values == shapley


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6))
def test_single_voter_route_matches_the_all_voter_walk(seed):
    rng = random.Random(seed)
    e = random_election(rng, n_min=10, n_max=30, w_max=8, delegate_prob=0.75)
    e = _with_quota(e, rng.randint(1, sum(e.weights)))
    banzhaf = all_indices_dp(e, MeasureKind.BANZHAF).values
    shapley = all_indices_dp(e, MeasureKind.SHAPLEY).values
    for v in range(e.n):
        assert banzhaf_dp(e, v) == banzhaf[v]
        assert shapley_dp(e, v) == shapley[v]


def test_counts_near_two_to_the_n_fit_their_cells():
    # 200 equal self-voters: a voter swings the coalitions of exactly q - 1
    # others, C(199, q - 1) of them, close to 2**199 at the majority quota
    n = 200
    e = validate(SocialNetwork.from_arcs(n, []), (1,) * n, DelegationProfile((SELF,) * n), 1)
    for quota in (1, n // 2 + 1, n):
        value = Fraction(comb(n - 1, quota - 1), 2 ** (n - 1))
        e = _with_quota(e, quota)
        assert all_indices_dp(e, MeasureKind.BANZHAF).values == (value,) * n
        assert banzhaf_dp(e, n - 1) == value


def test_weights_near_a_million_match_enumeration():
    # about two million cells per row: cheap packed, costly one int per cell
    weights = (999_983, 1_000_003, 1_000_033, 1_000_037)
    profile = DelegationProfile((SELF, SELF, SELF, 2))
    e = validate(SocialNetwork.from_arcs(4, [(3, 2)]), weights, profile, 1_999_990)
    values = all_indices_dp(e, MeasureKind.BANZHAF).values
    assert values == tuple(banzhaf_of(e, v) for v in range(4))
    assert values == (Fraction(1, 8), Fraction(1, 8), Fraction(7, 8), Fraction(1, 8))
    assert banzhaf_dp(e, 3) == Fraction(1, 8)


def test_blocks_heavier_than_the_cap_are_not_shifted_in():
    # a packed fill would shift a row by 2**70 cells for the heavy voters,
    # which lift every coalition they join past the quota
    weights = (2**70 + 1, 3, 2**70 + 3, 5, 2)
    profile = DelegationProfile((SELF, 0, SELF, 2, SELF))
    e = validate(SocialNetwork.complete(5), weights, profile, 6)
    for kind in MeasureKind:
        assert all_indices_dp(e, kind) == all_indices_exact(e, kind)
    for v in range(5):
        assert banzhaf_dp(e, v) == oracle.banzhaf(profile.choices, weights, 6, v)


def _coprime_quartet(w: int):
    """Four voters of co-prime weights near ``w``, no arcs, quota just past half."""
    weights = (w, w + 2, w + 6, 2)
    return validate(
        SocialNetwork.from_arcs(4, []), weights, DelegationProfile.all_self(4), (3 * w + 10) // 2
    )


def test_tables_too_wide_to_fill_are_refused_at_once():
    refused = [(24, MeasureKind.SHAPLEY)] + [
        (bits, kind) for bits in (28, 32, 63) for kind in MeasureKind
    ]
    for bits, kind in refused:
        e = _coprime_quartet(2**bits + 5)
        started = time.perf_counter()
        with pytest.raises(InstanceTooLargeForEnumeration, match=f"cap of {TABLE_SLOT_CAP}"):
            all_indices_dp(e, kind)
        with pytest.raises(InstanceTooLargeForEnumeration, match="size slots"):
            (banzhaf_dp if kind is MeasureKind.BANZHAF else shapley_dp)(e, 0)
        assert time.perf_counter() - started < 0.01


def test_tables_within_the_cap_are_filled():
    # 5 rows of about 1.6M weight cells: 7.9M slots for the swing count and
    # 39M for the ordering measure, both under the cap
    e = _coprime_quartet(2**20 + 5)
    values = all_indices_dp(e, MeasureKind.BANZHAF).values
    assert values == tuple(banzhaf_of(e, v) for v in range(4))
    assert values == (Fraction(1, 2),) * 3 + (Fraction(0),)
    assert shapley_dp(e, 3) == 0


def test_scaling_weights_and_quota_changes_no_value():
    e = random_election(
        random.Random(10_001), n_min=20, n_max=20, w_max=4, delegate_prob=0.75
    )
    scaled = validate(
        e.network, tuple(100 * w for w in e.weights), e.profile, 100 * e.quota
    )
    for kind in MeasureKind:
        assert all_indices_dp(scaled, kind).values == all_indices_dp(e, kind).values


def _frame_depth() -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_a_unanimity_chain_needs_no_deep_recursion():
    # voter i delegates to i - 1; only the whole electorate reaches the quota
    n = 250
    network = SocialNetwork.from_arcs(n, [(i, i - 1) for i in range(1, n)])
    profile = DelegationProfile((SELF,) + tuple(range(n - 1)))
    e = validate(network, (1,) * n, profile, n)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frame_depth() + 100)
    try:
        banzhaf = all_indices_dp(e, MeasureKind.BANZHAF).values
        shapley = all_indices_dp(e, MeasureKind.SHAPLEY).values
        single = (banzhaf_dp(e, n - 1), shapley_dp(e, n - 1))
    finally:
        sys.setrecursionlimit(limit)
    assert banzhaf == (Fraction(1, 2 ** (n - 1)),) * n
    assert shapley == (Fraction(1, n),) * n
    assert single == (banzhaf[-1], shapley[-1])


def _fills(monkeypatch) -> list[tuple[int, int]]:
    """Record ``(steps, weight_cap)`` of every fill the walk makes from here on."""
    fills: list[tuple[int, int]] = []
    real = dp.fill_table

    def counting(weights_seq, block_sizes, weight_cap, *args, **kwargs):
        fills.append((len(weights_seq), weight_cap))
        return real(weights_seq, block_sizes, weight_cap, *args, **kwargs)

    monkeypatch.setattr(dp, "fill_table", counting)
    return fills


def _cells_filled(fills) -> int:
    """Weight cells the recorded fills compute: one per step and cell."""
    return sum(steps * (cap + 1) for steps, cap in fills)


def test_the_all_voter_walk_pairs_siblings_by_block_size(monkeypatch):
    # criterion 10's 120-voter game: halving the siblings by count took
    # 1,185 fill steps, a Huffman merge of their blocks takes 808; rows
    # from 0 up to the reduced quota filled 220,217 cells, windowed rows
    # fill 107,281
    e = random_election(
        random.Random(10_001), n_min=120, n_max=120, w_max=8, delegate_prob=0.75
    )
    fills = _fills(monkeypatch)
    values = all_indices_dp(e, MeasureKind.BANZHAF).values
    assert sum(steps for steps, _ in fills) <= 810
    assert _cells_filled(fills) <= 112_000
    digest = hashlib.sha256(" ".join(map(str, values)).encode()).hexdigest()
    assert digest == "396f344a8c1c046812c33ebafc7570ba13a7bd97ea86b00d1e0a5bfa2baf2570"
    assert values == tuple(banzhaf_dp(e, v) for v in range(e.n))


def test_a_unanimity_star_fills_only_its_narrow_windows(monkeypatch):
    # 399 unit leaves under one unit guru, quota 400: each leaf's window is
    # the one cell 399, so the leave-one-out rows stay as narrow as the
    # blocks still to come (rows from 0 to the quota filled 1,388,121 cells)
    n = 400
    e = _forest_election(_forest_choices((LEAF,) * (n - 1)), [1] * n, n)
    fills = _fills(monkeypatch)
    values = all_indices_dp(e, MeasureKind.BANZHAF).values
    assert _cells_filled(fills) <= 400_000
    assert values == (Fraction(1, 2 ** (n - 1)),) * n


def _chain(size: int) -> tuple:
    """A subtree of ``size`` voters, each delegating to the next."""
    tree: tuple = ()
    for _ in range(size - 1):
        tree = (tree,)
    return tree


def _forest_choices(*trees) -> tuple:
    """The choices of a forest written as nested tuples: a voter is the
    tuple of its delegators' subtrees, and each tree's root votes."""
    choices: list = []

    def add(tree, parent):
        v = len(choices)
        choices.append(parent)
        for child in tree:
            add(child, v)

    for tree in trees:
        add(tree, SELF)
    return tuple(choices)


def _forest_election(choices, weights, quota):
    arcs = [(v, c) for v, c in enumerate(choices) if c is not SELF]
    network = SocialNetwork.from_arcs(len(choices), arcs)
    return validate(network, tuple(weights), DelegationProfile(choices), quota)


LEAF = ()
FAN_OUTS = {
    # children's blocks of 1, 1, 2, 4 and 7 voters, the last a fan-out itself
    "far apart": _forest_choices(
        (LEAF, LEAF, _chain(2), _chain(4), (LEAF, LEAF, _chain(2), _chain(2)))
    ),
    # three blocks of 2 and two of 1 under one voter, two equal gurus beside it
    "ties": _forest_choices((_chain(2), _chain(2), _chain(2), LEAF, LEAF), LEAF, LEAF),
    "star": _forest_choices((LEAF,) * 13),
    "small star": _forest_choices((LEAF,) * 7),
}


@pytest.mark.parametrize("shape", FAN_OUTS)
def test_wide_unbalanced_fan_outs_match_enumeration(shape):
    choices = FAN_OUTS[shape]
    n = len(choices)
    weights = [1 + v % 3 for v in range(n)]
    total = sum(weights)
    for quota in (1, total // 3, total // 2 + 1, total - 1, total):
        e = _forest_election(choices, weights, quota)
        for kind in MeasureKind:
            values = all_indices_dp(e, kind).values
            assert values == all_indices_exact(e, kind).values
            if n <= 10:
                term = oracle.banzhaf if kind is MeasureKind.BANZHAF else oracle.shapley
                assert values == tuple(term(choices, weights, quota, v) for v in range(n))
            single = banzhaf_dp if kind is MeasureKind.BANZHAF else shapley_dp
            for v in range(n):
                if e.forest.subtree_size[v] == 1:
                    assert single(e, v) == values[v]


def test_equal_blocks_are_paired_the_same_way_every_time(monkeypatch):
    e = _forest_election(FAN_OUTS["ties"], [2] * 11, 9)
    fills = _fills(monkeypatch)
    first = all_indices_dp(e, MeasureKind.SHAPLEY).values
    # Huffman's sum of block size x depth: 13 over the gurus' blocks (9, 1,
    # 1), 19 over voter 0's (2, 2, 2, 1, 1 and its empty member) and 1 under
    # each block of 2; halving by count takes 21 under voter 0
    assert sum(steps for steps, _ in fills) == 35
    once = list(fills)
    fills.clear()
    assert all_indices_dp(e, MeasureKind.SHAPLEY).values == first
    assert fills == once


def test_a_leaf_heavy_enough_to_close_the_gap_alone():
    # voter 1 delegates to voter 0 (weight 1) and carries 6 of quota 7: its
    # reduced quota is 6, so it swings every outside coalition holding voter 0
    choices = _forest_choices((LEAF, LEAF, LEAF), LEAF)
    weights = [1, 6, 1, 2, 1]
    e = _forest_election(choices, weights, 7)
    terms = {MeasureKind.BANZHAF: oracle.banzhaf, MeasureKind.SHAPLEY: oracle.shapley}
    for kind, term in terms.items():
        values = all_indices_dp(e, kind).values
        assert values == tuple(term(choices, weights, 7, v) for v in range(e.n))
        assert values == all_indices_exact(e, kind).values
    assert banzhaf_dp(e, 1) == Fraction(1, 2)


def test_the_far_apart_fan_out_at_27_voters_matches_the_single_voter_walks():
    # children's blocks of 1, 1, 2, 7 and 15: past enumeration, so checked
    # against the chain-only walk, which fills all siblings in one run
    choices = _forest_choices(
        (LEAF, LEAF, _chain(2), (LEAF, LEAF, _chain(2), _chain(2)), _chain(15))
    )
    n = len(choices)
    weights = [1 + v % 4 for v in range(n)]
    e = _forest_election(choices, weights, sum(weights) // 2 + 1)
    banzhaf = all_indices_dp(e, MeasureKind.BANZHAF).values
    shapley = all_indices_dp(e, MeasureKind.SHAPLEY).values
    assert banzhaf == tuple(banzhaf_dp(e, v) for v in range(n))
    assert shapley == tuple(shapley_dp(e, v) for v in range(n))
    assert sum(shapley) == 1


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_power_never_decreases_along_a_delegation_arc(seed):
    # the paper's observation: if u delegates to v and swings C, then v
    # swings C + u - v, a coalition of the same size
    rng = random.Random(seed)
    e = random_election(rng, n_min=2, n_max=30, w_max=9, delegate_prob=0.7)
    e = _with_quota(e, rng.randint(1, sum(e.weights)))
    parent = e.forest.parent
    values = {kind: all_indices_dp(e, kind).values for kind in MeasureKind}
    for f in values.values():
        assert all(f[v] <= f[parent[v]] for v in range(e.n))
    assert sum(values[MeasureKind.SHAPLEY]) == 1
