import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import liquidpower
from liquidpower import exact
from liquidpower.core import DelegationProfile, SocialNetwork, validate
from liquidpower.dp import all_indices_dp, swing_counts_dp
from liquidpower.errors import InstanceTooLargeForEnumeration
from liquidpower.exact import (
    MeasureKind,
    _kernel_counts,
    _winning_set,
    all_indices_exact,
    measure_weights,
    counts_to_power,
    power_index,
    swing_size_counts,
)
from liquidpower.semantics import compose

import oracle
from support import (
    _swing_counts_plain,
    banzhaf_of,
    eight_voter_election,
    random_composable_pair,
    random_election,
    shapley_of,
    three_voter_line_election,
)


def test_eight_voter_reference_values():
    e = eight_voter_election()
    assert banzhaf_of(e, 7) == Fraction(1, 2)
    assert banzhaf_of(e, 5) == Fraction(1, 16)
    # confirmed independently by tests/oracle.py
    assert shapley_of(e, 7) == Fraction(19, 60)
    assert shapley_of(e, 5) == Fraction(1, 30)
    assert banzhaf_of(e, 4) == 0  # ballot passes through quota-heavy proxies
    counts = swing_size_counts(e, 7)
    assert counts == [0, 0, 5, 18, 24, 14, 3, 0]


def test_three_voter_chain_extension_drains_power():
    before = three_voter_line_election(delegate_third=False)
    after = three_voter_line_election(delegate_third=True)
    assert banzhaf_of(before, 0) == Fraction(3, 4)
    assert shapley_of(before, 0) == Fraction(2, 3)
    assert banzhaf_of(after, 0) == Fraction(1, 2)
    assert shapley_of(after, 0) == Fraction(1, 2)


def test_dictator_and_dummy_extremes():
    # the star root alone covers the quota: dictator; its followers are dummies
    network = SocialNetwork.from_arcs(3, [(1, 0), (2, 0)])
    profile = DelegationProfile((None, 0, 0))
    e = validate(network, (2, 1, 1), profile, 2)
    assert banzhaf_of(e, 0) == 1
    assert shapley_of(e, 0) == 1
    for v in (1, 2):
        assert banzhaf_of(e, v) == 0
        assert shapley_of(e, v) == 0


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6))
def test_both_enumeration_routes_agree(seed):
    # the bit-sliced count against the plain reference (tests/support.py)
    rng = random.Random(seed)
    e = random_election(rng, n_min=1, n_max=8)
    for v in range(e.n):
        assert swing_size_counts(e, v) == _swing_counts_plain(e, v)


def test_overflowing_weights_are_counted_like_the_oracle():
    # coprime weights whose total overflows int64: 65 bit planes, no table
    weights = (2**62, 2**62 + 1, 2**62 + 3)
    profile = DelegationProfile((None, 0, None))
    e = validate(SocialNetwork.complete(3), weights, profile, 2**63)
    report = all_indices_exact(e, MeasureKind.BANZHAF)
    expected = tuple(
        oracle.banzhaf(profile.choices, weights, 2**63, v) for v in range(3)
    )
    assert report.values == expected == (Fraction(3, 4), Fraction(1, 4), Fraction(1, 4))


def test_seventeen_voters_are_enumerated_like_the_dp():
    rng = random.Random(17_017)
    e = random_election(rng, n_min=17, n_max=17, w_max=5)
    voter = rng.randrange(e.n)
    assert swing_size_counts(e, voter) == list(swing_counts_dp(e, voter))


def _crossing_election(rng, n, w_max=8):
    """A random election on ``n > 16`` voters with a delegation chain that
    holds voters on both sides of bit 16 (the old coalition-table limit)."""
    low = (1 << 16) - 1
    while True:
        e = random_election(rng, n_min=n, n_max=n, w_max=w_max, delegate_prob=0.8)
        if any(m & low and m >> 16 for m in e.forest.chain_mask):
            return e


@pytest.mark.parametrize("n", range(17, 23))
def test_seventeen_to_twenty_two_voters_match_the_dp(n):
    rng = random.Random(30_000 + n)
    e = _crossing_election(rng, n)
    for kind in MeasureKind:
        assert all_indices_exact(e, kind) == all_indices_dp(e, kind)
    voter = rng.randrange(n)
    assert swing_size_counts(e, voter) == list(swing_counts_dp(e, voter))


def test_huge_coprime_weights_past_sixteen_voters_match_oracle_and_dp():
    # weights past 2**70 whose gcd is 1: 74 bit planes; the quota is
    # small enough for the DP's tables, large enough that light coalitions lose
    rng = random.Random(30_017)
    n = 17
    weights = tuple(
        (1 << 70) + 2 * v + 1 if v % 3 == 0 else rng.randint(1, 9) for v in range(n)
    )
    base = _crossing_election(rng, n)
    e = validate(base.network, weights, base.profile, 25)
    assert sum(weights) >= 1 << 72
    for kind in MeasureKind:
        assert all_indices_exact(e, kind) == all_indices_dp(e, kind)
    # the oracle on one heavy and one light voter (each takes about 0.6 s)
    for v in (0, 1):
        assert power_index(e, v, MeasureKind.BANZHAF) == oracle.banzhaf(
            e.profile.choices, weights, e.quota, v
        )


def test_a_kernel_over_its_memory_cap_is_sliced(monkeypatch):
    rng = random.Random(30_100)
    e = random_election(rng, n_min=7, n_max=7, w_max=9)
    top = (sum(e.weights) // math.gcd(*e.weights)).bit_length()
    cost = 2 * e.n + top + 5  # live sets of the planes' pass, per coalition
    plain = [_swing_counts_plain(e, v) for v in range(e.n)]
    # the whole game in one slice, then two slices, then one coalition a slice
    for bits in (cost << e.n, (cost << e.n) - 1, cost):
        monkeypatch.setattr(exact, "KERNEL_BITS", bits)
        wins = _winning_set(e, range(e.n), e.n)
        assert _kernel_counts(wins, e.n, range(e.n)) == plain
        assert [swing_size_counts(e, v) for v in range(e.n)] == plain


def test_every_slice_count_matches_plain_enumeration(monkeypatch):
    rng = random.Random(34_001)
    for _ in range(12):
        e = random_election(rng, n_min=1, n_max=8, w_max=20)
        top = (sum(e.weights) // math.gcd(*e.weights)).bit_length()
        plain = [_swing_counts_plain(e, v) for v in range(e.n)]
        for h in range(1, e.n + 1):  # slices over the top h coalition bits
            monkeypatch.setattr(exact, "KERNEL_BITS", (2 * e.n + top + 5) << e.n - h)
            assert [swing_size_counts(e, v) for v in range(e.n)] == plain


def test_composed_games_are_counted_like_plain_enumeration(monkeypatch):
    rng = random.Random(34_002)
    whole = exact.KERNEL_BITS
    for round_ in range(40):
        e1, e2, shared = random_composable_pair(rng, joint_max=10)
        n = e1.n + e2.n - len(shared)
        # every fourth round, a budget of 2**n bits slices every part's planes
        monkeypatch.setattr(exact, "KERNEL_BITS", 1 << n if round_ % 4 == 0 else whole)
        for mode in ("and", "or"):
            game = compose(e1, e2, mode, shared)
            plain = [_swing_counts_plain(game, v) for v in range(game.n_voters)]
            for kind in MeasureKind:
                weights = measure_weights(kind, game.n_voters)
                report = all_indices_exact(game, kind)
                assert report.values == tuple(counts_to_power(c, *weights) for c in plain)


def test_other_games_are_refused_by_type():
    class Small:
        n_voters = 3

        def value_of(self, mask):
            return 0

    with pytest.raises(TypeError, match="LiquidElection or a ComposedGame"):
        swing_size_counts(Small(), 0)


# Run in a fresh interpreter, so imports made earlier in the suite cannot mask
# what importing and counting loads.
FRESH_COUNT = """
import sys
import liquidpower.dp, liquidpower.exact
loaded = ["numpy" in sys.modules]
from liquidpower.core import DelegationProfile, SocialNetwork, validate
from liquidpower.exact import MeasureKind, all_indices_exact, power_index

e = validate(SocialNetwork.complete(3), (2, 1, 1), DelegationProfile((None, 0, None)), 3)
report = all_indices_exact(e, MeasureKind.SHAPLEY)
value = power_index(e, 2, MeasureKind.BANZHAF)
loaded += ["numpy" in sys.modules, "liquidpower.semantics" in sys.modules]
print(report.total, value, *loaded)
"""


def _run_fresh(script: str) -> list[str]:
    """The words ``script`` prints, run in a fresh interpreter."""
    root = str(Path(liquidpower.__file__).parents[1])
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()


def test_importing_the_enumerators_loads_no_numpy():
    # nor does counting an election: every exact route is plain Python
    assert _run_fresh(FRESH_COUNT) == ["1", "1/4", "False", "False", "False"]


FRESH_WEIGHTMAX = """
import sys
import liquidpower.weightmax
numpy_loaded = "numpy" in sys.modules
from liquidpower.weightmax import solve_fpt_colorcoding, wmaxp_exact
print(numpy_loaded, wmaxp_exact.__name__, solve_fpt_colorcoding.__name__)
"""


def test_importing_weightmax_loads_no_numpy():
    # the tree routes are plain Python; the numpy routes are served on demand
    assert _run_fresh(FRESH_WEIGHTMAX) == ["False", "wmaxp_exact", "solve_fpt_colorcoding"]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_matches_oracle_on_randoms(seed):
    rng = random.Random(seed)
    e = random_election(rng, n_min=1, n_max=7)
    for v in range(e.n):
        assert banzhaf_of(e, v) == oracle.banzhaf(
            e.profile.choices, e.weights, e.quota, v
        )
        assert shapley_of(e, v) == oracle.shapley(
            e.profile.choices, e.weights, e.quota, v
        )


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_pivotal_measure_distributes_one_unit(seed):
    rng = random.Random(seed)
    e = random_election(rng, n_min=1, n_max=8)
    report = all_indices_exact(e, MeasureKind.SHAPLEY)
    assert report.total == 1


@pytest.mark.parametrize("kind", list(MeasureKind))
def test_measure_weights_price_every_swing_like_the_oracle(kind):
    for n in range(1, 31):
        weights = measure_weights(kind, n)
        # a voter who swings every coalition of the others has all the power
        assert counts_to_power([comb(n - 1, s) for s in range(n)], *weights) == 1
        for s in range(n):
            one_swing = [int(size == s) for size in range(n)]
            if kind is MeasureKind.BANZHAF:
                term = oracle.banzhaf_term(n)
            else:
                term = oracle.shapley_term(n, s)
            assert counts_to_power(one_swing, *weights) == term
    with pytest.raises(ValueError):
        counts_to_power([1], *measure_weights(kind, 2))


def test_enumeration_guard():
    class Big:
        n_voters = 25

        def value_of(self, mask):
            return 0

    with pytest.raises(InstanceTooLargeForEnumeration):
        swing_size_counts(Big(), 0)


def test_report_is_in_voter_order():
    e = eight_voter_election()
    report = all_indices_exact(e, MeasureKind.BANZHAF)
    assert report.values[7] == Fraction(1, 2)
    assert report.values == tuple(banzhaf_of(e, v) for v in range(8))


def test_string_kinds_take_the_enum_branch():
    e = eight_voter_election()
    args = (e.profile.choices, e.weights, e.quota, 7)
    assert power_index(e, 7, "banzhaf") == oracle.banzhaf(*args)
    assert power_index(e, 7, "shapley") == oracle.shapley(*args)
    with pytest.raises(ValueError):
        power_index(e, 7, "penrose")

