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
from liquidpower.core import DelegationProfile, SocialNetwork, validate
from liquidpower.dp import swing_counts_dp
from liquidpower.errors import InstanceTooLargeForEnumeration
from liquidpower.exact import (
    MeasureKind,
    _swing_counts_plain,
    all_indices_exact,
    measure_weights,
    counts_to_power,
    power_index,
    swing_size_counts,
)

import oracle
from support import (
    banzhaf_of,
    eight_voter_election,
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
    # elections under the table limit are counted from a coalition table
    rng = random.Random(seed)
    e = random_election(rng, n_min=1, n_max=8)
    for v in range(e.n):
        assert swing_size_counts(e, v) == _swing_counts_plain(e, v)


def test_overflowing_weights_take_the_plain_route():
    # coprime weights whose total overflows int64: no table, plain counts
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


def test_importing_the_enumerators_loads_no_numpy():
    # a fresh interpreter, so imports made earlier in the suite cannot mask it
    code = "import sys, liquidpower.dp, liquidpower.exact; print('numpy' in sys.modules)"
    root = str(Path(liquidpower.__file__).parents[1])
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.strip() == "False"


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
