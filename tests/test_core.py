import json
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liquidpower import bribery, dp, exact
from liquidpower.core import (
    SELF,
    DelegationProfile,
    LiquidElection,
    SocialNetwork,
    apply_changes,
    build_forest,
    election_from_json,
    election_to_json,
    find_delegation_cycle,
    instance_digest,
    profile_to_json,
    validate,
)
from liquidpower.errors import (
    ArcNotInNetwork,
    CycleInDelegations,
    NonPositiveWeight,
    QuotaOutOfRange,
)
from liquidpower.exact import MeasureKind

import oracle
from support import eight_voter_election, random_election, random_network, random_profile


def test_eight_voter_forest_structure():
    e = eight_voter_election()
    f = e.forest
    assert f.gurus == (2, 7)
    assert f.guru == (2, 2, 2, 7, 7, 7, 7, 7)
    assert f.chain[0] == (0, 2)
    assert f.chain[4] == (4, 5, 6, 7)
    assert f.chain[7] == (7,)
    assert f.subtree[2] == (0, 1, 2)
    assert f.subtree[7] == (3, 4, 5, 6, 7)
    assert f.subtree[5] == (4, 5)
    assert f.subtree_size == (1, 1, 3, 1, 1, 2, 4, 5)
    assert f.acc_weight == (0, 0, 3, 0, 0, 0, 0, 5)
    assert f.delegators[6] == (3, 5)
    assert f.proxies_of(4) == (5, 6, 7)


def test_cycle_detection_reports_the_cycle():
    for choices, cycle in (
        ((1, 2, 0, SELF), [0, 1, 2]),
        ((1, 2, 1, SELF), [1, 2]),  # voter 0 hangs into the cycle
        ((1, 0, 3, 2), [0, 1]),  # no guru at all: two cycles
        ((2, 2, 3, 4, 2), [2, 3, 4]),  # no guru: two tails into one cycle
        ((SELF, 1), [1]),  # a voter delegating to itself
    ):
        with pytest.raises(CycleInDelegations) as err:
            build_forest(DelegationProfile(choices), (1,) * len(choices))
        assert sorted(err.value.cycle) == cycle


def _traced_forest(network, profile):
    """The forest of a unit-weight election, and the tracemalloc peak of
    validating it and building the forest."""
    tracemalloc.start()
    try:
        forest = validate(network, (1,) * network.n, profile).forest
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return forest, peak


def test_deep_chain_and_wide_star_forests_stay_small():
    # the forest is O(n): no per-voter chain or subtree is stored
    n = 8000
    chain_net = SocialNetwork.from_arcs(n, [(i, i + 1) for i in range(n - 1)])
    chain_profile = DelegationProfile(tuple(range(1, n)) + (SELF,))
    forest, peak = _traced_forest(chain_net, chain_profile)
    assert peak < 8 << 20
    assert forest.subtree_size == tuple(range(1, n + 1))
    assert forest.guru == (n - 1,) * n
    assert len(forest.chain_of(0)) == n
    assert forest.order == tuple(range(n))

    n = 2000
    star_net = SocialNetwork.from_arcs(n, [(i, 0) for i in range(1, n)])
    star_profile = DelegationProfile((SELF,) + (0,) * (n - 1))
    forest, peak = _traced_forest(star_net, star_profile)
    assert peak < 8 << 20
    assert forest.subtree_size[0] == n
    assert forest.subtree_size[1:] == (1,) * (n - 1)
    assert forest.delegators[0] == tuple(range(1, n))


def test_self_loop_free_cycle_finder():
    assert find_delegation_cycle((SELF, 0, 1)) is None
    assert find_delegation_cycle((1, 0)) == [0, 1] or find_delegation_cycle((1, 0)) == [1, 0]


@pytest.mark.parametrize(
    "choices, voter, choice",
    [((-1, SELF), 0, -1), ((SELF, 5), 1, 5), ((SELF, 0, 3), 2, 3), ((1, -3, SELF), 1, -3)],
)
def test_choices_outside_the_election_are_refused(choices, voter, choice):
    # a negative choice once read from the end of a list, a large one raised
    # a bare IndexError; validate refuses both first, as arcs off the network
    message = f"voter {voter}'s choice {choice} out of range"
    with pytest.raises(ValueError, match=re.escape(message)):
        build_forest(DelegationProfile(choices), (1,) * len(choices))
    with pytest.raises(ValueError, match=re.escape(message)):
        find_delegation_cycle(choices)
    network = SocialNetwork.complete(len(choices))
    with pytest.raises(ArcNotInNetwork):
        validate(network, (1,) * len(choices), DelegationProfile(choices))


def test_validate_rejects_offnetwork_delegation():
    network = SocialNetwork.from_arcs(3, [(0, 1)])
    profile = DelegationProfile((SELF, 0, SELF))
    with pytest.raises(ArcNotInNetwork):
        validate(network, (1, 1, 1), profile, 2)


def test_validate_rejects_bad_weights_and_quota():
    network = SocialNetwork.from_arcs(2, [])
    profile = DelegationProfile.all_self(2)
    with pytest.raises(NonPositiveWeight):
        validate(network, (1, 0), profile, 2)
    with pytest.raises(NonPositiveWeight):
        validate(network, (1, -3), profile, 2)
    for bad_quota in (0, -1, 3):  # total 2 -> allowed quotas: 1 and 2
        with pytest.raises(QuotaOutOfRange):
            validate(network, (1, 1), profile, bad_quota)
    assert isinstance(validate(network, (1, 1), profile, 2), LiquidElection)
    assert isinstance(validate(network, (1, 1), profile, 1), LiquidElection)


def test_apply_changes_counts_real_changes_only():
    e = eight_voter_election()
    new_profile, changed = apply_changes(
        e.profile, {0: 2, 7: SELF, 5: SELF}, e.network
    )
    assert changed == 1  # only voter 5 actually changed
    assert new_profile.choices[5] is SELF

    with pytest.raises(ArcNotInNetwork):
        apply_changes(e.profile, {0: 7}, e.network)
    # without a network the same redirect is allowed
    p2, c2 = apply_changes(e.profile, {0: 7})
    assert c2 == 1 and p2.choices[0] == 7

    # 4 already delegates to 5; the reverse arc exists and would close a loop
    with pytest.raises(CycleInDelegations):
        apply_changes(e.profile, {5: 4}, e.network)


def test_json_roundtrip_and_digest():
    e = eight_voter_election()
    doc = election_to_json(e)
    back = election_from_json(json.dumps(doc))
    assert back == e
    assert instance_digest(back) == instance_digest(e)
    assert profile_to_json(e.profile)["3"] == 3  # self-voter maps to own id
    assert profile_to_json(e.profile)["1"] == 3

    partial = dict(doc)
    del partial["quota"]
    assert not hasattr(election_from_json(partial), "quota")


def test_json_rejects_malformed_documents():
    with pytest.raises(ValueError):
        election_from_json({"n": 2, "weights": [1], "arcs": []})
    with pytest.raises(ValueError):
        election_from_json({"n": 0, "weights": [], "arcs": []})
    with pytest.raises(ValueError):
        election_from_json('{"weights": [1], "arcs": []}')


@pytest.mark.parametrize("key", ["1_0", " +1 ", "+1", "01", "\u0661", "", "-1", "1.0"])
def test_json_delegation_keys_are_canonical_voter_ids(key):
    # int() reads all of these ("1_0" as 10, the others as 1); none is an id
    doc = election_to_json(eight_voter_election())
    doc["delegations"] = {key: 3}  # voter 1's own delegation in the fixture
    with pytest.raises(ValueError, match=re.escape(repr(key))):
        election_from_json(doc)
    doc["delegations"] = {"1": 3}
    assert election_from_json(doc).profile.choices[0] == 2


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_forest_invariants_on_random_profiles(seed):
    rng = random.Random(seed)
    e = random_election(rng, n_min=1, n_max=9)
    f = e.forest
    n = e.n
    for v in range(n):
        assert f.chain[v][0] == v
        assert f.chain[v][-1] == f.guru[v]
        assert f.guru[f.guru[v]] == f.guru[v]
        assert oracle.chain_of(e.profile.choices, v) == list(f.chain[v])
        assert v in f.subtree[v]
        assert f.subtree_weight[v] == sum(e.weights[u] for u in f.subtree[v])
        if v == f.guru[v]:
            assert f.acc_weight[v] == f.subtree_weight[v]
        else:
            assert f.acc_weight[v] == 0
    # subtree sizes total the chain lengths
    assert sum(f.subtree_size) == sum(len(c) for c in f.chain)
    # delegators invert the profile
    for v in range(n):
        for d in f.delegators[v]:
            assert e.profile.choices[d] == v
    assert set(f.gurus) == {v for v in range(n) if e.profile.choices[v] is SELF}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_accumulated_weight_matches_oracle(seed):
    rng = random.Random(seed)
    e = random_election(rng, n_min=1, n_max=8)
    for v in range(e.n):
        assert e.forest.acc_weight[v] == oracle.accumulated_weight(
            e.profile.choices, e.weights, v
        )


def test_random_profile_respects_network_arcs():
    rng = random.Random(5)
    for _ in range(50):
        net = random_network(rng, 7, 0.4)
        prof = random_profile(rng, net)
        for v, c in enumerate(prof.choices):
            assert c is SELF or net.has_arc(v, c)


VOTER_ENTRY_POINTS = {
    "banzhaf_dp": dp.banzhaf_dp,
    "shapley_dp": dp.shapley_dp,
    "swing_counts_dp": dp.swing_counts_dp,
    "power_index": lambda e, v: exact.power_index(e, v, MeasureKind.BANZHAF),
    "swing_size_counts": exact.swing_size_counts,
    "gamw": lambda e, v: bribery.gamw(e, v, 1),
}


@pytest.mark.parametrize("entry", sorted(VOTER_ENTRY_POINTS))
@pytest.mark.parametrize(
    "voter, error", [(-1, ValueError), (8, ValueError), (True, TypeError), (1.5, TypeError)]
)
def test_voter_indices_outside_the_election_are_refused(entry, voter, error):
    with pytest.raises(error, match="out of range" if error is ValueError else "integer"):
        VOTER_ENTRY_POINTS[entry](eight_voter_election(), voter)
