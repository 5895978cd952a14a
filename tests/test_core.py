import json
import random
import re
import tracemalloc
from dataclasses import fields
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liquidpower import bribery, core, dp, exact
from liquidpower.core import (
    SELF,
    DelegationProfile,
    LiquidElection,
    SocialNetwork,
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
    assert f.chain_of(0) == (0, 2)
    assert f.chain_of(4) == (4, 5, 6, 7)
    assert f.chain_of(7) == (7,)
    assert f.subtree_of(2) == (0, 1, 2)
    assert f.subtree_of(7) == (3, 4, 5, 6, 7)
    assert f.subtree_of(5) == (4, 5)
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
        ((SELF, 3, 1, 2), [1, 3, 2]),  # in walk order, not sorted
        ((SELF, 1), [1]),  # a voter delegating to itself
    ):
        with pytest.raises(CycleInDelegations) as err:
            build_forest(DelegationProfile(choices), (1,) * len(choices))
        assert err.value.cycle == cycle


@pytest.mark.parametrize("build", ["validate", "json", "constructor"])
def test_a_cyclic_profile_on_network_arcs_is_refused_naming_its_cycle(build):
    network = SocialNetwork.complete(4)
    profile = DelegationProfile((1, 2, 0, SELF))
    message = re.escape("delegations contain a cycle: 0 -> 1 -> 2") + "$"
    with pytest.raises(CycleInDelegations, match=message) as err:
        if build == "validate":
            validate(network, (1,) * 4, profile, 2)
        elif build == "json":
            doc = {"n": 4, "weights": [1] * 4, "arcs": [[a + 1, b + 1] for a, b in network.arcs()]}
            election_from_json({**doc, "delegations": {"1": 2, "2": 3, "3": 1}, "quota": 2})
        else:
            LiquidElection(network, (1,) * 4, profile, 2)
    assert err.value.cycle == [0, 1, 2]


def test_an_election_proves_acyclicity_with_one_walk(monkeypatch):
    # the forest an election keeps is its only acyclicity proof: the cycle
    # finder runs only to name the cycle of a cyclic profile
    assert [f.name for f in fields(LiquidElection) if not f.init] == ["forest"]

    def fail(choices):
        raise AssertionError("find_delegation_cycle ran on an acyclic profile")

    monkeypatch.setattr(core, "find_delegation_cycle", fail)
    e = election_from_json(election_to_json(eight_voter_election()))
    choices = list(e.profile.choices)
    for voter, choice in {0: 2, 7: SELF, 5: SELF}.items():  # only voter 5 changes
        choices[voter] = choice
    new_profile = DelegationProfile(tuple(choices))
    assert e.profile.changed_voters(new_profile) == (5,)
    bribed = e.with_profile(new_profile)
    assert bribed.quota == e.quota and bribed.forest.gurus == (2, 5, 7)
    monkeypatch.undo()
    choices[5] = 4
    with pytest.raises(CycleInDelegations, match=re.escape("cycle: 4 -> 5") + "$"):
        e.with_profile(DelegationProfile(tuple(choices)))


def _traced_forest(network, profile):
    """The forest of a unit-weight election, and the tracemalloc peak of
    validating it and building the forest."""
    tracemalloc.start()
    try:
        forest = validate(network, (1,) * network.n, profile, 1).forest
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


@pytest.mark.parametrize(
    "rows, voter",
    [
        (((2, 1), (), (1,)), 0),  # unsorted
        (((1, 1), ()), 0),  # duplicated
        (((0,),), 0),  # a self-loop
        (((), (0, 1)), 1),  # a self-loop past the ends' checks
        (((2,), ()), 0),  # past the last voter
        (((-1,), ()), 0),  # before the first voter
    ],
)
def test_malformed_network_rows_are_refused(rows, voter):
    message = f"malformed out-neighbor list for voter {voter}: {rows[voter]}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SocialNetwork(rows)


def test_network_and_profile_sizes_are_checked():
    with pytest.raises(ValueError, match=re.escape("arc (0, 2) out of range for n=2")):
        SocialNetwork.from_arcs(2, [(0, 2)])
    assert SocialNetwork.from_arcs(3, [(2, 1), (0, 2), (0, 1), (0, 2)]).out_neighbors == (
        (1, 2), (), (1,),
    )
    with pytest.raises(ValueError, match="profiles have different sizes"):
        DelegationProfile.all_self(2).changed_voters(DelegationProfile.all_self(3))


def test_self_loop_free_cycle_finder():
    assert find_delegation_cycle((SELF, 0, 1)) is None
    assert find_delegation_cycle((1, 0)) == [0, 1]


@pytest.mark.parametrize(
    "starts, parent, cycle",
    [
        ([10, 30, 20], {10: 30, 30: 20, 20: 30}, [30, 20]),  # ids need not be 0..n-1
        ([5, 7, 9], {5: 7, 7: 9, 9: 5}, [5, 7, 9]),
        ([5, 7, 9], {5: 7, 7: 9, 9: None}, None),  # a stop vertex breaks that cycle
        ([0, 2], {0: 1, 1: None, 2: 1}, None),  # walk 2 ends where walk 0 went
        ([0, 2, 3], {0: 1, 1: None, 2: 1, 3: 4, 4: 3}, [3, 4]),
        ([0, 2], {0: 1, 1: 0, 2: 3, 3: 2}, [0, 1]),  # the first start's cycle
        ([2, 0], {0: 1, 1: 0, 2: 3, 3: 2}, [2, 3]),
        ([3, 0], {0: 1, 1: 0, 2: 3, 3: 2}, [3, 2]),
    ],
)
def test_first_cycle_walks_the_starts_in_order(starts, parent, cycle):
    assert core.first_cycle(starts, parent.get) == cycle


@pytest.mark.parametrize(
    "choices, voter, choice",
    [
        ((-1, SELF), 0, -1),
        ((SELF, 5), 1, 5),
        ((SELF, 0, 3), 2, 3),
        ((1, -3, SELF), 1, -3),
        ((True, SELF), 0, True),
        ((SELF, 0.0), 1, 0.0),
        ((SELF, 0, "1"), 2, "1"),
        ((0.0, 0), 0, 0.0),
        ((False, 0), 0, False),
    ],
)
def test_choices_outside_the_election_are_refused(choices, voter, choice):
    # a negative choice once read from the end of a list, a large one raised
    # a bare IndexError, a float one a bare TypeError and a bool one built an
    # election; the profile refuses each when built, as voter_field does
    if type(choice) is int:
        error, message = ValueError, f"voter {voter}'s choice {choice} out of range"
    else:
        error, message = TypeError, f"voter {voter}'s choice must be an integer, got {choice!r}"
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        DelegationProfile(choices)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        find_delegation_cycle(choices)
    # from_parents once read each parent by int(): True and "1" as voter 1,
    # 0.0 as voter 0; then it took a float or bool equal to its voter as SELF
    parents = tuple(v if c is SELF else c for v, c in enumerate(choices))
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        DelegationProfile.from_parents(parents)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SocialNetwork(((np.int64(1),), (np.int32(0),))), None),
        (lambda: SocialNetwork((np.array([1]), np.array([0], dtype=np.int32))), None),
        (lambda: SocialNetwork.from_arcs(2, [(np.int64(0), 1), (1, np.int32(0))]), None),
        (lambda: SocialNetwork(((True,), ())), "voter 0's out-neighbour must be an integer, got True"),
        (lambda: SocialNetwork(((), (0.0,))), "voter 1's out-neighbour must be an integer, got 0.0"),
        (lambda: SocialNetwork(((1,), ("0",))), "voter 1's out-neighbour must be an integer, got '0'"),
        # from_arcs once indexed its rows by the source first: a float raised
        # a bare TypeError and True built an arc from voter 1
        (lambda: SocialNetwork.from_arcs(3, [(1.0, 0)]), "arc source must be an integer, got 1.0"),
        (lambda: SocialNetwork.from_arcs(3, [(True, 0)]), "arc source must be an integer, got True"),
        (lambda: SocialNetwork.from_arcs(3, [(0, "1")]), "arc target must be an integer, got '1'"),
    ],
    ids=[
        "numpy", "numpy-array", "arcs-numpy", "bool", "float", "str",
        "arcs-float", "arcs-bool", "arcs-str",
    ],
)
def test_network_rows_read_ids_as_integers(build, message):
    # numpy ints pass, in rows, arcs and profiles, as in election fields, and
    # are stored as plain ints, so the election can be written back
    if message is None:
        e = LiquidElection(build(), (1, 2), DelegationProfile((np.int64(1), SELF)), 3)
        assert e.forest.gurus == (1,) and e.forest.subtree_weight[1] == 3
        assert e.network.out_neighbors == ((1,), (0,)) and e.profile.choices == (1, SELF)
        assert {type(v) for v in (*chain(*e.network.out_neighbors), e.profile.choices[0])} == {int}
        plain = LiquidElection(SocialNetwork.complete(2), (1, 2), DelegationProfile((1, SELF)), 3)
        assert instance_digest(e) == instance_digest(plain)
    else:
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            build()


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
    # every election carries its quota: no builder takes one without it
    with pytest.raises(TypeError, match="quota"):
        validate(network, [1, 1], profile)
    with pytest.raises(TypeError, match="quota"):
        LiquidElection(network, [1, 1], profile)
    message = "size mismatch: network has 2 voters, 3 weights, profile of size 2"
    with pytest.raises(ValueError, match=re.escape(message)):
        validate(network, (1, 1, 1), profile, 2)
    # the constructors run the same checks: none builds an election unchecked
    with pytest.raises(QuotaOutOfRange, match=re.escape("quota 5 outside [1, 2]")):
        LiquidElection(network, (1, 1), profile, 5)
    with pytest.raises(ArcNotInNetwork):
        LiquidElection(network, (1, 1), DelegationProfile((1, SELF)), 1)
    assert LiquidElection(network, [1, 1], profile, 2).weights == (1, 1)


@pytest.mark.parametrize(
    "weights, quota, error, message",
    [
        ((np.int64(1), np.int32(2)), np.int64(3), None, None),
        ((1, True), 2, NonPositiveWeight, "voter 1 has weight True; weights must be positive integers"),
        ((1, 1.0), 2, NonPositiveWeight, "voter 1 has weight 1.0; weights must be positive integers"),
        ((1, 1), True, QuotaOutOfRange, "quota must be an integer, got True"),
        ((1, 1), 2.0, QuotaOutOfRange, "quota must be an integer, got 2.0"),
    ],
)
def test_elections_read_integers_as_the_problem_fields_do(weights, quota, error, message):
    # operator.index without bools, as core.integer_field: numpy ints pass
    # and are stored as plain ints
    network = SocialNetwork.from_arcs(2, [])
    profile = DelegationProfile.all_self(2)
    if error is None:
        e = LiquidElection(network, weights, profile, quota)
        assert (e.weights, e.quota) == ((1, 2), 3)
        assert {type(x) for x in (*e.weights, e.quota)} == {int}
        assert e.with_profile(profile) == e
    else:
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            LiquidElection(network, weights, profile, quota)


@pytest.mark.parametrize(
    "weights, choices, quota, error",
    [
        ((0, 1, 1), (1, 0), 9, ValueError),  # sizes first
        ((0, 1, 1), (2, SELF, SELF), 9, NonPositiveWeight),  # then weights
        ((1, 1, 1), (2, 0, 1), 9, ArcNotInNetwork),  # then arcs
        ((1, 1, 1), (1, 0, SELF), 9, CycleInDelegations),  # then cycles
        ((1, 1, 1), (1, SELF, SELF), 9, QuotaOutOfRange),  # the quota last
    ],
)
def test_election_checks_run_in_order(weights, choices, quota, error):
    network = SocialNetwork.from_arcs(3, [(0, 1), (1, 0), (1, 2), (2, 1)])
    with pytest.raises(error):
        validate(network, weights, DelegationProfile(choices), quota)
    with pytest.raises(error):
        LiquidElection(network, weights, DelegationProfile(choices), quota)


def test_json_roundtrip_and_digest():
    e = eight_voter_election()
    doc = election_to_json(e)
    back = election_from_json(json.dumps(doc))
    assert back == e
    assert instance_digest(back) == instance_digest(e)
    assert profile_to_json(e.profile)["3"] == 3  # self-voter maps to own id
    assert profile_to_json(e.profile)["1"] == 3

    # a document without a quota is refused as one without any other field;
    # a null quota is not an integer
    del doc["quota"]
    with pytest.raises(ValueError, match="^instance document missing field 'quota'$"):
        election_from_json(doc)
    with pytest.raises(QuotaOutOfRange, match="^quota must be an integer, got None$"):
        election_from_json({**doc, "quota": None})


def test_json_rejects_malformed_documents():
    with pytest.raises(ValueError, match="^'weights' must be a list of length n$"):
        election_from_json({"n": 2, "weights": [1], "arcs": [], "quota": 1})
    with pytest.raises(ValueError, match="^'weights' must be a list of length n$"):
        election_from_json({"n": 1, "weights": 1, "arcs": [], "quota": 1})
    with pytest.raises(ValueError):
        election_from_json({"n": 0, "weights": [], "arcs": []})
    with pytest.raises(ValueError):
        election_from_json('{"weights": [1], "arcs": []}')
    with pytest.raises(ValueError, match="instance document must be a JSON object"):
        election_from_json("[1, 2]")


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
        assert f.chain_of(v)[0] == v
        assert f.chain_of(v)[-1] == f.guru[v]
        assert f.guru[f.guru[v]] == f.guru[v]
        assert oracle.chain_of(e.profile.choices, v) == list(f.chain_of(v))
        assert v in f.subtree_of(v)
        assert f.subtree_weight[v] == sum(e.weights[u] for u in f.subtree_of(v))
        if v == f.guru[v]:
            assert f.acc_weight[v] == f.subtree_weight[v]
        else:
            assert f.acc_weight[v] == 0
    # subtree sizes total the chain lengths
    assert sum(f.subtree_size) == sum(len(f.chain_of(v)) for v in range(n))
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
