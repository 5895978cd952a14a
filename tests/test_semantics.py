import random
import re
from fractions import Fraction

import pytest

from liquidpower.core import SELF, DelegationProfile, SocialNetwork, validate
from liquidpower.errors import IncompatibleOverlap
from liquidpower.semantics import compose

import oracle
from support import eight_voter_election, random_composable_pair, random_election, shapley_of


def _mask(members) -> int:
    return sum(1 << v for v in set(members))


def test_active_agents_on_eight_voter_fixture():
    e = eight_voter_election()
    choices = e.profile.choices
    # {3, 5, 7, 8} in 1-based ids
    members = [2, 4, 6, 7]
    assert oracle.active_members(choices, members) == {2, 6, 7}
    assert e.coalition_weight_of_mask(_mask(members)) == 3
    assert e.value_of(_mask(members)) == 1
    # voter 4's chain (4 -> 5 -> 6 -> 7) is cut: only 7 is active
    members = [4, 6, 7]
    assert oracle.active_members(choices, members) == {6, 7}
    assert e.coalition_weight_of_mask(_mask(members)) == 2
    assert e.value_of(_mask(members)) == 0


def test_swing_on_eight_voter_fixture():
    e = eight_voter_election()
    assert e.value_of(_mask([0, 1, 2])) == 1  # whole first tree: weight 3 = quota
    assert e.value_of(_mask([2, 6])) == 0  # only 2 active
    c = _mask([3, 5, 6])
    assert e.value_of(c) == 0  # nobody's chain closed without voter 7
    assert e.value_of(c | 1 << 7) == 1  # adding 7 activates all four members
    assert e.value_of(_mask([6, 7])) == 0  # weight 2 < quota


def test_swing_matches_oracle_on_randoms():
    rng = random.Random(11)
    for _ in range(40):
        e = random_election(rng, n_min=2, n_max=7)
        voter = rng.randrange(e.n)
        others = [v for v in range(e.n) if v != voter]
        members = [v for v in others if rng.random() < 0.5]
        expected = not oracle.wins(
            e.profile.choices, e.weights, e.quota, tuple(members)
        ) and oracle.wins(
            e.profile.choices, e.weights, e.quota, tuple(members) + (voter,)
        )
        c = _mask(members)
        assert (e.value_of(c) == 0 and e.value_of(c | 1 << voter) == 1) == expected
        assert e.coalition_weight_of_mask(c) == oracle.coalition_weight(
            e.profile.choices, e.weights, members
        )


def test_distant_voter_is_a_dummy():
    e = eight_voter_election()

    def proxies_win(voter):
        return e.coalition_weight_of_mask(_mask(e.forest.proxies_of(voter))) >= e.quota

    # voter 4 (0-based): ballot passes through 5, 6, 7 whose weight reaches the quota
    assert proxies_win(4)
    assert not proxies_win(5)
    assert not proxies_win(7)
    # distant voters swing nothing
    assert oracle.swing_sizes(e.profile.choices, e.weights, e.quota, 4) == {}
    for sub in range(1 << 7):
        low = sub & (1 << 4) - 1
        mask = low | sub >> 4 << 5
        assert not (e.value_of(mask) == 0 and e.value_of(mask | 1 << 4) == 1)


def _pair_election(choices, weights, quota, arcs=None):
    n = len(choices)
    if arcs is None:
        arcs = [(v, c) for v, c in enumerate(choices) if c is not SELF]
    return validate(
        SocialNetwork.from_arcs(n, arcs),
        tuple(weights),
        DelegationProfile(tuple(choices)),
        quota,
    )


def test_compose_rejects_incompatible_overlaps():
    e1 = _pair_election((SELF, 0, SELF), (1, 2, 1), 3)
    # weight mismatch on the shared voter
    e2 = _pair_election((SELF, SELF), (5, 1), 4)
    # one delegates, the other does not
    e3 = _pair_election((1, SELF), (1, 2), 2, arcs=[(0, 1)])
    # both delegate, but the target is not shared
    e4 = _pair_election((1, SELF, SELF), (2, 1, 1), 3, arcs=[(0, 1)])
    for part_two, mode, shared, message in (
        (e1, "xor", {}, "mode must be 'and' or 'or', got 'xor'"),
        (e1, "and", [(0, 0), (0, 2)], "a part-one voter is shared twice"),
        (e1, "or", [(0, 0), (2, 0)], "a part-two voter is shared twice"),
        (e1, "and", {0: 3}, "shared pair (0, 3) out of range"),
        (e1, "and", {-1: 0}, "shared pair (-1, 0) out of range"),
        (e2, "and", {0: 0}, "shared voter (0, 0) has weights 1 != 5"),
        (e3, "or", {0: 0}, "shared voter (0, 0) disagrees on delegating"),
        (e4, "and", {1: 0}, "shared voter (1, 0) delegates outside the shared set"),
    ):
        error = ValueError if mode == "xor" else IncompatibleOverlap
        with pytest.raises(error, match=re.escape(message)):
            compose(e1, part_two, mode, shared)


def test_composed_value_follows_both_parts():
    e1 = _pair_election((SELF, 0, SELF), (1, 1, 1), 2)
    e2 = _pair_election((SELF, SELF), (1, 1), 2)
    game = compose(e1, e2, "and", {0: 0})  # shared voter: e1's 0 == e2's 0
    n = game.n_voters
    assert n == 4
    for mask in range(1 << n):
        one, two = game.part_masks(mask)
        assert game.value_of(mask) == (e1.value_of(one) & e2.value_of(two))
    game_or = compose(e1, e2, "or", {0: 0})
    for mask in range(1 << n):
        one, two = game_or.part_masks(mask)
        assert game_or.value_of(mask) == (e1.value_of(one) | e2.value_of(two))


def test_conjunction_disjunction_power_sums():
    # the pivotal-order measure splits across the two combinations exactly
    rng = random.Random(23)
    for _ in range(8):
        e1, e2, shared = random_composable_pair(rng, joint_max=8)
        both = compose(e1, e2, "and", shared)
        either = compose(e1, e2, "or", shared)
        for joint in range(both.n_voters):
            v_and = shapley_of(both, joint)
            v_or = shapley_of(either, joint)
            part = Fraction(0)
            if joint < e1.n:
                part += shapley_of(e1, joint)
            back = [j for j, jj in enumerate(both.joint_of_two) if jj == joint]
            if back:
                part += shapley_of(e2, back[0])
            assert v_and + v_or == part
