"""Composition of two elections into one game.

Two games are counted by :mod:`liquidpower.exact`: an election and the
composed game here.  Each has ``n_voters`` and a 0/1 characteristic
function ``value_of`` over coalitions held as bitmasks.  An election's
(``LiquidElection.value_of``) counts only *active* members — voters whose
entire delegation chain lies inside the coalition — and compares their
total weight against the quota.  Two elections glued on shared voters make
a :class:`ComposedGame`, their conjunction or disjunction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .core import SELF, LiquidElection
from .errors import IncompatibleOverlap


@dataclass(frozen=True)
class ComposedGame:
    """Conjunction or disjunction of two elections glued on shared voters.

    The joint ground set keeps part one's voters ``0..n1-1`` and appends the
    non-shared voters of part two in ascending id order.  A joint coalition
    wins the conjunction when its restriction to each part wins that part's
    election, and the disjunction when either restriction wins.
    """

    mode: str  # "and" | "or"
    part_one: LiquidElection
    part_two: LiquidElection
    shared: tuple[tuple[int, int], ...]  # (id in part one, id in part two)
    joint_of_two: tuple[int, ...]  # part-two id -> joint id

    @property
    def n_voters(self) -> int:
        return self.part_one.n + self.part_two.n - len(self.shared)

    def part_masks(self, joint_mask: int) -> tuple[int, int]:
        one_mask = joint_mask & (1 << self.part_one.n) - 1
        two_mask = 0
        for j, joint in enumerate(self.joint_of_two):
            if joint_mask >> joint & 1:
                two_mask |= 1 << j
        return one_mask, two_mask

    def value_of(self, coalition_mask: int) -> int:
        one_mask, two_mask = self.part_masks(coalition_mask)
        a = self.part_one.value_of(one_mask)
        b = self.part_two.value_of(two_mask)
        if self.mode == "and":
            return a & b
        return a | b


def compose(
    part_one: LiquidElection,
    part_two: LiquidElection,
    mode: str,
    shared: Mapping[int, int] | Iterable[tuple[int, int]],
) -> ComposedGame:
    """Glue two elections along shared voters, as a conjunction or disjunction.

    ``shared`` maps ids in part one to ids in part two.  Shared voters must
    carry equal weights and make matching delegation choices: either both
    vote themselves, or both delegate — and then the two targets must again
    be the same shared voter.  Anything else raises
    :class:`IncompatibleOverlap`.
    """
    if mode not in ("and", "or"):
        raise ValueError(f"mode must be 'and' or 'or', got {mode!r}")
    pairs = tuple(sorted(shared.items())) if isinstance(shared, Mapping) else tuple(sorted(shared))
    one_to_two = dict(pairs)
    if len(one_to_two) != len(pairs):
        raise IncompatibleOverlap("a part-one voter is shared twice")
    if len(set(one_to_two.values())) != len(pairs):
        raise IncompatibleOverlap("a part-two voter is shared twice")
    for i, j in pairs:
        if not (0 <= i < part_one.n and 0 <= j < part_two.n):
            raise IncompatibleOverlap(f"shared pair ({i}, {j}) out of range")
        if part_one.weights[i] != part_two.weights[j]:
            raise IncompatibleOverlap(
                f"shared voter ({i}, {j}) has weights "
                f"{part_one.weights[i]} != {part_two.weights[j]}"
            )
        c1 = part_one.profile.choices[i]
        c2 = part_two.profile.choices[j]
        if (c1 is SELF) != (c2 is SELF):
            raise IncompatibleOverlap(f"shared voter ({i}, {j}) disagrees on delegating")
        if c1 is not SELF:
            if c1 not in one_to_two or one_to_two[c1] != c2:
                raise IncompatibleOverlap(
                    f"shared voter ({i}, {j}) delegates outside the shared set "
                    f"or to mismatched targets"
                )

    two_to_one = {j: i for i, j in pairs}
    joint_of_two = []
    next_id = part_one.n
    for j in range(part_two.n):
        if j in two_to_one:
            joint_of_two.append(two_to_one[j])
        else:
            joint_of_two.append(next_id)
            next_id += 1
    return ComposedGame(
        mode=mode,
        part_one=part_one,
        part_two=part_two,
        shared=pairs,
        joint_of_two=tuple(joint_of_two),
    )
