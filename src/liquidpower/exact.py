"""Exhaustive power-index computation for small instances.

Both measures are driven by the same statistic: for a voter ``i``, the number
of coalitions of each size (drawn from the other voters) that ``i`` swings
from losing to winning.  The penetration measure divides the total count by
``2**(n-1)``; the pivotal-order measure weighs each size ``s`` by
``s!(n-1-s)!/n!``; every route takes them from :func:`measure_weights`.
All arithmetic is exact (:class:`fractions.Fraction`).

An election of at most ``coalition_table.TABLE_LIMIT`` voters is counted
from one numpy coalition table, all requested voters in one pass.  Every
other game (composed games, larger elections, and elections whose total
weight overflows the 64-bit table even over the weights' gcd) is counted by
plain enumeration, which re-evaluates the characteristic function for every
coalition.  The test suite checks the two against each other, against the
subtree DP of :mod:`liquidpower.dp`, and against an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import factorial

from .core import LiquidElection, voter_field
from .errors import InstanceTooLargeForEnumeration
from .semantics import EvaluableGame

ENUMERATION_LIMIT = 24


class MeasureKind(str, Enum):
    BANZHAF = "banzhaf"
    SHAPLEY = "shapley"


@dataclass(frozen=True)
class IndexReport:
    """Per-voter power values for one measure (exact rationals)."""

    kind: MeasureKind
    values: tuple[Fraction, ...]

    @property
    def total(self) -> Fraction:
        return sum(self.values, Fraction(0))


def _check_size(game: EvaluableGame) -> int:
    n = game.n_voters
    if n > ENUMERATION_LIMIT:
        raise InstanceTooLargeForEnumeration(
            f"{n} voters exceed the enumeration limit of {ENUMERATION_LIMIT}"
        )
    return n


def _expand(sub: int, voter: int) -> int:
    """Spread an index over ``n-1`` voters into a mask skipping ``voter``'s bit."""
    low = sub & (1 << voter) - 1
    high = sub >> voter << voter + 1
    return low | high


def _swing_counts_plain(game: EvaluableGame, voter: int) -> list[int]:
    n = _check_size(game)
    counts = [0] * n
    bit = 1 << voter
    for sub in range(1 << n - 1):
        mask = _expand(sub, voter)
        if game.value_of(mask) == 0 and game.value_of(mask | bit) == 1:
            counts[mask.bit_count()] += 1
    return counts


def _swing_counts(game: EvaluableGame, voters) -> list[list[int]]:
    """Per-size swing counts of some voters: one coalition table for an
    election that fits one, plain enumeration for any other game."""
    n = _check_size(game)
    voters = [voter_field(v, n, "voter") for v in voters]
    if isinstance(game, LiquidElection):
        # numpy loads on the first table, not at import: dp imports this module
        import numpy as np

        from . import coalition_table as ct

        if n <= ct.TABLE_LIMIT:
            try:
                _, weights, quota = ct.reduced_weights(game.weights, game.quota)
            except InstanceTooLargeForEnumeration:
                pass  # the total weight overflows int64: enumerate instead
            else:
                masks = np.array([game.forest.chain_mask], dtype=np.int64)
                # unit size weights keep one count per coalition size
                counts = ct.swing_counts(
                    masks, weights, quota, voters, np.eye(n, dtype=np.int64)
                )
                return counts[0].tolist()
    return [_swing_counts_plain(game, v) for v in voters]


def swing_size_counts(game: EvaluableGame, voter: int) -> list[int]:
    """Count, per coalition size, the coalitions of other voters that
    ``voter`` swings."""
    return _swing_counts(game, [voter])[0]


def measure_weights(kind: MeasureKind, n: int) -> tuple[list[int], int]:
    """Size weights and denominator of a measure over ``n`` voters: a
    voter's power is ``sum(size_weights[s] * swings of size s)`` over
    ``denominator``, and that integer sum is the search solvers' key."""
    if MeasureKind(kind) is MeasureKind.BANZHAF:
        return [1] * n, 1 << n - 1
    return [factorial(s) * factorial(n - 1 - s) for s in range(n)], factorial(n)


def counts_to_power(counts, size_weights: list[int], denominator: int) -> Fraction:
    """Power of a voter from its swing counts, one for each coalition size."""
    weighted = sum(w * c for w, c in zip(size_weights, counts, strict=True) if c)
    return Fraction(weighted, denominator)


def power_index(game: EvaluableGame, voter: int, kind: MeasureKind) -> Fraction:
    """Power of one voter under one measure, from its swing counts."""
    weights = measure_weights(kind, game.n_voters)
    return counts_to_power(swing_size_counts(game, voter), *weights)


def all_indices_exact(game: EvaluableGame, kind: MeasureKind) -> IndexReport:
    """Power values of every voter under one measure, from one table."""
    kind = MeasureKind(kind)
    n = game.n_voters
    weights = measure_weights(kind, n)
    values = tuple(counts_to_power(c, *weights) for c in _swing_counts(game, range(n)))
    return IndexReport(kind=kind, values=values)
