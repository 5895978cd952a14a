"""Exhaustive power-index computation for small instances.

Both measures are driven by the same statistic: for a voter ``i``, the number
of coalitions of each size (drawn from the other voters) that ``i`` swings
from losing to winning.  The penetration measure divides the total count by
``2**(n-1)``; the pivotal-order measure weighs each size ``s`` by
``s!(n-1-s)!/n!``.  All arithmetic is exact (:class:`fractions.Fraction`).

Two independent enumeration routes exist and are cross-checked in the test
suite: a plain route that re-evaluates the characteristic function from
scratch for every coalition, and an incremental route (elections only) that
walks coalitions in Gray-code order, maintaining per-voter counts of missing
chain members.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import factorial

from .core import LiquidElection
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


def _swing_counts_incremental(election: LiquidElection, voter: int) -> list[int]:
    """Gray-code walk over coalitions of the other voters.

    Maintains, for both the coalition and the coalition plus ``voter``, the
    number of absent chain members per voter; a voter contributes its weight
    exactly while that count is zero.  Each step toggles one voter and only
    touches the voters whose chain passes through it.
    """
    n = _check_size(election)
    forest = election.forest
    weights = election.weights
    quota = election.quota
    counts = [0] * n

    dependents: list[list[int]] = [[] for _ in range(n)]
    for v in range(n):
        for anc in forest.chain[v]:
            dependents[anc].append(v)

    # state 0: the coalition itself; state 1: the coalition with `voter` added
    missing0 = [len(forest.chain[v]) for v in range(n)]
    missing1 = [missing0[v] - (voter in forest.chain[v]) for v in range(n)]
    gamma0 = 0
    gamma1 = weights[voter] if missing1[voter] == 0 else 0

    others = [v for v in range(n) if v != voter]
    present = [False] * n

    if gamma0 < quota <= gamma1:
        counts[0] += 1  # the empty coalition

    for step in range(1, 1 << n - 1):
        t = others[(step & -step).bit_length() - 1]
        if present[t]:
            for v in dependents[t]:
                if missing0[v] == 0:
                    gamma0 -= weights[v]
                missing0[v] += 1
                if missing1[v] == 0:
                    gamma1 -= weights[v]
                missing1[v] += 1
            present[t] = False
        else:
            for v in dependents[t]:
                missing0[v] -= 1
                if missing0[v] == 0:
                    gamma0 += weights[v]
                missing1[v] -= 1
                if missing1[v] == 0:
                    gamma1 += weights[v]
            present[t] = True
        if gamma0 < quota <= gamma1:
            size = (step ^ step >> 1).bit_count()
            counts[size] += 1
    return counts


def swing_size_counts(
    game: EvaluableGame, voter: int, *, method: str = "auto"
) -> list[int]:
    """Count, per coalition size, the coalitions of other voters that
    ``voter`` swings.  ``method`` is ``"plain"``, ``"incremental"`` (elections
    only), or ``"auto"``."""
    if method == "auto":
        method = "incremental" if isinstance(game, LiquidElection) else "plain"
    if method == "plain":
        return _swing_counts_plain(game, voter)
    if method == "incremental":
        if not isinstance(game, LiquidElection):
            raise ValueError("incremental enumeration requires an election")
        return _swing_counts_incremental(game, voter)
    raise ValueError(f"unknown method {method!r}")


def banzhaf_from_counts(counts: list[int], n: int) -> Fraction:
    return Fraction(sum(counts), 1 << n - 1)


def shapley_from_counts(counts: list[int], n: int) -> Fraction:
    weighted = sum(factorial(s) * factorial(n - 1 - s) * c for s, c in enumerate(counts) if c)
    return Fraction(weighted, factorial(n))


def banzhaf_exact(game: EvaluableGame, voter: int, *, method: str = "auto") -> Fraction:
    """Fraction of other-voter coalitions that the voter swings."""
    counts = swing_size_counts(game, voter, method=method)
    return banzhaf_from_counts(counts, game.n_voters)


def shapley_exact(game: EvaluableGame, voter: int, *, method: str = "auto") -> Fraction:
    """Probability of being the pivotal voter in a uniformly random order."""
    counts = swing_size_counts(game, voter, method=method)
    return shapley_from_counts(counts, game.n_voters)


def power_index(
    game: EvaluableGame, voter: int, kind: MeasureKind, *, method: str = "auto"
) -> Fraction:
    kind = MeasureKind(kind)
    counts = swing_size_counts(game, voter, method=method)
    if kind is MeasureKind.BANZHAF:
        return banzhaf_from_counts(counts, game.n_voters)
    return shapley_from_counts(counts, game.n_voters)


def all_indices_exact(
    game: EvaluableGame, kind: MeasureKind, *, method: str = "auto"
) -> IndexReport:
    """Power values of every voter under one measure."""
    n = _check_size(game)
    values = tuple(power_index(game, v, kind, method=method) for v in range(n))
    return IndexReport(kind=MeasureKind(kind), values=values)
