"""Exhaustive power-index computation for small instances.

Both measures are driven by the same statistic: for a voter ``i``, the number
of coalitions of each size (drawn from the other voters) that ``i`` swings
from losing to winning.  The penetration measure divides the total count by
``2**(n-1)``; the pivotal-order measure weighs each size ``s`` by
``s!(n-1-s)!/n!``; every route takes them from :func:`measure_weights`.
All arithmetic is exact (:class:`fractions.Fraction`).

An election is counted by one bit-sliced pass (:func:`_kernel_counts`), all
requested voters at once.  Coalition ``C`` is bit ``C`` of an int of
``2**n`` bits, so one Python int holds a set of coalitions and one ``&``,
``|`` or ``^`` acts on all of them: each voter's whole-chain-inside set is
an AND of fixed membership sets, the coalition weights are summed into bit
planes by ripple-carry adds, and a voter's swings per size are
``int.bit_count`` of its swing set against each size class.  An election
whose sets would not fit :data:`KERNEL_BITS`, and every other game
(composed games), is counted by plain enumeration, which re-evaluates the
characteristic function for every coalition.  The test suite checks the
two against each other, against the subtree DP of :mod:`liquidpower.dp`,
and against an independent oracle.  Neither route uses numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import factorial, gcd
from typing import TYPE_CHECKING

from .core import LiquidElection, voter_field
from .errors import InstanceTooLargeForEnumeration

if TYPE_CHECKING:  # annotations only: counting never builds semantics' Protocol
    from .semantics import EvaluableGame

ENUMERATION_LIMIT = 24
KERNEL_BITS = 1 << 31  # about 256 MB of coalition sets; larger ones enumerate


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


def _member_sets(n: int) -> list[int]:
    """Per voter ``v``, the coalitions that hold ``v``, as a ``2**n``-bit int.

    Byte ``j`` holds coalitions ``8j..8j+7``: voters 0-2 repeat one byte
    pattern, and voter ``v >= 3`` alternates runs of ``2**(v-3)`` empty and
    full bytes.
    """
    full = (1 << (1 << n)) - 1
    size = max(1, (1 << n) >> 3)
    units = [b"\xaa", b"\xcc", b"\xf0"]
    units += [bytes(1 << v - 3) + b"\xff" * (1 << v - 3) for v in range(3, n)]
    return [
        int.from_bytes(unit * (size // len(unit)), "little") & full for unit in units[:n]
    ]


def _size_sets(n: int) -> list[int]:
    """Per size ``s`` in ``0..n``, the coalitions of ``s`` voters.

    Doubling: the coalitions of voters ``0..v`` are those of ``0..v-1``
    without ``v`` and, ``2**v`` bits up, the same with ``v``.
    """
    sizes = [1]  # no voters: only the empty coalition, of size 0
    for v in range(n):
        sizes = [a | b << (1 << v) for a, b in zip(sizes + [0], [0] + sizes)]
    return sizes


def _kernel_counts(election: LiquidElection, voters) -> list[list[int]] | None:
    """Per-size swing counts of some voters of an election, bit-sliced; None
    when the coalition sets would exceed :data:`KERNEL_BITS`.

    Weights are divided by their gcd and the quota rounded up, which keeps
    every comparison.  ``top`` bits hold the reduced total, so adding
    ``2**top - quota`` to a coalition's weight sets bit ``top`` exactly when
    the weight reaches the quota, and never carries past it: plane ``top``
    of the sum is the set of winning coalitions.  Voter ``v`` adds its
    weight to the coalitions holding its whole chain: its membership set
    ANDed with its parent's such set, which a pre-order walk of the forest
    keeps on a stack.  ``u`` swings ``C`` (``u`` not in ``C``) when ``C``
    loses and ``C + 2**u`` wins, so ``u``'s swings are the winning sets that
    hold ``u``, shifted down ``2**u`` bits, that lose.
    """
    n = election.n
    g = gcd(*election.weights)
    weights = [w // g for w in election.weights]
    quota = -(-election.quota // g)
    top = sum(weights).bit_length()
    # live sets: the members, with the planes, a chain stack and temporaries
    # while summing, then with the size classes while counting
    if (2 * n + top + 5) << n > KERNEL_BITS:
        return None
    full = (1 << (1 << n)) - 1
    members = _member_sets(n)
    bias = (1 << top) - quota
    planes = [full if bias >> j & 1 else 0 for j in range(top + 1)]
    forest = election.forest
    path: list[tuple[int, int]] = []  # (voter, whole-chain-inside set), guru first
    for v in reversed(forest.order):  # every parent before its delegators
        while path and path[-1][0] != forest.parent[v]:
            path.pop()
        active = members[v] & path[-1][1] if path else members[v]
        path.append((v, active))
        weight, carry, j = weights[v], 0, 0
        while weight or carry:  # ripple-carry add of weight into active
            plane = planes[j]
            if weight & 1:
                added = plane ^ active
                planes[j] = added ^ carry
                carry = plane & active | carry & added
            else:
                planes[j] = plane ^ carry
                carry &= plane
            weight >>= 1
            j += 1
    del path
    wins = planes[top]
    del planes
    loses = wins ^ full
    sizes = _size_sets(n)[:n]  # a swing set lacks its voter: at most n-1 members
    counts = []
    for u in voters:
        swings = (wins & members[u]) >> (1 << u) & loses
        counts.append([(swings & s).bit_count() for s in sizes])
    return counts


def _swing_counts(game: EvaluableGame, voters) -> list[list[int]]:
    """Per-size swing counts of some voters: one bit-sliced pass for an
    election whose sets fit, plain enumeration for any other game."""
    n = _check_size(game)
    voters = [voter_field(v, n, "voter") for v in voters]
    if isinstance(game, LiquidElection):
        counts = _kernel_counts(game, voters)
        if counts is not None:
            return counts
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
    """Power values of every voter under one measure, from one count."""
    kind = MeasureKind(kind)
    n = game.n_voters
    weights = measure_weights(kind, n)
    values = tuple(counts_to_power(c, *weights) for c in _swing_counts(game, range(n)))
    return IndexReport(kind=kind, values=values)
