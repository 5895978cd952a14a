"""Exhaustive power-index computation for small instances.

Both measures are driven by the same statistic: for a voter ``i``, the number
of coalitions of each size (drawn from the other voters) that ``i`` swings
from losing to winning.  The penetration measure divides the total count by
``2**(n-1)``; the pivotal-order measure weighs each size ``s`` by
``s!(n-1-s)!/n!``; every route takes them from :func:`measure_weights`.
All arithmetic is exact (:class:`fractions.Fraction`).

Swings are counted by one bit-sliced route, all requested voters at once.
Coalition ``C`` is bit ``C`` of an int of ``2**n`` bits, so one Python int
holds a set of coalitions and one ``&``, ``|`` or ``^`` acts on all of them:
each voter's whole-chain-inside set is an AND of fixed membership sets, the
coalition weights are summed into bit planes by ripple-carry adds
(:func:`_winning_set`), and a voter's swings per size are ``int.bit_count``
of its swing set against each size class (:func:`_kernel_counts`).  Planes
that would pass :data:`KERNEL_BITS` are summed one slice of coalitions at a
time.  Two games are counted: a :class:`~liquidpower.core.LiquidElection`,
and a composed game (:mod:`liquidpower.semantics`), whose parts' winning
sets, in joint coalition bits, are ANDed or ORed.  The test suite checks
the counts against plain enumeration, the subtree DP of
:mod:`liquidpower.dp` and an independent oracle.  Nothing here uses numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import factorial
from typing import TYPE_CHECKING

from .core import LiquidElection, voter_field
from .errors import InstanceTooLargeForEnumeration

if TYPE_CHECKING:  # annotations only: counting an election never loads semantics
    from .semantics import ComposedGame

ENUMERATION_LIMIT = 24
KERNEL_BITS = 1 << 27  # about 16 MB of coalition sets; larger ones are sliced


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


def _winning_set(election: LiquidElection, bits, n: int) -> int:
    """The coalitions of ``n`` voters that an election's restriction wins, as
    a ``2**n``-bit int; the election's voter ``v`` is coalition bit
    ``bits[v]``.

    It sums the gcd-reduced game, ``LiquidElection.reduced``, which keeps
    every outcome.  ``top`` bits hold the reduced total, so adding
    ``2**top - quota`` to a coalition's weight sets bit ``top`` exactly when
    the weight reaches the quota, and never carries past it: plane ``top``
    of the sum is the set of winning coalitions.  Voter ``v`` adds its
    weight to the coalitions holding its whole chain: its membership set
    ANDed with its parent's such set, which a pre-order walk of the forest
    keeps on a stack.  When the planes would pass :data:`KERNEL_BITS` they
    are summed one slice of ``2**low`` coalitions at a time, over each value
    of the top ``n - low`` bits; in a slice, a high bit's membership set is
    the whole slice or empty.
    """
    _, weights, quota = election.reduced
    top = sum(weights).bit_length()
    # live sets: the members, the planes, a chain stack and temporaries
    low = n
    while low and (2 * n + top + 5) << low > KERNEL_BITS:
        low -= 1
    full = (1 << (1 << low)) - 1
    members = _member_sets(low)
    bias = (1 << top) - quota
    forest = election.forest
    wins = 0
    for high in range(1 << n - low):
        sets = members + [full if high >> b & 1 else 0 for b in range(n - low)]
        planes = [full if bias >> j & 1 else 0 for j in range(top + 1)]
        path: list[tuple[int, int]] = []  # (voter, whole-chain-inside set), guru first
        for v in reversed(forest.order):  # every parent before its delegators
            while path and path[-1][0] != forest.parent[v]:
                path.pop()
            active = sets[bits[v]] & path[-1][1] if path else sets[bits[v]]
            path.append((v, active))
            weight, carry, j = weights[v] if active else 0, 0, 0
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
        wins |= planes[top] << (high << low)
    return wins


def _kernel_counts(wins: int, n: int, voters) -> list[list[int]]:
    """Per-size swing counts of some voters from a winning set of ``2**n``
    bits: ``u`` swings ``C`` (``u`` not in ``C``) when ``C`` loses and
    ``C + 2**u`` wins, so ``u``'s swings are the winning sets that hold
    ``u``, shifted down ``2**u`` bits, that lose."""
    members = _member_sets(n)
    loses = wins ^ (1 << (1 << n)) - 1
    sizes = _size_sets(n)[:n]  # a swing set lacks its voter: at most n-1 members
    counts = []
    for u in voters:
        swings = (wins & members[u]) >> (1 << u) & loses
        counts.append([(swings & s).bit_count() for s in sizes])
    return counts


def _swing_counts(game: LiquidElection | ComposedGame, voters) -> list[list[int]]:
    """Per-size swing counts of some voters of an election or a composed
    game, from one winning set."""
    n = game.n_voters
    if n > ENUMERATION_LIMIT:
        raise InstanceTooLargeForEnumeration(
            f"{n} voters exceed the enumeration limit of {ENUMERATION_LIMIT}"
        )
    voters = [voter_field(v, n, "voter") for v in voters]
    if isinstance(game, LiquidElection):
        return _kernel_counts(_winning_set(game, range(n), n), n, voters)
    from .semantics import ComposedGame  # loaded already by whoever composed
    if not isinstance(game, ComposedGame):
        raise TypeError(f"can count a LiquidElection or a ComposedGame, not {type(game).__name__}")
    one = _winning_set(game.part_one, range(game.part_one.n), n)
    two = _winning_set(game.part_two, game.joint_of_two, n)
    return _kernel_counts(one & two if game.mode == "and" else one | two, n, voters)


def swing_size_counts(game: LiquidElection | ComposedGame, voter: int) -> list[int]:
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


def power_index(game: LiquidElection | ComposedGame, voter: int, kind: MeasureKind) -> Fraction:
    """Power of one voter under one measure, from its swing counts."""
    weights = measure_weights(kind, game.n_voters)
    return counts_to_power(swing_size_counts(game, voter), *weights)


def all_indices_exact(game: LiquidElection | ComposedGame, kind: MeasureKind) -> IndexReport:
    """Power values of every voter under one measure, from one count."""
    kind = MeasureKind(kind)
    n = game.n_voters
    weights = measure_weights(kind, n)
    values = tuple(counts_to_power(c, *weights) for c in _swing_counts(game, range(n)))
    return IndexReport(kind=kind, values=values)
