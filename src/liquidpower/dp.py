"""Pseudo-polynomial power computation via counting tables over a forest order.

The enumeration in :mod:`liquidpower.exact` is exponential in the number of
voters.  This module instead counts swing coalitions with a dynamic program
over a carefully chosen voter ordering, in time polynomial in the number of
voters and the total weight.

Ordering.  Every tree of the delegation forest is laid out in post-order
(children visited in ascending id), so each voter's subtree occupies the
contiguous block of positions ending at the voter's own position.  Trees not
containing the queried voter come first (ascending root id); the queried
voter's tree comes last.

Tables.  ``F[j][w]`` is the counting polynomial, in ``y``, of the subsets
of the first ``j`` voters in that order that have *settled weight* ``w`` —
the total weight of members whose delegation chain, up to the root of the
already-completed subtree containing them, lies inside the subset.  The
coefficient of ``y**e`` counts the subsets that leave out ``e`` of the
``j`` voters.  Once a prefix covers whole trees, settled weight coincides
with the election's active-member weight.  Closing voter ``u`` (block size
``t``) either leaves ``u`` out — every member of ``u``'s subtree is then
unsettled, so each of the ``t-1`` proper members may pad the subset or stay
out, a factor ``(1+y)**(t-1)`` — or puts ``u`` in, adding ``u``'s weight on
top of the prefix that ends just below ``u``::

    F[j][w] = y * (1+y)**(t-1) * F[j-t][w]  +  F[j-1][w-w_u]

The polynomial is one Python int, evaluated at ``y = 2**b`` (Kronecker
substitution): ``b = 0`` sums over sizes, which is all the swing-count
measure needs, and a ``b`` wider than any count keeps each size in its own
``b``-bit slot for the ordering measure.

A guru's swing coalitions then split into a part outside its tree (weight
below the quota) and a part inside it (the guru present and settling enough
weight to close the gap), so its packed swing count is a sum of products of
the two tables' top rows; a delegating voter reduces to the guru case on the
sub-election that removes the voters its ballot passes through, with the
quota lowered by their weight (already-spoken-for weight) and coalition sizes
shifted by the number of removed voters.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import SELF, DelegationForest, DelegationProfile, LiquidElection, build_forest
from .exact import IndexReport, MeasureKind, shapley_from_counts


@dataclass(frozen=True)
class SwingCounts:
    """Number of swung coalitions of each size for one voter."""

    per_size: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.per_size)


@dataclass(frozen=True)
class DfsOrdering:
    """Forest layout used by the tables.

    ``sequence[p]`` is the voter at (0-based) position ``p``; ``position`` is
    its inverse.  ``block_size[p]`` is the size of that voter's subtree,
    which occupies positions ``p - block_size[p] + 1 .. p``.  Positions from
    ``boundary`` on hold the tree containing the queried voter.
    """

    sequence: tuple[int, ...]
    position: tuple[int, ...]
    block_size: tuple[int, ...]
    boundary: int


def _postorder(forest: DelegationForest, root: int) -> list[int]:
    children = forest.delegators
    out = []
    stack = [root]
    while stack:
        u = stack.pop()
        out.append(u)
        stack.extend(children[u])  # ascending push -> descending visit
    out.reverse()
    return out


def dfs_order(forest: DelegationForest, voter: int) -> DfsOrdering:
    """Layout with the tree containing ``voter`` last (other trees by root id)."""
    home = forest.guru[voter]
    seq: list[int] = []
    for root in forest.gurus:
        if root != home:
            seq.extend(_postorder(forest, root))
    boundary = len(seq)
    seq.extend(_postorder(forest, home))
    position = [0] * forest.n
    for p, v in enumerate(seq):
        position[v] = p
    block_size = tuple(forest.subtree_size[v] for v in seq)
    return DfsOrdering(
        sequence=tuple(seq),
        position=tuple(position),
        block_size=block_size,
        boundary=boundary,
    )


def fill_table(
    weights_seq: list[int],
    block_sizes: list[int],
    weight_cap: int | None = None,
    slot_bits: int = 0,
) -> list[list[int]]:
    """All rows ``F[0..m]`` of the counting table described in the module docs.

    ``F[j][w]`` is indexed by prefix length and settled weight; it packs the
    subset sizes as ``sum(count * y**left_out)`` with ``y = 2**slot_bits``.
    ``slot_bits=0`` sums over sizes; a slot of more than ``m`` bits keeps
    every count apart.  Entries with settled weight above ``weight_cap`` are
    dropped — sound as long as callers only read weights up to the cap,
    since weight only accumulates along the recurrence.  With no cap the
    table is complete and each row ``j`` sums to ``(1 + y)**j``.
    """
    m = len(weights_seq)
    total = sum(weights_seq)
    cap = total if weight_cap is None else min(weight_cap, total)
    y = 1 << slot_bits
    pads: dict[int, int] = {}
    row0 = [0] * (cap + 1)
    row0[0] = 1
    rows = [row0]
    prefix_weight = 0
    for j in range(1, m + 1):
        w_u = weights_seq[j - 1]
        t = block_sizes[j - 1]
        prefix_weight += w_u
        pad = pads.get(t)
        if pad is None:
            pad = pads[t] = y * (1 + y) ** (t - 1)
        src_skip = rows[j - t]
        src_take = rows[j - 1]
        w_hi = min(cap, prefix_weight)
        new = [0] * (cap + 1)
        for w in range(w_hi + 1):
            acc = pad * src_skip[w] if src_skip[w] else 0
            if w >= w_u and src_take[w - w_u]:
                acc += src_take[w - w_u]
            new[w] = acc
        rows.append(new)
    return rows


# --------------------------------------------------------------------------
# Swing-coalition counting
# --------------------------------------------------------------------------


def _guru_swings(
    profile: DelegationProfile,
    weights: tuple[int, ...],
    quota: int,
    target: int,
    slot_bits: int,
) -> int:
    """Packed swing count of a root voter of the given (sub-)profile.

    Slot ``e`` (of ``slot_bits`` bits) counts the swing coalitions that leave
    out ``e`` of the other voters; with ``slot_bits=0`` the result is the
    total.
    """
    forest = build_forest(profile, weights)
    if forest.guru[target] != target:
        raise ValueError(f"voter {target} delegates; the combiner needs a root")
    order = dfs_order(forest, target)
    b = order.boundary
    w_seq = [weights[v] for v in order.sequence]
    top_out = fill_table(
        w_seq[:b], list(order.block_size[:b]), weight_cap=quota - 1, slot_bits=slot_bits
    )[-1]
    top_tree = fill_table(w_seq[b:], list(order.block_size[b:]), slot_bits=slot_bits)[-1]
    tree_weight = sum(w_seq[b:])

    # suffix[w] = tree subsets settling weight >= w
    suffix = [0] * (tree_weight + 2)
    for w in range(tree_weight, -1, -1):
        suffix[w] = suffix[w + 1] + top_tree[w]

    total = 0
    for w, c_out in enumerate(top_out):
        if c_out:
            need = max(quota - w, 1)
            if need <= tree_weight:
                total += c_out * suffix[need]
    return total


def _restrict_past_proxies(
    election: LiquidElection, voter: int
) -> tuple[DelegationProfile, tuple[int, ...], int, int, int] | None:
    """Remove the voters ``voter``'s ballot passes through.

    Returns ``(profile, weights, reduced_quota, new_target_id, removed_count)``
    for the sub-election on the remaining voters, or ``None`` when the removed
    voters' weight already covers the quota (the voter is then a dummy).
    Voters who delegated to a removed voter become roots.
    """
    forest = election.forest
    removed = set(forest.chain[voter][1:])
    reduced_quota = election.quota - sum(election.weights[v] for v in removed)
    if reduced_quota <= 0:
        return None
    kept = [v for v in range(election.n) if v not in removed]
    index = {v: i for i, v in enumerate(kept)}
    choices = []
    for v in kept:
        c = election.profile.choices[v]
        if c is SELF or c in removed:
            choices.append(SELF)
        else:
            choices.append(index[c])
    profile = DelegationProfile(tuple(choices))
    weights = tuple(election.weights[v] for v in kept)
    return profile, weights, reduced_quota, index[voter], len(removed)


def _swings(election: LiquidElection, voter: int, slot_bits: int) -> tuple[int, int, int]:
    """``(packed, m, shift)``: the voter's packed swing count (see
    :func:`_guru_swings`) in the sub-election of ``m`` voters left after
    removing the ``shift`` voters its ballot passes through.

    Every swing coalition of the sub-election extends uniquely to one of the
    full election by adding the removed voters back.
    """
    restricted = _restrict_past_proxies(election, voter)
    if restricted is None:
        return 0, election.n, 0
    profile, weights, reduced_quota, new_target, shift = restricted
    packed = _guru_swings(profile, weights, reduced_quota, new_target, slot_bits)
    return packed, profile.n, shift


def swing_counts_dp(election: LiquidElection, voter: int) -> SwingCounts:
    """Per-size swing counts for any voter, via the counting tables."""
    # counts never exceed 2**n, so n + 2 bits keep every slot apart
    slot_bits = election.n + 2
    packed, m, shift = _swings(election, voter, slot_bits)
    mask = (1 << slot_bits) - 1
    per_size = [0] * election.n
    for e in range(m):
        per_size[m - 1 - e + shift] = (packed >> e * slot_bits) & mask
    return SwingCounts(tuple(per_size))


def swing_counts_guru(election: LiquidElection, voter: int) -> SwingCounts:
    """Per-size swing counts for a voter that casts its own ballot."""
    if election.forest.guru[voter] != voter:
        raise ValueError(f"voter {voter} delegates; use swing_counts_delegator")
    return swing_counts_dp(election, voter)


def swing_counts_delegator(election: LiquidElection, voter: int) -> SwingCounts:
    """Per-size swing counts for a delegating voter."""
    if election.forest.guru[voter] == voter:
        raise ValueError(f"voter {voter} is a root; use swing_counts_guru")
    return swing_counts_dp(election, voter)


def banzhaf_dp(election: LiquidElection, voter: int) -> Fraction:
    """Penetration power of a voter, computed by the size-free tables."""
    total, _, _ = _swings(election, voter, 0)
    return Fraction(total, 1 << election.n - 1)


def shapley_dp(election: LiquidElection, voter: int) -> Fraction:
    """Pivotal-order power of a voter, computed by the counting tables."""
    counts = swing_counts_dp(election, voter)
    return shapley_from_counts(list(counts.per_size), election.n)


def all_indices_dp(election: LiquidElection, kind: MeasureKind) -> IndexReport:
    """Power values of every voter under one measure, via the tables."""
    kind = MeasureKind(kind)
    if kind is MeasureKind.BANZHAF:
        values = tuple(banzhaf_dp(election, v) for v in range(election.n))
    else:
        values = tuple(shapley_dp(election, v) for v in range(election.n))
    return IndexReport(kind=kind, values=values)
