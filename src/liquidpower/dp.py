"""Pseudo-polynomial power computation: one top-down walk over the forest.

The enumeration in :mod:`liquidpower.exact` is exponential in the number of
voters.  This module instead counts swing coalitions with counting tables,
in time polynomial in the number of voters and the total weight.

Layout.  The forest's ``DelegationForest.order`` lays every tree out in
post-order (children visited in ascending id), trees by ascending root id,
so each voter's subtree occupies the contiguous block of positions ending
at the voter's own position, ``DelegationForest.end``.

Tables.  ``F[j][w]`` is the counting polynomial, in ``y``, of the subsets
of the first ``j`` voters of a run of whole blocks that have *settled
weight* ``w`` — the total weight of members whose delegation chain, up to
the root of the block containing them, lies inside the subset.  The
coefficient of ``y**e`` counts the subsets that leave out ``e`` of the
``j`` voters.  Closing voter ``u`` (block size ``t``) either leaves ``u``
out — every member of ``u``'s subtree is then unsettled, so each of the
``t-1`` proper members may pad the subset or stay out, a factor
``(1+y)**(t-1)`` — or puts ``u`` in, adding ``u``'s weight on top of the
prefix that ends just below ``u``::

    F[j][w] = y * (1+y)**(t-1) * F[j-t][w]  +  F[j-1][w-w_u]

``F[0]`` may be any row (the table of voters counted earlier): a fill then
multiplies it by the blocks' polynomials.  Entries at or above a cap can be
dropped, since weight only accumulates.  The polynomial is one Python int,
evaluated at ``y = 2**b`` (Kronecker substitution): ``b = 0`` sums over
sizes, which is all the swing-count measure needs, and a ``b`` wider than
any count keeps each size in its own ``b``-bit slot for the ordering
measure.  With ``b = 0`` the weight axis is packed the same way: a whole
row is one int whose cell ``w`` holds ``F[j][w]`` in ``c = n + 2`` bits,
so a fill step is ``(F[j-t] << t-1) + (F[j-1] << w_u * c)``, masked at the
cap, and a row's sum folds its high cells onto its low ones.  A row counts
subsets of at most ``n`` voters, so every cell and every sum of cells is at
most ``2**n`` and no carry crosses into the next cell.  The ordering
measure keeps a list of cells: packed at the fixed ``(n+1)(n+2)``-bit
stride its rows hold about twice the bits, and its all-voter walk measured
slower (about 29 -> 63 ms at 60 voters and 0.79 -> 1.75 s at 120, on the
criterion-10 games).

Swings.  A voter ``u`` changes the outcome only of coalitions that hold all
its proxies (the voters its ballot passes through), whose weight is then
spoken for: ``u`` faces the reduced quota ``rq(u)``, the quota minus its
proxies' weight.  The other voters outside ``u``'s subtree hang off its
chain as whole subtrees; ``u``'s *outside row* counts their subsets by
settled weight, capped at ``rq(u) - 1``.  ``u`` swings a coalition when its
outside part weighs less than ``rq(u)`` and adding ``u`` and its settled
delegators reaches ``rq(u)``.  Counting the complement, ``u``'s packed swing
count is ``sum(outside row) * (1+y)**(t-1)`` minus the sum of the outside
row filled with all of ``u``'s children's blocks, capped at
``rq(u) - w_u - 1``.  Slot ``e`` counts the swung coalitions of size
``n - 1 - e``: the proxies are always in.  When ``rq(u) - w_u <= 0``, ``u``
alone closes the gap and everyone below ``u`` is a dummy.

The walk.  The gurus hang under a virtual root of weight 0 whose outside row
is the empty subset alone, ``[1]``, and whose reduced quota is the quota.
A child's outside row is its parent's, capped one level lower (``rq`` drops
by the parent's weight), with every sibling's block filled in.  All ``d``
children get theirs by leave-one-out over a binary tree of the siblings:
at each pair, either half starts from the row both share and fills the
other half's blocks.  A block then costs one fill step per level of the
tree above it, so the siblings are merged in Huffman order, the two
lightest groups of blocks first (Huffman, 1952): that minimises the sum of
block size x depth, the walk's fill steps (Uno, ISAAC 2012).  On criterion
10's 120-voter game that is 808 steps; splitting the siblings in halves
by count takes 1,185.  A node's own complement table is the leave-one-out
row of an empty extra member after its children, so the same tree yields
it.  A leaf has ``t = 1`` and no children: its swing count is the sum of
its outside row once floored (see "Windows" below), with no complement
table.  A single voter's query walks its chain only, filling each level's
siblings in one run.  The walk counts the gcd-reduced game,
``LiquidElection.reduced``, which changes no coalition's outcome.

Windows.  Every row carries a base weight, the settled weight of its cell
0, and drops the cells below the lowest weight that a voter still to be
reached from it can swing from (``row >> k * c`` packed, ``row[k:]`` as a
list); a fill then runs over about the weight of the blocks still to come,
not the whole reduced quota.  ``u`` with its whole subtree adds at most
``acc(u)``, its subtree weight, so ``u``'s outside row is floored at
``L(u) = rq(u) - acc(u)``.  That is exact:

* *Own swings.*  An outside cell of weight ``x < L(u)`` has
  ``x + w_u + settled(D) < rq(u)`` for every subset ``D`` of ``u``'s
  delegators, so it adds ``(1+y)**(t-1)`` to both terms of ``u``'s
  complement count and they cancel.  A leaf's floored row is exactly its
  window ``[rq - w_u, rq - 1]``, so its swing count is the row's sum.
* *Descendants.*  A child ``v`` of ``u`` has ``L(v) = rq(u) - w_u -
  acc(v)``, and the sibling blocks filled into ``v``'s row weigh at most
  ``acc(u) - w_u - acc(v)``: only cells of ``u``'s row at or above ``L(u)``
  reach ``v``'s window.  By induction the same holds for every voter
  further down.

At a pair of the leave-one-out tree, half A's row is the shared row filled
with half B's blocks, and A's members later get A's own other blocks too.
So A's row keeps the cells from ``rq - W_A - x_A`` up, where ``W_A`` is the
weight of A's blocks and ``x_A`` is ``acc(u) - w_u`` when A holds the
complement member ``~u`` (whose row must keep ``u``'s window), else 0: the
shared row is floored at ``rq - W_A - x_A - W_B`` before the fill and the
result at ``rq - W_A - x_A`` after it.  Flooring a group at its members'
own floors instead, without ``W_A``, drops cells that A's blocks would
still lift into a member's window.  On criterion 10's 120-voter game the
windows halve the cells the walk fills (220,217 -> 107,281); at the
unanimity quota of a unit chain every window is the whole row.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush

from .core import LiquidElection, voter_field
from .core import build_forest  # noqa: F401  bench/selftest.py patches dp.build_forest
from .errors import InstanceTooLargeForEnumeration
from .exact import IndexReport, MeasureKind, measure_weights, counts_to_power

# size slots the widest counting table of one walk may hold: a 4-voter game
# at the cap takes about 1 s and 200 MB for the swing-count measure, and
# about 4 s and 300 MB for the ordering measure
TABLE_SLOT_CAP = 150_000_000


def fill_table(
    weights_seq: list[int],
    block_sizes: list[int],
    weight_cap: int,
    slot_bits: int,
    *,
    start: int | list[int],
    cell_bits: int,
) -> list[int] | list[list[int]]:
    """All rows ``F[0..m]`` of the counting table described in the module docs.

    ``F[j][w]`` is indexed by prefix length and settled weight; it packs the
    subset sizes as ``sum(count * y**left_out)`` with ``y = 2**slot_bits``.
    A slot of more than ``m`` bits keeps every count apart, and a row is a
    list of cells (packed at that stride it measured twice as slow; see the
    module docs).  ``slot_bits=0`` sums over sizes, and a row is one int
    whose cell ``w`` is bits ``[w * cell_bits, (w + 1) * cell_bits)``; the
    cells must stay below ``2**cell_bits``.  ``start`` is ``F[0]`` (the
    empty subset is ``[1]``, or ``1`` packed), so a fill can continue from
    an earlier one; the blocks must be whole subtrees.  Cell 0 of ``start``
    may stand for any base weight (the recurrence only adds weight), and
    ``weight_cap`` and every row's cells are then counted from that base.
    Entries with settled weight above ``weight_cap`` are dropped — sound as
    long as callers only read weights up to the cap, since weight only
    accumulates along the recurrence.  From the empty subset with a cap of at least the total
    weight, the table is complete and each row ``j`` sums to ``(1 + y)**j``.
    """
    m = len(weights_seq)
    if not slot_bits:
        mask = (1 << (weight_cap + 1) * cell_bits) - 1
        rows = [start & mask]
        # F[j] = 2**(t-1) * F[j-t] + z**w_u * F[j-1], with z = 2**cell_bits;
        # a block heavier than the cap lifts every cell past it, and its
        # shift alone would be w_u cells wide
        for w_u, t in zip(weights_seq, block_sizes):
            new = rows[-t] << t - 1
            if w_u <= weight_cap:
                new += rows[-1] << w_u * cell_bits
            rows.append(new & mask)
        return rows
    prefix_weight = len(start) - 1
    total = prefix_weight + sum(weights_seq)
    cap = min(weight_cap, total)
    pads = [1 << slot_bits]  # pads[t-1] = y * (1+y)**(t-1), extended as needed
    row0 = start[: cap + 1]
    row0 += [0] * (cap + 1 - len(row0))
    rows = [row0]
    for j in range(1, m + 1):
        w_u = weights_seq[j - 1]
        t = block_sizes[j - 1]
        prefix_weight += w_u
        while len(pads) < t:
            pads.append(pads[-1] + (pads[-1] << slot_bits))
        pad = pads[t - 1]
        src_skip = rows[j - t]
        src_take = rows[j - 1]
        w_hi = min(cap, prefix_weight)
        # w < w_u: skip only; w_u <= w <= w_hi: skip plus take
        if t == 1:  # pad = y: a shift
            new = [a << slot_bits for a in src_skip[: min(w_u, w_hi + 1)]]
            new += [(a << slot_bits) + b for a, b in zip(src_skip[w_u : w_hi + 1], src_take)]
        else:
            new = [pad * a if a else 0 for a in src_skip[: min(w_u, w_hi + 1)]]
            new += [pad * a + b if a else b for a, b in zip(src_skip[w_u : w_hi + 1], src_take)]
        new += [0] * (cap - w_hi)
        rows.append(new)
    return rows


# --------------------------------------------------------------------------
# Swing-coalition counting
# --------------------------------------------------------------------------


def _walk(election: LiquidElection, slot_bits: int, target: int | None = None) -> list[int]:
    """Packed swing count of every voter, or only of ``target``.

    Slot ``e`` (of ``slot_bits`` bits) counts the swing coalitions that
    leave out ``e`` of the other voters; with ``slot_bits=0`` each entry is
    the total.  Entries the walk does not reach (dummies, and every voter
    but ``target`` when one is given) are 0.  Every row carries a base
    weight, the settled weight of its cell 0, and holds no cell below the
    lowest weight a voter it still reaches can swing from (see "Windows" in
    the module docs).
    """
    forest = election.forest
    n = election.n
    if target is not None:
        target = voter_field(target, n, "voter")
    g, weights, quota = election.reduced
    # a fill of up to n voters keeps n + 1 rows of at most ``quota`` weight
    # cells, and a cell holds one slot, or one per coalition size
    per_cell = n + 1 if slot_bits else 1
    slots = (n + 1) * quota * per_cell
    if slots > TABLE_SLOT_CAP:
        raise InstanceTooLargeForEnumeration(
            f"the counting tables would hold about {slots} size slots ({n + 1} rows "
            f"x {quota} weight cells x {per_cell} per cell), over the cap of {TABLE_SLOT_CAP}"
        )
    # voter n is the virtual root: weight 0, the gurus as children, and a
    # block that spans the whole layout plus its own position
    weight = [*weights, 0]
    acc = [w // g for w in forest.subtree_weight] + [sum(weight)]
    size = list(forest.subtree_size) + [n + 1]
    children = list(forest.delegators) + [forest.gurus]
    end = list(forest.end) + [n + 1]  # v's block is order[end[v] - size[v] : end[v]]
    w_seq = [weight[v] for v in forest.order]
    t_seq = [size[v] for v in forest.order]
    on_path = None if target is None else set(forest.chain_of(target)) | {n}

    def span(member: int) -> tuple[int, int]:
        if member < 0:  # ~u: the empty block after u's children
            return end[~member] - 1, end[~member] - 1
        return end[member] - size[member], end[member]

    # a row is one int of c-bit weight cells for the size-free count (no
    # cell or sum of cells exceeds 2**n), and a list of cells otherwise
    c = n + 2
    if slot_bits:
        empty: int | list[int] = [1]
        row_sum = sum

        def cut(row, cap: int):
            return row[: cap + 1]

        def drop(row, k: int):
            return row[k:]

    else:
        empty = 1

        def row_sum(row: int) -> int:
            return _cell_sum(row, c)

        def cut(row, cap: int):
            return row & (1 << (cap + 1) * c) - 1

        def drop(row: int, k: int) -> int:
            return row >> k * c

    def floor(row, base: int, lo: int):
        """The row without its cells below weight ``lo``, and its base."""
        if lo <= base:
            return row, base
        return drop(row, lo - base), lo

    def fill(ranges: list[tuple[int, int]], row, cap: int):
        ws: list[int] = []
        ts: list[int] = []
        for lo, hi in ranges:
            ws += w_seq[lo:hi]
            ts += t_seq[lo:hi]
        return fill_table(ws, ts, cap, slot_bits, start=row, cell_bits=c)[-1]

    y = 1 << slot_bits
    pads: dict[int, int] = {}

    def pad(u: int) -> int:
        # (1+y)**(t-1): every subset of u's subtree below u, by left-out count
        t = size[u]
        if t not in pads:
            pads[t] = (1 + y) ** (t - 1)
        return pads[t]

    def pair_up(members: list[int]):
        """The members as a tree of pairs, a member at each leaf: blocks
        merged in Huffman order, two lightest first, ties by first
        appearance (see the module docs).  A pair holds two halves, each
        ``(ranges, node, blocks, keep)``: the half's block ranges, its
        member or pair, their weight, and how far below the reduced quota
        its row must reach (``blocks``, plus ``acc(u) - w_u`` if it holds
        ``~u``; see "Windows" in the module docs)."""
        if len(members) == 1:
            return members[0]
        groups = []
        for i, m in enumerate(members):
            lo, hi = span(m)
            # ~u's block is empty, but its row must keep u's window
            blocks, keep = (acc[m], acc[m]) if m >= 0 else (0, acc[~m] - weight[~m])
            groups.append((hi - lo, i, [(lo, hi)], m, blocks, keep))
        if len(groups) > 2:  # two groups merge in either order: no heap needed
            heapify(groups)
        for key in range(len(groups), 2 * len(groups) - 1):
            size_a, _, ranges_a, a, blocks_a, keep_a = heappop(groups)
            size_b, _, ranges_b, b, blocks_b, keep_b = heappop(groups)
            pair = ((ranges_a, a, blocks_a, keep_a), (ranges_b, b, blocks_b, keep_b))
            merged = (ranges_a + ranges_b, pair, blocks_a + blocks_b, keep_a + keep_b)
            heappush(groups, (size_a + size_b, key, *merged))
        return groups[0][3]

    swings = [0] * n
    outside_total = [0] * n
    # (node, row, rq, base): a ``pair_up`` tree of siblings (or a parent's
    # empty extra member) sharing the outside row ``row`` and the reduced
    # quota ``rq``, with cells from weight ``base`` up to rq - 1; each half
    # of a pair gets the row filled with the other half's blocks
    stack: list[tuple] = [(n, empty, quota, 0)]
    while stack:
        node, row, rq, base = stack.pop()
        if type(node) is tuple:
            for this, other in (node, node[::-1]):
                _, half, _, keep = this
                ranges, _, blocks, _ = other
                # drop the cells the other half's blocks cannot lift to rq - keep
                start, at = floor(row, base, rq - keep - blocks)
                start, at = floor(fill(ranges, start, rq - 1 - at), at, rq - keep)
                stack.append((half, start, rq, at))
            continue
        u = node
        if u < 0:  # the complement table of ~u: every child's block filled in
            u = ~u
            swings[u] = outside_total[u] * pad(u) - row_sum(row)
            continue
        # u's whole subtree lifts no coalition lighter than rq - acc[u] to rq
        row, base = floor(row, base, rq - acc[u])
        cap = rq - weight[u] - 1
        wanted = u == target or (target is None and u < n)
        if cap < 0:
            if wanted:
                swings[u] = row_sum(row) * pad(u)
            continue
        if wanted and size[u] == 1:
            # a leaf's row is its window [rq - w_u, rq - 1]: u's own weight
            # lifts every coalition there to rq or more
            swings[u] = row_sum(row)
            continue
        if wanted:
            outside_total[u] = row_sum(row)
        row = cut(row, cap - base)
        kids = children[u]
        first, last = end[u] - size[u], end[u] - 1
        if on_path is None:
            down = list(kids)
        else:
            # fill the siblings of the next chain member in one run
            down = [c for c in kids if c in on_path]
            if down:
                lo_c, hi_c = span(down[0])
                row = fill([(first, lo_c), (hi_c, last)], row, cap - base)
            else:
                row = fill([(first, last)], row, cap - base)
        if wanted:
            down.append(~u)
        if down:
            stack.append((pair_up(down), row, cap + 1, base))
    return swings


def _cell_sum(row: int, cell_bits: int) -> int:
    """Sum of a packed row's cells, when that sum fits in one cell: fold the
    high half of the cells onto the low half until one cell is left."""
    cells = -(-row.bit_length() // cell_bits)
    while cells > 1:
        low = cells // 2 * cell_bits
        row = (row >> low) + (row & (1 << low) - 1)
        cells -= cells // 2
    return row


def _per_size(packed: int, n: int, slot_bits: int) -> list[int]:
    """Unpack a packed swing count: slot ``e`` is coalition size ``n-1-e``."""
    mask = (1 << slot_bits) - 1
    return [(packed >> (n - 1 - s) * slot_bits) & mask for s in range(n)]


def swing_counts_dp(election: LiquidElection, voter: int) -> tuple[int, ...]:
    """Per-size swing counts for any voter, via the counting tables."""
    # counts never exceed 2**n, so n + 2 bits keep every slot apart
    slot_bits = election.n + 2
    packed = _walk(election, slot_bits, voter)[voter]
    return tuple(_per_size(packed, election.n, slot_bits))


def banzhaf_dp(election: LiquidElection, voter: int) -> Fraction:
    """Penetration power of a voter, computed by the size-free tables."""
    _, denominator = measure_weights(MeasureKind.BANZHAF, election.n)
    return Fraction(_walk(election, 0, voter)[voter], denominator)


def shapley_dp(election: LiquidElection, voter: int) -> Fraction:
    """Pivotal-order power of a voter, computed by the counting tables."""
    weights = measure_weights(MeasureKind.SHAPLEY, election.n)
    return counts_to_power(swing_counts_dp(election, voter), *weights)


def all_indices_dp(election: LiquidElection, kind: MeasureKind) -> IndexReport:
    """Power values of every voter under one measure, in one walk."""
    kind = MeasureKind(kind)
    n = election.n
    size_weights, denominator = measure_weights(kind, n)
    if kind is MeasureKind.BANZHAF:
        # the size-free walk sums the unit size weights itself
        values = tuple(Fraction(s, denominator) for s in _walk(election, 0))
    else:
        slot_bits = n + 2
        values = tuple(
            counts_to_power(_per_size(s, n, slot_bits), size_weights, denominator)
            for s in _walk(election, slot_bits)
        )
    return IndexReport(kind=kind, values=values)
