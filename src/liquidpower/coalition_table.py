"""Vectorized whole-game evaluation for small voter counts, many profiles at once.

The solvers that score thousands of candidate delegation profiles (bribery
search, weight maximization, maximin search) need the power of one or all
voters per profile.  At ``2**n <= 256`` coalitions a single profile is only a
few hundred table cells, so the cost of one numpy pass per profile is almost
all call overhead.  This module therefore works on blocks of P profiles,
each given as a row of parents (a self-voter is its own parent, so a row
equals :meth:`DelegationProfile.sort_key`):

* :func:`product_blocks` generates the acyclic candidate rows of a stream
  of products (a base row whose free voters range over option pools) in
  blocks of :func:`walk_rows` rows; bribery's change neighbourhood and
  maximin's root sets are such streams;
* :func:`chain_masks` resolves every voter's delegation chain, and tells the
  acyclic rows apart, by pointer doubling in ``ceil(log2 n)`` array steps;
  :func:`chain_roots` repeats that loop without the masks when only each
  voter's root is needed (a copy, so ``chain_masks`` computes no roots);
* :func:`coalition_weight_table` computes the active-member weight of every
  coalition mask for all P profiles (a ``(P, 2**n)`` table, in the type
  :func:`table_dtype` picks), and :func:`check_table_work` refuses a search
  whose tables cost too much;
* :func:`swing_counts_from_table` sums, for any set of voters and all P
  profiles at once, a per-size weight over the coalitions each voter swings:
  all-ones weights give the swing total, ``s!(n-1-s)!`` the Shapley
  numerator (:func:`liquidpower.exact.measure_weights`), a unit vector the
  count of one size; :func:`swing_counts` runs table and kernel over a block
  of any size, :func:`table_rows` profiles at a time;
* :func:`best_row` is every search's winner: the row with the highest
  score, then the fewest changes, then the smallest parent row, over a
  stream of ``(parents, resolved, changes)`` blocks.

Results are exact integers.  No table cell exceeds the total weight, so a
table is filled in the narrowest signed integer type that holds it, int8 up
to int64; the searches score the gcd-reduced game (``LiquidElection.reduced``)
so that totals stay small, and games whose reduced total weight still
overflows int64 are refused.  The test suite checks the tables against
:mod:`liquidpower.exact`'s bit-sliced counts and an independent oracle.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from math import prod

import numpy as np

from .errors import InstanceTooLargeForEnumeration

TABLE_LIMIT = 16  # 2^16 coalition masks is the comfort ceiling for this path
CHUNK_CELLS = 1 << 16  # table cells per batch: 256 profiles at n=8
INT32_MAX = (1 << 31) - 1
# the table types, narrowest first, each with the largest total it holds
TABLE_DTYPES = [
    (np.iinfo(t).max, np.dtype(t)) for t in (np.int8, np.int16, np.int32, np.int64)
]
MASK_BITS = 63  # voters a non-negative int64 chain mask can hold
WORK_CAP = 400_000 * 11 << 10  # table work of bribery over 400,000 profiles of 10 voters


def product_blocks(products, n: int, resolve):
    """The acyclic candidate rows of a stream of products, in numpy blocks.

    Each product is ``(base, free, pools)``: a length-``n`` parent row, a
    sequence of free voters and one option array per free voter; its
    candidates are the base row with every free voter set to each
    combination of its pool's options, in :func:`itertools.product` order
    (the last free voter fastest).  Candidates of consecutive products share
    blocks of :func:`walk_rows` rows, a large product being sliced over
    several, and ``resolve`` (:func:`chain_masks` or :func:`chain_roots`)
    finds each block's acyclic rows.  Yields ``(parents, resolved,
    free_counts)`` for them: the ``(P, n)`` parent rows, what ``resolve``
    gives for them and each row's number of free voters; a block whose
    rows are all cyclic yields nothing.
    """
    rows = walk_rows(n)
    buffer = np.empty((rows, n), dtype=np.intp)
    free_counts = np.empty(rows, dtype=np.intp)

    def acyclic(size):  # copies of the acyclic rows among the first ``size``
        resolved, keep = resolve(buffer[:size])
        if keep.any():
            yield buffer[:size][keep], resolved[keep], free_counts[:size][keep]

    filled = 0
    for base, free, pools in products:
        shape = [len(pool) for pool in pools]
        total = prod(shape)
        start = 0
        while start < total:
            stop = min(total, start + rows - filled)
            block = buffer[filled : filled + stop - start]
            block[:] = base
            # candidate i of the product: its digits in the pools' mixed
            # radix, the last free voter fastest
            if shape:
                digits = np.unravel_index(np.arange(start, stop), shape)
                for v, pool, digit in zip(free, pools, digits):
                    block[:, v] = pool[digit]
            free_counts[filled : filled + stop - start] = len(free)
            filled += stop - start
            start = stop
            if filled == rows:
                yield from acyclic(rows)
                filled = 0
    if filled:
        yield from acyclic(filled)


def table_rows(n: int) -> int:
    """Rows per block whose ``(rows, 2**n)`` coalition tables hold at most
    :data:`CHUNK_CELLS` cells (one row when a single table is larger)."""
    return max(1, CHUNK_CELLS >> n)


def walk_rows(n: int) -> int:
    """Rows per candidate block a search walks: about ``CHUNK_CELLS / 4``
    parent entries, and at least :func:`table_rows`, so that the acyclic
    rows left of a block still fill most tables."""
    return max(table_rows(n), CHUNK_CELLS // (4 * n))


def chain_masks(parents) -> tuple[np.ndarray, np.ndarray]:
    """Chain masks of every voter in every row of a ``(P, n)`` parent array.

    Returns ``(masks, acyclic)``: ``masks[p, v]`` (int64) has the bits of
    the voters on ``v``'s delegation chain, ``v`` included, and
    ``acyclic[p]`` tells whether row ``p`` is free of delegation cycles
    (masks of cyclic rows are meaningless).  Pointer doubling: after step
    ``s`` a voter's mask covers the ``2**s`` nearest voters of its chain and
    its jump points ``2**s`` steps up (a root points at itself), so
    ``ceil(log2 n)`` steps cover every chain of an acyclic row, and a row is
    acyclic exactly when every jump has landed on a root.
    """
    parents = np.asarray(parents, dtype=np.intp)
    p, n = parents.shape
    if n > MASK_BITS:
        raise InstanceTooLargeForEnumeration(
            f"{n} voters exceed the {MASK_BITS} bits of a chain mask"
        )
    # flat indices into the (P, n) block, so one gather serves all rows
    flat = (parents + np.arange(0, p * n, n, dtype=np.intp)[:, None]).ravel()
    masks = np.tile(np.left_shift(1, np.arange(n, dtype=np.int64)), p)
    jump = flat
    for _ in range(max(1, (n - 1).bit_length())):
        masks |= masks[jump]
        jump = jump[jump]
    acyclic = (flat[jump] == jump).reshape(p, n).all(axis=1)
    return masks.reshape(p, n), acyclic


def chain_roots(parents) -> tuple[np.ndarray, np.ndarray]:
    """Root of every voter in every row of a ``(P, n)`` parent array.

    Returns ``(roots, acyclic)``: ``roots[p, v]`` is the voter at the end of
    ``v``'s delegation chain in row ``p`` (meaningless in cyclic rows) and
    ``acyclic`` is as in :func:`chain_masks`, whose doubling loop this is
    without the masks; so it has no voter limit.
    """
    parents = np.asarray(parents, dtype=np.intp)
    p, n = parents.shape
    offsets = np.arange(0, p * n, n, dtype=np.intp)[:, None]
    flat = (parents + offsets).ravel()
    jump = flat
    for _ in range(max(1, (n - 1).bit_length())):
        jump = jump[jump]
    acyclic = (flat[jump] == jump).reshape(p, n).all(axis=1)
    return jump.reshape(p, n) - offsets, acyclic


def check_table_work(passes, n: int) -> None:
    """Refuse a search whose table work exceeds :data:`WORK_CAP`, before any
    of it.  ``passes`` counts passes over ``2**n`` cells: a profile scored
    for ``s`` voters takes ``n`` subset-sum and ``s`` swing passes, and
    walking a candidate row costs about one.  It is read lazily after the
    voter check, so a refusal stops the counting."""
    if n > TABLE_LIMIT:
        raise InstanceTooLargeForEnumeration(
            f"{n} voters exceed the coalition-table limit of {TABLE_LIMIT}"
        )
    for total in accumulate(passes):
        if (work := total << n) > WORK_CAP:
            raise InstanceTooLargeForEnumeration(
                f"{work}+ units of table work ({total}+ passes over the "
                f"coalitions of {n} voters) exceed the cap of {WORK_CAP}"
            )


def table_dtype(weights) -> np.dtype:
    """The narrowest signed integer type of :data:`TABLE_DTYPES` that holds
    the total of the (positive) ``weights``.

    A table cell, and every partial sum the subset-sum transform writes, is
    the weight of a set of distinct voters, so none exceeds that total.
    Raises :class:`InstanceTooLargeForEnumeration` when not even int64
    holds it.
    """
    total = sum(map(int, weights))
    for top, dtype in TABLE_DTYPES:
        if total <= top:
            return dtype
    raise InstanceTooLargeForEnumeration(
        f"total weight {total} overflows the 64-bit coalition tables"
    )


def coalition_weight_table(masks, weights) -> np.ndarray:
    """Active-member weight of every coalition mask, one row per profile.

    ``masks`` is a ``(P, n)`` array of chain masks of acyclic profiles (see
    :func:`chain_masks`); the result is a ``(P, 2**n)`` array of the type
    :func:`table_dtype` picks for ``weights``.  A voter is active in a
    coalition when its whole chain is in it, so a coalition's weight is the
    sum over its subsets of the weight of the voters whose chain is exactly
    that subset (a subset-sum transform).
    """
    masks = np.asarray(masks, dtype=np.int64)
    p, n = masks.shape
    if n > TABLE_LIMIT:
        raise InstanceTooLargeForEnumeration(
            f"{n} voters exceed the coalition-table limit of {TABLE_LIMIT}"
        )
    dtype = table_dtype(weights)
    # one column per profile, so each transform step adds contiguous blocks;
    # the voters of one profile have distinct chains, so no cell is set twice
    table = np.zeros((1 << n, p), dtype=dtype)
    table[masks, np.arange(p)[:, None]] = np.asarray(weights, dtype=dtype)
    for b in range(n):
        halves = table.reshape(-1, 2, 1 << b, p)
        halves[:, 1] += halves[:, 0]
    return table.T


@lru_cache(maxsize=None)  # counting per call took half of an n=16 search
def _coalition_sizes(half: int) -> np.ndarray:
    """Member count of every coalition mask below ``half``."""
    sizes = np.fromiter(map(int.bit_count, range(half)), np.intp, half)
    sizes.flags.writeable = False  # cached, shared
    return sizes


def swing_counts_from_table(
    gamma: np.ndarray, n: int, quota: int, voters, size_weights
) -> np.ndarray:
    """Size-weighted swing counts of some voters for every row of a table.

    ``gamma`` is a ``(P, 2**n)`` table of :func:`coalition_weight_table`,
    compared with ``quota`` in its own type; the result is a
    ``(P, len(voters))`` int64 array whose entry ``[p, i]`` sums
    ``size_weights[|C|]`` over the coalitions ``C`` without ``voters[i]``
    that the voter turns from losing to winning under profile ``p``.  Size
    weights with a trailing axis give a trailing result axis: the ``n x n``
    identity yields ``[p, i, s]``, the count of size ``s``.
    """
    # the table's columns are contiguous (one per profile)
    wins = gamma.T >= quota
    p = wins.shape[1]
    half = 1 << n - 1
    swing = np.empty((len(voters), half, p), dtype=bool)
    for i, v in enumerate(voters):
        # split every mask at the voter's bit: [:, 0] lacks the voter, [:, 1]
        # is the same coalition with it; a swing wins only with the voter.
        # Row r of the split is the coalition whose other members are r's bits
        split = wins.reshape(-1, 2, 1 << v, p)
        np.greater(split[:, 1], split[:, 0], out=swing[i].reshape(-1, 1 << v, p))
    weights = np.asarray(size_weights, dtype=np.int64)[_coalition_sizes(half)]
    # einsum sums in the weights' dtype; no entry exceeds their sum (at most
    # 16! for Shapley's), and while that fits int32 the sums run about 3x faster
    if int(np.abs(weights).sum()) <= INT32_MAX:
        weights = weights.astype(np.int32)
    return np.einsum("vrp,r...->pv...", swing, weights).astype(np.int64)


def swing_counts(masks, weights, quota: int, voters, size_weights) -> np.ndarray:
    """:func:`swing_counts_from_table` for every row of a ``(P, n)`` block
    of chain masks, the tables built :func:`table_rows` rows at a time;
    ``weights`` and ``quota`` as ``LiquidElection.reduced`` gives them."""
    n = masks.shape[1]
    rows = table_rows(n)
    tables = (
        coalition_weight_table(masks[start : start + rows], weights)
        for start in range(0, len(masks), rows)
    )
    return np.concatenate(
        [swing_counts_from_table(t, n, quota, voters, size_weights) for t in tables]
    )


def best_row(blocks, score) -> tuple[int, int, tuple[int, ...]] | None:
    """The winner of a search over a stream of ``(parents, resolved,
    changes)`` blocks, as ``(-key, changes, parent row)``: the row with the
    highest key ``score(resolved)``, then the fewest changes, then the
    lexicographically smallest parent row, as a scan would find it; None
    when the stream is empty."""

    def rank(parents, resolved, changes):
        keys = score(resolved)
        at = np.flatnonzero(keys == keys.max())
        at = at[changes[at] == changes[at].min()]
        i = at[np.lexsort(parents[at].T[::-1])[0]]
        return -int(keys[i]), int(changes[i]), tuple(parents[i].tolist())

    return min((rank(*block) for block in blocks), default=None)
