"""Vectorized whole-game evaluation for small voter counts, many profiles at once.

The solvers that score thousands of candidate delegation profiles (bribery
search, weight maximization, maximin search) need the power of one or all
voters per profile.  At ``2**n <= 256`` coalitions a single profile is only a
few hundred table cells, so the cost of one numpy pass per profile is almost
all call overhead.  This module therefore works on blocks of P profiles,
each given as a row of parents (a self-voter is its own parent, so a row
equals :meth:`DelegationProfile.sort_key`):

* :func:`chain_masks` resolves every voter's delegation chain, and tells the
  acyclic rows apart, by pointer doubling in ``ceil(log2 n)`` array steps;
* :func:`coalition_weight_table` computes the active-member weight of every
  coalition mask for all P profiles (a ``(P, 2**n)`` table);
* :func:`swing_counts_from_table` derives per-size swing counts of one voter
  for all P profiles from two table lookups per coalition;
* :func:`best_rank` picks a block's winner under the search solvers' shared
  tie-break.

:func:`batches` cuts a stream of profiles into chunks of at most
:data:`CHUNK_CELLS` table cells.  Results are exact integers; weights are
divided by their gcd (:func:`reduced_weights`) so that tables stay in int64,
and games whose reduced total weight still overflows are refused.  The
pure-Python enumeration in :mod:`liquidpower.exact` serves as the independent
cross-check.
"""

from __future__ import annotations

from itertools import accumulate, islice
from math import comb, gcd

import numpy as np

from .core import SELF, find_delegation_cycle
from .errors import CycleInDelegations, InstanceTooLargeForEnumeration

TABLE_LIMIT = 16  # 2^16 coalition masks is the comfort ceiling for this path
CHUNK_CELLS = 1 << 16  # table cells per batch: 256 profiles at n=8
INT64_MAX = (1 << 63) - 1
MASK_BITS = 63  # voters a non-negative int64 chain mask can hold


def batches(profiles, n: int):
    """Consecutive lists of ``profiles`` whose ``n``-voter tables fill at
    most :data:`CHUNK_CELLS` cells together (always at least one profile)."""
    size = max(1, CHUNK_CELLS >> n)
    it = iter(profiles)
    while chunk := list(islice(it, size)):
        yield chunk


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


def reduced_weights(weights) -> tuple[int, np.ndarray]:
    """``(g, weights // g)`` with ``g`` the weights' gcd, as int64.

    Dividing every weight by ``g`` and rounding the quota up to
    ``ceil(quota / g)`` keeps every comparison of a coalition weight with
    the quota, and a reduced weight sum times ``g`` is the true sum.  Raises
    :class:`InstanceTooLargeForEnumeration` when even the reduced total
    weight does not fit int64.
    """
    g = gcd(*weights)
    reduced = [w // g for w in weights]
    if sum(reduced) > INT64_MAX:
        raise InstanceTooLargeForEnumeration(
            f"total weight {sum(weights)} over the weights' gcd {g} "
            "overflows the 64-bit coalition tables"
        )
    return g, np.array(reduced, dtype=np.int64)


def coalition_weight_table(masks, weights) -> np.ndarray:
    """Active-member weight of every coalition mask, one row per profile.

    ``masks`` is a ``(P, n)`` array of chain masks of acyclic profiles (see
    :func:`chain_masks`); the result is a ``(P, 2**n)`` int64 array.  A
    voter is active in a coalition when its whole chain is in it, so a
    coalition's weight is the sum over its subsets of the weight of the
    voters whose chain is exactly that subset (a subset-sum transform).
    """
    masks = np.asarray(masks, dtype=np.int64)
    p, n = masks.shape
    if n > TABLE_LIMIT:
        raise InstanceTooLargeForEnumeration(
            f"{n} voters exceed the coalition-table limit of {TABLE_LIMIT}"
        )
    if sum(map(int, weights)) > INT64_MAX:
        raise InstanceTooLargeForEnumeration(
            "total weight overflows the 64-bit coalition tables"
        )
    # one column per profile, so each transform step adds contiguous blocks;
    # the voters of one profile have distinct chains, so no cell is set twice
    table = np.zeros((1 << n, p), dtype=np.int64)
    table[masks, np.arange(p)[:, None]] = np.asarray(weights, dtype=np.int64)
    for b in range(n):
        halves = table.reshape(-1, 2, 1 << b, p)
        halves[:, 1] += halves[:, 0]
    return table.T


def swing_counts_from_table(
    gamma: np.ndarray, n: int, quota: int, voter: int
) -> np.ndarray:
    """Per-size swing counts of one voter for every row of a weight table.

    Returns a ``(P, n)`` int64 array: entry ``[p, s]`` counts the coalitions
    of size ``s`` without ``voter`` that ``voter`` turns from losing to
    winning under profile ``p``.
    """
    p = len(gamma)
    # split every mask at the voter's bit: [:, 0] lacks the voter, [:, 1]
    # is the same coalition with it; a swing wins only with the voter
    wins = (gamma.T >= quota).reshape(-1, 2, 1 << voter, p)
    swing = (wins[:, 1] > wins[:, 0]).reshape(-1, p)
    # row r of ``swing`` is the coalition whose other members are the bits
    # of r; sum the rows size by size (C(n-1, s) rows of size s)
    sizes = np.fromiter(map(int.bit_count, range(1 << n - 1)), np.intp, 1 << n - 1)
    by_size = swing.take(sizes.argsort(kind="stable"), axis=0)
    starts = [0, *accumulate(comb(n - 1, s) for s in range(n - 1))]
    return np.add.reduceat(by_size, starts, axis=0, dtype=np.int64).T


def best_rank(keys, changes, parents) -> tuple[int, int, tuple[int, ...]]:
    """The smallest ``(-key, changes, parent row)`` over a block's rows.

    That is the row with the highest key, then the fewest changes, then the
    lexicographically smallest parent row.  The search solvers share this
    total order, so comparing the ranks of consecutive blocks finds the
    same winner as a scan over single profiles.
    """
    at = np.flatnonzero(keys == keys.max())
    at = at[changes[at] == changes[at].min()]
    i = at[np.lexsort(parents[at].T[::-1])[0]]
    return -int(keys[i]), int(changes[i]), tuple(parents[i].tolist())


def all_swing_counts_fast(choices, weights, quota) -> list[list[int]]:
    """Per-size swing counts of every voter of one profile.

    ``result[v][s]`` counts the coalitions of size ``s`` without ``v`` that
    ``v`` turns from losing to winning; all voters share one weight table
    and one pass over it.
    """
    n = len(choices)
    parents = [[v if c is SELF else c for v, c in enumerate(choices)]]
    masks, acyclic = chain_masks(parents)
    if not acyclic[0]:
        raise CycleInDelegations(find_delegation_cycle(choices))
    g, reduced = reduced_weights(weights)
    wins = coalition_weight_table(masks, reduced)[0] >= -(-quota // g)
    voters = np.arange(n)[:, None]
    coalitions = np.arange(1 << n)
    members = coalitions >> voters & 1  # [v, C]: is v in C
    # v swings C (v not in C) when C loses and C plus v wins; the key
    # v * n + |C| files the swing under its voter and coalition size
    swings = (members == 0) & ~wins & wins[coalitions | 1 << voters]
    keys = (voters * n + members.sum(axis=0))[swings]
    return np.bincount(keys, minlength=n * n).reshape(n, n).tolist()


def swing_counts_fast(choices, weights, quota, voter) -> list[int]:
    """Per-size swing counts of one voter of one profile."""
    return all_swing_counts_fast(choices, weights, quota)[voter]
