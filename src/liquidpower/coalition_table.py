"""Vectorized whole-game evaluation for small voter counts, many profiles at once.

The solvers that score thousands of candidate delegation profiles (bribery
search, maximin search) need the power of one or all voters per profile.
At ``2**n <= 256`` coalitions a single profile is only a few hundred table
cells, so the cost of one numpy pass per profile is almost all call
overhead.  This module therefore works on batches: it computes, with numpy,
the active-member weight of every coalition mask for P profiles at once (a
``(P, 2**n)`` table), and derives per-size swing counts for all P profiles
from two table lookups per coalition.  :func:`batches` cuts a stream of
profiles into chunks of at most :data:`CHUNK_CELLS` table cells.  Results
are exact integers; the pure-Python enumeration in :mod:`liquidpower.exact`
serves as the independent cross-check.
"""

from __future__ import annotations

from itertools import accumulate, islice
from math import comb

import numpy as np

from .errors import InstanceTooLargeForEnumeration

TABLE_LIMIT = 16  # 2^16 coalition masks is the comfort ceiling for this path
CHUNK_CELLS = 1 << 16  # table cells per batch: 256 profiles at n=8


def batches(profiles, n: int):
    """Consecutive lists of ``profiles`` whose ``n``-voter tables fill at
    most :data:`CHUNK_CELLS` cells together (always at least one profile)."""
    size = max(1, CHUNK_CELLS >> n)
    it = iter(profiles)
    while chunk := list(islice(it, size)):
        yield chunk


def chain_masks_of(choices) -> list[int]:
    """Bitmask of each voter's delegation chain (voter included)."""
    n = len(choices)
    masks: list[int | None] = [None] * n
    for v in range(n):
        if masks[v] is not None:
            continue
        stack = []
        u = v
        while masks[u] is None:
            stack.append(u)
            if choices[u] is None:
                masks[u] = 1 << u
                break
            u = choices[u]
        for w in reversed(stack):
            if masks[w] is None:
                masks[w] = (1 << w) | masks[choices[w]]
    return masks  # type: ignore[return-value]


def coalition_weight_table(choice_rows, weights) -> np.ndarray:
    """Active-member weight of every coalition mask, one row per profile.

    ``choice_rows`` is a sequence of P profiles' choices over the same
    voters and ``weights``; the result is a ``(P, 2**n)`` int64 array.  A
    voter is active in a coalition when its whole chain is in it, so a
    coalition's weight is the sum over its subsets of the weight of the
    voters whose chain is exactly that subset (a subset-sum transform).
    """
    n = len(weights)
    if n > TABLE_LIMIT:
        raise InstanceTooLargeForEnumeration(
            f"{n} voters exceed the coalition-table limit of {TABLE_LIMIT}"
        )
    chains = np.array(
        [chain_masks_of(choices) for choices in choice_rows], dtype=np.intp
    ).reshape(-1, n)
    p = len(chains)
    # one column per profile, so each transform step adds contiguous blocks;
    # the voters of one profile have distinct chains, so no cell is set twice
    table = np.zeros((1 << n, p), dtype=np.int64)
    table[chains, np.arange(p)[:, None]] = np.array(weights, dtype=np.int64)
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


def swing_counts_fast(choices, weights, quota, voter) -> list[int]:
    """Per-size swing counts of one voter for an arbitrary profile."""
    gamma = coalition_weight_table([choices], weights)
    return swing_counts_from_table(gamma, len(choices), quota, voter)[0].tolist()


def all_swing_counts_fast(choices, weights, quota) -> list[list[int]]:
    """Per-size swing counts of every voter (shared weight table)."""
    gamma = coalition_weight_table([choices], weights)
    n = len(choices)
    return [swing_counts_from_table(gamma, n, quota, v)[0].tolist() for v in range(n)]
