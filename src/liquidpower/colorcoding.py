"""Weight maximisation by Monte-Carlo colour coding, parameterized by the
weight still missing.

A witness tree brings in at most ``req`` outside voters, so random
colourings with ``req + 1`` colours make one colourful often enough;
``solve_fpt_colorcoding`` fills, per batch of colourings, numpy tables of
the heaviest colourful trees and answers "yes" only on a re-validated
witness.  The fill runs one colour-set size at a time and stops at the
first size at which the batch's first colouring reaches the threshold; it
resumes only when that colouring's witness fails.  The witness is read back
by a plain-Python scan that stops at the first join.  The problem types,
the cost graph and the reach step come from :mod:`~liquidpower.weightmax`.
"""

from __future__ import annotations

import random
from functools import lru_cache
from math import ceil, exp, log

import numpy as np

from . import coalition_table
from .core import rational_field
from .errors import ParameterTooLarge
from .weightmax import (
    CostedDigraph,
    WeightMaxOutcome,
    WeightMaxProblem,
    _current_support_no,
    _outcome,
    _reachable,
    build_cost_graph,
)

FPT_REQUIREMENT_LIMIT = 8

# Table sentinel for "no such colorful tree".  An entry for a color set adds
# at most one vertex weight per color, below 2^61 in all (the solver refuses
# larger total weights), to either zero (a real tree) or the sentinel that
# every maximum starts from.  So missing entries lie in [_NEG, _NEG + 2^61),
# and the sum of two entries of disjoint color sets fits in int64 and is
# negative exactly when one side is missing.  No split fills a set without
# its root's color, nor the empty set, so those entries stay exactly _NEG.
_NEG = -(1 << 62)


def _collapsed_graph(problem: WeightMaxProblem, cost: CostedDigraph, tree: set[int]):
    """Shrink the target's tree (``tree``) in the cost graph to one super vertex.

    No voter outside the tree currently delegates into it (it would be a
    member), so every arc from an outsider to a tree member costs one change;
    the super vertex gets one such arc per outsider, and the least member the
    outsider may delegate to stands for it in the witness.  Tree members
    never profit from delegating outward, so the super vertex gets no
    in-arcs.
    """
    election = problem.election
    outside = [v for v in range(election.n) if v not in tree]
    index = {v: i for i, v in enumerate(outside)}
    super_idx = len(outside)
    vertex_weights = [election.weights[v] for v in outside] + [problem.base_support]
    representative: dict[int, int] = {}
    for member in sorted(tree):
        for child, _ in cost.out[member]:
            if child not in tree:
                representative.setdefault(index[child], member)
    arcs = [
        (index[parent], index[child], price)
        for parent in outside
        for child, price in cost.out[parent]
        if child not in tree
    ]
    arcs += [(super_idx, child, 1) for child in sorted(representative)]
    return outside, super_idx, vertex_weights, arcs, representative


def _arc_groups(arcs) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The ``(parent, child)`` rows of ``arcs``, stably sorted by parent,
    whether each arc costs a change (an ``(arcs, 1, 1)`` mask), and the
    start of each parent's run and that parent, so one reduceat folds arcs
    into parents."""
    arcs = np.array(sorted(arcs, key=lambda arc: arc[0]))
    parents = arcs[:, 0]
    starts = np.flatnonzero(np.concatenate(([True], parents[1:] != parents[:-1])))
    return arcs[:, :2], arcs[:, 2, None, None] == 1, starts, parents[starts]


@lru_cache(maxsize=None)
def _pair_splits(r: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """The splits of each size that an arc can join, per color pair.

    An arc from a vertex of color ``a`` to one of color ``b`` joins a tree
    at its parent, whose colors hold ``a``, to one hanging below its child,
    whose colors hold ``b``; every other split has a ``_NEG`` side.  Entry
    ``size - 2`` is ``(ends, place, masks)``: ``masks`` holds the sets of
    ``size`` colors, ascending; ``ends[a * r + b]`` is a ``(2, C(r - 2,
    size - 2), 2^(size - 2))`` array of the kept and the hanging part of
    each split of the sets that hold ``a`` and ``b``, sets ascending,
    hanging parts holding ``b`` and not ``a``; and ``place[a * r + b]``
    gives each of those sets' index in ``masks``.  A pair ``a == b`` joins
    nothing: its parts are the empty set, where no tree is.
    """
    colors = np.arange(r)
    other = ~np.eye(r, dtype=bool)
    levels = []
    for size in range(2, r + 1):
        masks = np.array([m for m in range(1 << r) if m.bit_count() == size], dtype=np.int64)
        subs = np.arange((1 << r) - 2, 0, -1)  # nonempty proper submasks, largest first
        keep = (subs & masks[:, None] == subs) & (subs < masks[:, None])
        subs = np.broadcast_to(subs, keep.shape)[keep].reshape(len(masks), -1)
        held = (masks >> colors[:, None] & 1).astype(bool)  # (color, set)
        hung = (subs >> colors[:, None, None] & 1).astype(bool)  # (color, set, split)
        sets = held[:, None] & held & other[..., None]  # (a, b, set)
        splits = sets[..., None] & hung & ~hung[:, None]  # (a, b, set, split)
        m = np.count_nonzero(sets[0, 1])
        h = np.count_nonzero(splits[0, 1]) // m
        place = np.zeros((r, r, m), dtype=np.int64)
        place[other] = np.nonzero(sets)[2].reshape(-1, m)
        place[~other] = np.arange(m)  # distinct, so each arc writes a set once
        ends = np.zeros((r, r, 2, m, h), dtype=np.int64)
        ends[other, 1] = np.broadcast_to(subs, splits.shape)[splits].reshape(-1, m, h)
        ends[other, 0] = ends[other, 1] ^ masks[place[other], None]
        ends, place = ends.reshape(r * r, 2, m, h), place.reshape(r * r, m)
        ends.flags.writeable = place.flags.writeable = False  # cached, shared
        levels.append((ends, place, masks))
    return tuple(levels)


def _colorful_fill(colorings, wts, arc_groups, r, cost_cap):
    """Heaviest colorful trees for one batch of colorings, one size at a time.

    ``table[b, v, S, c]`` is the largest weight of a tree rooted at ``v``
    whose vertices carry each color of ``S`` exactly once under coloring
    ``b`` and whose arcs cost ``c`` changes; a negative entry means there is
    none, and it is exactly ``_NEG`` when ``S`` lacks ``v``'s color.  A set
    of two or more colors splits into the part kept at ``v`` and the part
    hanging below one arc; an arc joins only the splits that ``_pair_splits``
    lists for its ends' colors, 3^(r-2) in all, and none when they share a
    color.  Sets of one size depend only on smaller ones, so each size is
    filled in one pass over all its splits and ``arc_groups`` (see
    ``_arc_groups``), and the generator yields ``(table, masks)`` after each
    size of two or more colors, ``masks`` that size's sets: the sizes up to
    it are final, the larger ones still ``_NEG``.  The pass runs in chunks of
    whole colorings that hold about ``coalition_table.CHUNK_CELLS`` cells
    (read when the fill starts); a coloring too large for that alone is
    split into chunks of its sets, and a set too large alone into chunks of
    its hanging parts.
    """
    colorings = np.array(colorings, dtype=np.int64)
    batch, n_vertices = colorings.shape
    slots = cost_cap + 1
    table = np.full((batch, n_vertices, 1 << r, slots), _NEG, dtype=np.int64)
    rows = table.reshape(-1, slots)
    ids = np.arange(batch * n_vertices).reshape(batch, n_vertices) << r
    rows[ids + (1 << colorings), 0] = wts
    ends, shifted, starts, tops = arc_groups
    n_arcs = len(ends)
    pairs = colorings.take(ends, axis=1) @ np.array((r, 1))  # a * r + b per arc
    end_rows, top_rows = ids.take(ends, axis=1), ids.take(tops, axis=1)
    chunk_cells = coalition_table.CHUNK_CELLS
    for split_ends, place, masks in _pair_splits(r):
        _, _, m, h = split_ends.shape
        width = len(masks)
        step = max(1, chunk_cells // (n_arcs * slots * max(m * h, width)))
        for lo in range(0, batch, step):
            part = slice(lo, lo + step)
            pair = pairs[part]
            index = end_rows[part, ..., None, None] + split_ends.take(pair, axis=0)
            split_cells = len(pair) * n_arcs * slots
            h_step = min(h, max(1, chunk_cells // split_cells))
            m_step = max(1, chunk_cells // (split_cells * h_step))
            if width > m:  # each arc fills its own sets of the size
                folded = np.full((len(pair), n_arcs, width, slots), _NEG, dtype=np.int64)
            for m_lo in range(0, m, m_step):
                sets = slice(m_lo, m_lo + m_step)
                best = np.full((len(pair), n_arcs, min(m_step, m - m_lo), slots), _NEG, dtype=np.int64)
                for h_lo in range(0, h, h_step):
                    both = rows.take(index[..., sets, h_lo : h_lo + h_step], axis=0)
                    left, right = both[:, :, 0], both[:, :, 1]
                    for c1 in range(slots):  # (max, +) convolution over the costs
                        joined = np.maximum.reduce(left[..., c1, None] + right[..., : slots - c1], axis=3)
                        np.maximum(best[..., c1:], joined, out=best[..., c1:])
                np.copyto(best[..., 1:], best[..., :-1], where=shifted)  # the arc's own change
                np.copyto(best[..., 0], _NEG, where=shifted[..., 0])
                if width > m:
                    at = np.arange(len(pair))[:, None, None], np.arange(n_arcs)[:, None]
                    folded[(*at, place[pair, sets])] = best
                else:  # the one set of all r colors
                    folded = best
            rows[top_rows[part, :, None] + masks] = np.maximum.reduceat(folded, starts, axis=1)
        yield table, masks


def _first_join(cell, out_arcs, v, mask, c, value=None):
    """First candidate in one coloring's table that builds ``(v, mask, c)``.

    ``cell(b, m)`` is the list of costs at vertex ``b`` and mask ``m`` and
    ``out_arcs[v]`` lists ``v``'s ``(child, cost)`` arcs in the arc list's
    order.  Candidates run in (split, arc, c1) order: the submask hanging
    below the arc runs downward, then ``v``'s arcs, then ``c1``, the cost
    kept at ``v``.  A candidate joins when both of its sides exist and, if
    ``value`` is given, sum to it; the scan stops at the first.  The state
    must hold a tree of two or more vertices.  Returns ``(position, child,
    (own, c1), (sub, c2))``, ``position`` the candidate's (split, arc, c1)
    index.
    """
    i = 0
    sub = (mask - 1) & mask  # the nonempty proper submasks, downward
    while sub:
        own = mask ^ sub
        kept = cell(v, own)
        for j, (child, cost) in enumerate(out_arcs[v]):
            hung = cell(child, sub)
            for c1 in range(c - cost + 1):
                left, right = kept[c1], hung[c - cost - c1]
                if left >= 0 and right >= 0 and (value is None or left + right == value):
                    return (i, j, c1), child, (own, c1), (sub, c - cost - c1)
        i += 1
        sub = (sub - 1) & mask


def _colorful_witness(table, out_arcs, root, r, tau) -> list[tuple[int, int]]:
    """Arcs of the first tree in one coloring's ``table`` that reaches ``tau``.

    The color set is the first in (size, value) order whose root reaches
    ``tau``; within it, the cost whose first joinable candidate comes first
    (ties to the lower cost); below that, every state takes its first
    candidate that attains its value.  ``out_arcs`` is as for
    ``_first_join``.  No set larger than that one is read, so the sizes
    above it need not be filled; nor is any set of one color: the root
    alone must weigh less than ``tau``, and the empty set holds no tree.
    """
    # an entry is converted when first read: the scan reads about one in
    # seven, from nearly every vertex, so converting whole rows saves nothing
    cell = lru_cache(None)(lambda b, m: table[b, m].tolist())
    mask = next(
        m for *_, masks in _pair_splits(r) for m in masks.tolist() if max(cell(root, m)) >= tau
    )
    reaching = [c for c, value in enumerate(cell(root, mask)) if value >= tau]
    _, c = min((_first_join(cell, out_arcs, root, mask, c)[0], c) for c in reaching)
    tree = []
    states = [(root, mask, c)]
    while states:
        v, mask, c = states.pop()
        if not mask & (mask - 1):
            continue  # a single vertex
        _, child, (own, c1), (sub, c2) = _first_join(cell, out_arcs, v, mask, c, cell(v, mask)[c])
        tree.append((v, child))
        states += [(v, own, c1), (child, sub, c2)]
    return tree


def solve_fpt_colorcoding(
    problem: WeightMaxProblem,
    *,
    delta: float = 0.01,
    seed: int = 0,
) -> WeightMaxOutcome:
    """Randomized search for a small set of outsiders covering the deficit.

    Any inclusion-minimal witness adds at most ``req`` outside voters (each
    weighs at least one), so random colorings with req+1 colors make some
    witness colorful with probability at least e^-(req+1); repeating
    ceil(e^(req+1) * ln(1/delta)) times bounds the miss probability by
    ``delta``.  Answers "yes" only after re-validating an extracted witness,
    so false positives cannot occur; "no" may be wrong with probability at
    most ``delta``.

    Colorings are drawn from one seeded stream and scored in batches of 1,
    2, 4, ..., 128 and then 128 at a time, so a yes-instance usually pays for
    a few colorings, and a no-instance for all of them, as before.  The
    witness is read back, in ``_colorful_witness``'s fixed tie-break order,
    from the first coloring in draw order that validates, so a seed fixes it
    whatever the batch sizes.  The tables hold int64 sums: a total weight of
    2^61 or more is refused with ``ParameterTooLarge``.

    A batch's fill stops at the first color-set size at which its first
    coloring's root reaches ``tau``.  That coloring's witness reads only
    that size and smaller ones, which are final, so it is the witness of the
    whole table.  Only if it fails re-validation does the fill resume to the
    last size, for the batch's later colorings.  A no-instance fills every
    size of every batch.  Each state of a witness is read back by
    ``_first_join``'s scan, which stops at the first candidate that joins.
    """
    delta = rational_field(delta, "delta")
    if not 0 < delta < 1:
        raise ValueError("delta must lie strictly between 0 and 1")
    if problem.req_bar < 0 or problem.k_eff < 0:
        return _current_support_no(problem)
    if problem.req > FPT_REQUIREMENT_LIMIT:
        raise ParameterTooLarge(
            f"missing weight {problem.req} exceeds the limit of {FPT_REQUIREMENT_LIMIT}"
        )
    election = problem.election
    if problem.req <= 0:
        return _outcome(problem, {})

    # sound refusals: a witness tree holds only voters within k_eff changes
    # of the target, and k_eff redirections of such voters bring at most
    # k_eff of their current subtrees from outside the target's tree
    cost = build_cost_graph(election)
    near = _reachable(cost, problem.target, problem.k_eff)
    if sum(election.weights[v] for v in near) < problem.tau:
        return _current_support_no(problem)
    forest = election.forest
    tree = set(forest.subtree_of(problem.target))
    outside_weights = sorted(
        (forest.subtree_weight[v] for v in near if v not in tree), reverse=True
    )
    if problem.base_support + sum(outside_weights[: problem.k_eff]) < problem.tau:
        return _current_support_no(problem)

    # past the refusals, some tree member has an arc to an outsider in reach
    outside, super_idx, wts, arcs, representative = _collapsed_graph(problem, cost, tree)
    if sum(wts) >= 1 << 61:
        raise ParameterTooLarge(
            f"total weight {sum(wts)} reaches 2^61, the bound of the int64 tables"
        )
    n_vertices = super_idx + 1
    r = problem.req + 1
    cost_cap = min(problem.k_eff, problem.req)
    rounds = ceil(exp(r) * -log(delta))  # 1 / delta overflows when subnormal
    rng = random.Random(seed)
    arc_groups = _arc_groups(arcs)
    out_arcs = [[] for _ in range(n_vertices)]
    for parent, child, price in arcs:
        out_arcs[parent].append((child, price))

    def validated(table):
        """The outcome of ``table``'s witness if it validates, else None."""
        outcome = _outcome(problem, {
            outside[child]: (
                representative[child] if parent == super_idx else outside[parent]
            )
            for parent, child in _colorful_witness(
                table, out_arcs, super_idx, r, problem.tau
            )
        })
        if outcome.decision and outcome.changes <= problem.budget:
            return outcome
        return None

    done = 0
    while done < rounds:
        batch = min(done + 1, 128, rounds - done)  # 1, 2, 4, ..., 128, 128, ...
        colorings = [
            [rng.randrange(r) for _ in range(n_vertices)] for _ in range(batch)
        ]
        fill = _colorful_fill(colorings, wts, arc_groups, r, cost_cap)
        for table, masks in fill:
            if table[0, super_idx, masks].max() >= problem.tau:
                # the first coloring's witness reads only the sizes filled
                if outcome := validated(table[0]):
                    return outcome
                break
        for table, _ in fill:  # the later colorings may need every size
            pass
        reach = table[1:, super_idx].max(axis=(1, 2))
        for b in np.flatnonzero(reach >= problem.tau) + 1:
            if outcome := validated(table[b]):
                return outcome
        done += batch
    return _current_support_no(problem)

