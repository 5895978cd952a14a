"""Instance generator owned by the benchmark.

``random_election`` follows the draw order of the test suite's generator
(network arcs, then weights, then a permutation-ordered acyclic profile,
then the quota), so the criterion seeds 10_001, 77_001, 88_001 and 99_001
rebuild the instances the acceptance tests use.  It returns the 1-based
JSON instance document only: the program under test receives nothing else.
"""

from __future__ import annotations

import hashlib
import json
import random


def _complete_rows(n: int) -> list[list[int]]:
    return [[j for j in range(n) if j != i] for i in range(n)]


def _random_rows(rng: random.Random, n: int, arc_prob: float) -> list[list[int]]:
    rows: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < arc_prob:
                rows[i].append(j)
    return rows


def _random_choices(rng: random.Random, rows, delegate_prob: float) -> list:
    """Acyclic choices: voters only delegate to earlier voters of a shuffle."""
    n = len(rows)
    order = list(range(n))
    rng.shuffle(order)
    rank = {v: i for i, v in enumerate(order)}
    choices: list = [None] * n
    for v in range(n):
        candidates = [u for u in rows[v] if rank[u] < rank[v]]
        if candidates and rng.random() < delegate_prob:
            choices[v] = rng.choice(candidates)
    return choices


def document(rows, weights, choices, quota) -> dict:
    """1-based instance document in the program's interchange format."""
    return {
        "n": len(rows),
        "weights": list(weights),
        "arcs": [[i + 1, j + 1] for i, row in enumerate(rows) for j in row],
        "delegations": {
            str(i + 1): (i + 1 if c is None else c + 1) for i, c in enumerate(choices)
        },
        "quota": quota,
    }


def random_election(
    rng: random.Random,
    n_min: int = 2,
    n_max: int = 10,
    w_max: int = 4,
    arc_prob: float = 0.5,
    delegate_prob: float = 0.6,
    complete: bool = False,
) -> dict:
    n = rng.randint(n_min, n_max)
    rows = _complete_rows(n) if complete else _random_rows(rng, n, arc_prob)
    weights = [rng.randint(1, w_max) for _ in range(n)]
    choices = _random_choices(rng, rows, delegate_prob)
    total = sum(weights)
    # bias toward majority quotas but cover the whole legal band
    lo = total // 2 + 1 if rng.random() < 0.7 else 1
    quota = rng.randint(min(lo, total), total)
    return document(rows, weights, choices, quota)


def fixed_degree_election(rng: random.Random, n: int, degree: int, w_max: int = 4) -> dict:
    """Like :func:`random_election`, but every voter has exactly ``degree``
    out-arcs to distinct random voters, and a majority-band quota."""
    rows = [sorted(rng.sample([j for j in range(n) if j != i], degree)) for i in range(n)]
    weights = [rng.randint(1, w_max) for _ in range(n)]
    choices = _random_choices(rng, rows, 0.6)
    total = sum(weights)
    quota = rng.randint(total // 2 + 1, total)
    return document(rows, weights, choices, quota)


# criterion seed -> (seed, the generator arguments that criterion's first
# draw uses, given the seeded rng); the instances the acceptance tests use
CRITERION_FIRST_INSTANCES = {
    "criterion_07": (77_001, lambda rng: dict(n_min=(n := rng.randint(3, 8)), n_max=n, w_max=4, complete=True)),
    "criterion_08": (88_001, lambda rng: dict(n_min=2, n_max=8, w_max=3, complete=True)),
    "criterion_09": (99_001, lambda rng: dict(n_min=3, n_max=9, w_max=4)),
    "criterion_10": (10_001, lambda rng: dict(n_min=60, n_max=60, w_max=8, delegate_prob=0.75)),
}


def scaled(doc: dict, factor: int) -> dict:
    """The same game with every weight and the quota multiplied by ``factor``."""
    out = dict(doc)
    out["weights"] = [w * factor for w in doc["weights"]]
    out["quota"] = doc["quota"] * factor
    return out


def digest(doc: dict) -> str:
    """sha256 of the canonical document text (not the program's digest)."""
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


# -- small helpers the workloads use on documents ----------------------------


def choices_of(doc: dict) -> list:
    """0-based delegation choices of a document, ``None`` for self-voters."""
    n = doc["n"]
    choices: list = [None] * n
    for key, target in doc["delegations"].items():
        v = int(key) - 1
        choices[v] = None if target == v + 1 else target - 1
    return choices


def out_rows(doc: dict) -> list[list[int]]:
    rows: list[list[int]] = [[] for _ in range(doc["n"])]
    for a, b in doc["arcs"]:
        rows[a - 1].append(b - 1)
    return rows


def gurus_of(doc: dict) -> list[int]:
    return [v for v, c in enumerate(choices_of(doc)) if c is None]


def subtree_weight(doc: dict, voter: int) -> int:
    """Weight whose delegation chain passes through ``voter`` (0-based)."""
    choices = choices_of(doc)
    total = 0
    for v in range(doc["n"]):
        u = v
        while u is not None and u != voter:
            u = choices[u]
        if u == voter:
            total += doc["weights"][v]
    return total
