#!/usr/bin/env python3
"""Build ``bench/refs/<workload>.json``: the reference answer of every pool case.

    python3 bench/build_refs.py [workload ...]

Run from the root of a checkout whose program is trusted (the answers are
the program's own).  Each reference is cross-checked against an independent
route where that is cheap: the test suite's brute-force oracle
(``tests/oracle.py``) for bribery, maximin and weight maximisation at n <= 6,
a numpy enumeration written here for the 20-voter game of the index
workload (and its x100 copy), and the Shapley-sum-equals-1 check for every
ordering-measure answer.  Also records the digests of the first instance of
each criterion seed, rebuilt by ``gen.py`` and by ``tests/support.py``.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
from collections import deque
from fractions import Fraction
from math import factorial

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import numpy as np  # noqa: E402

import gen  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from liquidpower import weightmax  # noqa: E402
from liquidpower.core import election_from_json  # noqa: E402

ORACLE_LIMIT = 6  # voters; larger instances are not cross-checked by the oracle


class CrossCheckFailed(Exception):
    pass


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise CrossCheckFailed(what)


# -- independent routes --------------------------------------------------------


def numpy_counts(doc: dict) -> list[list[int]]:
    """Per voter, per coalition size, the swings: all 2^n masks at once."""
    n = doc["n"]
    choices = gen.choices_of(doc)
    masks = np.arange(1 << n, dtype=np.int64)
    weight = np.zeros(1 << n, dtype=np.int64)
    for v in range(n):
        chain = 0
        u = v
        while u is not None:
            chain |= 1 << u
            u = choices[u]
        weight += np.where((masks & chain) == chain, doc["weights"][v], 0)
    sizes = np.zeros(1 << n, dtype=np.int64)
    for b in range(n):
        sizes += (masks >> b) & 1
    quota = doc["quota"]
    counts = []
    for v in range(n):
        without = masks[(masks >> v) & 1 == 0]
        swing = (weight[without] < quota) & (weight[without | (1 << v)] >= quota)
        counts.append(np.bincount(sizes[without][swing], minlength=n)[:n].tolist())
    return counts


def index_values(counts: list[list[int]], n: int, kind: str) -> list[str]:
    if kind == "banzhaf":
        values = [Fraction(sum(c), 1 << n - 1) for c in counts]
    else:
        values = [
            sum((Fraction(factorial(s) * factorial(n - 1 - s), factorial(n)) * k
                 for s, k in enumerate(c)), Fraction(0))
            for c in counts
        ]
    return [workloads.fraction_text(v) for v in values]


def neighbourhood(doc: dict, budget: int):
    """Acyclic profiles within ``budget`` changes, by plain product."""
    base = gen.choices_of(doc)
    rows = gen.out_rows(doc)
    options = [[None, *rows[v]] for v in range(doc["n"])]
    for choices in itertools.product(*options):
        if sum(a != b for a, b in zip(base, choices)) > budget:
            continue
        try:
            for v in range(doc["n"]):
                oracle.chain_of(choices, v)
        except ValueError:
            continue
        yield list(choices)


def sort_key(choices) -> tuple:
    return tuple(i if c is None else c for i, c in enumerate(choices))


def oracle_bribe(doc: dict, p: dict, answer: dict) -> None:
    objective = p["objective"]
    measure = oracle.banzhaf if "banzhaf" in objective else oracle.shapley
    sign = 1 if objective.startswith("max") else -1
    base = gen.choices_of(doc)
    best = None
    for choices in neighbourhood(doc, p["budget"]):
        value = measure(choices, doc["weights"], doc["quota"], p["target"])
        changes = sum(a != b for a, b in zip(base, choices))
        key = (sign * value, -changes, tuple(-x for x in sort_key(choices)))
        if best is None or key > best[0]:
            best = (key, value, choices, changes)
    _, value, choices, changes = best
    expect(workloads.fraction_text(value) == answer["value"], "bribery optimum")
    threshold = Fraction(p["threshold"])
    decision = value >= threshold if sign > 0 else value <= threshold
    expect(decision == answer["decision"], "bribery decision")
    if decision:
        expect(choices == answer["profile"] and changes == answer["changes"], "bribery witness")


def oracle_maximin(doc: dict, p: dict, answer: dict) -> None:
    n = doc["n"]
    rows = gen.out_rows(doc)
    best = None
    for choices in itertools.product(*[[None, *rows[v]] for v in range(n)]):
        if sum(c is None for c in choices) != p["gurus"]:
            continue
        try:
            mu = oracle.min_power(list(choices), doc["weights"], doc["quota"], p["kind"])
        except ValueError:
            continue
        key = (mu, tuple(-x for x in sort_key(choices)))
        if best is None or key > best[0]:
            best = (key, mu, list(choices))
    if best is None:
        expect(answer == {"error": "NoFeasibleProfile"}, "maximin feasibility")
        return
    expect(workloads.fraction_text(best[1]) == answer["mu"], "maximin optimum")
    expect(best[2] == answer["profile"], "maximin witness")


def oracle_support(doc: dict, target: int, budget: int) -> int:
    return max(
        oracle.accumulated_weight(choices, doc["weights"], target)
        for choices in neighbourhood(doc, budget)
    )


def reachable_weight(election, target: int, budget: int) -> int:
    """Weight attachable to the target within the budget (0-1 BFS)."""
    cost = weightmax.build_cost_graph(election)
    dist = {target: 0}
    queue = deque([target])
    while queue:
        u = queue.popleft()
        for v, c in cost.out[u]:
            d = dist[u] + c
            if v not in dist or d < dist[v]:
                dist[v] = d
                if c == 0:
                    queue.appendleft(v)
                else:
                    queue.append(v)
    return sum(election.weights[v] for v, d in dist.items() if d <= budget)


# -- references ------------------------------------------------------------------


def reference(case) -> dict:
    doc, p = case.doc, case.params
    ref: dict = {"digest": gen.digest(doc)}
    if case.call == "cli":
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "liquidpower.cli", *p["argv"]],
            input=json.dumps(doc), capture_output=True, text=True, env=env, cwd=ROOT,
            check=True,
        )
        results = workloads.cli_results(proc.stdout)
        if results["command"] == "index" and "--method" in p["argv"]:
            expect(results["results"]["methods_agree"], "cli index routes agree")
        ref["answer"] = {"sha256": workloads.sha(results)}
        return ref
    election = election_from_json(doc)
    answer = workloads.answer_of(case, workloads.call(case, election))
    small = doc["n"] <= ORACLE_LIMIT
    if case.call == "index":
        if p["kind"] == "shapley":
            expect(answer["total"] == "1/1", "Shapley values sum to one")
        if doc["n"] <= 22:
            values = index_values(numpy_counts(doc), doc["n"], p["kind"])
            expect(workloads.sha(values) == answer["values_sha256"], "index vs enumeration")
    elif case.call == "bribe" and small:
        oracle_bribe(doc, p, answer)
    elif case.call == "maximin" and small:
        oracle_maximin(doc, p, answer)
    if case.call != "wmax":
        ref["answer"] = answer
        return ref
    problem = weightmax.WeightMaxProblem(election, p["target"], p["budget"], p["tau"])
    truth = weightmax.wmaxp_exact(problem)
    if small:
        expect(oracle_support(doc, p["target"], p["budget"]) == truth.support, "best support")
    if p["solver"] == "wmaxp_exact":
        ref["answer"] = answer
    elif p["solver"] == "vbamw":
        full = weightmax.WeightMaxProblem(election, p["target"], p["budget"], election.total_weight)
        ref["truth"] = {
            "optimum": weightmax.wmaxp_exact(full).support,
            "reachable_weight": reachable_weight(election, p["target"], p["budget"]),
        }
    else:
        ref["truth"] = {"decision": truth.decision}
    return ref


def criterion_digests() -> dict:
    """Digests of each criterion's first instance, checked against the tests'
    own generator so that the benchmark's copy cannot drift unnoticed."""
    import support
    from liquidpower.core import election_to_json

    out = {}
    for name, (seed, kwargs_of) in gen.CRITERION_FIRST_INSTANCES.items():
        rng = random.Random(seed)
        doc = gen.random_election(rng, **kwargs_of(rng))
        rng = random.Random(seed)
        theirs = election_to_json(support.random_election(rng, **kwargs_of(rng)))
        expect(election_to_json(election_from_json(doc)) == theirs, f"{name} generator")
        out[name] = gen.digest(doc)
    return out


def build(workload: str) -> None:
    cases = {}
    for case in workloads.pool(workload):
        cases[case.id] = reference(case)
        print(case.id, flush=True)
    os.makedirs(os.path.join(HERE, "refs"), exist_ok=True)
    doc = {"workload": workload, "cases": cases}
    if workload == "index-dp":
        doc["criterion_digests"] = criterion_digests()
    with open(os.path.join(HERE, "refs", f"{workload}.json"), "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    for name in sys.argv[1:] or workloads.WORKLOADS:
        build(name)
