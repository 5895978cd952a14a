"""Property tests at the JSON boundary: any drawn instance and arguments.

The first property of the differential suite: ``cli.main`` on any valid
document and command exits 0 or 1 and prints exactly one JSON document,
never a traceback.  The documents have 1-7 voters, weights up to 2**64 over
shared gcds, arc densities from 0 to 1, acyclic delegations along the arcs,
and quotas at 1, W/2 - 1, W/2, W/2 + 1 and W.  Some runs lose their quota,
dropped or set to null, after their arguments are drawn: every election
carries a quota, so such a run exits 1 with one JSON document naming it.
Runs are derandomized with a fixed example count, so they are the same on
every machine.
"""

import contextlib
import io
import json
import sys
from functools import partial

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from liquidpower.cli import main
from liquidpower.core import election_from_json

MEASURES = ["banzhaf", "shapley"]


@st.composite
def documents(draw, n_max=7):
    n = draw(st.integers(1, n_max))
    gcd = draw(st.sampled_from([1, 2, 6, 2**31, 2**61]))
    factors = st.one_of(st.integers(1, 4), st.integers(1, 2**64 // gcd))
    weights = [gcd * draw(factors) for _ in range(n)]
    density = draw(st.floats(0, 1))
    rng = draw(st.randoms(use_true_random=False))
    arcs = [(i, j) for i in range(n) for j in range(n) if i != j and rng.random() < density]
    # delegate only to voters earlier in a random order: no cycles
    order = list(range(n))
    rng.shuffle(order)
    rank = {v: i for i, v in enumerate(order)}
    delegations = {}
    for v in range(n):
        earlier = [j for i, j in arcs if i == v and rank[j] < rank[v]]
        if earlier and rng.random() < 0.6:
            delegations[str(v + 1)] = rng.choice(earlier) + 1
    total = sum(weights)
    quota = draw(st.sampled_from([1, total // 2 - 1, total // 2, total // 2 + 1, total]))
    return {
        "n": n,
        "weights": weights,
        "arcs": [[i + 1, j + 1] for i, j in arcs],
        "delegations": delegations,
        "quota": min(max(quota, 1), total),
    }


def _index_args(draw, doc):
    voter = draw(st.sampled_from(["all"] + [str(v) for v in range(1, doc["n"] + 1)]))
    return [
        "index", "-",
        "--kind", draw(st.sampled_from(MEASURES)),
        "--method", draw(st.sampled_from(["exact", "dp", "both"])),
        "--voter", voter,
    ]


def _bribe_args(draw, doc):
    objective = draw(st.sampled_from(["max-banzhaf", "max-shapley", "min-banzhaf", "min-shapley"]))
    return [
        "bribe", "-",
        "--objective", objective,
        "--target", str(draw(st.integers(1, doc["n"]))),
        "--budget", str(draw(st.integers(0, 3))),
        "--threshold", draw(st.sampled_from(["0", "1/4", "1/2", "1"])),
        "--method", draw(st.sampled_from(["exact", "gamw"])),
    ]


def _weightmax_args(draw, doc, method):
    target = draw(st.integers(1, doc["n"]))
    total = sum(doc["weights"])
    if method == "colorcoding":
        # the weight still missing stays at 3 or less: a no costs at most
        # ceil(e**4 ln 100) = 252 colourings
        forest = election_from_json(json.dumps(doc)).forest
        threshold = forest.subtree_weight[target - 1] + draw(st.integers(0, 3))
    else:
        threshold = draw(st.sampled_from([1, total // 2, total - 1, total]))
    return [
        "weightmax", "-",
        "--target", str(target),
        "--budget", str(draw(st.integers(0, 3))),
        "--threshold", str(threshold),
        "--method", method,
        "--epsilon", draw(st.sampled_from(["1/2", "1"])),
        "--seed", str(draw(st.integers(0, 3))),
    ]


def _maximin_args(draw, doc):
    return [
        "maximin", "-",
        "--gurus", str(draw(st.integers(1, doc["n"]))),
        "--kind", draw(st.sampled_from(MEASURES)),
    ]


@st.composite
def runs(draw, build, n_max=7):
    doc = draw(documents(n_max))
    argv = build(draw, doc)
    quota = draw(st.sampled_from(["kept"] * 6 + ["dropped", "null"]))
    if quota == "dropped":
        del doc["quota"]
    elif quota == "null":
        doc["quota"] = None
    return doc, argv


def _run(doc, argv):
    out = io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(json.dumps(doc))
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue()


def _check_one_json_document(doc, argv):
    code, text = _run(doc, argv)
    assert code in (0, 1)
    assert text.endswith("\n") and text.count("\n") == 1
    report = json.loads(text)
    assert report["command"] == argv[0]
    assert ("results" in report) == (code == 0)
    assert ("error" in report) == (code == 1)
    if doc.get("quota") is None:
        assert code == 1 and "quota" in report["error"]["message"]


def _fixed(examples: int):
    return settings(
        derandomize=True,
        database=None,
        max_examples=examples,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )


@_fixed(80)
@given(runs(_index_args))
def test_index_prints_one_json_document(run):
    _check_one_json_document(*run)


@_fixed(80)
@given(runs(_bribe_args))
def test_bribe_prints_one_json_document(run):
    _check_one_json_document(*run)


@pytest.mark.parametrize("method", ["exact", "branching", "xp", "colorcoding", "vbamw"])
@_fixed(30)
@given(data=st.data())
def test_weightmax_prints_one_json_document(method, data):
    _check_one_json_document(*data.draw(runs(partial(_weightmax_args, method=method))))


@_fixed(60)
@given(runs(_maximin_args, n_max=6))
def test_maximin_prints_one_json_document(run):
    _check_one_json_document(*run)
