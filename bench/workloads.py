"""The benchmark's four workloads: instance pools, decks, calls and checks.

Every workload is a list of *slots*.  A slot is one kind of op at a stated
size; it owns a pool of ``POOL`` variants whose instances come from fixed
pool seeds, and ``refs/<workload>.json`` holds the seed code's answer for
every variant.  A run is a sequence of *rounds*, each one op per slot (or
``copies`` ops, for a slot that runs more than once a round).
``--seed`` fixes the order in which each slot's variants come up, round
after round, and the order of the slots within a round; so the same seed
gives the same inputs, different seeds give different inputs, and every
answer can be checked exactly.  Anchor slots (criterion 10's instances) have
a single variant and run in every round.

Sizes are fixed per slot (only structure, weights and targets vary with the
variant), and a run draws several variants of every slot without
replacement, so the work of a run stays level from seed to seed even though
single instances of one size can differ several-fold in cost.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

import gen
from liquidpower import bribery, dp, maximin, weightmax
from liquidpower.errors import NoFeasibleProfile
from liquidpower.exact import MeasureKind

POOL = 16
CRITERION_10_SEED = 10_001
WORKLOADS = ("index-dp", "search", "weightmax", "cli-cold")


@dataclass(frozen=True)
class Slot:
    name: str
    call: str
    make: object  # (rng) -> (doc, params)
    anchor: bool = False
    copies: int = 1  # ops per round


@dataclass(frozen=True)
class Case:
    """One op's input: an instance document plus the call parameters."""

    id: str
    call: str
    doc: dict
    params: dict = field(default_factory=dict)


# -- instance makers ----------------------------------------------------------


def _majority(doc: dict) -> dict:
    """Simple-majority quota: the table fills then do comparable work."""
    doc = dict(doc)
    doc["quota"] = sum(doc["weights"]) // 2 + 1
    return doc


def _crit10(n: int, w_max: int = 8) -> dict:
    return gen.random_election(
        random.Random(CRITERION_10_SEED), n_min=n, n_max=n, w_max=w_max, delegate_prob=0.75
    )


def _index_anchor(doc_fn, kind):
    return lambda rng: (doc_fn(), {"kind": kind})


def _index_seeded(n: int, kind: str):
    def make(rng):
        doc = gen.random_election(rng, n_min=n, n_max=n, w_max=8, delegate_prob=0.75)
        return _majority(doc), {"kind": kind}

    return make


def _x100():
    return gen.scaled(_crit10(20, w_max=4), 100)


def _bribe(n: int, complete: bool, budget: int, objective: str):
    def make(rng):
        doc = gen.random_election(rng, n_min=n, n_max=n, w_max=4, complete=complete)
        return doc, {
            "target": rng.randrange(n),
            "budget": budget,
            "threshold": "1/2",
            "objective": objective,
        }

    return make


def _gamw(n: int, budget: int, kind: str):
    def make(rng):
        doc = gen.random_election(rng, n_min=n, n_max=n, w_max=8, delegate_prob=0.6)
        return doc, {"target": rng.randrange(n), "budget": budget, "kind": kind}

    return make


def _maximin(n: int, gurus: int, kind: str):
    """Networks of fixed out-degree 3: the number of designs, and so the
    cost of the search, then varies little between variants."""

    def make(rng):
        doc = gen.fixed_degree_election(rng, n, 3, w_max=4)
        return doc, {"gurus": gurus, "kind": kind}

    return make


def _wmax(solver: str, n: int, complete: bool, tau_rule: str, budget=None, **extra):
    """Weight-max problem in the style of criterion 8's labelled instances."""

    def make(rng):
        while True:
            doc = gen.random_election(rng, n_min=n, n_max=n, w_max=3, complete=complete)
            target = rng.randrange(n)
            total = sum(doc["weights"])
            base = gen.subtree_weight(doc, target)
            if tau_rule == "full":
                tau = total
            elif tau_rule == "reqbar":
                tau = max(1, total - rng.randint(0, 3))
            elif tau_rule.startswith("req="):
                tau = base + int(tau_rule[4:])
            else:  # "guru": criterion 9's set-up, a guru target and tau 1
                gurus = gen.gurus_of(doc)
                target = rng.choice(gurus)
                tau = 1
            if tau > total:
                continue
            k = rng.randint(0, 3) if budget is None else budget
            return doc, {"solver": solver, "target": target, "budget": k, "tau": tau, **extra}

    return make


def _cli(argv: list[str], n: int, w_max: int = 4, complete: bool = False, req: int = 0):
    """One CLI invocation.  In ``argv``, ``{target}`` becomes a 1-based voter
    and ``{tau}`` the weight the target already has plus ``req``."""

    def make(rng):
        doc = gen.random_election(rng, n_min=n, n_max=n, w_max=w_max, complete=complete)
        target = rng.randrange(n)
        fill = {
            "{target}": str(target + 1),
            "{tau}": str(gen.subtree_weight(doc, target) + req),
        }
        return doc, {"argv": [fill.get(a, a) for a in argv]}

    return make


SLOTS: dict[str, list[Slot]] = {
    # Shapley fills dominate the crit-10 and x100 anchors; the n=120 and
    # n=200 Banzhaf slots keep the weight-only fill above a quarter of a
    # round.  Three slots run well above the n=120 anchor and three well
    # below it, and the anchor runs five times a round, so in a run of two
    # rounds (22 ops) the median op and the op with ten above it both fall
    # in the middle of ten calls on that one fixed instance.
    "index-dp": [
        Slot("crit10-n60-shapley", "index", _index_anchor(lambda: _crit10(60), "shapley"), True),
        Slot("x100-n20-shapley", "index", _index_anchor(_x100, "shapley"), True),
        Slot("banzhaf-n200", "index", _index_seeded(200, "banzhaf")),
        Slot("crit10-n120-banzhaf", "index", _index_anchor(lambda: _crit10(120), "banzhaf"), True, 5),
        Slot("shapley-n28", "index", _index_seeded(28, "shapley")),
        Slot("crit10-n60-banzhaf", "index", _index_anchor(lambda: _crit10(60), "banzhaf"), True),
        Slot("x100-n20-banzhaf", "index", _index_anchor(_x100, "banzhaf"), True),
    ],
    "search": [
        Slot("bribe-n8-complete-k3", "bribe", _bribe(8, True, 3, "max-banzhaf")),
        Slot("bribe-n8-complete-k2", "bribe", _bribe(8, True, 2, "min-shapley")),
        Slot("bribe-n8-sparse-k3", "bribe", _bribe(8, False, 3, "max-shapley")),
        Slot("bribe-n7-complete-k3", "bribe", _bribe(7, True, 3, "min-banzhaf")),
        Slot("bribe-n7-sparse-k3", "bribe", _bribe(7, False, 3, "max-banzhaf")),
        Slot("bribe-n7-complete-k1", "bribe", _bribe(7, True, 1, "max-shapley")),
        Slot("bribe-n6-complete-k3", "bribe", _bribe(6, True, 3, "min-shapley")),
        Slot("bribe-n6-sparse-k2", "bribe", _bribe(6, False, 2, "min-banzhaf")),
        Slot("gamw-n40-k1", "gamw", _gamw(40, 1, "banzhaf")),
        Slot("gamw-n40-k2", "gamw", _gamw(40, 2, "shapley")),
        Slot("gamw-n40-k3", "gamw", _gamw(40, 3, "shapley")),
        Slot("maximin-n6-g2", "maximin", _maximin(6, 2, "banzhaf")),
        Slot("maximin-n6-g3", "maximin", _maximin(6, 3, "shapley")),
        # one fixed instance, twice a round: above its 16 ops sit only the
        # n=8, k=3 bribery draws and at most a few n=7, 3-guru ones, so the
        # tail op (ten above it) is this instance rather than a seeded one
        Slot("maximin-n7-g2", "maximin", _maximin(7, 2, "shapley"), True, 2),
        Slot("maximin-n7-g3", "maximin", _maximin(7, 3, "banzhaf")),
    ],
    # The polynomial solvers take well under a millisecond at these sizes;
    # enough of them run that the median op of a run falls inside that
    # cluster rather than on its edge.
    "weightmax": [
        Slot("exact-n8-complete", "wmax", _wmax("wmaxp_exact", 8, True, "req=3", budget=3)),
        Slot("exact-n7-sparse", "wmax", _wmax("wmaxp_exact", 7, False, "req=2", budget=2)),
        Slot("exact-n6-complete", "wmax", _wmax("wmaxp_exact", 6, True, "req=2")),
        Slot("full-n8-complete", "wmax", _wmax("solve_full_support", 8, True, "full")),
        Slot("full-n7-complete", "wmax", _wmax("solve_full_support", 7, True, "full")),
        Slot("full-n6-sparse", "wmax", _wmax("solve_full_support", 6, False, "full")),
        Slot("xp-n8-complete", "wmax", _wmax("solve_xp_reqbar", 8, True, "reqbar")),
        Slot("xp-n7-sparse", "wmax", _wmax("solve_xp_reqbar", 7, False, "reqbar")),
        Slot("xp-n6-complete", "wmax", _wmax("solve_xp_reqbar", 6, True, "reqbar")),
        Slot("cc-req1", "wmax", _wmax("solve_fpt_colorcoding", 6, True, "req=1", budget=2)),
        Slot("cc-req2", "wmax", _wmax("solve_fpt_colorcoding", 7, False, "req=2", budget=2)),
        Slot("cc-req3", "wmax", _wmax("solve_fpt_colorcoding", 7, True, "req=3", budget=3)),
        Slot("cc-req4", "wmax", _wmax("solve_fpt_colorcoding", 7, True, "req=4", budget=3)),
        Slot("cc-req5", "wmax", _wmax("solve_fpt_colorcoding", 7, True, "req=5", budget=3)),
        Slot("vbamw-quarter", "wmax", _wmax("vbamw", 8, False, "guru", epsilon="1/4")),
        Slot("vbamw-half", "wmax", _wmax("vbamw", 7, False, "guru", epsilon="1/2")),
        Slot("vbamw-one", "wmax", _wmax("vbamw", 6, False, "guru", epsilon="1")),
        Slot("vbamw-half-complete", "wmax", _wmax("vbamw", 8, True, "guru", epsilon="1/2")),
    ],
    "cli-cold": [
        Slot("index-both-banzhaf-n14", "cli", _cli(["index", "-", "--method", "both"], 14)),
        Slot("index-both-shapley-n14", "cli", _cli(["index", "-", "--method", "both", "--kind", "shapley"], 14)),
        Slot("index-dp-shapley-n20", "cli", _cli(["index", "-", "--kind", "shapley"], 20, w_max=8)),
        Slot("bribe-exact-n6", "cli", _cli(["bribe", "-", "--target", "{target}", "--budget", "2", "--threshold", "1/2", "--objective", "max-shapley"], 6, complete=True)),
        Slot("bribe-gamw-n20", "cli", _cli(["bribe", "-", "--target", "{target}", "--budget", "2", "--method", "gamw"], 20)),
        Slot("weightmax-exact-n6", "cli", _cli(["weightmax", "-", "--target", "{target}", "--budget", "2", "--threshold", "8"], 6, complete=True)),
        Slot("weightmax-cc-n7", "cli", _cli(["weightmax", "-", "--target", "{target}", "--budget", "2", "--threshold", "{tau}", "--method", "colorcoding"], 7, complete=True, req=3)),
        Slot("weightmax-vbamw-n7", "cli", _cli(["weightmax", "-", "--target", "{target}", "--budget", "2", "--threshold", "6", "--method", "vbamw", "--epsilon", "1/2"], 7)),
        Slot("maximin-n6-g2", "cli", _cli(["maximin", "-", "--gurus", "2"], 6, complete=False)),
    ],
}


def pool_case(workload: str, slot: Slot, variant: int) -> Case:
    """Variant ``variant`` of a slot; pool seeds are fixed strings."""
    rng = random.Random(f"{workload}/{slot.name}/{variant}")
    doc, params = slot.make(rng)
    return Case(f"{workload}/{slot.name}/{variant}", slot.call, doc, params)


def pool(workload: str) -> list[Case]:
    """Every case the workload can draw: the reference build covers these."""
    return [
        pool_case(workload, slot, i)
        for slot in SLOTS[workload]
        for i in range(1 if slot.anchor else POOL)
    ]


def rounds(workload: str, seed: int, count: int = POOL) -> list[list[Case]]:
    """The first ``count`` rounds of a run.  Round ``j`` holds the ``j``-th
    variant of each slot's seeded permutation, in a seeded slot order; after
    ``POOL`` rounds the sequence repeats.  Only the cases of these rounds are
    built, so a run holds no instance it does not use."""
    rng = random.Random(seed)
    slots = [slot for slot in SLOTS[workload] for _ in range(slot.copies)]
    variants = [[0] * POOL if slot.anchor else rng.sample(range(POOL), POOL) for slot in slots]
    slot_orders = [rng.sample(range(len(slots)), len(slots)) for _ in range(POOL)]
    made: dict[tuple[str, int], Case] = {}
    out = []
    for j in range(count):
        cases = []
        for k in slot_orders[j % POOL]:
            key = (slots[k].name, variants[k][j % POOL])
            if key not in made:
                made[key] = pool_case(workload, slots[k], key[1])
            cases.append(made[key])
        out.append(cases)
    return out


# -- calls ---------------------------------------------------------------------
#
# Solver functions are looked up on their modules at call time, so the
# tracer's wrappers are seen while they are installed.  Only ``call`` is
# timed; ``answer_of`` and ``check`` run outside the timed region.


def fraction_text(value) -> str:
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


def sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _profile_list(profile):
    return None if profile is None else list(profile.choices)


def call(case: Case, election):
    """Run the case's public solver call once and return its raw outcome."""
    p = case.params
    if case.call == "index":
        return dp.all_indices_dp(election, MeasureKind(p["kind"]))
    if case.call == "bribe":
        problem = bribery.BriberyProblem(
            election,
            p["target"],
            p["budget"],
            Fraction(p["threshold"]),
            bribery.BriberyObjective(p["objective"]),
        )
        return bribery.solve_bribery_exact(problem)
    if case.call == "gamw":
        return bribery.gamw(election, p["target"], p["budget"], kind=MeasureKind(p["kind"]))
    if case.call == "maximin":
        problem = maximin.MaximinProblem(
            election.network, election.weights, election.quota, p["gurus"], MeasureKind(p["kind"])
        )
        try:
            return maximin.mmwp_bruteforce(problem)
        except NoFeasibleProfile:
            return None
    if case.call == "wmax":
        problem = weightmax.WeightMaxProblem(election, p["target"], p["budget"], p["tau"])
        solver = getattr(weightmax, p["solver"])
        if p["solver"] == "solve_fpt_colorcoding":
            return solver(problem, delta=0.01)
        if p["solver"] == "vbamw":
            return solver(problem, Fraction(p["epsilon"]))
        return solver(problem)
    raise ValueError(f"unknown call {case.call!r}")


def answer_of(case: Case, out) -> dict:
    """JSON-able form of a raw outcome, as the references store it."""
    if case.call == "index":
        values = [fraction_text(v) for v in out.values]
        return {"values_sha256": sha(values), "total": fraction_text(sum(out.values, Fraction(0)))}
    if case.call == "bribe":
        return {
            "decision": out.decision,
            "value": fraction_text(out.value),
            "changes": out.changes,
            "profile": _profile_list(out.profile),
        }
    if case.call == "gamw":
        return {
            "value": fraction_text(out.value),
            "changes": out.changes,
            "profile": _profile_list(out.profile),
            "skipped": [list(s) for s in out.skipped_redirects],
        }
    if case.call == "maximin":
        if out is None:
            return {"error": "NoFeasibleProfile"}
        return {
            "profile": _profile_list(out.profile),
            "mu": fraction_text(out.mu),
            "per_voter": [fraction_text(v) for v in out.per_voter],
        }
    return {
        "decision": out.decision,
        "support": out.support,
        "changes": out.changes,
        "profile": _profile_list(out.profile),
    }


# -- checks ----------------------------------------------------------------------


def _witness_ok(doc: dict, answer: dict, target: int, budget: int, tau: int) -> bool:
    """Independent re-check of a weight-max witness on the document itself."""
    choices = answer["profile"]
    if choices is None or len(choices) != doc["n"]:
        return False
    rows = gen.out_rows(doc)
    for v, c in enumerate(choices):
        if c is not None and c not in rows[v]:
            return False
    for v in range(doc["n"]):  # acyclic: every walk ends at a self-voter
        u, steps = v, 0
        while choices[u] is not None:
            u = choices[u]
            steps += 1
            if steps > doc["n"]:
                return False
    if choices[target] is not None:
        return False
    witness = dict(doc)
    witness["delegations"] = {
        str(v + 1): (v + 1 if c is None else c + 1) for v, c in enumerate(choices)
    }
    support = gen.subtree_weight(witness, target)
    base = gen.choices_of(doc)
    changes = sum(a != b for a, b in zip(base, choices))
    return (
        support == answer["support"]
        and changes == answer["changes"]
        and support >= tau
        and changes <= budget
    )


def check(case: Case, answer: dict, ref: dict) -> tuple[bool, bool]:
    """``(correct, cc_miss)`` for one op's answer against its reference.

    Exact solvers must match the seed code's answer (values, decisions and
    tie-broken witnesses).  Colour coding is checked one-sidedly: a "yes"
    must carry a valid witness; a "no" where the exhaustive solver says yes
    is a miss, not a failure.  ``vbamw`` must meet criterion 9's bounds.
    """
    p = case.params
    if case.call == "index" and p["kind"] == "shapley" and answer["total"] != "1/1":
        return False, False
    if case.call != "wmax" or p["solver"] == "wmaxp_exact":
        return answer == ref["answer"], False
    truth = ref["truth"]
    if p["solver"] in ("solve_full_support", "solve_xp_reqbar"):
        if answer["decision"] != truth["decision"]:
            return False, False
        if answer["decision"]:
            return _witness_ok(case.doc, answer, p["target"], p["budget"], p["tau"]), False
        return answer["profile"] is None, False
    if p["solver"] == "solve_fpt_colorcoding":
        if answer["decision"]:
            ok = truth["decision"] and _witness_ok(
                case.doc, answer, p["target"], p["budget"], p["tau"]
            )
            return ok, False
        return answer["profile"] is None, truth["decision"]
    # vbamw: criterion 9's bounds against the exhaustive optimum
    eps = Fraction(p["epsilon"])
    budget, n = p["budget"], case.doc["n"]
    if answer["changes"] > (1 + eps) * budget:
        return False, False
    if answer["support"] < eps**2 * budget * truth["optimum"] / (8 * n):
        return False, False
    if answer["support"] < truth["reachable_weight"] and answer["changes"] < eps * budget / 2:
        return False, False
    return _witness_ok(case.doc, answer, p["target"], int((1 + eps) * budget), 1), False


# -- the CLI workload ------------------------------------------------------------


def cli_results(stdout: str) -> dict:
    """The part of a CLI report that must not change: command and results."""
    report = json.loads(stdout)
    return {"command": report["command"], "results": report["results"]}


def check_cli(answer: dict, ref: dict) -> bool:
    return sha(answer) == ref["answer"]["sha256"]
