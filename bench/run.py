#!/usr/bin/env python3
"""liquidpower benchmark runner.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout (the program is imported from ``src/``).
Ops run one at a time in a closed loop from a single process, with BLAS and
OpenMP threads pinned to 1.  A run is a fixed number of whole rounds (one op
per slot, see ``workloads.py``): ``--seconds`` times the workload's rate in
``ROUNDS_PER_S``, sized so that a run takes roughly ``--seconds`` at the
seed commit on a 2-core x86 box (``index-dp``, whose rounds are long, up to
twice that).  Every run of a seed thus does the same work, and faster code
finishes sooner.  Every answer is checked against the committed references.  The last line of stdout is the result JSON; with ``--trace 0``
it holds the end-to-end metrics, with ``--trace 1`` the per-layer metrics
of a separate traced pass.  Spans and a full report go to ``.bench_out/``.
"""

from __future__ import annotations

import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(ROOT, ".bench_out")

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from time import perf_counter  # noqa: E402

STARTED = perf_counter()

# rounds per second of --seconds: with --seconds 20 a run is 2, 8, 15 and 8
# rounds; at the seed commit index-dp's round takes about 18 s (its two
# Shapley anchors alone about 11 s), the others' 1.3-3 s
ROUNDS_PER_S = {"index-dp": 0.1, "search": 0.4, "weightmax": 0.75, "cli-cold": 0.4}
SETUP_PROBES = 5
# host_probe's time at the speed the timing metrics are scaled to (its
# median on the 2-core box the benchmark was tuned on)
PROBE_REFERENCE_S = 0.0025
CLI_IMPORT_PROBES = 5
RUN_LIMIT_S = 170.0  # a run must end within 180 s

# name, unit, better: the same lists BENCHMARK.json declares
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_tail_ms", "ms", "lower"),
    ("ok_ratio", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("cc_agree_ratio", "ratio", "higher"),
]


def _layer(name, unit="s", better="lower"):
    return (name, unit, better)


PER_LAYER = [
    _layer("core.election_from_json.calls", "count"),
    _layer("core.election_from_json.s"),
    _layer("core.validate.calls", "count"),
    _layer("core.validate.s"),
    _layer("core.build_forest.calls", "count"),
    _layer("core.build_forest.s"),
    _layer("core.find_delegation_cycle.calls", "count"),
    _layer("core.find_delegation_cycle.s"),
    _layer("bribery.profiles", "count"),
    _layer("bribery.neighborhood_bound", "count"),
    _layer("bribery.acyclic_ratio", "ratio", "higher"),
    _layer("bribery.solve_bribery_exact.calls", "count"),
    _layer("bribery.solve_bribery_exact.self_s"),
    _layer("bribery.gamw.calls", "count"),
    _layer("bribery.gamw.self_s"),
    _layer("coalition_table.coalition_weight_table.calls", "count"),
    _layer("coalition_table.coalition_weight_table.s"),
    _layer("coalition_table.swing_counts_from_table.calls", "count"),
    _layer("coalition_table.swing_counts_from_table.s"),
    _layer("maximin.mmwp_bruteforce.calls", "count"),
    _layer("maximin.mmwp_bruteforce.self_s"),
    _layer("maximin.profiles", "count"),
    _layer("maximin.refusal_s"),
    _layer("dp.fill_table.calls", "count"),
    _layer("dp.fill_table.s"),
    _layer("dp.fill_table.cells", "count"),
    _layer("dp.shapley_dp.calls", "count"),
    _layer("dp.shapley_dp.self_s"),
    _layer("dp.banzhaf_dp.calls", "count"),
    _layer("dp.banzhaf_dp.self_s"),
    _layer("dp.all_indices_dp.calls", "count"),
    _layer("exact.swing_size_counts.calls", "count"),
    _layer("exact.swing_size_counts.s"),
    *[
        _layer(f"weightmax.{solver}.{field}", unit)
        for solver in (
            "wmaxp_exact",
            "solve_full_support",
            "solve_xp_reqbar",
            "solve_fpt_colorcoding",
            "vbamw",
            "min_cost_root_arborescence",
        )
        for field, unit in (("calls", "count"), ("s", "s"))
    ],
    _layer("weightmax.cc_miss_ratio", "ratio"),
    _layer("cli.process_s"),
    _layer("cli.elapsed_s"),
    _layer("cli.overhead_s"),
    _layer("cli.import_s"),
    _layer("bench.fail_ratio", "ratio"),
    _layer("trace.overhead_ratio", "ratio"),
    # the ROADMAP baseline table, re-measured by the traced run
    _layer("baseline.banzhaf_all_n60_s"),
    _layer("baseline.banzhaf_all_n120_s"),
    _layer("baseline.shapley_all_n60_s"),
    _layer("baseline.x100_unscaled_shapley_s"),
    _layer("baseline.x100_scaled_shapley_s"),
    _layer("baseline.x100_total_weight", "count"),
    _layer("baseline.bribery_n8_k3_s"),
    _layer("baseline.bribery_n8_k3_profiles", "count"),
    _layer("baseline.bribery_n8_k3_table_share", "ratio"),
    _layer("baseline.cli_index_n20_wall_s"),
    _layer("baseline.cli_index_n20_import_s"),
]


# -- statistics ------------------------------------------------------------------


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """``(value, percentile, samples)`` at the highest percentile that still
    has at least ten samples above it; the smallest sample if there are
    fewer than eleven."""
    ordered = sorted(latencies)
    n = len(ordered)
    index = max(n - 11, 0)
    return ordered[index], 100.0 * (index + 1) / n, n


# -- running ops ------------------------------------------------------------------


def host_probe() -> float:
    """Seconds a fixed pure-Python loop takes: the host's speed right now.

    On shared hosts the speed of one core drifts by tens of per cent over
    minutes; timed before every op and taken as a median over the run, this
    loop tracks that drift closely enough to scale it out (see ``measure``)."""
    started = perf_counter()
    acc = 0
    for i in range(30_000):
        acc += i * i % 7
    return perf_counter() - started


class Outcome:
    """Latency and verdict of every op of a run, and host-speed probes."""

    def __init__(self):
        self.probes: list[float] = []
        self.latencies: list[float] = []
        self.ids: list[str] = []
        self.failed = 0
        self.cc_calls = 0
        self.cc_misses = 0
        self.notes: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def add(self, case, seconds: float, ok: bool, miss: bool = False) -> None:
        self.latencies.append(seconds)
        self.ids.append(case.id)
        if not ok:
            self.failed += 1
            self.notes.append(f"wrong or failed: {case.id}")
        if case.params.get("solver") == "solve_fpt_colorcoding":
            self.cc_calls += 1
            self.cc_misses += miss


def load_refs(workload: str) -> dict:
    path = os.path.join(HERE, "refs", f"{workload}.json")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["cases"]


def check_inputs(cases, refs) -> None:
    """Every case must be the instance its reference was built for."""
    import gen

    for case in cases:
        ref = refs.get(case.id)
        if ref is None or ref["digest"] != gen.digest(case.doc):
            sys.exit(f"no reference for {case.id}; rebuild bench/refs")


def parse_all(cases) -> dict:
    from liquidpower.core import election_from_json

    return {case.id: election_from_json(case.doc) for case in cases}


def inprocess_pass(cases, elections, refs, outcome: Outcome, tracer=None) -> float:
    """One round; returns the seconds spent in ops."""
    import workloads

    busy = 0.0
    for op_id, case in enumerate(cases):
        outcome.probes.append(host_probe())
        election = elections[case.id]
        if tracer is not None:
            tracer.op_id = op_id
        ok = miss = False
        started = perf_counter()
        try:
            out = workloads.call(case, election)
        except Exception as exc:  # an unexpected error is a failed op
            seconds = perf_counter() - started
            outcome.notes.append(f"{case.id}: {type(exc).__name__}: {exc}")
        else:
            seconds = perf_counter() - started
            try:
                ok, miss = workloads.check(case, workloads.answer_of(case, out), refs[case.id])
            except (AttributeError, KeyError, TypeError, ValueError) as exc:  # malformed answer
                outcome.notes.append(f"{case.id}: unreadable answer: {exc!r}")
        outcome.add(case, seconds, ok, miss)
        busy += seconds
    if tracer is not None:
        tracer.op_id = -1
    return busy


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args: list[str], stdin: str = "") -> tuple[int, str, str, float, float]:
    """Run one child process; ``(code, stdout, stderr, wall_s, peak_rss_mb)``."""
    started = perf_counter()
    proc = subprocess.Popen(
        args,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
        cwd=ROOT,
        text=True,
    )
    proc.stdin.write(stdin)
    proc.stdin.close()
    out = proc.stdout.read()
    err = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return proc.returncode, out, err, wall, usage.ru_maxrss / 1024


def cli_pass(cases, refs, outcome: Outcome, records: list | None = None, traced=False):
    """One round of fresh CLI processes; returns ``(busy_s, peak_rss_mb)``."""
    import workloads

    busy = 0.0
    peak = 0.0
    for case in cases:
        outcome.probes.append(host_probe())
        if traced:
            args = [sys.executable, os.path.join(HERE, "child.py"), "cli", *case.params["argv"]]
        else:
            args = [sys.executable, "-m", "liquidpower.cli", *case.params["argv"]]
        code, out, err, wall, rss = run_child(args, json.dumps(case.doc))
        lines = out.splitlines()
        ok = False
        if code == 0 and lines:
            try:
                ok = workloads.check_cli(workloads.cli_results(lines[0]), refs[case.id])
            except (ValueError, KeyError):
                ok = False
        if not ok:
            outcome.notes.append(f"{case.id}: exit {code}: {err.strip()[-300:]}")
        outcome.add(case, wall, ok)
        busy += wall
        peak = max(peak, rss)
        if records is not None and ok:
            records.append((case, wall, json.loads(lines[0]), lines[1] if traced else None))
    return busy, peak


def setup_seconds(workload: str, cases) -> list[float]:
    """Fresh processes: start, imports and parsing of the run's instances."""
    docs = json.dumps([case.doc for case in cases])
    samples = []
    for _ in range(SETUP_PROBES):
        started = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), "probe", workload],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=child_env(),
            cwd=ROOT,
            text=True,
        )
        proc.stdin.write(docs)
        proc.stdin.close()
        line = proc.stdout.readline()
        samples.append(perf_counter() - started)
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != "ready":
            sys.exit(f"set-up probe for {workload} failed")
    return samples


# -- untraced runs: end-to-end metrics --------------------------------------------


def unique_cases(plan) -> list:
    return list({case.id: case for cases in plan for case in cases}.values())


def measure(workload: str, plan, refs) -> tuple[dict, Outcome, dict]:
    cases = unique_cases(plan)
    setup = setup_seconds(workload, cases)
    outcome = Outcome()
    busy = 0.0
    passes = 0
    peak_rss = 0.0
    started = perf_counter()
    if workload != "cli-cold":
        elections = parse_all(cases)
    while passes < len(plan) and perf_counter() - started < RUN_LIMIT_S / 2:
        if workload == "cli-cold":
            spent, rss = cli_pass(plan[passes], refs, outcome)
            peak_rss = max(peak_rss, rss)
        else:
            spent = inprocess_pass(plan[passes], elections, refs, outcome)
        busy += spent
        passes += 1
    if workload != "cli-cold":
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if passes < len(plan):
        outcome.notes.append(f"stopped after {passes} of {len(plan)} rounds at the time limit")
    tail_value, tail_pct, samples = tail(outcome.latencies)
    raw = {
        "setup_s": statistics.median(setup),
        "ops_per_s": outcome.attempted / busy,
        "op_p50_ms": statistics.median(outcome.latencies) * 1000,
        "op_tail_ms": tail_value * 1000,
    }
    # times at the reference host speed: the run's probe median against the
    # reference, so that the host's slow spells do not read as regressions
    scale = PROBE_REFERENCE_S / statistics.median(outcome.probes)
    metrics = {
        "setup_s": raw["setup_s"] * scale,
        "ops_per_s": raw["ops_per_s"] / scale,
        "op_p50_ms": raw["op_p50_ms"] * scale,
        "op_tail_ms": raw["op_tail_ms"] * scale,
        "ok_ratio": (outcome.attempted - outcome.failed) / outcome.attempted,
        "peak_rss_mb": peak_rss,
        "cc_agree_ratio": 1 - outcome.cc_misses / outcome.cc_calls if outcome.cc_calls else 1.0,
    }
    info = {
        "rounds": passes,
        "op_tail_percentile": tail_pct,
        "op_tail_samples": samples,
        "time_scale": scale,
        "unscaled": raw,
        "setup_samples_s": setup,
        "cc_calls": outcome.cc_calls,
        "cc_misses": outcome.cc_misses,
        "fail_ratio": outcome.failed / outcome.attempted,
        "op_ms": [[i, round(t * 1000, 3)] for i, t in zip(outcome.ids, outcome.latencies)],
    }
    return metrics, outcome, info


# -- traced run: per-layer metrics ----------------------------------------------


def _layer_values(summary: dict, counts: dict, layer: dict) -> None:
    for name, rec in summary.items():
        for field in ("calls", "s", "self_s"):
            layer[f"{name}.{field}"] = layer.get(f"{name}.{field}", 0) + rec[field]
    for key, value in counts.items():
        if key.endswith((".cells", ".items", ".value")):
            layer[key] = layer.get(key, 0) + value


def trace_run(workload: str, plan, refs, info: dict) -> tuple[dict, Outcome, list]:
    """The first round untraced, then traced; plus the one-off rows.
    Returns the per-layer values, the ops' outcome and the span sources."""
    from tracing import Tracer

    outcome = Outcome()
    layer: dict = {}
    sources: list = []
    deck = plan[0]
    if workload == "cli-cold":
        records: list = []
        plain, _ = cli_pass(deck, refs, outcome, records)
        traced_records: list = []
        traced, _ = cli_pass(deck, refs, outcome, traced_records, traced=True)
        children = [json.loads(extra) for *_, extra in traced_records]
        for child in children:
            _layer_values(child["summary"], child["counts"], layer)
        sources.append(children)
        walls = [wall for _, wall, _, _ in records]
        elapsed = [report["elapsed_seconds"] for _, _, report, _ in records]
        layer["cli.process_s"] = statistics.median(walls)
        layer["cli.elapsed_s"] = statistics.median(elapsed)
        layer["cli.overhead_s"] = statistics.median(w - e for w, e in zip(walls, elapsed))
        layer["cli.import_s"] = cli_import_seconds()
        baseline_cli(layer)
    else:
        elections = parse_all(deck)
        plain = inprocess_pass(deck, elections, refs, outcome)
        if workload == "index-dp":
            baseline_index(layer, deck, outcome.latencies)
        tracer = Tracer()
        tracer.install()
        try:
            elections = parse_all(deck)  # fresh, so the traced pass starts cold too
            traced = inprocess_pass(deck, elections, refs, outcome, tracer)
        finally:
            tracer.restore()
        _layer_values(tracer.summary(), tracer.counts, layer)
        sources.append(tracer)
        if workload == "search":
            baseline_bribery(layer)
            layer["maximin.refusal_s"] = refusal_seconds(info)
    layer["trace.overhead_ratio"] = traced / plain
    layer["bribery.profiles"] = layer.get("bribery.enumerate_neighborhood.items", 0)
    layer["bribery.neighborhood_bound"] = layer.get("bribery.neighborhood_size.value", 0)
    bound = layer["bribery.neighborhood_bound"]
    layer["bribery.acyclic_ratio"] = layer["bribery.profiles"] / bound if bound else 0.0
    layer["maximin.profiles"] = layer.get("maximin._profiles_with_roots.items", 0)
    layer["weightmax.cc_miss_ratio"] = outcome.cc_misses / outcome.cc_calls if outcome.cc_calls else 0.0
    layer["bench.fail_ratio"] = outcome.failed / outcome.attempted
    return layer, outcome, sources


def baseline_index(layer: dict, deck, latencies) -> None:
    """ROADMAP rows for the tables, from the untraced pass's anchors (the
    median where an anchor runs more than once a round)."""
    import gen
    import workloads
    from liquidpower.core import election_from_json
    from liquidpower.dp import all_indices_dp
    from liquidpower.exact import MeasureKind

    times: dict = {}
    for case, seconds in zip(deck, latencies):
        times.setdefault(case.id.split("/")[1], []).append(seconds)
    by_slot = {name: statistics.median(values) for name, values in times.items()}
    layer["baseline.banzhaf_all_n60_s"] = by_slot["crit10-n60-banzhaf"]
    layer["baseline.banzhaf_all_n120_s"] = by_slot["crit10-n120-banzhaf"]
    layer["baseline.shapley_all_n60_s"] = by_slot["crit10-n60-shapley"]
    layer["baseline.x100_scaled_shapley_s"] = by_slot["x100-n20-shapley"]
    unscaled = election_from_json(workloads._crit10(20, w_max=4))
    started = perf_counter()
    all_indices_dp(unscaled, MeasureKind.SHAPLEY)
    layer["baseline.x100_unscaled_shapley_s"] = perf_counter() - started
    layer["baseline.x100_total_weight"] = sum(gen.scaled(workloads._crit10(20, w_max=4), 100)["weights"])


def baseline_bribery(layer: dict) -> None:
    """ROADMAP row: exact bribery at n=8, k=3 on a complete network."""
    import random
    from fractions import Fraction

    import gen
    import workloads
    from liquidpower import bribery
    from liquidpower.core import election_from_json
    from tracing import Tracer

    doc = gen.random_election(
        random.Random(workloads.CRITERION_10_SEED),
        n_min=8, n_max=8, w_max=4, delegate_prob=0.75, complete=True,
    )
    election = election_from_json(doc)
    problem = bribery.BriberyProblem(
        election, 0, 3, Fraction(1, 2), bribery.BriberyObjective.MAX_BANZHAF
    )
    started = perf_counter()
    bribery.solve_bribery_exact(problem)
    layer["baseline.bribery_n8_k3_s"] = perf_counter() - started
    tracer = Tracer()
    tracer.install()
    try:
        bribery.solve_bribery_exact(problem)
    finally:
        tracer.restore()
    summary = tracer.summary()
    layer["baseline.bribery_n8_k3_profiles"] = tracer.counts["bribery.enumerate_neighborhood.items"]
    layer["baseline.bribery_n8_k3_table_share"] = (
        summary["coalition_table.coalition_weight_table"]["s"]
        / summary["bribery.solve_bribery_exact"]["s"]
    )


def cli_import_seconds() -> float:
    """Cold ``import liquidpower.cli`` minus a bare interpreter start."""
    def median_wall(code: str) -> float:
        return statistics.median(
            run_child([sys.executable, "-c", code])[3] for _ in range(CLI_IMPORT_PROBES)
        )

    return median_wall("import liquidpower.cli") - median_wall("pass")


def baseline_cli(layer: dict) -> None:
    """ROADMAP row: ``liquidpower index`` on the 20-voter game."""
    import workloads

    doc = json.dumps(workloads._crit10(20, w_max=4))
    walls = [
        run_child([sys.executable, "-m", "liquidpower.cli", "index", "-"], doc)[3]
        for _ in range(CLI_IMPORT_PROBES)
    ]
    layer["baseline.cli_index_n20_wall_s"] = statistics.median(walls)
    layer["baseline.cli_index_n20_import_s"] = layer["cli.import_s"]


def refusal_seconds(info: dict) -> float:
    """The slow ``PROFILE_CAP`` refusal, in a child that is stopped at the
    run's time limit (then the limit is reported as a lower bound)."""
    budget = max(RUN_LIMIT_S - (perf_counter() - STARTED), 10.0)
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), "refusal"],
        stdout=subprocess.PIPE,
        env=child_env(),
        cwd=ROOT,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        info["refusal"] = f"stopped after {budget:.1f} s without refusing"
        return budget
    result = json.loads(out)
    info["refusal"] = result["outcome"]
    return result["seconds"]


# -- output ----------------------------------------------------------------------------


def write_spans(workload: str, seed: int, sources) -> str:
    import gzip

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"spans-{workload}-{seed}.json.gz")
    spans = []
    for source in sources:
        if isinstance(source, list):  # CLI children: one process per op
            for op_id, child in enumerate(source):
                spans.extend([*span[:4], op_id] for span in child["spans"])
        else:
            spans.extend(source.rows())
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": spans}, handle)
    return path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "liquidpower", "__init__.py")):
        print("src/liquidpower not found: run from the root of a liquidpower checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, SRC]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    count = 1 if args.trace else max(1, round(args.seconds * ROUNDS_PER_S[args.workload]))
    plan = workloads.rounds(args.workload, args.seed, count)
    refs = load_refs(args.workload)
    check_inputs(unique_cases(plan), refs)

    info: dict = {"workload": args.workload, "seed": args.seed}
    if args.trace:
        values, outcome, sources = trace_run(args.workload, plan, refs, info)
        info["spans"] = write_spans(args.workload, args.seed, sources)
        declared = PER_LAYER
    else:
        values, outcome, extra = measure(args.workload, plan, refs)
        info.update(extra)
        declared = END_TO_END
    metrics = {
        name: {"value": float(values.get(name, 0.0)), "unit": unit} for name, unit, _ in declared
    }
    info["notes"] = outcome.notes
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"report-{args.workload}-{args.seed}-t{args.trace}.json"),
              "w", encoding="utf-8") as handle:
        json.dump({"info": info, "metrics": metrics, "all_values": values}, handle, indent=1)
    print(json.dumps({k: v for k, v in info.items() if k not in ("notes", "op_ms")}))
    for note in outcome.notes:
        print(note)
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
