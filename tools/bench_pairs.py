#!/usr/bin/env python3
"""Paired benchmark runs of two versions of the repository.

    python3 tools/bench_pairs.py PARENT CHANGE --label NAME \\
        [--workload W ...] [--seed 1] [--pairs 10] [--seconds 20]

Run from the root of a checkout.  PARENT and CHANGE are git revisions, or
``WORKTREE`` for the working tree's tracked files as they are on disk.
Each side is copied into a fresh temporary directory (``git archive`` for a
revision), and the benchmark command of ``BENCHMARK.json`` runs there as
``<command> --workload W --seed S --seconds T``, in pairs that alternate
which side runs first, with ``PYTHONDONTWRITEBYTECODE=1``.  After each run
the last stdout line (``correct``, ``failed``, ``metrics``) is read, and
the run's report (``.bench_out/report-W-S-t0.json``) is copied away before
the side runs again, for its ``time_scale`` host probe.

Writes ``BENCH_<label>.json``: per workload and end-to-end metric, each
side's runs, median and interquartile range, the pairs the change wins by
the metric's ``better``, its ``BENCHMARK.json`` bound and a verdict; and
the seed, pairs, seconds, ``nproc``, and Python and numpy versions.  A
metric's verdict is ``better`` when every change run beats every parent
run, else ``unresolved`` when either side's IQR, relative to the parent
median, exceeds the bound, else ``worse`` or ``within_bound`` by how far
the change median falls behind the parent's.  Exits 1 when any run is not
``correct: true``.  Only the temporary directory this script creates is
ever deleted.  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

WORKTREE = "WORKTREE"


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], check=True, capture_output=True).stdout


def describe(spec: str) -> dict:
    """What a side is: its spec and the commit it is, or is based on."""
    head = "HEAD" if spec == WORKTREE else f"{spec}^{{commit}}"
    return {"spec": spec, "commit": git("rev-parse", head).decode().strip()}


def build(spec: str, dest: str) -> None:
    """Copy one side into the new directory ``dest``."""
    os.makedirs(dest)
    if spec == WORKTREE:
        for name in git("ls-files", "-z").decode().split("\0"):
            if name and os.path.isfile(name):
                os.makedirs(os.path.join(dest, os.path.dirname(name)), exist_ok=True)
                shutil.copy2(name, os.path.join(dest, name))
        return
    archive = tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", spec)))
    with archive:
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        archive.extractall(dest, **safe)


def run_once(command, tree: str, workload: str, seed: int, seconds: float, keep: str) -> dict:
    """One benchmark run in ``tree``: its result line, plus the report's
    ``time_scale``; the report is copied to ``keep``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"correct": False, "error": f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"}
    report = os.path.join(tree, ".bench_out", f"report-{workload}-{seed}-t0.json")
    time_scale = None
    if os.path.isfile(report):
        shutil.copy2(report, keep)
        with open(keep, encoding="utf-8") as handle:
            time_scale = json.load(handle)["info"].get("time_scale")
    values = {name: m["value"] for name, m in result.get("metrics", {}).items()}
    return {
        "correct": result.get("correct") is True,
        "attempted": result.get("attempted"),
        "failed": result.get("failed"),
        "time_scale": time_scale,
        "metrics": values,
    }


def spread(values: list[float]) -> tuple[float, float]:
    """Median and interquartile range."""
    if len(values) < 2:
        return values[0], 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return statistics.median(values), q3 - q1


def compare(metric: dict, parent: list[float], change: list[float]) -> dict:
    """One metric's summary over paired runs (pair ``i`` is ``parent[i]``
    against ``change[i]``)."""
    higher = metric["better"] == "higher"
    bound = metric["bound"]

    def beats(a, b):
        return a > b if higher else a < b

    p_median, p_iqr = spread(parent)
    c_median, c_iqr = spread(change)
    scale = abs(p_median) or 1.0  # relative to the parent; absolute at 0
    worse_by = (p_median - c_median if higher else c_median - p_median) / scale
    wide = max(p_iqr, c_iqr) / scale
    if all(beats(c, p) for c in change for p in parent):
        verdict = "better"
    elif wide > bound:
        verdict = "unresolved"
    else:
        verdict = "worse" if worse_by > bound else "within_bound"
    return {
        "better": metric["better"],
        "bound": bound,
        "parent": {"median": p_median, "iqr": p_iqr, "runs": parent},
        "change": {"median": c_median, "iqr": c_iqr, "runs": change},
        "change_wins": sum(beats(c, p) for p, c in zip(parent, change)),
        "pairs": len(parent),
        "worse_by": worse_by,
        "relative_iqr": wide,
        "verdict": verdict,
    }


def versions(command) -> dict:
    probe = "import json, sys, numpy; print(json.dumps([sys.version.split()[0], numpy.__version__]))"
    python, numpy = json.loads(subprocess.run(
        [command[0], "-c", probe], check=True, capture_output=True, text=True
    ).stdout)
    return {"nproc": os.cpu_count(), "python": python, "numpy": numpy}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help=f"git revision, or {WORKTREE}")
    parser.add_argument("change", help=f"git revision, or {WORKTREE}")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    args = parser.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    command = bench["command"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    sides = {"parent": describe(args.parent), "change": describe(args.change)}
    doc = {
        "label": args.label,
        "sides": sides,
        "settings": {
            "command": command,
            "workloads": workloads,
            "seed": args.seed,
            "pairs": args.pairs,
            "seconds": seconds,
        },
        "host": versions(command),
    }
    correct = True
    scratch = tempfile.mkdtemp(prefix="bench_pairs-")
    try:
        trees = {side: os.path.join(scratch, side) for side in sides}
        for side, tree in trees.items():
            build(sides[side]["spec"], tree)
        reports = os.path.join(scratch, "reports")
        os.makedirs(reports)
        doc["workloads"] = {}
        for workload in workloads:
            runs = {side: [] for side in sides}
            for pair in range(args.pairs):
                order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
                for side in order:
                    keep = os.path.join(reports, f"{side}-{workload}-{pair}.json")
                    run = run_once(command, trees[side], workload, args.seed, seconds, keep)
                    run.update(pair=pair, first=side == order[0])
                    runs[side].append(run)
                    correct &= run["correct"]
                    print(f"{workload} pair {pair} {side}: correct {run['correct']}, "
                          f"time_scale {run.get('time_scale')}", file=sys.stderr, flush=True)
            metrics = {}
            for metric in bench["end_to_end"]:
                name = metric["name"]
                if all(name in run.get("metrics", {}) for side in runs for run in runs[side]):
                    metrics[name] = compare(
                        metric,
                        [run["metrics"][name] for run in runs["parent"]],
                        [run["metrics"][name] for run in runs["change"]],
                    )
            for side in runs:
                for run in runs[side]:
                    run.pop("metrics", None)
            doc["workloads"][workload] = {"metrics": metrics, "runs": runs}
    finally:
        shutil.rmtree(scratch)
    doc["correct"] = correct
    out = f"BENCH_{args.label}.json"
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1)
        handle.write("\n")
    for workload, summary in doc["workloads"].items():
        for name, m in summary["metrics"].items():
            print(f"{workload:10} {name:15} parent {m['parent']['median']:.6g} change "
                  f"{m['change']['median']:.6g} wins {m['change_wins']}/{m['pairs']} {m['verdict']}")
    print(f"wrote {out}; every run correct: {correct}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
