"""Fresh-process helpers the runner starts; run from the checkout's root.

``child.py probe <workload>``  imports what the workload's ops use, parses
    the instance documents read from stdin (a JSON list), prints ``ready``.
    The runner times this from process start, as the set-up of a fresh
    process before its first op.
``child.py cli <args...>``  runs ``liquidpower.cli`` with the tracer
    installed; prints the CLI's report, then one line with the trace.
``child.py refusal``  runs the maximin search that reaches ``PROFILE_CAP``
    (complete network, n=8, 2 gurus) and prints how long the refusal took.
"""

from __future__ import annotations

import io
import json
import os
import sys
from contextlib import redirect_stdout
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.getcwd(), "src")]

PROBE_IMPORTS = {
    "index-dp": ("liquidpower.dp",),
    "search": ("liquidpower.bribery", "liquidpower.maximin"),
    "weightmax": ("liquidpower.weightmax",),
    "cli-cold": ("liquidpower.cli",),
}


def probe(workload: str) -> None:
    import importlib

    docs = json.load(sys.stdin)
    for module in PROBE_IMPORTS[workload]:
        importlib.import_module(module)
    from liquidpower.core import election_from_json

    for doc in docs:
        election_from_json(doc)
    sys.stdout.write("ready\n")
    sys.stdout.flush()


def traced_cli(argv: list[str]) -> int:
    import liquidpower.cli as cli
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    buffer = io.StringIO()
    try:
        with redirect_stdout(buffer):
            code = cli.main(argv)
    finally:
        tracer.restore()
    sys.stdout.write(buffer.getvalue())
    sys.stdout.write(
        json.dumps(
            {"summary": tracer.summary(), "counts": dict(tracer.counts), "spans": tracer.rows()}
        )
        + "\n"
    )
    return code


def refusal() -> None:
    from liquidpower.core import SocialNetwork
    from liquidpower.errors import InstanceTooLargeForEnumeration
    from liquidpower.maximin import MaximinProblem, mmwp_bruteforce

    problem = MaximinProblem(SocialNetwork.complete(8), (1,) * 8, 5, 2)
    started = perf_counter()
    try:
        mmwp_bruteforce(problem)
        outcome = "answered"
    except InstanceTooLargeForEnumeration:
        outcome = "InstanceTooLargeForEnumeration"
    print(json.dumps({"seconds": perf_counter() - started, "outcome": outcome}))


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "probe":
        probe(sys.argv[2])
    elif mode == "cli":
        sys.exit(traced_cli(sys.argv[2:]))
    elif mode == "refusal":
        refusal()
    else:
        sys.exit(f"unknown mode {mode!r}")
