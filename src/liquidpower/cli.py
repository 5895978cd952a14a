"""Batch command-line surface: JSON instances in, one JSON report out.

Four subcommands cover the solver families::

    liquidpower index     INSTANCE [--kind ...] [--method exact|dp|both] [--voter all|ID]
    liquidpower bribe     INSTANCE --objective ... --target ID --budget K
                          [--threshold Q] [--method exact|gamw]
    liquidpower weightmax INSTANCE --target ID --budget K --threshold W
                          [--method exact|branching|xp|colorcoding|vbamw]
                          [--epsilon Q] [--delta X] [--seed N]
    liquidpower maximin   INSTANCE --gurus K [--kind ...]

The report is a single JSON document on stdout (``--pretty`` renders a
human-readable table instead).  Exit status is 0 whenever the run produced
an answer — a "no" decision included — and 1 on any error, which is itself
reported as a structured JSON document.  Voter ids are 1-based on both
sides of the interface, matching the instance format.

The solver modules (bribery, maximin, the three weight-maximization
modules and the coalition tables) load on first use, so a process pays
only for the command it runs.  numpy loads only with the coalition tables,
the searches and colour coding: ``index`` (every method), ``bribe --method
gamw`` and ``weightmax --method vbamw|xp|branching`` load none.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import _lazy_submodule
from .core import (
    LiquidElection,
    decimal_id,
    election_from_json,
    election_to_json,
    instance_digest,
)
from .dp import all_indices_dp, banzhaf_dp, shapley_dp
from .errors import ArcNotInNetwork, CycleInDelegations, LiquidPowerError
from .exact import MeasureKind, all_indices_exact, power_index

DEFAULT_SEED = 1729

# the values of bribery.BriberyObjective, so the parser loads no bribery
OBJECTIVES = ("max-banzhaf", "max-shapley", "min-banzhaf", "min-shapley")


# bench/tracing.py finds coalition_table in sys.modules after this import,
# and bribery's ``from . import coalition_table`` binds it unloaded
_lazy_submodule("coalition_table")
bribery = _lazy_submodule("bribery")
maximin = _lazy_submodule("maximin")
weightmax = _lazy_submodule("weightmax")
weightmax_exact = _lazy_submodule("weightmax_exact")
colorcoding = _lazy_submodule("colorcoding")


class CliError(LiquidPowerError):
    """Command-level failure (bad arguments, divergent cross-check, ...)."""


# --------------------------------------------------------------------------
# report plumbing
# --------------------------------------------------------------------------


def _fraction_doc(value: Fraction) -> dict:
    """Exact "num/den" string (round-trips through Fraction) plus a float."""
    value = Fraction(value)
    return {
        "exact": f"{value.numerator}/{value.denominator}",
        "approx": float(value),
    }


def _values_doc(values) -> dict:
    return {str(i + 1): _fraction_doc(v) for i, v in enumerate(values)}


def _witness_doc(election: LiquidElection, profile) -> dict:
    """The bribed/redesigned instance, ready to feed back through `index`."""
    return election_to_json(election.with_profile(profile))


def _parse_voter(text: str, n: int) -> int:
    voter = decimal_id(text)
    if voter is None:
        raise CliError(f"voter id must be a decimal integer, got {text!r}")
    if not 1 <= voter <= n:
        raise CliError(f"voter id {voter} out of range 1..{n}")
    return voter - 1


def _load_election(path: str):
    if path == "-":
        raw = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as handle:
            raw = handle.read()
    try:
        return election_from_json(raw)
    except json.JSONDecodeError as exc:
        raise CliError(f"instance is not valid JSON: {exc}") from None
    except (ValueError, TypeError) as exc:
        raise CliError(f"bad instance document: {exc}") from None


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def _cmd_index(args, election: LiquidElection) -> dict:
    kind = MeasureKind(args.kind)
    if args.voter == "all":
        voters = list(range(election.n))
    else:
        voters = [_parse_voter(args.voter, election.n)]

    def exact_values() -> list[Fraction]:
        if args.voter == "all":
            return list(all_indices_exact(election, kind).values)
        return [power_index(election, voters[0], kind)]

    if args.method == "exact":
        values = exact_values()
    else:
        if args.voter == "all":
            values = list(all_indices_dp(election, kind).values)
        else:
            fn = banzhaf_dp if kind is MeasureKind.BANZHAF else shapley_dp
            values = [fn(election, voters[0])]
        if args.method == "both":  # compute twice, any divergence is a failure
            for v, via_tables, via_enumeration in zip(voters, values, exact_values()):
                if via_tables != via_enumeration:
                    raise CliError(
                        f"method divergence for voter {v + 1}: "
                        f"dp={via_tables} exact={via_enumeration}"
                    )

    results: dict = {
        "kind": kind.value,
        "values": {str(v + 1): _fraction_doc(x) for v, x in zip(voters, values)},
    }
    if args.method == "both":
        results["methods_agree"] = True
    if args.voter == "all":
        results["total"] = _fraction_doc(sum(values, Fraction(0)))
    return results


def _cmd_bribe(args, election: LiquidElection) -> dict:
    target = _parse_voter(args.target, election.n)
    objective = bribery.BriberyObjective(args.objective)

    if args.method == "exact":
        if args.threshold is None:
            raise CliError("--threshold is required with --method exact")
        problem = bribery.BriberyProblem(
            election, target, args.budget, args.threshold, objective
        )
        outcome = bribery.solve_bribery_exact(problem)
    else:
        if not objective.maximize:
            raise CliError("the greedy method only maximizes; use --method exact")
        outcome = bribery.gamw(
            election,
            target,
            args.budget,
            kind=objective.kind,
            threshold=args.threshold,
        )

    results = {
        "decision": outcome.decision,
        "value": _fraction_doc(outcome.value),
        "changes": outcome.changes,
    }
    if outcome.skipped_redirects:
        results["skipped_redirects"] = [
            [a + 1, b + 1] for a, b in outcome.skipped_redirects
        ]
    if outcome.profile is not None:
        results["witness_instance"] = _witness_doc(election, outcome.profile)
    return results


def _cmd_weightmax(args, election: LiquidElection) -> dict:
    target = _parse_voter(args.target, election.n)
    problem = weightmax.WeightMaxProblem(election, target, args.budget, args.threshold)

    if args.method == "exact":
        outcome = weightmax_exact.wmaxp_exact(problem)
    elif args.method == "branching":
        outcome = weightmax.solve_full_support(problem)
    elif args.method == "xp":
        outcome = weightmax.solve_xp_reqbar(problem)
    elif args.method == "colorcoding":
        outcome = colorcoding.solve_fpt_colorcoding(
            problem, delta=args.delta, seed=args.seed
        )
    else:  # vbamw
        if args.epsilon is None:
            raise CliError("--epsilon is required with --method vbamw")
        outcome = weightmax.vbamw(problem, args.epsilon)

    results = {
        "decision": outcome.decision,
        "support": outcome.support,
        "changes": outcome.changes,
    }
    if outcome.profile is not None:
        results["witness_instance"] = _witness_doc(election, outcome.profile)
    return results


def _cmd_maximin(args, election: LiquidElection) -> dict:
    problem = maximin.MaximinProblem(
        election.network,
        election.weights,
        election.quota,
        args.gurus,
        MeasureKind(args.kind),
    )
    solution = maximin.mmwp_bruteforce(problem)
    return {
        "mu": _fraction_doc(solution.mu),
        "per_voter": _values_doc(solution.per_voter),
        "witness_instance": _witness_doc(election, solution.profile),
    }


# --------------------------------------------------------------------------
# argument parsing and entry point
# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liquidpower",
        description="Power measures and delegation-design solvers, JSON in/out.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("instance", help="instance JSON file, or - for stdin")
    common.add_argument(
        "--pretty", action="store_true", help="human-readable table instead of JSON"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser(
        "index", parents=[common], help="per-voter power values"
    )
    p_index.add_argument(
        "--kind", choices=[k.value for k in MeasureKind], default="banzhaf"
    )
    p_index.add_argument("--method", choices=["exact", "dp", "both"], default="dp")
    p_index.add_argument("--voter", default="all", help="1-based voter id, or 'all'")
    p_index.set_defaults(run=_cmd_index)

    p_bribe = sub.add_parser(
        "bribe", parents=[common], help="optimize one voter's power with k changes"
    )
    p_bribe.add_argument(
        "--objective",
        choices=OBJECTIVES,
        default="max-banzhaf",
    )
    p_bribe.add_argument("--target", required=True, help="1-based voter id")
    p_bribe.add_argument("--budget", type=int, required=True)
    p_bribe.add_argument("--threshold", help="rational, e.g. 1/2 (required for exact)")
    p_bribe.add_argument("--method", choices=["exact", "gamw"], default="exact")
    p_bribe.set_defaults(run=_cmd_bribe)

    p_wmax = sub.add_parser(
        "weightmax", parents=[common], help="gather ballot weight on one voter"
    )
    p_wmax.add_argument("--target", required=True, help="1-based voter id")
    p_wmax.add_argument("--budget", type=int, required=True)
    p_wmax.add_argument(
        "--threshold", type=int, required=True, help="weight the target must reach"
    )
    p_wmax.add_argument(
        "--method",
        choices=["exact", "branching", "xp", "colorcoding", "vbamw"],
        default="exact",
    )
    p_wmax.add_argument("--epsilon", help="rational budget slack for vbamw")
    p_wmax.add_argument(
        "--delta", type=float, default=0.01, help="colorcoding failure bound"
    )
    p_wmax.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help="colorcoding seed (fixed default for reproducibility)",
    )
    p_wmax.set_defaults(run=_cmd_weightmax)

    p_maximin = sub.add_parser(
        "maximin", parents=[common], help="fairest delegation graph with k gurus"
    )
    p_maximin.add_argument("--gurus", type=int, required=True)
    p_maximin.add_argument(
        "--kind", choices=[k.value for k in MeasureKind], default="banzhaf"
    )
    p_maximin.set_defaults(run=_cmd_maximin)
    return parser


def _echo_arguments(args) -> dict:
    skip = {"run", "command", "instance", "pretty"}
    return {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in skip and value is not None
    }


def _render_table(doc: dict, stream) -> None:
    def emit(prefix: str, value) -> None:
        if isinstance(value, dict):
            if set(value) == {"exact", "approx"}:
                stream.write(f"{prefix:<28} {value['exact']}  (~{value['approx']:.6g})\n")
                return
            for key, inner in value.items():
                emit(f"{prefix}.{key}" if prefix else str(key), inner)
        elif isinstance(value, list):
            stream.write(f"{prefix:<28} {json.dumps(value)}\n")
        else:
            stream.write(f"{prefix:<28} {value}\n")

    emit("", doc)


def _emit(doc: dict, pretty: bool) -> None:
    if pretty:
        _render_table(doc, sys.stdout)
    else:
        json.dump(doc, sys.stdout, separators=(",", ":"))
        sys.stdout.write("\n")


def _error_message(exc: Exception) -> str:
    """The message of ``exc``, with the voter ids it names 1-based."""
    if isinstance(exc, MemoryError):
        return str(exc) or "out of memory"
    if isinstance(exc, CycleInDelegations):
        exc = CycleInDelegations(v + 1 for v in exc.cycle)
    elif isinstance(exc, ArcNotInNetwork):
        exc = ArcNotInNetwork(exc.source + 1, exc.target + 1)
    return str(exc)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        election = _load_election(args.instance)
        results = args.run(args, election)
    except (LiquidPowerError, ValueError, OSError, MemoryError) as exc:
        error_doc = {
            "command": args.command,
            "error": {"type": type(exc).__name__, "message": _error_message(exc)},
        }
        _emit(error_doc, args.pretty)
        return 1
    elapsed = time.perf_counter() - started
    report = {
        "command": args.command,
        "instance_digest": instance_digest(election),
        "arguments": _echo_arguments(args),
        "results": results,
        "elapsed_seconds": round(elapsed, 6),
    }
    _emit(report, args.pretty)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
