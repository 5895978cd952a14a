"""End-to-end command-line runs: JSON reports, exit codes, round-trips."""

import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import liquidpower
from liquidpower import cli
from liquidpower.bribery import BriberyObjective
from liquidpower.cli import main
from liquidpower.core import election_from_json, election_to_json
from support import TRIM_FALLBACK_INSTANCE, eight_voter_election, random_election


@pytest.fixture()
def fixture_path(tmp_path):
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(election_to_json(eight_voter_election())))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def _run_json(capsys, argv):
    code, out = _run(capsys, argv)
    return code, json.loads(out)


def test_index_both_methods_on_the_fixture(capsys, fixture_path):
    code, doc = _run_json(
        capsys,
        ["index", fixture_path, "--kind", "banzhaf", "--method", "both"],
    )
    assert code == 0
    values = doc["results"]["values"]
    assert values["8"]["exact"] == "1/2"
    assert values["6"]["exact"] == "1/16"
    assert doc["results"]["methods_agree"] is True
    assert doc["command"] == "index"
    assert len(doc["instance_digest"]) == 64
    # every reported rational round-trips exactly through its string form
    for entry in values.values():
        assert float(Fraction(entry["exact"])) == pytest.approx(entry["approx"])


def test_index_requires_a_quota(capsys, tmp_path):
    doc = election_to_json(eight_voter_election())
    del doc["quota"]
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(doc))
    code, out = _run_json(capsys, ["index", str(path)])
    assert code == 1
    assert "quota" in out["error"]["message"]


def test_a_quota_that_is_not_an_integer_is_named_so(capsys, tmp_path):
    # 3 lies inside [1, 6]: the refusal names the type, not the range
    path = tmp_path / "quota.json"
    for quota in (3.0, True):
        doc = {"n": 3, "weights": [1, 2, 3], "arcs": [], "quota": quota}
        path.write_text(json.dumps(doc))
        code, out = _run_json(capsys, ["index", str(path)])
        assert code == 1
        assert out["error"] == {
            "type": "QuotaOutOfRange",
            "message": f"quota must be an integer, got {quota!r}",
        }
    path.write_text(json.dumps({**doc, "quota": 7}))
    code, out = _run_json(capsys, ["index", str(path)])
    assert code == 1
    assert out["error"]["message"] == "quota 7 outside [1, 6]"


def test_large_instance_dp_completes_and_exact_refuses(capsys, tmp_path):
    rng = random.Random(12_001)
    election = random_election(rng, n_min=60, n_max=60, w_max=8)
    path = tmp_path / "large.json"
    path.write_text(json.dumps(election_to_json(election)))
    code, doc = _run_json(
        capsys, ["index", str(path), "--method", "dp", "--voter", "1"]
    )
    assert code == 0
    assert "1" in doc["results"]["values"]
    code, doc = _run_json(
        capsys, ["index", str(path), "--method", "exact", "--voter", "1"]
    )
    assert code == 1
    assert doc["error"]["type"] == "InstanceTooLargeForEnumeration"


def test_bribe_witness_feeds_back_through_index(capsys, fixture_path, tmp_path):
    code, doc = _run_json(
        capsys,
        [
            "bribe",
            fixture_path,
            "--objective",
            "max-banzhaf",
            "--target",
            "7",
            "--budget",
            "1",
            "--threshold",
            "1/2",
            "--method",
            "exact",
        ],
    )
    assert code == 0
    assert doc["results"]["decision"] is True
    reported = Fraction(doc["results"]["value"]["exact"])
    witness = tmp_path / "witness.json"
    witness.write_text(json.dumps(doc["results"]["witness_instance"]))
    code, echo = _run_json(
        capsys, ["index", str(witness), "--method", "both", "--voter", "7"]
    )
    assert code == 0
    assert Fraction(echo["results"]["values"]["7"]["exact"]) == reported


# Run in a fresh interpreter, so imports made earlier in the suite cannot
# mask what importing and running the CLI loads.  argv[1] is a JSON list of
# command lines, run in order: numpy, once loaded, stays.
FRESH_CLI = """
import contextlib, io, json, sys
import liquidpower.cli as cli

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, json.loads(out.getvalue())["results"], "numpy" in sys.modules

solvers = ("coalition_table", "bribery", "maximin", "weightmax", "weightmax_exact", "colorcoding")
doc = {
    "numpy": "numpy" in sys.modules,
    "registered": [f"liquidpower.{m}" in sys.modules for m in solvers],
}
doc["runs"] = [run(argv) for argv in json.loads(sys.argv[1])]
import liquidpower.bribery
doc["gamw"] = liquidpower.bribery.gamw.__name__
print(json.dumps(doc))
"""


def test_a_fresh_cli_loads_numpy_only_for_the_solvers_it_runs(capsys, fixture_path):
    bribe = ["--target", "7", "--budget", "1", "--threshold", "1/2"]
    wmax = ["weightmax", fixture_path, "--target", "8", "--budget", "1", "--threshold"]
    # the DP, the bit-sliced count, the greedy bribe and the tree routes of
    # weight maximisation load no numpy; the exact bribe's coalition tables,
    # the exact weight search and colour coding do
    runs = [
        (["index", fixture_path, "--method=dp"], False),
        (["index", fixture_path, "--method", "both"], False),
        (["index", fixture_path, "--method", "both", "--kind", "shapley"], False),
        (["bribe", fixture_path, *bribe, "--method", "gamw"], False),
        ([*wmax, "6", "--method", "vbamw", "--epsilon", "1/2"], False),
        ([*wmax, "6", "--method", "xp"], False),
        ([*wmax, "8", "--method", "branching"], False),
        (["bribe", fixture_path, *bribe, "--method", "exact"], True),
        ([*wmax, "8", "--method", "exact"], True),
        ([*wmax, "8", "--method", "colorcoding"], True),
    ]
    root = str(Path(liquidpower.__file__).parents[1])
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", FRESH_CLI, json.dumps([argv for argv, _ in runs])],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    doc = json.loads(out)
    # the solver modules are registered, as bench/tracing.py needs, not run
    assert doc["numpy"] is False
    assert doc["registered"] == [True] * 6
    assert len(doc["runs"]) == len(runs)
    for (argv, loads_numpy), (code, results, numpy_loaded) in zip(runs, doc["runs"]):
        assert code == 0 and numpy_loaded is loads_numpy, argv
        assert results == _run_json(capsys, argv)[1]["results"]
    assert doc["runs"][1][1]["methods_agree"] is True
    assert doc["gamw"] == "gamw"


def test_objective_choices_are_the_enum_values():
    assert list(cli.OBJECTIVES) == [o.value for o in BriberyObjective]


def test_bribe_greedy_refuses_minimization(capsys, fixture_path):
    code, doc = _run_json(
        capsys,
        [
            "bribe",
            fixture_path,
            "--objective",
            "min-banzhaf",
            "--target",
            "8",
            "--budget",
            "1",
            "--method",
            "gamw",
        ],
    )
    assert code == 1
    assert "maximizes" in doc["error"]["message"]


def _refusal(capsys, argv) -> dict:
    """The error of a refused run: exit 1, one JSON document, no traceback."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err
    return json.loads(captured.out)["error"]


@pytest.mark.parametrize(
    "options, message",
    [
        (["--threshold", "abc"], "threshold must be a rational number, got 'abc'"),
        (["--threshold", "1/2", "--target", "0"], "voter id 0 out of range 1..8"),
        (["--threshold", "1/2", "--target", "9"], "voter id 9 out of range 1..8"),
        ([], "--threshold is required with --method exact"),
        (["--method", "gamw", "--threshold", "2"], "threshold must lie in [0, 1]"),
    ],
)
def test_bribe_refuses_bad_arguments(capsys, fixture_path, options, message):
    argv = ["bribe", fixture_path, "--target", "8", "--budget", "1", *options]
    error = _refusal(capsys, argv)
    # the solvers refuse the threshold they read, the CLI the rest
    refused_by = "ValueError" if message.startswith("threshold") else "CliError"
    assert error == {"type": refused_by, "message": message}


def test_index_both_reports_a_method_divergence(capsys, monkeypatch, fixture_path):
    real = cli.all_indices_dp

    def skewed(election, kind):  # one wrong value: voter 6's
        values = list(real(election, kind).values)
        values[5] += Fraction(1, 1024)
        return SimpleNamespace(values=values)

    monkeypatch.setattr(cli, "all_indices_dp", skewed)
    error = _refusal(capsys, ["index", fixture_path, "--method", "both"])
    assert error["type"] == "CliError"
    assert error["message"].startswith("method divergence for voter 6: dp=")


def test_running_out_of_memory_is_a_refusal(capsys, monkeypatch, fixture_path):
    def exhausted(election, kind):
        raise MemoryError

    monkeypatch.setattr(cli, "all_indices_exact", exhausted)
    error = _refusal(capsys, ["index", fixture_path, "--method", "exact"])
    assert error == {"type": "MemoryError", "message": "out of memory"}


def test_pretty_renders_a_list_of_skipped_redirects(capsys, fixture_path):
    # the only other root, voter 8, has no arc to voter 3: gamw skips it
    argv = ["bribe", fixture_path, "--target", "3", "--budget", "1", "--method", "gamw"]
    code, out = _run(capsys, [*argv, "--pretty"])
    assert code == 0
    assert re.search(r"^results\.skipped_redirects +\[\[8, 3\]\]$", out, re.MULTILINE)


def test_weightmax_no_decision_still_exits_zero(capsys, fixture_path):
    code, doc = _run_json(
        capsys,
        [
            "weightmax",
            fixture_path,
            "--target",
            "8",
            "--budget",
            "0",
            "--threshold",
            "9",
        ],
    )
    assert code == 0
    assert doc["results"]["decision"] is False
    assert "witness_instance" not in doc["results"]


def test_weightmax_witness_supports_reported_weight(capsys, fixture_path):
    code, doc = _run_json(
        capsys,
        [
            "weightmax",
            fixture_path,
            "--target",
            "8",
            "--budget",
            "1",
            "--threshold",
            "8",
            "--method",
            "xp",
        ],
    )
    assert code == 0
    assert doc["results"]["decision"] is True
    assert doc["results"]["support"] >= 8
    delegations = doc["results"]["witness_instance"]["delegations"]
    assert delegations["8"] == 8  # the target votes personally


def test_weightmax_exact_answers_twenty_voters(capsys, monkeypatch, tmp_path):
    import io

    election = random_election(random.Random(13_004), n_min=20, n_max=20, arc_prob=0.2)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(election_to_json(election))))
    argv = ["weightmax", "-", "--method", "exact", "--target", "3", "--budget", "2"]
    code, doc = _run_json(capsys, [*argv, "--threshold", "1"])
    assert code == 0
    results = doc["results"]
    assert results["decision"] is True and results["changes"] <= 2
    witness = tmp_path / "witness.json"
    witness.write_text(json.dumps(results["witness_instance"]))
    assert election_from_json(results["witness_instance"]).forest.subtree_weight[2] == results["support"]
    code, echo = _run_json(capsys, ["index", str(witness), "--voter", "3"])
    assert code == 0
    assert "3" in echo["results"]["values"]


def test_weightmax_vbamw_needs_epsilon(capsys, fixture_path):
    code, doc = _run_json(
        capsys,
        [
            "weightmax",
            fixture_path,
            "--target",
            "8",
            "--budget",
            "2",
            "--threshold",
            "6",
            "--method",
            "vbamw",
        ],
    )
    assert code == 1
    assert "epsilon" in doc["error"]["message"]


@pytest.mark.parametrize("epsilon", [["--epsilon", "0"], ["--epsilon=-1/2"]])
def test_weightmax_vbamw_refuses_a_slack_that_is_not_positive(capsys, fixture_path, epsilon):
    argv = ["weightmax", fixture_path, "--target", "8", "--budget", "2"]
    code, out = _run(capsys, [*argv, "--threshold", "6", "--method", "vbamw", *epsilon])
    assert code == 1
    assert json.loads(out) == {  # exactly one JSON document
        "command": "weightmax",
        "error": {"type": "ValueError", "message": "epsilon must be positive"},
    }


def test_a_negative_slack_without_an_equals_sign_is_a_usage_error(capsys, fixture_path):
    # argparse reads "-1/2", which is no plain negative number, as an option
    argv = ["weightmax", fixture_path, "--target", "8", "--budget", "2"]
    with pytest.raises(SystemExit) as exited:
        main([*argv, "--threshold", "6", "--method", "vbamw", "--epsilon", "-1/2"])
    assert exited.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage:")


def test_colorcoding_refuses_weights_beyond_its_tables(capsys, tmp_path):
    path = tmp_path / "huge.json"
    arcs = [[2, 1], [3, 1], [3, 2]]
    doc = {"n": 3, "weights": [1, 1 << 64, 1], "arcs": arcs, "quota": 2}
    path.write_text(json.dumps(doc))
    argv = ["weightmax", str(path), "--target", "1", "--budget", "2"]
    argv += ["--threshold", "4", "--method", "colorcoding"]
    code, doc = _run_json(capsys, argv)
    assert code == 1
    assert doc["error"]["type"] == "ParameterTooLarge"


def test_colorcoding_takes_a_subnormal_delta(capsys, fixture_path):
    argv = ["weightmax", fixture_path, "--target", "8", "--budget", "1"]
    argv += ["--threshold", "8", "--method", "colorcoding", "--delta", "1e-320"]
    code, out = _run(capsys, argv)
    assert code == 0
    doc = json.loads(out)  # exactly one JSON document
    assert doc["arguments"]["delta"] == 1e-320
    assert doc["results"]["decision"] is True


def test_only_weightmax_takes_a_seed(capsys, fixture_path):
    argv = ["weightmax", fixture_path, "--target", "8", "--budget", "1"]
    argv += ["--threshold", "8", "--method", "colorcoding", "--seed", "3"]
    code, doc = _run_json(capsys, argv)
    assert code == 0
    assert doc["arguments"]["seed"] == 3
    code, doc = _run_json(capsys, ["index", fixture_path])
    assert "seed" not in doc["arguments"]
    with pytest.raises(SystemExit):
        main(["index", fixture_path, "--seed", "3"])


def test_weightmax_vbamw_trim_fallback_answers(capsys, tmp_path):
    path = tmp_path / "skewed.json"
    path.write_text(json.dumps(TRIM_FALLBACK_INSTANCE))
    argv = ["weightmax", str(path), "--target", "2", "--budget", "2"]
    argv += ["--threshold", "1", "--method", "vbamw", "--epsilon", "2/3"]
    code, doc = _run_json(capsys, argv)
    assert code == 0
    results = doc["results"]
    assert (results["decision"], results["support"], results["changes"]) == (True, 31, 2)
    assert results["witness_instance"]["delegations"]["2"] == 2


def test_maximin_reports_the_balanced_design(capsys, tmp_path):
    doc = {
        "n": 6,
        "weights": [1] * 6,
        "arcs": [[1, 3], [3, 5], [2, 4], [4, 6], [2, 3]],
        "delegations": {},
        "quota": 3,
    }
    path = tmp_path / "gadget.json"
    path.write_text(json.dumps(doc))
    code, report = _run_json(capsys, ["maximin", str(path), "--gurus", "2"])
    assert code == 0
    assert report["results"]["mu"]["exact"] == "1/8"
    assert report["results"]["witness_instance"]["delegations"]["5"] == 5
    code, report = _run_json(capsys, ["maximin", str(path), "--gurus", "1"])
    assert code == 1
    assert report["error"]["type"] == "NoFeasibleProfile"


def test_reads_instance_from_stdin(capsys, monkeypatch):
    import io

    payload = json.dumps(election_to_json(eight_voter_election()))
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    code, doc = _run_json(capsys, ["index", "-", "--voter", "8"])
    assert code == 0
    assert doc["results"]["values"]["8"]["exact"] == "1/2"


def test_pretty_renders_a_table(capsys, fixture_path):
    code, out = _run(capsys, ["index", fixture_path, "--pretty", "--voter", "8"])
    assert code == 0
    assert "results.values.8" in out
    assert "1/2" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def test_malformed_instance_is_a_structured_error(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, doc = _run_json(capsys, ["index", str(path)])
    assert code == 1
    assert doc["error"]["type"] == "CliError"
    code, doc = _run_json(capsys, ["index", str(tmp_path / "missing.json")])
    assert code == 1
    assert doc["error"]["type"] == "FileNotFoundError"
    # a "delegations" that is not an object is refused, not a traceback
    for delegations in ([[1, 2]], None):
        doc = election_to_json(eight_voter_election())
        doc["delegations"] = delegations
        path.write_text(json.dumps(doc))
        code, doc = _run_json(capsys, ["index", str(path)])
        assert code == 1
        assert doc["error"]["type"] == "CliError"
        assert "'delegations' must be an object" in doc["error"]["message"]
    # JSON booleans and floats are not voter ids, nor a voter count
    base = election_to_json(eight_voter_election())
    for broken in (
        {**base, "arcs": [[True, 2]] + base["arcs"]},
        {**base, "arcs": [[1, 3.0]] + base["arcs"]},
        {**base, "delegations": {"1": True}},
        {"n": True, "weights": [1], "arcs": [], "quota": 1},
    ):
        path.write_text(json.dumps(broken))
        code, doc = _run_json(capsys, ["index", str(path)])
        assert code == 1
        assert doc["error"]["type"] == "CliError"


def test_a_delegation_key_that_is_not_a_voter_id_is_refused(capsys, tmp_path):
    # int("1_0") is 10 and int(" +1 ") is 1; neither key names a voter
    doc = election_to_json(eight_voter_election())
    path = tmp_path / "keys.json"
    for key in ("1_0", " +1 "):
        path.write_text(json.dumps({**doc, "delegations": {key: 3}}))
        code = main(["index", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "Traceback" not in captured.err
        error = json.loads(captured.out)["error"]
        assert error["type"] == "CliError"
        assert repr(key) in error["message"]


@pytest.mark.parametrize(
    "instance, kind, message",
    [
        (
            {"arcs": [[1, 2], [2, 3], [3, 1]], "delegations": {"1": 2, "2": 3, "3": 1}},
            "CycleInDelegations",
            "delegations contain a cycle: 1 -> 2 -> 3",
        ),
        (
            {"arcs": [[1, 2], [2, 3]], "delegations": {"2": 6}},
            "ArcNotInNetwork",
            "no arc from voter 2 to voter 6 in the network",
        ),
    ],
)
def test_refused_delegations_name_voters_as_the_instance_does(
    capsys, monkeypatch, instance, kind, message
):
    import io

    doc = {"n": 6, "weights": [1] * 6, "quota": 2, **instance}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code = main(["index", "-"])
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err
    assert captured.out.count("\n") == 1
    assert json.loads(captured.out)["error"] == {"type": kind, "message": message}


def test_voter_ids_on_the_command_line_are_canonical_decimals(capsys, tmp_path):
    # int() reads "1_0" and "010" as 10, " +3 " and the full-width "３" as 3
    doc = election_to_json(random_election(random.Random(12_004), n_min=11, n_max=11))
    path = tmp_path / "eleven.json"
    path.write_text(json.dumps(doc))
    runs = [
        (["index", str(path), "--voter", text], text)
        for text in ("1_0", "010", " +3 ", "３")
    ]
    weightmax = ["weightmax", str(path), "--threshold", "1", "--budget", "1"]
    runs.append(([*weightmax, "--target", "1_1"], "1_1"))
    for argv, text in runs:
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert "Traceback" not in captured.err
        error = json.loads(captured.out)["error"]
        assert error["type"] == "CliError"
        assert repr(text) in error["message"]
    code, doc = _run_json(capsys, ["index", str(path), "--voter", "10"])
    assert code == 0
    assert list(doc["results"]["values"]) == ["10"]


def test_twelve_voter_bribe_witness_feeds_back_through_index(capsys, tmp_path):
    election = random_election(random.Random(12_005), n_min=12, n_max=12, arc_prob=0.2)
    path = tmp_path / "twelve.json"
    path.write_text(json.dumps(election_to_json(election)))
    argv = ["bribe", str(path), "--objective", "max-shapley", "--target", "12"]
    code, doc = _run_json(
        capsys, [*argv, "--budget", "2", "--threshold", "0", "--method", "exact"]
    )
    assert code == 0
    assert doc["results"]["decision"] is True
    witness = tmp_path / "witness.json"
    witness.write_text(json.dumps(doc["results"]["witness_instance"]))
    code, echo = _run_json(
        capsys,
        ["index", str(witness), "--kind", "shapley", "--method", "both", "--voter", "12"],
    )
    assert code == 0
    assert echo["results"]["values"]["12"]["exact"] == doc["results"]["value"]["exact"]
