import csv
import dataclasses
import importlib.util
import inspect
import json
import math
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import click
import numpy as np
import pytest
from click.core import ParameterSource
from click.testing import CliRunner

import graphfix
from graphfix.bernstein import iterate_to_limit
from graphfix.cli import main
from graphfix.engine import IterationConfig
from graphfix.fbvp import FbvpProblem
from graphfix.metric import EPS
from graphfix.problems import (
    builtin_problem,
    problem_to_dict,
    ternary_orbit_problem,
)
from graphfix.serialize import csv_cell, json_dumps
from graphfix.verifier import enumerate_coincidence_points

from ladders import random_ladder_problem


@pytest.fixture()
def runner():
    return CliRunner()


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_verify_builtin_all_true(runner, tmp_path):
    res = runner.invoke(main, ["--out", str(tmp_path), "verify", "example-3-3"])
    assert res.exit_code == 0, res.output
    report = _read_json(tmp_path / "report.json")
    assert report["hypotheses"]["all_ok"] is True
    assert report["manifest"]["subcommand"] == "verify"
    assert set(report["manifest"]) == {"subcommand", "input", "params", "out", "format"}


def test_verify_kamran_flags_violating_pair(runner, tmp_path):
    res = runner.invoke(
        main, ["--out", str(tmp_path), "verify", "example-3-3", "--kamran", "--M", "0"]
    )
    assert res.exit_code == 1
    report = _read_json(tmp_path / "report.json")
    assert report["hypotheses"]["all_ok"] is True
    assert report["kamran"]["holds"] is False
    pairs = {(w["v"], w["w"]) for w in report["kamran"]["witnesses"]}
    assert ("0", "1") in pairs


def test_verify_identity_builtin(runner, tmp_path):
    res = runner.invoke(main, ["--out", str(tmp_path), "verify", "identity"])
    assert res.exit_code == 0


def test_verify_kamran_counterexample_builtin(runner, tmp_path):
    res = runner.invoke(
        main,
        ["--out", str(tmp_path), "verify", "kamran-counterexample", "--kamran"],
    )
    assert res.exit_code == 1


def test_verify_malformed_file(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all")
    res = runner.invoke(main, ["--out", str(tmp_path), "verify", str(bad)])
    assert res.exit_code == 2


def _two_point_file(tmp_path, a, b, pairs):
    path = tmp_path / "two.json"
    path.write_text(json.dumps({
        "points": [{"label": a}, {"label": b}],
        "distances": [[0, 1], [1, 0]],
        "edges": {"mode": "list", "pairs": pairs},
        "gauge": {"form": "constant", "value": 0.5},
        "f": {str(a): a, str(b): b},
        "F": {str(a): [a], str(b): [b]},
        "w0": a,
        "p0": a,
    }))
    return str(path)


@pytest.mark.parametrize("a, b", [(0, 1), ("0", "1"), (0, "1")])
def test_edge_pairs_read_numeric_labels_like_every_other_section(runner, tmp_path, a, b):
    path = _two_point_file(tmp_path, a, b, [[a, b], [b, a]])
    res = runner.invoke(main, ["--out", str(tmp_path / "out"), "verify", path])
    assert res.exit_code == 0, res.output


@pytest.mark.parametrize("pairs", [["ab"], [{"a": 0, "b": 1}], [["a", "b"], "ba"]])
def test_an_edge_pair_that_is_no_two_element_array_is_refused(runner, tmp_path, pairs):
    # a string or an object of two labels unpacks as a pair, but is none
    path = _two_point_file(tmp_path, "a", "b", pairs)
    res = runner.invoke(main, ["--out", str(tmp_path / "out"), "verify", path])
    assert res.exit_code == 2
    assert res.stderr == "error: edges must be [u, v] pairs of point labels\n"


def test_verify_unknown_name(runner, tmp_path):
    res = runner.invoke(main, ["--out", str(tmp_path), "verify", "no-such-problem"])
    assert res.exit_code == 2


@pytest.mark.parametrize("name", ["example-3-3", "kamran-counterexample"])
def test_verify_truncate_zero_is_input_error(runner, tmp_path, name):
    # depth 0 is refused like depth 2, not taken as a request for the default
    res = runner.invoke(main, ["--out", str(tmp_path), "verify", name, "--truncate", "0"])
    assert res.exit_code == 2
    assert res.stderr == "error: ternary orbit problem needs depth >= 3\n"


_DEPTH_PAST_NORMAL = (
    "error: ternary orbit problem needs depth <= 644: "
    "past it, 3^-depth is below the smallest normal double\n"
)


@pytest.mark.parametrize("depth", [645, 665, 9013])
def test_verify_truncate_past_the_normal_doubles_is_input_error(runner, tmp_path, depth):
    # 3^-645 is subnormal: 665 gave a false condition (i) witness, and
    # 9013 a label past Python's int-to-str digit limit
    assert 3.0**-644 >= sys.float_info.min > 3.0**-645
    res = runner.invoke(main, ["--out", str(tmp_path), "verify", "example-3-3",
                               "--truncate", str(depth)])
    assert res.exit_code == 2
    assert res.stderr == _DEPTH_PAST_NORMAL


def test_verify_truncate_at_the_last_normal_depth(runner, tmp_path):
    res = runner.invoke(main, ["--out", str(tmp_path), "verify", "example-3-3",
                               "--truncate", "644"])
    assert res.exit_code == 0, res.output
    report = _read_json(tmp_path / "report.json")["hypotheses"]
    assert report["all_ok"] is True
    # D = d/3 exactly, and the float data exceed it by rounding only
    assert 0.0 < report["margin"]["i"] <= EPS


def test_verify_condition_i_margin_shows_the_slack(runner, tmp_path):
    # at gauge 1/3 condition (i) holds with equality in exact arithmetic,
    # so its float margin lies within the slack; a gauge of 0.34 leaves room
    res = runner.invoke(main, ["--out", str(tmp_path / "a"), "verify", "example-3-3",
                               "--truncate", "20"])
    assert res.exit_code == 0, res.output
    margin = _read_json(tmp_path / "a" / "report.json")["hypotheses"]["margin"]["i"]
    assert 0.0 < margin <= EPS
    data = problem_to_dict(ternary_orbit_problem(20))
    data["gauge"] = {"form": "constant", "value": 0.34}
    path = tmp_path / "gauge.json"
    path.write_text(json.dumps(data))
    res = runner.invoke(main, ["--out", str(tmp_path / "b"), "verify", str(path)])
    assert res.exit_code == 0, res.output
    assert _read_json(tmp_path / "b" / "report.json")["hypotheses"]["margin"]["i"] <= 0.0


def test_verify_kamran_report_stays_small_at_the_last_normal_depth(runner, tmp_path):
    # each of the 416,664 failing pairs once had its own witness: 221 MB
    res = runner.invoke(main, ["--out", str(tmp_path), "verify", "example-3-3",
                               "--truncate", "644", "--kamran", "--kamran-sup", "0"])
    assert res.exit_code == 1
    path = tmp_path / "report.json"
    assert path.stat().st_size < 50_000
    kamran = _read_json(path)["kamran"]
    assert kamran["failing"] == 416_664
    assert (kamran["witnesses"][0]["v"], kamran["witnesses"][0]["w"]) == ("0", "1")


def test_sweep_job_truncate_past_the_normal_doubles_is_input_error(runner, tmp_path):
    spec = [
        {"subcommand": "verify", "input": "example-3-3", "params": {"truncate": 9013}},
        {"subcommand": "iterate", "input": "example-3-3", "params": {"truncate": 5}},
    ]
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    res = runner.invoke(main, ["--out", str(tmp_path), "sweep", str(spec_path)])
    assert res.exit_code == 2
    runs = _read_json(tmp_path / "sweep.json")["runs"]
    assert [r["exit_code"] for r in runs] == [2, 0]
    assert runs[0]["error"] == _DEPTH_PAST_NORMAL.rstrip("\n")


_NO_DEPTH = {
    "identity": "the identity problem takes no truncation depth",
    "FILE": "truncate applies to the ternary orbit builtins, not to a problem file",
}


def _problem_file(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem_to_dict(builtin_problem("example-3-3"))))
    return str(path)


@pytest.mark.parametrize("subcommand", ["verify", "iterate"])
@pytest.mark.parametrize("ref", sorted(_NO_DEPTH))
def test_truncate_that_changes_nothing_is_input_error(runner, tmp_path, subcommand, ref):
    problem = _problem_file(tmp_path) if ref == "FILE" else ref
    res = runner.invoke(
        main, ["--out", str(tmp_path / "out"), subcommand, problem, "--truncate", "1"]
    )
    assert res.exit_code == 2
    assert res.stderr == f"error: {_NO_DEPTH[ref]}\n"
    assert not (tmp_path / "out").exists()


def test_sweep_job_truncate_that_changes_nothing_is_input_error(runner, tmp_path):
    path = _problem_file(tmp_path)
    spec = [
        {"subcommand": "verify", "input": "identity", "params": {"truncate": 5}},
        {"subcommand": "iterate", "input": path, "params": {"truncate": 5}},
        {"subcommand": "verify", "input": "example-3-3", "params": {"truncate": 5}},
    ]
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps(spec))
    res = runner.invoke(main, ["--out", str(tmp_path), "sweep", str(spec_path)])
    assert res.exit_code == 2
    runs = _read_json(tmp_path / "sweep.json")["runs"]
    assert [r["exit_code"] for r in runs] == [2, 2, 0]
    assert [r["error"] for r in runs] == [
        f"error: {_NO_DEPTH['identity']}", f"error: {_NO_DEPTH['FILE']}", None
    ]


def test_iterate_ternary_orbit(runner, tmp_path):
    res = runner.invoke(main, ["--out", str(tmp_path), "iterate", "example-3-3"])
    assert res.exit_code == 0, res.output
    outcome = _read_json(tmp_path / "outcome.json")
    assert outcome["status"] == "converged"
    assert outcome["w_star"] == "0"
    assert outcome["common_fixed_point"] == "0"
    with open(tmp_path / "trace.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["w_label"] == "1/3"
    ds = [float(r["d_n"]) for r in rows[1:]]
    for a, b in zip(ds, ds[1:]):
        assert b <= math.sqrt(1.0 / 3.0) * a * (1 + 1e-12) + 1e-15
    assert all(r["edge_ok"] == "true" for r in rows)


def test_iterate_says_whether_the_stop_is_an_exact_coincidence(runner, tmp_path):
    # the default depth walks onto 0, where f(0) = 0 lies in F(0)
    res = runner.invoke(main, ["--out", str(tmp_path), "iterate", "example-3-3"])
    assert res.exit_code == 0, res.output
    assert _read_json(tmp_path / "outcome.json")["exact_coincidence"] is True
    # at depth 20 the residual falls below tol one rung above the cut:
    # converged within tolerance, but f(w*) is not in F(w*)
    res = runner.invoke(
        main, ["--out", str(tmp_path), "iterate", "example-3-3", "--truncate", "20"]
    )
    assert res.exit_code == 0, res.output
    outcome = _read_json(tmp_path / "outcome.json")
    assert outcome["status"] == "converged"
    assert outcome["w_star"] == f"1/{3**19}"
    assert outcome["final_residual"] == pytest.approx(2.868e-10, rel=1e-3)
    assert outcome["exact_coincidence"] is False
    # the record states the distance to the limit it certified: sqrt(1/3)
    # / (1 - sqrt(1/3)) times the last step, within the default tol 1e-9
    assert outcome["iterations"] == 17
    assert outcome["error_bound"] == pytest.approx(7.835e-10, rel=1e-3)
    with open(tmp_path / "trace.csv") as fh:
        last = list(csv.DictReader(fh))[-1]
    assert float(last["tail_bound_n"]) == outcome["error_bound"]


def test_iterate_budget_zero(runner, tmp_path):
    res = runner.invoke(
        main, ["--out", str(tmp_path), "iterate", "example-3-3", "--max-iter", "0"]
    )
    assert res.exit_code == 3


def test_iterate_problem_file_matches_oracle(runner, tmp_path):
    rng = random.Random(8)
    problem = random_ladder_problem(rng)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem_to_dict(problem)))
    res = runner.invoke(main, ["--out", str(tmp_path), "iterate", str(path)])
    assert res.exit_code == 0, res.output
    outcome = _read_json(tmp_path / "outcome.json")
    cs = enumerate_coincidence_points(problem.space, problem.f, problem.F)
    assert outcome["w_star"] in cs.coincidence


def test_iterate_start_override(runner, tmp_path):
    res = runner.invoke(
        main,
        ["--out", str(tmp_path), "iterate", "example-3-3",
         "--w0", "1/9", "--p0", "1/81"],
    )
    assert res.exit_code == 0
    outcome = _read_json(tmp_path / "outcome.json")
    assert outcome["w_star"] == "0"


def test_bernstein_square_limit(runner, tmp_path):
    res = runner.invoke(
        main,
        ["--out", str(tmp_path), "bernstein", "--n", "5", "--q", "0.9",
         "--phi", "square"],
    )
    assert res.exit_code == 0, res.output
    with open(tmp_path / "bernstein.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 101
    for r in rows:
        assert abs(float(r["limit"]) - float(r["a"])) <= 1e-8
    summary = _read_json(tmp_path / "summary.json")
    assert summary["converged"] is True
    assert summary["status"] == "converged"
    assert 0.0 < summary["b_nq"] < 1.0


def test_bernstein_phi_file(runner, tmp_path):
    samples = [[a, a * a] for a in np.linspace(0.0, 1.0, 201)]
    phi_path = tmp_path / "phi.json"
    phi_path.write_text(json.dumps(samples))
    res = runner.invoke(
        main,
        ["--out", str(tmp_path), "bernstein", "--n", "4", "--q", "1.1",
         "--phi", str(phi_path)],
    )
    assert res.exit_code == 0, res.output


def test_bernstein_malformed_phi_file_is_input_error(runner, tmp_path):
    phi_path = tmp_path / "phi.json"
    phi_path.write_text(json.dumps([[0.0, 1.0], [0.5]]))
    res = runner.invoke(
        main,
        ["--out", str(tmp_path), "bernstein", "--n", "4", "--q", "1.0",
         "--phi", str(phi_path)],
    )
    assert res.exit_code == 2
    assert res.stderr.startswith("error:")


@pytest.mark.parametrize(
    "samples",
    [
        "[[0, 1], [1, " + "9" * 400 + "]]",
        '[[0, "1"], [1, true], ["0.5", 2]]',
        "[[0, 1], [0.5, NaN], [1, 0]]",
        "[[0, 1], [Infinity, 0]]",
    ],
    ids=["huge", "string-and-bool", "nan", "infinity"],
)
def test_bernstein_phi_sample_that_is_no_finite_number_is_input_error(
    runner, tmp_path, samples
):
    phi_path = tmp_path / "phi.json"
    phi_path.write_text(samples)
    res = runner.invoke(
        main,
        ["--out", str(tmp_path), "bernstein", "--n", "4", "--q", "1.0",
         "--phi", str(phi_path)],
    )
    assert res.exit_code == 2, res.output
    assert res.stderr.startswith("error:")


def test_fbvp_sin_forcing(runner, tmp_path):
    res = runner.invoke(
        main, ["--out", str(tmp_path), "fbvp", "--beta", "2", "--forcing", "sin-pi"]
    )
    assert res.exit_code == 0, res.output
    with open(tmp_path / "solution.csv") as fh:
        rows = list(csv.DictReader(fh))
    err = max(
        abs(float(r["u_star"]) - math.sin(math.pi * float(r["b"]))) for r in rows
    )
    assert err <= 1e-5
    report = _read_json(tmp_path / "report.json")
    assert report["converged"] is True
    # sin-pi does not depend on u, so the rate is 0: the first iterate is
    # certified exact and no further step is taken
    assert report["iterations"] == 0
    assert report["error_bound"] == 0.0


def test_fbvp_linear_w(runner, tmp_path):
    res = runner.invoke(
        main,
        ["--out", str(tmp_path), "fbvp", "--beta", "1.5", "--forcing", "linear-w"],
    )
    assert res.exit_code == 0
    report = _read_json(tmp_path / "report.json")
    assert report["residual"] <= 1e-8


def test_fbvp_forcing_file_expression(runner, tmp_path):
    forcing = tmp_path / "forcing.json"
    forcing.write_text(json.dumps({"expr": "0.25*sin(w) + b", "gauge_sup": 0.25}))
    res = runner.invoke(
        main,
        ["--out", str(tmp_path), "fbvp", "--beta", "1.5", "--forcing", str(forcing)],
    )
    assert res.exit_code == 0, res.output
    report = _read_json(tmp_path / "report.json")
    assert report["residual"] <= 1e-8


def test_fbvp_forcing_file_rejects_unknown_names(runner, tmp_path):
    forcing = tmp_path / "forcing.json"
    forcing.write_text(json.dumps({"expr": "__import__('os')"}))
    res = runner.invoke(
        main,
        ["--out", str(tmp_path), "fbvp", "--beta", "1.5", "--forcing", str(forcing)],
    )
    assert res.exit_code == 2


def test_fbvp_malformed_forcing_file_is_input_error(runner, tmp_path):
    forcing = tmp_path / "forcing.json"
    # a broken expression, and a gauge_sup too large for a float or given as a string
    for data in ({"expr": "1 +"}, {"expr": "b", "gauge_sup": 10**400},
                 {"expr": "b", "gauge_sup": "0.5"}):
        forcing.write_text(json.dumps(data))
        res = runner.invoke(
            main,
            ["--out", str(tmp_path), "fbvp", "--beta", "1.5", "--forcing", str(forcing)],
        )
        assert res.exit_code == 2, data
        assert res.stderr.startswith("error:")


def test_fbvp_report_says_why_it_stopped(runner, tmp_path):
    # exp has slope e^w > 0.5 near the start, so condition (i) fails at once
    forcing = tmp_path / "forcing.json"
    forcing.write_text(json.dumps({"expr": "exp(w)", "gauge_sup": 0.5}))
    res = runner.invoke(
        main,
        ["--out", str(tmp_path), "fbvp", "--beta", "1.1", "--forcing", str(forcing)],
    )
    assert res.exit_code == 1
    report = _read_json(tmp_path / "report.json")
    assert report["converged"] is False
    assert report["status"] == "hypothesis-violated"
    assert report["condition"] == "i"
    assert report["step"] == 1


def test_fbvp_step_check_tests_the_certified_rate(runner, tmp_path):
    # slope 3 against a claimed gauge of 0.5: each step shrinks by about
    # 0.305, within the gauge's 0.5 but far above kappa * 0.5 = 0.0625
    forcing = tmp_path / "forcing.json"
    forcing.write_text(json.dumps({"expr": "3*sin(w)+b", "gauge_sup": 0.5}))
    res = runner.invoke(
        main,
        ["--out", str(tmp_path), "fbvp", "--beta", "2", "--forcing", str(forcing)],
    )
    assert res.exit_code == 1, res.output
    report = _read_json(tmp_path / "report.json")
    assert report["status"] == "hypothesis-violated"
    assert report["condition"] == "i"
    assert report["step"] == 1
    assert report["effective_factor"] == report["kappa"] * 0.5


def test_sweep_fans_out(runner, tmp_path):
    spec = [
        {"subcommand": "verify", "input": "identity", "params": {}},
        {"subcommand": "bernstein",
         "params": {"n": 3, "q": 1.0, "phi": "square"}},
    ]
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps(spec))
    res = runner.invoke(
        main, ["--out", str(tmp_path), "sweep", str(spec_path), "--jobs", "2"]
    )
    assert res.exit_code == 0, res.output
    summary = _read_json(tmp_path / "sweep.json")
    assert [r["exit_code"] for r in summary["runs"]] == [0, 0]
    assert os.path.exists(tmp_path / "run-000" / "report.json")
    assert os.path.exists(tmp_path / "run-001" / "summary.json")


def test_json_format_for_tables(runner, tmp_path):
    res = runner.invoke(
        main,
        ["--out", str(tmp_path), "--format", "json", "iterate", "example-3-3"],
    )
    assert res.exit_code == 0
    trace = _read_json(tmp_path / "trace.json")
    assert trace[0]["w_label"] == "1/3"
    assert trace[1]["d_n"] == 2.0 / 27.0


def test_full_precision_serialization(runner, tmp_path):
    assert csv_cell(1.0 / 3.0) == "0.33333333333333331"
    assert float(csv_cell(0.1)) == 0.1
    text = json_dumps({"x": 2.0 / 27.0, "flag": True, "none": float("nan")})
    assert "0.07407407407407407" in text
    assert float("0.07407407407407407") == 2.0 / 27.0
    assert '"flag": true' in text and '"none": null' in text
    res = runner.invoke(
        main, ["--out", str(tmp_path), "verify", "example-3-3", "--kamran"]
    )
    raw = (tmp_path / "report.json").read_text()
    assert "0.33333333333333331" in raw  # H(F0, F1) at full precision
    # round-trips exactly
    parsed = _read_json(tmp_path / "report.json")
    pairs = {(w["v"], w["w"]): w for w in parsed["kamran"]["witnesses"]}
    assert pairs[("0", "1")]["H"] == 1.0 / 3.0


def test_sweep_isolates_a_failing_job(runner, tmp_path):
    spec = [
        {"subcommand": "bernstein", "params": {"n": 3, "q": 1.0, "phi": "square"}},
        {"subcommand": "verify", "input": "nope.json"},
        {"subcommand": "fbvp", "params": {"beta": 2.0, "forcing": "const"}},
    ]
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps(spec))
    res = runner.invoke(
        main, ["--out", str(tmp_path), "sweep", str(spec_path), "--jobs", "2"]
    )
    assert res.exit_code == 2
    summary = _read_json(tmp_path / "sweep.json")
    runs = summary["runs"]
    assert [r["exit_code"] for r in runs] == [0, 2, 0]
    assert runs[0]["error"] is None and runs[2]["error"] is None
    assert "nope.json" in runs[1]["error"]
    assert os.path.exists(tmp_path / "run-000" / "summary.json")
    assert os.path.exists(tmp_path / "run-002" / "report.json")
    # stdout carries the sweep summary only, not the jobs' reports
    assert json.loads(res.stdout) == summary


def _deeply_nested_file(path):
    """A JSON file of 100,000 nested arrays, too deep for the parser."""
    path.write_text("[" * 100_000 + "]" * 100_000)
    return str(path)


def test_verify_of_a_too_deeply_nested_file_is_input_error(runner, tmp_path):
    deep = _deeply_nested_file(tmp_path / "deep.json")
    res = runner.invoke(main, ["--out", str(tmp_path), "verify", deep])
    assert res.exit_code == 2
    assert res.stderr == f"error: {deep} nests its JSON too deeply to parse\n"


def test_sweep_job_of_a_too_deeply_nested_file_fails_alone(runner, tmp_path):
    deep = _deeply_nested_file(tmp_path / "deep.json")
    spec = [
        {"subcommand": "verify", "input": deep},
        {"subcommand": "iterate", "input": "example-3-3"},
    ]
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps(spec))
    res = runner.invoke(main, ["--out", str(tmp_path), "sweep", str(spec_path)])
    assert res.exit_code == 2
    runs = _read_json(tmp_path / "sweep.json")["runs"]
    assert [r["exit_code"] for r in runs] == [2, 0]
    assert runs[0]["error"] == f"error: {deep} nests its JSON too deeply to parse"
    assert os.path.exists(tmp_path / "run-001" / "outcome.json")


def test_sweep_job_whose_subcommand_is_no_string_fails_alone(runner, tmp_path):
    spec = [
        {"subcommand": ["verify"], "input": "identity"},
        {"subcommand": {"name": "fbvp"}, "params": {"beta": 2.0}},
        {"subcommand": "verify", "input": "identity"},
    ]
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps(spec))
    res = runner.invoke(main, ["--out", str(tmp_path), "sweep", str(spec_path)])
    assert res.exit_code == 2, res.output
    runs = _read_json(tmp_path / "sweep.json")["runs"]
    assert [r["exit_code"] for r in runs] == [2, 2, 0]
    assert all("needs a known subcommand" in r["error"] for r in runs[:2])


def test_a_file_that_is_not_utf8_is_input_error(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe[[0,1]]")
    for args in (["verify", str(bad)],
                 ["bernstein", "--n", "3", "--q", "1", "--phi", str(bad)],
                 ["fbvp", "--beta", "2", "--forcing", str(bad)],
                 ["sweep", str(bad)]):
        res = runner.invoke(main, ["--out", str(tmp_path / "out"), *args])
        assert res.exit_code == 2, (args, res.output)
        assert res.stderr.startswith("error:") and "not UTF-8" in res.stderr, args
    # as a sweep job's input, it fails that job alone
    spec = [
        {"subcommand": "bernstein", "params": {"n": 3, "q": 1.0, "phi": str(bad)}},
        {"subcommand": "verify", "input": str(bad)},
        {"subcommand": "fbvp", "params": {"beta": 2.0, "forcing": "const"}},
    ]
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps(spec))
    res = runner.invoke(main, ["--out", str(tmp_path), "sweep", str(spec_path)])
    assert res.exit_code == 2
    runs = _read_json(tmp_path / "sweep.json")["runs"]
    assert [r["exit_code"] for r in runs] == [2, 2, 0]
    assert all("not UTF-8" in r["error"] for r in runs[:2])


def test_sweep_job_missing_a_parameter_is_input_error(runner, tmp_path):
    spec = [
        {"subcommand": "bernstein", "params": {"q": 1.0}},
        {"subcommand": "verify", "input": "identity"},
        {"subcommand": "fbvp", "params": {"m": 20}},
        {"subcommand": "verify", "params": {}},
    ]
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps(spec))
    res = runner.invoke(main, ["--out", str(tmp_path), "sweep", str(spec_path)])
    assert res.exit_code == 2
    runs = _read_json(tmp_path / "sweep.json")["runs"]
    assert [r["exit_code"] for r in runs] == [2, 0, 2, 2]
    assert runs[0]["error"] == "error: missing required parameter(s): n"
    assert runs[2]["error"] == "error: missing required parameter(s): beta"
    assert runs[3]["error"].startswith("error: needs a problem")
    assert os.path.exists(tmp_path / "run-001" / "report.json")


def test_fbvp_forcing_that_fails_when_evaluated_is_input_error(runner, tmp_path):
    forcing = tmp_path / "forcing.json"
    forcing.write_text(json.dumps({"expr": "log(w)"}))  # w = 0 at the start
    res = runner.invoke(
        main,
        ["--out", str(tmp_path), "fbvp", "--beta", "1.5", "--forcing", str(forcing)],
    )
    assert res.exit_code == 2
    assert res.stderr.startswith("error:")
    assert "log(w)" in res.stderr and "w=0.0" in res.stderr


def test_verify_problem_file_with_non_list_image_is_input_error(runner, tmp_path):
    data = problem_to_dict(random_ladder_problem(random.Random(3)))
    label = next(iter(data["F"]))
    data["F"][label] = 1
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(data))
    res = runner.invoke(main, ["--out", str(tmp_path), "verify", str(path)])
    assert res.exit_code == 2
    assert res.stderr.startswith("error:") and "list of labels" in res.stderr


def _ragged_coordinates(data):
    data.pop("distances", None)
    for i, point in enumerate(data["points"]):
        point["coord"] = [float(i), 0.0] if i == 1 else [float(i)]


_MISTYPED_NUMBERS = {
    "ball-radius": (
        lambda data: data["edges"].update(radius="x"),
        "ball radius must be a number, got 'x'",
    ),
    "gauge-value": (
        lambda data: data["gauge"].update(value="x"),
        "gauge value must be a number, got 'x'",
    ),
    "huge-radius": (
        lambda data: data["edges"].update(radius=10**400),
        "ball radius is too large for a float",
    ),
    "config-tol": (
        lambda data: data["config"].update(tol="x"),
        "tol must be a number, got 'x'",
    ),
    # json.dumps writes these as the NaN that Python's JSON reader accepts
    "nan-radius": (
        lambda data: data["edges"].update(radius=math.nan),
        "ball radius must be a finite number, got nan",
    ),
    "nan-tol": (
        lambda data: data["config"].update(tol=math.nan),
        "tol must be a finite number, got nan",
    ),
    "ragged-coordinates": (
        _ragged_coordinates,
        "coordinates must be a rectangular array of numbers",
    ),
}


@pytest.mark.parametrize("case", sorted(_MISTYPED_NUMBERS))
def test_verify_problem_file_with_a_mistyped_number_is_input_error(
    runner, tmp_path, case
):
    mistype, message = _MISTYPED_NUMBERS[case]
    data = problem_to_dict(ternary_orbit_problem(6))
    mistype(data)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(data))
    res = runner.invoke(main, ["--out", str(tmp_path), "verify", str(path)])
    assert res.exit_code == 2
    assert res.stderr == f"error: {message}\n"



def _relabelled_example(tmp_path, infix: str):
    """example-3-3 as a problem file whose labels "1/3^n" read "1<infix>/3^n"."""
    text = json.dumps(problem_to_dict(builtin_problem("example-3-3")))
    path = tmp_path / "problem.json"
    path.write_text(text.replace('"1/', '"1' + json.dumps(infix)[1:-1] + "/"))
    return path


def test_iterate_escapes_control_characters_in_json(runner, tmp_path):
    path = _relabelled_example(tmp_path, "\x0c\x01")
    res = runner.invoke(
        main, ["--out", str(tmp_path), "--format", "json", "iterate", str(path)]
    )
    assert res.exit_code == 0, res.output
    outcome = json.loads((tmp_path / "outcome.json").read_text())
    trace = json.loads((tmp_path / "trace.json").read_text())
    assert outcome["w_star"] == "0"
    assert trace[0]["w_label"] == "1\x0c\x01/3"


def test_iterate_quotes_csv_cells(runner, tmp_path):
    path = _relabelled_example(tmp_path, ',"\n')
    res = runner.invoke(main, ["--out", str(tmp_path), "iterate", str(path)])
    assert res.exit_code == 0, res.output
    with open(tmp_path / "trace.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert all(len(row) == 7 for row in rows)
    assert rows[1][1:3] == ['1,"\n/3', '1,"\n/9']


def test_problem_file_with_a_lone_surrogate_label_is_input_error(runner, tmp_path):
    path = _relabelled_example(tmp_path, "\ud800")
    res = runner.invoke(main, ["--out", str(tmp_path), "iterate", str(path)])
    assert res.exit_code == 2
    assert res.stderr == "error: point label '1\\ud800/3' is not valid Unicode text\n"


def _graphfix_process(*args):
    """Run the CLI as a fresh process; ``args`` may be bytes, as argv is."""
    src = os.path.dirname(os.path.dirname(graphfix.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-m", "graphfix.cli", *args],
                          env=env, capture_output=True)


def test_paths_that_are_not_utf8_are_escaped_in_the_manifest(tmp_path):
    # a file name's bytes that are not UTF-8 become lone surrogates
    # (os.fsdecode), which the JSON records write as \udcXX escapes
    problem = os.fsencode(tmp_path) + b"/lad\xffder.json"
    with open(problem, "w") as fh:
        fh.write(json.dumps(problem_to_dict(builtin_problem("example-3-3"))))
    for out, args in ((b"o\xffa", [b"iterate", problem]),
                      (b"uo\xffut", [b"fbvp", b"--beta", b"2"])):
        out = os.fsencode(tmp_path) + b"/" + out
        res = _graphfix_process(b"--out", out, *args)
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["manifest"]["out"] == os.fsdecode(out)
        name = b"outcome.json" if args[0] == b"iterate" else b"report.json"
        with open(os.path.join(out, name), "rb") as fh:
            manifest = json.loads(fh.read().decode("utf-8"))["manifest"]
        assert manifest["out"] == os.fsdecode(out)
        if args[0] == b"iterate":
            assert manifest["input"] == os.fsdecode(problem)


@pytest.mark.parametrize("args", [["fbvp", "--beta", "172"],
                                  ["fbvp", "--beta", "1e300", "--forcing", "linear-w"]])
def test_fbvp_beyond_the_range_of_gamma_solves_to_zero(runner, tmp_path, args):
    res = runner.invoke(main, ["--out", str(tmp_path), *args])
    assert res.exit_code == 0, res.output
    with open(tmp_path / "solution.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == 201 and {u for _, u in rows} == {"0"}


def _limit_line_error(path) -> float:
    with open(path) as fh:
        return max(float(r["abs_error"]) for r in csv.DictReader(fh))


@pytest.mark.parametrize("n, q", [(40, "1e10"), (3, "1e300")])
def test_bernstein_with_q_beyond_the_double_range_reaches_the_gauge(
    runner, tmp_path, n, q
):
    # q**n overflows, and 1 - b_nq rounds to 1; the nodes do not overflow,
    # and the run converges on its own certificate
    res = runner.invoke(main, ["--out", str(tmp_path), "bernstein", "--n", str(n),
                               "--q", q])
    assert res.exit_code == 0, res.output
    assert _limit_line_error(tmp_path / "bernstein.csv") <= 1e-8


@pytest.mark.parametrize("n, q", [(10, 2.0), (40, 0.9), (60, 1.0), (120, 0.5), (200, 1.0)])
def test_bernstein_converges_where_the_paper_gauge_rounds_to_one(runner, tmp_path, n, q):
    res = runner.invoke(main, ["--out", str(tmp_path), "bernstein", "--n", str(n),
                               "--q", str(q), "--phi", "cube"])
    assert res.exit_code == 0, res.output
    summary = _read_json(tmp_path / "summary.json")
    assert summary["b_nq"] < 2.0**-53 and summary["rate"] <= 0.5
    assert summary["iterations"] % summary["power"] == 0
    assert summary["error_bound"] <= 1e-12
    assert _limit_line_error(tmp_path / "bernstein.csv") <= 1e-8


@pytest.mark.parametrize("stop, error", [
    (["--grid", "0"], "grid needs at least one point, got 0"),
    (["--tol", "-1"], "tolerances must be positive"),
])
def test_bernstein_checks_its_parameters_before_the_gauge(runner, tmp_path, stop, error):
    # a bad grid or tol is reported before the O(n^2) operator is built
    res = runner.invoke(main, ["--out", str(tmp_path), "bernstein", "--n", "400",
                               "--q", "1.0", *stop])
    assert res.exit_code == 2, res.output
    assert res.stderr == f"error: {error}\n"


def test_sweep_survives_jobs_beyond_the_double_range(runner, tmp_path):
    spec = [
        {"subcommand": "fbvp", "params": {"beta": 172.0}},
        {"subcommand": "bernstein", "params": {"n": 3, "q": 1e300}},
        {"subcommand": "bernstein", "params": {"n": 3, "q": 1.0}},
    ]
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps(spec))
    res = runner.invoke(main, ["--out", str(tmp_path), "sweep", str(spec_path)])
    # Gamma(172) overflows and so does 1e300**3; both jobs run
    assert res.exit_code == 0, res.output
    runs = _read_json(tmp_path / "sweep.json")["runs"]
    assert [run["exit_code"] for run in runs] == [0, 0, 0]


def test_forcing_that_divides_by_zero_at_a_node_is_input_error(runner, tmp_path):
    # the forcing gets Python floats: 1/b raises at b = 0 instead of
    # making an inf with a numpy RuntimeWarning; an inf or NaN that no
    # operation raises is refused as well
    forcing = tmp_path / "forcing.json"
    for expr, reason in (
        ("1/b", "float division by zero"),
        ("1e308*1e10", "the value inf is not finite"),
        ("1e308*1e10 - 1e308*1e10", "the value nan is not finite"),
    ):
        forcing.write_text(json.dumps({"expr": expr}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = runner.invoke(
                main,
                ["--out", str(tmp_path), "fbvp", "--beta", "1.5", "--forcing", str(forcing)],
            )
        assert res.exit_code == 2, expr
        assert res.stderr == (
            f"error: forcing expression {expr!r} fails at b=0.0, w=0.0: {reason}\n"
        )
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


def test_verify_problem_file_with_two_labels_at_one_coordinate_is_input_error(
    runner, tmp_path
):
    data = problem_to_dict(ternary_orbit_problem(6))
    data["points"][3]["coord"] = data["points"][2]["coord"]
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(data))
    res = runner.invoke(main, ["--out", str(tmp_path / "out"), "verify", str(path)])
    assert res.exit_code == 2
    assert res.stderr == (
        "error: d(1/3,1/9) = 0.0: distinct points must be at a positive distance\n"
    )


def test_verify_problem_file_with_unknown_config_keys_is_input_error(runner, tmp_path):
    data = problem_to_dict(ternary_orbit_problem(6))
    data["config"] = {"tolerance": 1e-3, "max_iter": 1, "max_iters": 1}
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(data))
    res = runner.invoke(main, ["--out", str(tmp_path / "out"), "iterate", str(path)])
    assert res.exit_code == 2
    assert res.stderr == "error: unknown problem file config key(s): tolerance, max_iters\n"


@pytest.mark.parametrize("truncated", [5, "ab"])
def test_verify_problem_file_with_non_list_truncated_is_input_error(
    runner, tmp_path, truncated
):
    data = problem_to_dict(ternary_orbit_problem(6))
    data["truncated"] = truncated
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(data))
    res = runner.invoke(main, ["--out", str(tmp_path), "verify", str(path)])
    assert res.exit_code == 2
    assert res.stderr == (
        f"error: 'truncated' must be a list of labels, not {truncated!r}\n"
    )


def test_verify_problem_file_with_unknown_truncated_label_is_input_error(
    runner, tmp_path
):
    data = problem_to_dict(builtin_problem("example-3-3"))
    data["truncated"] = ["nope", 7]
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(data))
    res = runner.invoke(main, ["--out", str(tmp_path), "verify", str(path)])
    assert res.exit_code == 2
    assert res.stderr == "error: unknown point label '7'\n"

def test_sweep_job_with_a_mistyped_parameter_is_input_error(runner, tmp_path):
    spec = [
        {"subcommand": "bernstein", "params": {"n": "abc", "q": 1.0}},
        {"subcommand": "fbvp", "params": {"beta": "1.5"}},
        {"subcommand": "fbvp", "params": {"beta": 1.5, "m": 40.5}},
        {"subcommand": "fbvp", "params": {"beta": 1.5, "m": 40.0, "forcing": "const"}},
    ]
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps(spec))
    res = runner.invoke(main, ["--out", str(tmp_path), "sweep", str(spec_path)])
    assert res.exit_code == 2
    runs = _read_json(tmp_path / "sweep.json")["runs"]
    assert [r["exit_code"] for r in runs] == [2, 2, 2, 0]
    assert runs[0]["error"] == "error: degree n must be a number, got 'abc'"
    assert runs[1]["error"] == "error: beta must be a number, got '1.5'"
    assert runs[2]["error"] == "error: grid_m must be an integer, got 40.5"
    assert runs[3]["error"] is None
    assert _read_json(tmp_path / "run-003" / "report.json")["m"] == 40


def test_sweep_job_with_a_mistyped_solver_option_is_input_error(runner, tmp_path):
    spec = [
        {"subcommand": "bernstein", "params": {"n": 3, "q": 1.0, "grid": "abc"}},
        {"subcommand": "bernstein", "params": {"n": 3, "q": 1.0, "max_iter": "x"}},
        {"subcommand": "bernstein", "params": {"n": 3, "q": 1.0, "tol": "x"}},
        {"subcommand": "iterate", "input": "example-3-3", "params": {"tol": "x"}},
        {"subcommand": "iterate", "input": "example-3-3",
         "params": {"residual_tol": "x"}},
        {"subcommand": "iterate", "input": "example-3-3", "params": {"max_iter": 1.5}},
        {"subcommand": "verify", "input": "example-3-3", "params": {"truncate": "x"}},
        {"subcommand": "verify", "input": "example-3-3",
         "params": {"kamran": True, "M": "x"}},
        {"subcommand": "iterate", "input": "example-3-3", "params": {"max_iter": 50.0}},
    ]
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps(spec))
    res = runner.invoke(main, ["--out", str(tmp_path), "sweep", str(spec_path)])
    assert res.exit_code == 2
    runs = _read_json(tmp_path / "sweep.json")["runs"]
    assert [r["exit_code"] for r in runs] == [2] * 8 + [0]
    assert [r["error"] for r in runs] == [
        "error: grid must be a number, got 'abc'",
        "error: max_iter must be a number, got 'x'",
        "error: tol must be a number, got 'x'",
        "error: tol must be a number, got 'x'",
        "error: residual_tol must be a number, got 'x'",
        "error: max_iter must be an integer, got 1.5",
        "error: truncate must be a number, got 'x'",
        "error: M must be a number, got 'x'",
        None,
    ]


# The keys each run record has always written, besides the manifest;
# "condition" and "step" join them exactly when a hypothesis fails.
_RECORD_KEYS = {
    "outcome.json": {"status", "w_star", "fw_star", "common_fixed_point",
                     "iterations", "final_residual", "error_bound", "exact_coincidence"},
    "summary.json": {"n", "q", "iterations", "final_displacement", "b_nq", "power",
                     "rate", "spectral_bound", "error_bound", "converged",
                     "endpoint_nonneg", "status"},
    "report.json": {"beta", "m", "converged", "iterations", "residual", "rounding_floor",
                    "error_bound", "kappa", "effective_factor", "status"},
}

_STATUS = {0: "converged", 1: "hypothesis-violated", 3: "max-iter-exceeded"}

_RECORD_RUNS = {
    "iterate-converged": (["iterate", "example-3-3"], 0, "outcome.json"),
    "iterate-budget": (["iterate", "example-3-3", "--max-iter", "0"], 3, "outcome.json"),
    "bernstein-converged": (["bernstein", "--n", "5", "--q", "0.9"], 0, "summary.json"),
    "bernstein-budget": (
        ["bernstein", "--n", "5", "--q", "0.9", "--max-iter", "1"], 3, "summary.json"
    ),
    "fbvp-converged": (["fbvp", "--beta", "1.5"], 0, "report.json"),
    "fbvp-budget": (
        ["fbvp", "--beta", "1.5", "--forcing", "linear-w", "--max-iter", "1"],
        3,
        "report.json",
    ),
    # exp has slope e^w > 0.5 near the start, so condition (i) fails at once
    "fbvp-violated": (
        ["fbvp", "--beta", "1.1", "--forcing", "FORCING"],
        1,
        "report.json",
    ),
}


@pytest.mark.parametrize("case", sorted(_RECORD_RUNS))
def test_run_record_keys_and_stop(runner, tmp_path, case):
    args, code, name = _RECORD_RUNS[case]
    forcing = tmp_path / "forcing.json"
    forcing.write_text(json.dumps({"expr": "exp(w)", "gauge_sup": 0.5}))
    args = [str(forcing) if a == "FORCING" else a for a in args]
    res = runner.invoke(main, ["--out", str(tmp_path), *args])
    assert res.exit_code == code, res.output
    record = _read_json(tmp_path / name)
    assert json.loads(res.stdout) == record
    assert record["status"] == _STATUS[code]
    stop = {"condition", "step"} if code == 1 else set()
    assert set(record) == {"manifest"} | _RECORD_KEYS[name] | stop
    if code == 0:  # a converged run certified its distance to the limit
        tol = record["manifest"]["params"]["tol"] or IterationConfig().tol
        assert record["error_bound"] <= tol + record.get("rounding_floor", 0.0)


def _sweep_job(args):
    """The sweep job of a CLI argument list: the options ``args`` gives, with
    the values click parses them to, and the command's argument as input."""
    command = main.commands[args[0]]
    ctx = command.make_context(args[0], list(args[1:]))
    params = {
        p.name: ctx.params[p.name]
        for p in command.params
        if isinstance(p, click.Option)
        and ctx.get_parameter_source(p.name) is ParameterSource.COMMANDLINE
    }
    inputs = [ctx.params[p.name] for p in command.params if isinstance(p, click.Argument)]
    return {"subcommand": args[0], "input": inputs[0] if inputs else None, "params": params}


def _run_dir(path):
    """Exit code and error line aside, what a run left in ``path``: its files
    by name, as bytes, and its record (the one JSON file of a csv run)."""
    files = {p.name: p.read_bytes() for p in sorted(path.iterdir())} if path.exists() else {}
    records = [json.loads(data) for name, data in files.items() if name.endswith(".json")]
    assert len(records) <= 1
    return {"files": files, "record": records[0] if records else None}


def _cli_and_sweep(tmp_path, args):
    """Run ``args`` (a subcommand and its arguments) as a CLI run into
    ``tmp_path/cli`` and as the one job of a sweep into ``tmp_path/sweep``.
    Returns, for each, the exit code, the error line (None when the run ran),
    the files it wrote and its record."""
    runner = CliRunner()
    res = runner.invoke(main, ["--out", str(tmp_path / "cli"), *args])
    spec = tmp_path / "jobs.json"
    spec.write_text(json.dumps([_sweep_job(args)]))
    runner.invoke(main, ["--out", str(tmp_path / "sweep"), "sweep", str(spec)])
    (run,) = _read_json(tmp_path / "sweep" / "sweep.json")["runs"]
    cli = {"exit_code": res.exit_code, "error": res.stderr.rstrip("\n") or None,
           **_run_dir(tmp_path / "cli")}
    sweep = {"exit_code": run["exit_code"], "error": run["error"],
             **_run_dir(tmp_path / "sweep" / "run-000")}
    return cli, sweep


def _perfbench_inputs():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_BENCH = _perfbench_inputs()
# the README examples (the cli kind) and the benchmark's other sweep job
# kinds at their self-test sizes; PROBLEM stands for a problem file
_BENCH_JOBS = [
    args
    for kind, size in (("cli", 0), ("finite", 12), ("operators", 40))
    for args, _ in _BENCH.sweep_jobs(kind, size, "PROBLEM")
]


def _assert_same_run(tmp_path, args):
    """Run ``args`` on the command line and as a one-job sweep, and check
    that both ran alike: the same exit code, records equal apart from the
    output directory, and every other file byte-identical."""
    cli, sweep = _cli_and_sweep(tmp_path, args)
    assert cli["error"] is None and sweep["error"] is None
    assert cli["exit_code"] == sweep["exit_code"]
    cli_record, sweep_record = cli.pop("record"), sweep.pop("record")
    cli_params, sweep_params = (r["manifest"]["params"] for r in (cli_record, sweep_record))
    assert list(sweep_params.items()) == list(cli_params.items())  # keys, order, values
    assert sweep_record["manifest"].pop("out") == str(tmp_path / "sweep" / "run-000")
    assert cli_record["manifest"].pop("out") == str(tmp_path / "cli")
    assert sweep_record == cli_record
    # every other output file is byte-identical
    assert cli["files"].keys() == sweep["files"].keys()
    for name, data in cli["files"].items():
        if not name.endswith(".json"):
            assert sweep["files"][name] == data, name
    return cli["exit_code"], cli_record


@pytest.mark.parametrize("args", _BENCH_JOBS, ids=" ".join)
def test_sweep_job_records_the_cli_run(tmp_path, args):
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps(_BENCH.ladder_dict(random.Random(5), 11)))
    args = [str(problem) if a == "PROBLEM" else a for a in args]
    # the benchmark's sweep files hold exactly these jobs
    assert _BENCH.job_spec(args) == _sweep_job(args)
    _assert_same_run(tmp_path, args)


_FILE_INPUTS = {
    "phi-samples": (
        ["bernstein", "--n", "4", "--q", "1.1", "--phi", "PATH"],
        [[a, a * a] for a in np.linspace(0.0, 1.0, 201)],
        0,
    ),
    "forcing-expression": (
        ["fbvp", "--beta", "1.5", "--forcing", "PATH"],
        {"expr": "0.25*sin(w) + b", "gauge_sup": 0.25},
        0,
    ),
    # exp has slope e^w > 0.5 near the start, so condition (i) fails at once
    "forcing-violated": (
        ["fbvp", "--beta", "1.1", "--forcing", "PATH"],
        {"expr": "exp(w)", "gauge_sup": 0.5},
        1,
    ),
}


@pytest.mark.parametrize("case", sorted(_FILE_INPUTS))
def test_file_input_runs_alike_on_the_cli_and_in_a_sweep(tmp_path, case):
    args, data, code = _FILE_INPUTS[case]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    args = [str(path) if a == "PATH" else a for a in args]
    exit_code, record = _assert_same_run(tmp_path, args)
    assert exit_code == code
    assert record["manifest"]["params"][args[-2].lstrip("-")] == str(path)


_NO_SUCH_INPUT = {
    "problem": (
        ["verify", "no-such-problem"],
        "needs a problem: a builtin (example-3-3, example-3-5, kamran-counterexample, "
        "identity) or an existing file, got 'no-such-problem'",
    ),
    "phi": (
        ["bernstein", "--n", "5", "--q", "0.9", "--phi", "PATH"],
        "needs a phi: a builtin (square, cube, sin) or an existing file, got 'PATH'",
    ),
    "forcing": (
        ["fbvp", "--beta", "2", "--forcing", "cosine"],
        "needs a forcing: a builtin (sin-pi, const, linear-w) or an existing file, "
        "got 'cosine'",
    ),
}


@pytest.mark.parametrize("case", sorted(_NO_SUCH_INPUT))
def test_input_that_is_neither_a_builtin_nor_a_file_is_input_error(tmp_path, case):
    args, error = _NO_SUCH_INPUT[case]
    missing = str(tmp_path / "missing.json")
    args = [missing if a == "PATH" else a for a in args]
    error = "error: " + error.replace("PATH", missing)
    cli, sweep = _cli_and_sweep(tmp_path, args)
    assert cli == sweep == {"exit_code": 2, "error": error, "files": {}, "record": None}


def test_sweep_job_is_resolved_against_its_command_options(runner, tmp_path):
    spec = [
        {"subcommand": "fbvp", "params": {"beta": 2, "grid_m": 7}},
        {"subcommand": "verify", "input": "example-3-3", "params": {"kamran": True, "m": 1}},
        {"subcommand": "bernstein", "input": "example-3-3", "params": {"n": 3, "q": 1.0}},
        {"subcommand": "fbvp", "params": {"beta": 2, "gauge_sup": 0.1}},
        {"subcommand": "bernstein", "params": {"n": 3, "q": 1.0, "phi": None}},
        {"subcommand": "iterate", "input": "example-3-3", "params": {"problem": "identity"}},
        {"subcommand": "iterate", "input": "example-3-3", "params": {"w0": 5}},
        {"subcommand": "verify", "input": ["example-3-3"]},
        {"subcommand": "verify", "input": "example-3-3", "params": {"kamran": "no"}},
        {"subcommand": "fbvp", "input": None, "params": {"beta": 2, "m": 40}},
    ]
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps(spec))
    res = runner.invoke(main, ["--out", str(tmp_path), "sweep", str(spec_path)])
    assert res.exit_code == 2
    runs = _read_json(tmp_path / "sweep.json")["runs"]
    assert [r["exit_code"] for r in runs] == [2] * 9 + [0]
    assert [r["error"] for r in runs] == [
        "error: unknown parameter(s) for fbvp: grid_m",
        "error: unknown parameter(s) for verify: m",
        "error: bernstein takes no input, got 'example-3-3'",
        "error: unknown parameter(s) for fbvp: gauge_sup",
        "error: needs a phi: a builtin (square, cube, sin) or an existing file, got None",
        "error: unknown parameter(s) for iterate: problem",
        "error: w0 must be a string, got 5",
        "error: input must be a string, got ['example-3-3']",
        "error: kamran must be true or false, got 'no'",
        None,
    ]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run-009", "sweep.json"]
    # the manifest holds every declared option, defaults filled in
    manifest = _read_json(tmp_path / "run-009" / "report.json")["manifest"]
    assert manifest["input"] is None
    assert list(manifest["params"].items()) == [
        ("beta", 2), ("forcing", "sin-pi"), ("m", 40), ("tol", 1e-10), ("max_iter", 10_000),
    ]


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_with_fewer_than_one_worker_is_input_error(runner, tmp_path, jobs):
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps([{"subcommand": "verify", "input": "identity"}]))
    res = runner.invoke(
        main, ["--out", str(tmp_path / "out"), "sweep", str(spec_path), "--jobs", jobs]
    )
    assert res.exit_code == 2
    assert "--jobs" in res.stderr
    assert not (tmp_path / "out").exists()


def test_solver_option_defaults_are_the_library_defaults():
    def defaults(name):
        return {p.name: p.default for p in main.commands[name].params}

    bernstein = defaults("bernstein")
    signature = inspect.signature(iterate_to_limit).parameters
    assert {key: bernstein[key] for key in ("tol", "max_iter")} == {
        key: signature[key].default for key in ("tol", "max_iter")
    }
    fbvp = defaults("fbvp")
    fields = {f.name: f.default for f in dataclasses.fields(FbvpProblem)}
    assert (fbvp["m"], fbvp["tol"], fbvp["max_iter"]) == (
        fields["grid_m"], fields["tol"], fields["max_iter"]
    )
