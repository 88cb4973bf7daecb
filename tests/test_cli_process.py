"""What a CLI process loads and keeps: each subcommand imports only its own
solver modules, a ``graphfix`` process freezes the heap that import left
once they are loaded, an in-process call of ``main`` leaves the collector
alone, and the benchmark's traced CLI still sees every layer.  Each
process test runs a fresh interpreter, since the test session itself has
imported every module."""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from graphfix.cli import main

ROOT = Path(__file__).resolve().parents[1]
SOLVERS = ["graphfix.bernstein", "graphfix.fbvp", "graphfix.problems", "graphfix.verifier"]

# atexit runs after the SystemExit of the run: it reports the solver modules
# the process loaded, the freeze count, and whether the solver functions named
# on the command line are still tracked by the collector (a frozen object is not)
_PROCESS = """
import atexit, gc, importlib, json, sys

def report():
    loaded = sorted(m for m in {solvers} if m in sys.modules)
    tracked = {{id(o) for o in gc.get_objects()}}
    names = {{n: id(getattr(importlib.import_module(n.rsplit(".", 1)[0]),
                           n.rsplit(".", 1)[1])) in tracked for n in {names}}}
    print(json.dumps({{"loaded": loaded, "frozen": gc.get_freeze_count(),
                      "tracked": names}}), file=sys.stderr)

atexit.register(report)
sys.argv = ["graphfix", *{args}]
from graphfix.cli import process_main
process_main()
"""


def _env():
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    return {**os.environ, "PYTHONPATH": src if not path else f"{src}{os.pathsep}{path}"}


def _process(args, names=()):
    """Run ``graphfix ARGS`` through the process entry in a fresh
    interpreter; its exit code and atexit report."""
    code = _PROCESS.format(solvers=SOLVERS, names=list(names), args=list(args))
    proc = subprocess.run([sys.executable, "-c", code], env=_env(), capture_output=True,
                          text=True, timeout=120)
    return proc.returncode, json.loads(proc.stderr.strip().splitlines()[-1])


def test_importing_the_cli_loads_no_solver():
    code = ("import sys, graphfix.cli; "
            f"print([m for m in {SOLVERS} if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], env=_env(), capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.split() == ["[]"]


@pytest.mark.parametrize("args, loaded, names", [
    (["verify", "example-3-3"], ["graphfix.problems", "graphfix.verifier"],
     ["graphfix.verifier.verify_coincidence_hypotheses", "graphfix.problems.builtin_problem"]),
    (["iterate", "example-3-3"], ["graphfix.problems"],
     ["graphfix.problems.builtin_problem"]),
    (["bernstein", "--n", "5", "--q", "0.9"], ["graphfix.bernstein"],
     ["graphfix.bernstein.iterate_to_limit", "graphfix.bernstein.operator_matrix"]),
    (["fbvp", "--beta", "2"], ["graphfix.fbvp"],
     ["graphfix.fbvp.picard_solve", "graphfix.fbvp.build_operator_matrix"]),
])
def test_a_run_loads_only_its_solver_and_freezes_it(tmp_path, args, loaded, names):
    code, report = _process(["--out", str(tmp_path), *args], names)
    assert code == 0
    assert report["loaded"] == loaded
    # frozen after the solver loaded: its functions left the collector's view
    assert report["frozen"] > 0
    assert report["tracked"] == {name: False for name in names}


def test_a_sweep_loads_its_jobs_solvers_before_the_freeze(tmp_path):
    spec = tmp_path / "jobs.json"
    spec.write_text(json.dumps([
        {"subcommand": "bernstein", "params": {"n": 3, "q": 1.0}},
        {"subcommand": "fbvp", "params": {"beta": 2.0, "forcing": "const"}},
        {"subcommand": "bernstein", "params": {"n": 4, "q": 0.5}},
    ]))
    names = ["graphfix.bernstein.iterate_to_limit", "graphfix.fbvp.picard_solve"]
    code, report = _process(["--out", str(tmp_path), "sweep", str(spec), "--jobs", "2"],
                            names)
    assert code == 0
    assert report["loaded"] == ["graphfix.bernstein", "graphfix.fbvp"]
    assert report["frozen"] > 0
    assert report["tracked"] == {name: False for name in names}
    runs = json.loads((tmp_path / "sweep.json").read_text())["runs"]
    assert [run["exit_code"] for run in runs] == [0, 0, 0]


def test_python_dash_m_loads_only_its_solver(tmp_path):
    code = ("import runpy, sys, atexit; "
            f"atexit.register(lambda: print([m for m in {SOLVERS} if m in sys.modules])); "
            f"sys.argv = ['graphfix', '--out', {str(tmp_path)!r}, 'bernstein', '--n', '4', "
            "'--q', '2.0']; runpy.run_module('graphfix.cli', run_name='__main__')")
    proc = subprocess.run([sys.executable, "-c", code], env=_env(), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "['graphfix.bernstein']"


def test_in_process_calls_leave_the_collector_alone(tmp_path):
    spec = tmp_path / "jobs.json"
    spec.write_text(json.dumps([{"subcommand": "iterate", "input": "identity"}]))
    before = (gc.get_freeze_count(), gc.isenabled())
    runner = CliRunner()
    for args in (["verify", "example-3-3"], ["iterate", "example-3-3"],
                 ["bernstein", "--n", "5", "--q", "0.9"], ["fbvp", "--beta", "2"],
                 ["sweep", str(spec), "--jobs", "2"]):
        res = runner.invoke(main, ["--out", str(tmp_path / args[0]), *args])
        assert res.exit_code == 0, (args, res.output)
        assert (gc.get_freeze_count(), gc.isenabled()) == before


@pytest.mark.parametrize("args, spans", [
    (["verify", "example-3-3"],
     {"problems.load", "serialize.json", "verifier.hypotheses"}),
    (["verify", "example-3-3", "--kamran", "--M", "0"],
     {"problems.load", "serialize.json", "verifier.hypotheses", "verifier.kamran"}),
    (["iterate", "example-3-3"],
     {"engine.walk", "problems.load", "serialize.json", "serialize.table"}),
    (["bernstein", "--n", "5", "--q", "0.9", "--phi", "square"],
     {"bernstein.eval", "bernstein.iterate", "bernstein.matrix", "serialize.json",
      "serialize.table"}),
    (["fbvp", "--beta", "2", "--forcing", "sin-pi"],
     {"fbvp.kernel", "fbvp.picard", "serialize.json", "serialize.table"}),
])
def test_the_traced_cli_sees_every_layer(tmp_path, args, spans):
    # the README examples through the benchmark's traced CLI, which wraps
    # the names of its BOUNDARIES where the runners look them up
    out = tmp_path / "spans.json"
    cmd = [sys.executable, str(ROOT / "perfbench" / "tracing.py"), "--spans", str(out),
           "--", "--out", str(tmp_path / "run"), *args]
    proc = subprocess.run(cmd, env=_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode in (0, 1), proc.stderr
    assert {span["name"] for span in json.loads(out.read_text())} == spans
