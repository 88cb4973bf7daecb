"""Self-test of the benchmark; it is not part of the repository's test suite.

    python3 perfbench/selftest.py

Runs every workload at its tiny size with --trace 0 and --trace 1 and
checks that each metric BENCHMARK.json names is printed with its unit,
then shows every oracle accepting a real result and rejecting the same
result perturbed.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.abspath("src"))

import inputs  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402

SCRATCH = os.path.join(".bench_out", "selftest")


def expect(cond: bool, what: str) -> None:
    if not cond:
        print(f"FAIL {what}")
        sys.exit(1)
    print(f"ok   {what}")


def run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170)
    expect(proc.returncode == 0, f"{workload} seed {seed} trace {trace} exits 0 {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics() -> None:
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    for workload in inputs.SPECS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            result = run(workload, 7, trace)
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{workload} trace {trace} result keys")
            expect(result["correct"] is True, f"{workload} trace {trace} outputs correct")
            want = {m["name"]: m["unit"] for m in bench[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == want, f"{workload} trace {trace} emits every {group} metric with its unit")
            expect(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                   f"{workload} trace {trace} values are numbers")
        expect(result["failed"] == 0 or workload == "operators-large",
               f"{workload} fails only on operators-large")
        other = run(workload, 8, 0)
        expect((other["attempted"], other["failed"]) == (result["attempted"], result["failed"]),
               f"{workload} attempts and fails as many requests at another seed")
    with open(os.path.join(".bench_out", "results", "operators-large-seed7-trace0.json")) as fh:
        crashes = [c for p in json.load(fh)["passes"] for c in p["crashes"]]
    expect(bool(crashes) and all(c["known_defect"] for c in crashes),
           "operators-large fails exactly on the known q-Bernstein crash requests")


def check_walk_oracle() -> None:
    from graphfix import engine, problems

    d = inputs.ternary_dict(12)
    dist = oracles.distance_fn(d)
    o = engine.run_coincidence_iteration(problems.problem_from_dict(d))
    w, fw = o.status.w_star, o.status.f_w_star
    expect(oracles.check_walk(d, dist, "converged", w, fw) is None, "walk oracle accepts a real walk")
    expect(oracles.check_walk(d, dist, "hypothesis-violated", w, fw) is not None,
           "walk oracle rejects a walk that did not converge")
    expect(oracles.check_walk(d, dist, "converged", "1", d["f"]["1"]) is not None,
           "walk oracle rejects an end point with a large residual")
    expect(oracles.check_walk(d, dist, "converged", w, "1") is not None,
           "walk oracle rejects f(w*) that is not f of w*")


def check_verifier_oracle() -> None:
    good = [{"v": "0", "w": "1"}]
    expect(oracles.check_kamran(False, good) is None, "Kamran oracle accepts the (0, 1) witness")
    expect(oracles.check_kamran(True, good) is not None, "Kamran oracle rejects 'holds'")
    expect(oracles.check_kamran(False, [{"v": "0", "w": "0"}]) is not None,
           "Kamran oracle rejects a wrong witness")


def check_operator_oracles() -> None:
    import numpy as np

    from graphfix import bernstein, fbvp
    from graphfix.metric import Gauge

    phi = inputs.phi("square")
    result = bernstein.iterate_to_limit(bernstein.QParams(5, 0.9), phi)
    limit = result.evaluate_grid(workloads.GRID)
    err = oracles.bernstein_error(phi, workloads.GRID, limit)
    expect(oracles.check_bernstein(err) is None, "Bernstein oracle accepts a real limit")
    bad = oracles.bernstein_error(phi, workloads.GRID, limit + 1e-6 * workloads.GRID)
    expect(oracles.check_bernstein(bad) is not None, "Bernstein oracle rejects a perturbed limit")

    for req in ({"beta": 1.5, "forcing": "const", "m": 200},
                {"beta": 2.0, "forcing": "sin-pi", "m": 200}):
        g, sup = inputs.forcing(req)
        problem = fbvp.FbvpProblem(beta=req["beta"], g=g, gauge=Gauge.constant(sup), grid_m=200)
        u = fbvp.picard_solve(problem).solution.values
        err = oracles.fbvp_error(req["beta"], req["forcing"], problem.grid, u)
        expect(oracles.check_fbvp(req["beta"], 200, err) is None,
               f"FBVP oracle accepts a real {req['forcing']} solution")
        bumped = u.copy()
        bumped[100] += 1e-3
        bad = oracles.fbvp_error(req["beta"], req["forcing"], problem.grid, bumped)
        expect(oracles.check_fbvp(req["beta"], 200, bad) is not None,
               f"FBVP oracle rejects a perturbed {req['forcing']} solution")

    req = {"beta": 1.5, "forcing": "nonlinear", "m": 100, "c": 1.0}
    g, sup = inputs.forcing(req)
    problem = fbvp.FbvpProblem(beta=1.5, g=g, gauge=Gauge.constant(sup), grid_m=100)
    u = fbvp.picard_solve(problem).solution.values
    expect(oracles.check_residual(u, problem.matrix, g, problem.grid) is None,
           "residual oracle accepts a real nonlinear solution")
    expect(oracles.check_residual(u + 1e-6 * np.sin(np.pi * problem.grid), problem.matrix, g,
                                  problem.grid) is not None,
           "residual oracle rejects a perturbed nonlinear solution")


def check_cli_oracle() -> None:
    out = os.path.join(SCRATCH, "cli")
    env = {**os.environ, "PYTHONPATH": os.path.abspath("src")}
    code = subprocess.run([sys.executable, "-m", "graphfix.cli", "--out", out, "verify",
                           "example-3-3"], env=env, capture_output=True, timeout=60).returncode
    expect(oracles.check_cli(code, 0, out, ["report.json"]) is None, "CLI oracle accepts a real run")
    expect(oracles.check_cli(code, 1, out, ["report.json"]) is not None,
           "CLI oracle rejects an exit code other than the README's")
    expect(oracles.check_cli(code, 0, out, ["trace.csv"]) is not None,
           "CLI oracle rejects a missing output file")
    with open(os.path.join(out, "report.json"), "a") as fh:
        fh.write("}")
    expect(oracles.check_cli(code, 0, out, ["report.json"]) is not None,
           "CLI oracle rejects an output that does not parse")


def main() -> None:
    if not os.path.isfile(os.path.join("src", "graphfix", "cli.py")):
        sys.exit("run from the root of a graphfix checkout")
    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(SCRATCH)
    check_walk_oracle()
    check_verifier_oracle()
    check_operator_oracles()
    check_cli_oracle()
    check_metrics()
    shutil.rmtree(SCRATCH, ignore_errors=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
