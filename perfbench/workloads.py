"""One pass of a workload, in a fresh process.

    python perfbench/workloads.py --workload NAME --seed N --traced 0|1 --out DIR [--tiny]

A pass runs each request of the workload once, checks every output with
the oracles, and prints one JSON object: wall time per request kind, the
time of the reference loop (speed.py) run before each timed block,
request counts, per-layer counts, per-request accuracy and, when traced,
the self time of each layer.  Load is a closed loop: one client sends one
request at a time; only `sweep --jobs 2` runs two workers.

Library requests call graphfix's public functions through their
modules, so a traced pass can wrap them (see tracing.py).  CLI requests
run as fresh subprocesses of `python -m graphfix.cli`, or of tracing.py
when traced.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import oracles  # noqa: E402
import speed  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402

KINDS = ("load", "verify", "walk", "bernstein", "fbvp", "sweep", "sweep_par")
OUTPUT_FILES = {
    "verify": ["report.json"],
    "iterate": ["outcome.json", "trace.{ext}"],
    "bernstein": ["summary.json", "bernstein.{ext}"],
    "fbvp": ["report.json", "solution.{ext}"],
}
GRID = np.linspace(0.0, 1.0, 101)
TRACE_HEADER = ["n", "w_label", "fw_label", "d_n", "D_n", "tail_bound_n", "edge_ok"]


class Pass:
    """Timings, counts and oracle verdicts of one pass."""

    def __init__(self, out_dir: str, traced: bool):
        self.out_dir = out_dir
        self.traced = traced
        self.tracer = Tracer() if traced else None
        self.times = dict.fromkeys(KINDS, 0.0)
        self.reference: list[float] = []  # speed.reference_loop, before each block
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.counts = dict.fromkeys(
            ["metric.points", "verifier.pairs", "engine.walks", "engine.walk_steps",
             "engine.converged", "engine.exact", "bernstein.iterations", "fbvp.iterations"], 0)
        self.bernstein: list[dict] = []
        self.fbvp: list[dict] = []
        self.crashes: list[dict] = []
        self.cli_walls: list[float] = []
        self.cli_spans: list[list[dict]] = []
        self._serial = 0
        self._last_kind = None

    @contextmanager
    def timed(self, kind: str):
        # collect the previous kind's garbage outside the timer, so a full
        # collection does not land on whichever request happens to be next
        if kind != self._last_kind:
            gc.collect()
            self._last_kind = kind
        self.reference.append(speed.reference_loop())
        start = time.perf_counter()
        try:
            yield
        finally:
            self.times[kind] += time.perf_counter() - start

    def check(self, what: str, reason: str | None) -> None:
        if reason is not None:
            self.wrong.append(f"{what}: {reason}")

    def new_dir(self, tag: str) -> str:
        self._serial += 1
        path = os.path.join(self.out_dir, "out", f"{self._serial:04d}-{tag}")
        os.makedirs(path)
        return path

    def walk_result(self, problem: dict, dist, status: str, w_star, fw_star, steps: int) -> None:
        self.counts["engine.walks"] += 1
        self.counts["engine.walk_steps"] += steps
        self.check("walk", oracles.check_walk(problem, dist, status, w_star, fw_star))
        if status == "converged":
            self.counts["engine.converged"] += 1
            self.counts["engine.exact"] += fw_star in problem["F"][w_star]

    def bernstein_result(self, req: dict, grid, limit, iterations: int) -> None:
        err = oracles.bernstein_error(inputs.phi(req["phi"]), grid, limit)
        self.bernstein.append({**req, "err": err, "iterations": iterations})
        self.counts["bernstein.iterations"] += iterations
        self.check(f"bernstein {req}", oracles.check_bernstein(err))

    def fbvp_result(self, req: dict, grid, values, iterations: int) -> None:
        self.counts["fbvp.iterations"] += iterations
        err = oracles.fbvp_error(req["beta"], req["forcing"], grid, values)
        if err is not None:
            self.fbvp.append({**req, "err": err})
            self.check(f"fbvp {req}", oracles.check_fbvp(req["beta"], req["m"], err))

    def cli(self, args: list[str], kind: str, fmt: str = "csv") -> tuple[int, str]:
        """Run `graphfix --out DIR --format FMT <args>` in a fresh process."""
        out = self.new_dir(args[0])
        flags = ["--out", out, "--format", fmt]
        if self.traced:
            spans = os.path.join(out, "spans.json")
            cmd = [sys.executable, os.path.join(HERE, "tracing.py"), "--spans", spans, "--"]
        else:
            cmd = [sys.executable, "-m", "graphfix.cli"]
        with self.timed(kind):
            start = time.perf_counter()
            proc = subprocess.run(cmd + flags + args, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=150)
            self.cli_walls.append(time.perf_counter() - start)
        if self.traced:
            with open(spans) as fh:
                self.cli_spans.append(json.load(fh))
            os.remove(spans)
        self.attempted += 1
        if proc.returncode == 2:  # input error: the request did not run
            self.failed += 1
            self.crashes.append({"args": args, "error": proc.stderr.strip()[-300:]})
        return proc.returncode, out


def read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def write_text(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)
        fh.write("\n")


def admissible_starts(problem: dict, dist) -> list[tuple[str, str]]:
    """(w0, p0) with p0 in F(w0) and (f(w0), p0) an edge, from the dict."""
    edges = problem["edges"]
    if edges["mode"] == "ball":
        def edge(u, v):
            return u == v or dist(u, v) < edges["radius"]
    else:
        pairs = {tuple(p) for p in edges["pairs"]}

        def edge(u, v):
            return u == v or (u, v) in pairs
    return [(w, y) for w, fw in problem["f"].items() for y in problem["F"][w] if edge(fw, y)]


def flag(args: list[str], name: str, default=None):
    return args[args.index(name) + 1] if name in args else default


def problem_of(args: list[str]) -> dict:
    """The problem dict a verify/iterate job runs on."""
    if args[1] == "example-3-3":
        return inputs.ternary_dict(int(flag(args, "--truncate", 12)))
    return read_json(args[1])


def inspect_run(p: Pass, args: list[str], code: int, expected: int, out: str, fmt: str) -> None:
    """Check one CLI run's exit code, files and contents with the oracles."""
    what = " ".join(args)
    reason = oracles.check_cli(code, expected, out,
                               [n.format(ext=fmt) for n in OUTPUT_FILES[args[0]]])
    if reason is not None:
        p.check(what, reason)
        return
    sub = args[0]
    if sub == "verify":
        report = read_json(os.path.join(out, "report.json"))
        n = len(problem_of(args)["points"])
        p.counts["metric.points"] += n
        p.counts["verifier.pairs"] += n * n
        if not report["hypotheses"]["all_ok"]:
            p.check(what, "hypotheses rejected")
        if "kamran" in report:
            p.counts["verifier.pairs"] += n * n
            p.check(what, oracles.check_kamran(report["kamran"]["holds"],
                                               report["kamran"]["witnesses"]))
    elif sub == "iterate":
        problem = problem_of(args)
        p.counts["metric.points"] += len(problem["points"])
        o = read_json(os.path.join(out, "outcome.json"))
        p.walk_result(problem, oracles.distance_fn(problem), o["status"], o["w_star"],
                      o["fw_star"], o["iterations"])
    elif sub == "bernstein":
        rows = oracles.read_table(os.path.join(out, f"bernstein.{fmt}"))
        summary = read_json(os.path.join(out, "summary.json"))
        req = {"n": int(flag(args, "--n")), "q": float(flag(args, "--q")),
               "phi": flag(args, "--phi"), "format": fmt}
        p.bernstein_result(req, [float(r["a"]) for r in rows],
                           [float(r["limit"]) for r in rows], summary["iterations"])
    elif sub == "fbvp":
        rows = oracles.read_table(os.path.join(out, f"solution.{fmt}"))
        report = read_json(os.path.join(out, "report.json"))
        req = {"beta": float(flag(args, "--beta")), "forcing": flag(args, "--forcing"),
               "m": int(flag(args, "--m", 200)), "format": fmt}
        p.check(what, None if report["converged"] else "did not converge")
        p.fbvp_result(req, [float(r["b"]) for r in rows], [float(r["u_star"]) for r in rows],
                      report["iterations"])


# ---------------------------------------------------------------------------
# Library requests
# ---------------------------------------------------------------------------

def finite_requests(p: Pass, spec: dict, rng: random.Random) -> None:
    """Load, verify and walk from every admissible start."""
    from graphfix import engine, problems, serialize, verifier
    from graphfix.metric import Gauge

    dicts = [inputs.ternary_dict(spec["ternary_depth"]),
             inputs.ladder_dict(rng, spec["ladder_rungs"])]
    cut = inputs.ternary_dict(spec["kamran_depth"])
    dists = [oracles.distance_fn(d) for d in dicts]
    starts = [admissible_starts(d, dist) for d, dist in zip(dicts, dists)]

    with p.timed("load"):
        loaded = [problems.problem_from_dict(d) for d in dicts]
        cut_problem = problems.problem_from_dict(cut)
    p.attempted += 3
    p.counts["metric.points"] += sum(len(d["points"]) for d in dicts + [cut])

    out = p.new_dir("verify")
    with p.timed("verify"):
        reports = []
        for i, q in enumerate(loaded):
            rep = verifier.verify_coincidence_hypotheses(
                q.space, q.f, q.F, q.edges, q.gauge, truncated=q.truncated)
            write_text(os.path.join(out, f"report-{i}.json"),
                       serialize.json_dumps({"hypotheses": rep.to_dict()}))
            reports.append(rep)
        c = cut_problem
        kamran = verifier.verify_kamran_inequality(c.space, c.f, c.F, Gauge.constant(0.999), M=0.0)
        write_text(os.path.join(out, "kamran.json"), serialize.json_dumps({"kamran": kamran.to_dict()}))
    p.attempted += 3
    p.counts["verifier.pairs"] += sum(len(q.space) ** 2 for q in loaded) + len(c.space) ** 2
    for rep in reports:
        p.check("verify", None if rep.all_ok else f"generated problem rejected: {rep.witnesses[:1]}")
    p.check("kamran", oracles.check_kamran(kamran.holds, kamran.witnesses))

    for q, d, dist, st in zip(loaded, dicts, dists, starts):
        out = p.new_dir("walk")
        with p.timed("walk"):
            outcomes = [engine.run_coincidence_iteration(dataclasses.replace(q, w0=w0, p0=p0))
                        for w0, p0 in st]
            write_text(os.path.join(out, "outcomes.json"),
                       serialize.json_dumps([o.to_dict() for o in outcomes]))
            own = outcomes[st.index((d["w0"], d["p0"]))]
            serialize.write_table(
                os.path.join(out, "trace.csv"), TRACE_HEADER,
                [[r.n, r.w_label or "", r.fw_label or "", r.d, r.residual, r.bound, r.edge_ok]
                 for r in own.trace.rows])
        p.attempted += len(st)
        for o in outcomes:
            status = o.to_dict()["status"]
            p.walk_result(d, dist, status, getattr(o.status, "w_star", None),
                          getattr(o.status, "f_w_star", None), o.iterations)


def operator_requests(p: Pass, spec: dict, rng: random.Random) -> None:
    """q-Bernstein and FBVP requests, each writing its table as the CLI would."""
    from graphfix import bernstein, fbvp, serialize
    from graphfix.errors import InputError
    from graphfix.metric import Gauge

    for req in inputs.bernstein_requests(spec):
        out = p.new_dir("bernstein")
        phi = inputs.phi(req["phi"])
        p.attempted += 1
        params = bernstein.QParams(req["n"], req["q"])
        crash = None
        with p.timed("bernstein"):
            try:
                result = bernstein.iterate_to_limit(params, phi)
            except InputError as exc:
                crash = str(exc)
            else:
                limit = result.evaluate_grid(GRID)
                line = result.interpolant(GRID)
                serialize.write_table(
                    os.path.join(out, f"bernstein.{req['format']}"),
                    ["a", "limit", "interpolant", "abs_error"],
                    [[float(a), float(lv), float(iv), float(abs(lv - iv))]
                     for a, lv, iv in zip(GRID, limit, line)],
                    req["format"])
                write_text(os.path.join(out, "summary.json"), serialize.json_dumps(
                    {**req, "iterations": result.iterations, "b_nq": result.b_nq,
                     "converged": result.converged}))
        if crash is not None:
            p.failed += 1
            # the known defect: 1 - b_nq rounds to 1.0 and the gauge rejects it
            known = 1.0 - bernstein.contraction_constant(params) == 1.0
            p.crashes.append({**req, "error": crash, "known_defect": known})
            continue
        p.check(f"bernstein {req}", None if result.converged else "did not converge")
        p.bernstein_result(req, GRID, limit, result.iterations)

    for req in inputs.fbvp_requests(rng, spec):
        out = p.new_dir("fbvp")
        g, sup = inputs.forcing(req)
        p.attempted += 1
        with p.timed("fbvp"):
            problem = fbvp.FbvpProblem(beta=req["beta"], g=g, gauge=Gauge.constant(sup),
                                       grid_m=req["m"])
            problem.matrix  # the kernel build, apart from the solve
            report = fbvp.picard_solve(problem)
            grid, values = problem.grid, report.solution.values
            serialize.write_table(os.path.join(out, f"solution.{req['format']}"), ["b", "u_star"],
                                  [[float(b), float(u)] for b, u in zip(grid, values)],
                                  req["format"])
            write_text(os.path.join(out, "report.json"), serialize.json_dumps(
                {"beta": req["beta"], "m": req["m"], **report.to_dict()}))
        p.check(f"fbvp {req}", None if report.converged else "did not converge")
        if req["forcing"] == "nonlinear":
            p.check(f"fbvp {req}", oracles.check_residual(values, problem.matrix, g, grid))
        p.fbvp_result(req, grid, values, report.iterations)


# ---------------------------------------------------------------------------
# CLI requests
# ---------------------------------------------------------------------------

def cli_pass(p: Pass, spec: dict, rng: random.Random) -> None:
    ladder = inputs.ladder_dict(rng, spec["ladder_rungs"])
    path = os.path.join(p.out_dir, "in", "ladder.json")
    with open(path, "w") as fh:
        json.dump(ladder, fh)
    w0, p0 = rng.choice(admissible_starts(ladder, oracles.distance_fn(ladder)))
    jobs = [(["iterate", path, "--w0", w0, "--p0", p0], 0, "load", "csv")]
    kinds = {"verify": "verify", "iterate": "walk", "bernstein": "bernstein", "fbvp": "fbvp"}
    for args, expected in inputs.README_JOBS:
        fmt = "json" if args[0] in ("iterate", "bernstein") else "csv"
        jobs.append((args, expected, kinds[args[0]], fmt))
    for args, expected, kind, fmt in jobs:
        code, out = p.cli(args, kind, fmt)
        inspect_run(p, args, code, expected, out, fmt)


def sweep(p: Pass, spec: dict, rng: random.Random) -> None:
    """`graphfix sweep` over the workload's jobs at --jobs 1 and --jobs 2."""
    problem_file = os.path.join(p.out_dir, "in", "sweep-problem.json")
    if spec["sweep"] == "finite":
        with open(problem_file, "w") as fh:
            json.dump(inputs.ladder_dict(rng, spec["sweep_size"] - 1), fh)
    jobs = inputs.sweep_jobs(spec["sweep"], spec.get("sweep_size", 0), problem_file)
    spec_file = os.path.join(p.out_dir, "in", "sweep.json")
    with open(spec_file, "w") as fh:
        json.dump([inputs.job_spec(args) for args, _ in jobs], fh)
    expected = max(e for _, e in jobs)
    for workers, kind in ((1, "sweep"), (2, "sweep_par")):
        args = ["sweep", spec_file, "--jobs", str(workers)]
        code, out = p.cli(args, kind)
        reason = oracles.check_cli(code, expected, out, ["sweep.json"])
        if reason is not None:
            p.check(" ".join(args), reason)
            continue
        runs = read_json(os.path.join(out, "sweep.json"))["runs"]
        if len(runs) != len(jobs):
            p.check(" ".join(args), f"{len(runs)} runs reported for {len(jobs)} jobs")
            continue
        for run, (job, exp) in zip(runs, jobs):
            run_dir = os.path.join(out, f"run-{run['index']:03d}")
            if workers == 1:
                inspect_run(p, job, run["exit_code"], exp, run_dir, "csv")
            else:
                p.check(" ".join(job), oracles.check_cli(
                    run["exit_code"], exp, run_dir,
                    [n.format(ext="csv") for n in OUTPUT_FILES[job[0]]]))


def run_pass(workload: str, seed: int, traced: bool, out_dir: str, tiny: bool) -> dict:
    spec = (inputs.TINY if tiny else inputs.SPECS)[workload]
    rng = random.Random(seed)
    os.makedirs(os.path.join(out_dir, "in"))
    p = Pass(out_dir, traced)
    if traced:
        p.tracer.instrument()
    if spec.get("cli"):
        cli_pass(p, spec, rng)
    else:
        finite_requests(p, spec, rng)
        operator_requests(p, spec, rng)
    sweep(p, spec, rng)

    who = resource.RUSAGE_CHILDREN if spec.get("cli") else resource.RUSAGE_SELF
    written = sum(os.path.getsize(os.path.join(d, f))
                  for d, _, files in os.walk(os.path.join(out_dir, "out")) for f in files)
    layer_s: dict[str, float] = {}
    if traced:
        # span ids are unique per process, so each process's spans stand apart
        processes = [p.tracer.spans] + p.cli_spans
        for spans in processes:
            for name, t in self_times(spans).items():
                layer_s[name] = layer_s.get(name, 0.0) + t
        with open(os.path.join(out_dir, "spans.json"), "w") as fh:
            json.dump(processes, fh)
    shutil.rmtree(os.path.join(out_dir, "out"))
    shutil.rmtree(os.path.join(out_dir, "in"))
    import graphfix

    return {
        "version": graphfix.__version__,
        # the requests' time, without the benchmark's input generation and oracles
        "wall": sum(p.times.values()),
        "times": p.times,
        "reference": p.reference,
        "attempted": p.attempted,
        "failed": p.failed,
        "wrong": p.wrong,
        "counts": {**p.counts, "serialize.bytes": written},
        "bernstein": p.bernstein,
        "fbvp": p.fbvp,
        "crashes": p.crashes,
        "cli_walls": p.cli_walls,
        "self_times": layer_s,
        "rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(inputs.SPECS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--traced", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--tiny", action="store_true")
    a = ap.parse_args()
    print(json.dumps(run_pass(a.workload, a.seed, bool(a.traced), a.out, a.tiny)))


if __name__ == "__main__":
    main()
