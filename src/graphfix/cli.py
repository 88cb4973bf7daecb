"""Command-line front end.

Subcommands: verify, iterate, bernstein, fbvp, sweep.  Global flags pick
the output directory, the seed recorded in reports, and the table format
(csv or json).  Exit codes partition outcomes: 0 success, 1 hypothesis or
validation failure, 2 input error, 3 budget exhausted.  Every report
embeds the run manifest (subcommand, input, parameters, seed) so a run
can be re-executed exactly.
"""

from __future__ import annotations

import dataclasses
import math
import os
import sys
from dataclasses import dataclass, field

import click
import numpy as np

from .bernstein import QParams, iterate_to_limit
from .engine import (
    Converged,
    IterationOutcome,
    MaxIterExceeded,
    run_coincidence_iteration,
)
from .errors import (
    DomainError,
    InputError,
    check_integer,
    check_real,
)
from .fbvp import FbvpProblem, picard_solve
from .metric import Gauge
from .problems import BUILTIN_NAMES, builtin_problem, load_problem
from .serialize import json_dump, json_dumps, load_json, write_table
from .verifier import verify_coincidence_hypotheses, verify_kamran_inequality

EXIT_OK = 0
EXIT_HYPOTHESIS = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


@dataclass
class RunManifest:
    """What was run: subcommand, input, parameters, output home, seed."""

    subcommand: str
    input: str | None
    params: dict = field(default_factory=dict)
    out: str = "."
    seed: int = 0
    format: str = "csv"


def _load(problem_ref: str | None, depth: int | None):
    if problem_ref is None:
        raise InputError("needs a problem: a builtin name or a problem file")
    if problem_ref in BUILTIN_NAMES:
        if depth is not None:
            depth = check_integer(depth, "truncate")
        return builtin_problem(problem_ref, depth=depth)
    if os.path.exists(problem_ref):
        if depth is not None:
            raise InputError(
                "truncate applies to the ternary orbit builtins, not to a problem file"
            )
        return load_problem(problem_ref)
    raise InputError(
        f"{problem_ref!r} is neither a builtin ({', '.join(BUILTIN_NAMES)}) "
        "nor an existing file"
    )


def _emit(manifest: RunManifest, name: str, payload: dict) -> dict:
    payload = {"manifest": dataclasses.asdict(manifest), **payload}
    os.makedirs(manifest.out, exist_ok=True)
    json_dump(payload, os.path.join(manifest.out, name))
    return payload


def _table(manifest: RunManifest, stem: str, header: list[str], rows: list) -> None:
    """Write ``stem.csv`` or ``stem.json`` (the --format choice) to the run dir."""
    os.makedirs(manifest.out, exist_ok=True)
    path = os.path.join(manifest.out, f"{stem}.{manifest.format}")
    write_table(path, header, rows, manifest.format)


def _require(params: dict, *keys: str) -> None:
    """A run without one of its required parameters is an input error."""
    missing = [key for key in keys if params.get(key) is None]
    if missing:
        raise InputError(f"missing required parameter(s): {', '.join(missing)}")


def _exit_code(outcome: IterationOutcome) -> int:
    """0 when the run converged, 3 when the budget ran out, 1 otherwise."""
    if isinstance(outcome.status, Converged):
        return EXIT_OK
    if isinstance(outcome.status, MaxIterExceeded):
        return EXIT_BUDGET
    return EXIT_HYPOTHESIS


# ---------------------------------------------------------------------------
# Runners (shared by the click commands and the sweep executor).  Each one
# writes its files and returns (exit code, report payload).
# ---------------------------------------------------------------------------

def run_verify(manifest: RunManifest) -> tuple[int, dict]:
    params = manifest.params
    problem = _load(manifest.input, params.get("truncate"))
    report = verify_coincidence_hypotheses(
        problem.space,
        problem.f,
        problem.F,
        problem.edges,
        problem.gauge,
        truncated=problem.truncated,
    )
    payload = {"hypotheses": report.to_dict()}
    ok = report.all_ok
    if params.get("kamran"):
        kamran = verify_kamran_inequality(
            problem.space,
            problem.f,
            problem.F,
            Gauge.constant(check_real(params.get("kamran_sup", 0.999), "kamran_sup")),
            M=params.get("M", 0.0),
        )
        payload["kamran"] = kamran.to_dict()
        ok = ok and kamran.holds
    return (EXIT_OK if ok else EXIT_HYPOTHESIS), _emit(manifest, "report.json", payload)


_TRACE_HEADER = ["n", "w_label", "fw_label", "d_n", "D_n", "tail_bound_n", "edge_ok"]


def run_iterate(manifest: RunManifest) -> tuple[int, dict]:
    params = manifest.params
    problem = _load(manifest.input, params.get("truncate"))
    replacements = {}
    if params.get("w0") is not None:
        replacements["w0"] = params["w0"]
    if params.get("p0") is not None:
        replacements["p0"] = params["p0"]
    cfg = problem.config
    cfg_updates = {
        k: params[k]
        for k in ("tol", "residual_tol", "max_iter")
        if params.get(k) is not None
    }
    if cfg_updates:
        replacements["config"] = dataclasses.replace(cfg, **cfg_updates)
    if replacements:
        problem = dataclasses.replace(problem, **replacements)
    outcome = run_coincidence_iteration(problem)

    rows = [
        [r.n, r.w_label or "", r.fw_label or "", r.d, r.residual, r.bound, r.edge_ok]
        for r in outcome.trace.rows
    ]
    _table(manifest, "trace", _TRACE_HEADER, rows)
    return _exit_code(outcome), _emit(manifest, "outcome.json", outcome.to_dict())


_PHI_BUILTINS = {
    "square": lambda a: a * a,
    "cube": lambda a: a**3,
    "sin": lambda a: math.sin(math.pi * a),
}


def _phi_from_file(path):
    data = load_json(path)
    try:
        pts = sorted(
            (check_real(a, "phi sample"), check_real(v, "phi sample")) for a, v in data
        )
    except (TypeError, ValueError) as exc:
        raise InputError(f"{path} must hold [[a, value], ...] samples: {exc}") from None
    if not pts:
        raise InputError("phi sample file is empty")
    xs, ys = np.array(pts).T
    return lambda a: float(np.interp(a, xs, ys))


def run_bernstein(manifest: RunManifest) -> tuple[int, dict]:
    params = manifest.params
    _require(params, "n", "q")
    phi_name = params.get("phi", "square")
    if phi_name == "file":
        if not params.get("phi_file"):
            raise InputError("--phi file needs --phi-file PATH")
        phi = _phi_from_file(params["phi_file"])
    elif phi_name in _PHI_BUILTINS:
        phi = _PHI_BUILTINS[phi_name]
    else:
        raise InputError(f"unknown phi {phi_name!r}")

    qp = QParams(params["n"], params["q"])
    result = iterate_to_limit(
        qp, phi, tol=params.get("tol", 1e-12), max_iter=params.get("max_iter", 200_000)
    )
    points = check_integer(params.get("grid", 101), "grid")
    if points < 1:
        raise InputError(f"grid needs at least one point, got {points}")
    grid = np.linspace(0.0, 1.0, points)
    limit_vals = result.evaluate_grid(grid)
    interp_vals = result.interpolant(grid)
    rows = [
        [float(a), float(lv), float(iv), float(abs(lv - iv))]
        for a, lv, iv in zip(grid, limit_vals, interp_vals)
    ]
    _table(manifest, "bernstein", ["a", "limit", "interpolant", "abs_error"], rows)
    return _exit_code(result), _emit(manifest, "summary.json", result.to_dict())


_FORCING_BUILTINS = {
    "sin-pi": (lambda b, w: math.pi**2 * math.sin(math.pi * b), 0.0),
    "const": (lambda b, w: 1.0, 0.0),
    "linear-w": (lambda b, w: 0.5 * w + 1.0, 0.5),
}

_EVAL_NAMES = {
    name: getattr(math, name)
    for name in (
        "sin", "cos", "tan", "exp", "log", "sqrt", "atan", "asin", "acos",
        "sinh", "cosh", "tanh", "pi", "e",
    )
}


def _forcing_from_file(path):
    data = load_json(path)
    if not isinstance(data, dict) or "expr" not in data:
        raise InputError("forcing file needs an 'expr' of b and w")
    try:
        code = compile(data["expr"], path, "eval")
        gauge_sup = check_real(data.get("gauge_sup", 0.0), "gauge_sup")
    except (SyntaxError, TypeError, ValueError) as exc:
        raise InputError(f"malformed forcing file {path}: {exc}") from None
    for name in code.co_names:
        if name not in _EVAL_NAMES and name not in ("b", "w"):
            raise InputError(f"forcing expression uses unknown name {name!r}")

    def g(b, w):
        try:
            return float(
                eval(code, {"__builtins__": {}}, {**_EVAL_NAMES, "b": b, "w": w})
            )
        except (ArithmeticError, TypeError, ValueError) as exc:
            raise InputError(
                f"forcing expression {data['expr']!r} fails at "
                f"b={float(b)}, w={float(w)}: {exc}"
            ) from None

    return g, gauge_sup


def run_fbvp(manifest: RunManifest) -> tuple[int, dict]:
    params = manifest.params
    _require(params, "beta")
    name = params.get("forcing", "sin-pi")
    if name == "file":
        if not params.get("forcing_file"):
            raise InputError("--forcing file needs --forcing-file PATH")
        g, default_sup = _forcing_from_file(params["forcing_file"])
    elif name in _FORCING_BUILTINS:
        g, default_sup = _FORCING_BUILTINS[name]
    else:
        raise InputError(f"unknown forcing {name!r}")
    gauge_sup = params.get("gauge_sup")
    if gauge_sup is not None:
        gauge_sup = check_real(gauge_sup, "gauge_sup")
    gauge = Gauge.constant(default_sup if gauge_sup is None else gauge_sup)

    problem = FbvpProblem(
        beta=params["beta"],
        g=g,
        gauge=gauge,
        grid_m=params.get("m", 200),
        tol=params.get("tol", 1e-10),
        max_iter=params.get("max_iter", 10_000),
    )
    report = picard_solve(problem)
    rows = [
        [float(b), float(u)]
        for b, u in zip(problem.grid, report.solution.values)
    ]
    _table(manifest, "solution", ["b", "u_star"], rows)
    payload = {"beta": problem.beta, "m": problem.grid_m, **report.to_dict()}
    return _exit_code(report), _emit(manifest, "report.json", payload)


_RUNNERS = {
    "verify": run_verify,
    "iterate": run_iterate,
    "bernstein": run_bernstein,
    "fbvp": run_fbvp,
}


def _guarded(runner, manifest: RunManifest) -> tuple[int, dict | None, str | None]:
    """Run one runner; a run that raises becomes an exit code and an error line."""
    try:
        code, payload = runner(manifest)
    except (InputError, DomainError) as exc:
        return EXIT_INPUT, None, f"error: {exc}"
    return code, payload, None


def run_sweep(manifest: RunManifest) -> tuple[int, dict]:
    """Run every job of the sweep file; a failing job is recorded, not fatal."""
    jobs = load_json(manifest.input)
    if not isinstance(jobs, list) or not jobs:
        raise InputError("sweep file must be a non-empty array of runs")

    def one(idx_job):
        idx, job = idx_job
        job = job if isinstance(job, dict) else {}
        sub, params = job.get("subcommand"), job.get("params", {})
        if sub not in _RUNNERS or not isinstance(params, dict):
            error = (
                f"error: sweep job {idx} needs a known subcommand (got {sub!r}) "
                "and a params object"
            )
            return {"index": idx, "exit_code": EXIT_INPUT, "error": error}
        sub_manifest = RunManifest(
            subcommand=sub,
            input=job.get("input"),
            params=dict(params),
            out=os.path.join(manifest.out, f"run-{idx:03d}"),
            seed=manifest.seed,
            format=manifest.format,
        )
        code, _, error = _guarded(_RUNNERS[sub], sub_manifest)
        return {"index": idx, "exit_code": code, "error": error}

    import concurrent.futures  # only sweeps use it; it imports logging

    workers = max(1, int(manifest.params.get("jobs", 1)))
    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
        runs = list(pool.map(one, enumerate(jobs)))
    code = max(run["exit_code"] for run in runs)
    return code, _emit(manifest, "sweep.json", {"runs": runs})


# ---------------------------------------------------------------------------
# click wiring
# ---------------------------------------------------------------------------

def _dispatch(runner, manifest: RunManifest) -> None:
    code, payload, error = _guarded(runner, manifest)
    if error is None:
        click.echo(json_dumps(payload))
    else:
        click.echo(error, err=True)
    sys.exit(code)


@click.group()
@click.option("--out", default=".", show_default=True, help="Output directory.")
@click.option("--seed", default=0, show_default=True, help="Seed recorded in reports.")
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["csv", "json"]),
    default="csv",
    show_default=True,
    help="Table output format.",
)
@click.pass_context
def main(ctx, out, seed, fmt):
    """Graph-constrained coincidence iteration toolkit."""
    ctx.obj = {"out": out, "seed": seed, "format": fmt}


def _manifest(ctx, subcommand, input_ref, params) -> RunManifest:
    """The run's manifest; ``params`` are the command's options, in the
    order the command declares them."""
    return RunManifest(
        subcommand=subcommand,
        input=input_ref,
        params={p.name: params[p.name] for p in ctx.command.params if p.name in params},
        out=ctx.obj["out"],
        seed=ctx.obj["seed"],
        format=ctx.obj["format"],
    )


@main.command()
@click.argument("problem")
@click.option("--kamran", is_flag=True, help="Also check the Hausdorff inequality.")
@click.option("--M", "M", type=float, default=0.0, show_default=True)
@click.option("--kamran-sup", type=float, default=0.999, show_default=True)
@click.option("--truncate", type=int, default=None, help="Builtin truncation depth.")
@click.pass_context
def verify(ctx, problem, **params):
    """Check the contraction/graph hypotheses of PROBLEM (builtin or file)."""
    _dispatch(run_verify, _manifest(ctx, "verify", problem, params))


@main.command()
@click.argument("problem")
@click.option("--w0", default=None, help="Start point override.")
@click.option("--p0", default=None, help="Start selection override.")
@click.option("--tol", type=float, default=None)
@click.option("--residual-tol", type=float, default=None)
@click.option("--max-iter", type=int, default=None)
@click.option("--truncate", type=int, default=None, help="Builtin truncation depth.")
@click.pass_context
def iterate(ctx, problem, **params):
    """Run the coincidence iteration on PROBLEM; write trace and outcome."""
    _dispatch(run_iterate, _manifest(ctx, "iterate", problem, params))


@main.command()
@click.option("--n", type=int, required=True, help="Operator degree.")
@click.option("--q", type=float, required=True, help="Deformation parameter.")
@click.option(
    "--phi",
    type=click.Choice(["square", "cube", "sin", "file"]),
    default="square",
    show_default=True,
)
@click.option("--phi-file", default=None, help="JSON [[a, value], ...] samples.")
@click.option("--tol", type=float, default=1e-12, show_default=True)
@click.option("--max-iter", type=int, default=200_000, show_default=True)
@click.option("--grid", type=int, default=101, show_default=True)
@click.pass_context
def bernstein(ctx, **params):
    """Iterate the nonlinear q-Bernstein operator to its limit."""
    _dispatch(run_bernstein, _manifest(ctx, "bernstein", None, params))


@main.command()
@click.option("--beta", type=float, required=True, help="Fractional order (> 1).")
@click.option(
    "--forcing",
    type=click.Choice(["sin-pi", "const", "linear-w", "file"]),
    default="sin-pi",
    show_default=True,
)
@click.option("--forcing-file", default=None, help="JSON {'expr': ..., 'gauge_sup': ...}.")
@click.option("--m", type=int, default=200, show_default=True, help="Grid panels (even).")
@click.option("--tol", type=float, default=1e-10, show_default=True)
@click.option("--max-iter", type=int, default=10_000, show_default=True)
@click.option("--gauge-sup", type=float, default=None, help="Override the gauge bound.")
@click.pass_context
def fbvp(ctx, **params):
    """Solve the fractional boundary problem by Picard iteration."""
    _dispatch(run_fbvp, _manifest(ctx, "fbvp", None, params))


@main.command()
@click.argument("specfile")
@click.option("--jobs", type=int, default=1, show_default=True)
@click.pass_context
def sweep(ctx, specfile, **params):
    """Fan out independent runs described in SPECFILE (JSON array)."""
    _dispatch(run_sweep, _manifest(ctx, "sweep", specfile, params))


if __name__ == "__main__":
    main()
