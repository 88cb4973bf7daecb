"""Command-line front end.

Subcommands: verify, iterate, bernstein, fbvp, sweep.  Global flags pick
the output directory and the table format (csv or json).  Exit codes
partition outcomes: 0 success, 1 hypothesis or validation failure, 2 input
error, 3 budget exhausted.  Every report embeds the run manifest
(subcommand, input, parameters) so a run can be re-executed exactly.
PROBLEM, --phi and --forcing each take a builtin name or a file path.

A run's parameters are declared once, as its command's click options: a
sweep job's params are resolved against them by ``_manifest``, and the
runners hold no defaults of their own.

A run imports only its own subcommand's solver modules (``_SOLVER_NAMES``),
and a ``graphfix`` process (``process_main``) freezes the heap left by
import once they are loaded, so that no garbage collection, the ones at
interpreter exit included, walks those objects again.
"""

from __future__ import annotations

import dataclasses
import gc
import importlib
import math
import os
import reprlib
import sys
from dataclasses import dataclass, field

import click
import numpy as np

from .engine import (
    Converged,
    IterationOutcome,
    MaxIterExceeded,
    run_coincidence_iteration,
)
from .errors import (
    DomainError,
    InputError,
    brief,
    check_integer,
    check_nonnegative,
    check_real,
)
from .metric import Gauge
# json_dumps is not called here; perfbench/tracing.py times it under this name
from .serialize import json_dump, json_dumps, load_json, write_table  # noqa: F401

EXIT_OK = 0
EXIT_HYPOTHESIS = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3

# The names the runners take from the solver modules, each with its module.
# A name is bound in this module's namespace on first use (module
# ``__getattr__``, or ``_bind_solvers`` for a run), where the runners look it
# up, and a name bound already, say by a wrapper put in its place, is kept.
_SOLVER_NAMES = {
    "BUILTIN_NAMES": "problems",
    "builtin_problem": "problems",
    "load_problem": "problems",
    "verify_coincidence_hypotheses": "verifier",
    "verify_kamran_inequality": "verifier",
    "QParams": "bernstein",
    "iterate_to_limit": "bernstein",
    "FbvpProblem": "fbvp",
    "picard_solve": "fbvp",
}

# the solver modules of each subcommand's runs
_SOLVERS = {
    "verify": ("problems", "verifier"),
    "iterate": ("problems",),
    "bernstein": ("bernstein",),
    "fbvp": ("fbvp",),
}

# set by ``process_main``: freeze the heap once the run's modules are loaded
_freeze_pending = False


def __getattr__(name: str):
    """A solver name, imported from its module on first access."""
    module = _SOLVER_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __package__), name)
    return globals().setdefault(name, value)


def _bind_solvers(*subcommands: str) -> None:
    """Bind every solver name that runs of ``subcommands`` use, importing
    their modules in the calling thread.  In a ``graphfix`` process the
    first call then freezes the heap (``gc.freeze``)."""
    global _freeze_pending
    modules = {m for sub in subcommands for m in _SOLVERS.get(sub, ())}
    for name, module in _SOLVER_NAMES.items():
        if module in modules and name not in globals():
            __getattr__(name)
    if _freeze_pending:
        _freeze_pending = False
        gc.freeze()


@dataclass
class RunManifest:
    """What was run: subcommand, input, parameters, output home, format."""

    subcommand: str
    input: str | None
    params: dict = field(default_factory=dict)
    out: str = "."
    format: str = "csv"


def _builtin_or_file(kind: str, ref, builtins, from_name, from_file):
    """Resolve PROBLEM, --phi or --forcing: ``from_name(ref)`` when ``ref``
    names one of ``builtins``, else ``from_file(ref)`` when it is the path
    of an existing file."""
    if ref in builtins:
        return from_name(ref)
    if ref is not None and os.path.exists(ref):
        return from_file(ref)
    raise InputError(
        f"needs a {kind}: a builtin ({', '.join(builtins)}) or an existing file, got {ref!r}"
    )


def _load(problem_ref: str | None, depth: int | None):
    def from_name(name):
        return builtin_problem(name, None if depth is None else check_integer(depth, "truncate"))

    def from_file(path):
        if depth is not None:
            raise InputError(
                "truncate applies to the ternary orbit builtins, not to a problem file"
            )
        return load_problem(path)

    return _builtin_or_file("problem", problem_ref, BUILTIN_NAMES, from_name, from_file)


def _emit(manifest: RunManifest, name: str, payload: dict) -> str:
    """Write the run's record, its manifest and ``payload``, to ``name`` in
    the run dir; return the JSON text written, which stdout echoes."""
    payload = {"manifest": dataclasses.asdict(manifest), **payload}
    os.makedirs(manifest.out, exist_ok=True)
    return json_dump(payload, os.path.join(manifest.out, name))


def _table(manifest: RunManifest, stem: str, header: list[str], rows: list) -> None:
    """Write ``stem.csv`` or ``stem.json`` (the --format choice) to the run dir."""
    os.makedirs(manifest.out, exist_ok=True)
    path = os.path.join(manifest.out, f"{stem}.{manifest.format}")
    write_table(path, header, rows, manifest.format)


def _manifest(command: click.Command, input_ref, params: dict, out: str, fmt: str) -> RunManifest:
    """The manifest of a run of ``command``: ``params`` resolved against its
    declared options, defaults filled in, in declaration order.  Click has
    resolved a command line's already; a sweep job's are resolved here.
    Refused: an unknown key, a missing required option, a flag that is not
    a bool, a string option or input that is not a string, and an input for
    a command without an argument.  Numbers are checked where they are
    used, by the library."""
    options = [p for p in command.params if isinstance(p, click.Option)]
    names = {p.name for p in options}
    unknown = [key for key in params if key not in names]
    if unknown:
        raise InputError(f"unknown parameter(s) for {command.name}: {', '.join(unknown)}")
    if input_ref is not None and len(options) == len(command.params):
        raise InputError(f"{command.name} takes no input, got {brief(input_ref)}")
    if not isinstance(input_ref, (str, type(None))):
        raise InputError(f"input must be a string, got {brief(input_ref)}")
    missing = [p.name for p in options if p.required and params.get(p.name) is None]
    if missing:
        raise InputError(f"missing required parameter(s): {', '.join(missing)}")
    resolved = {p.name: params.get(p.name, p.default) for p in options}
    for p in options:
        value = resolved[p.name]
        if p.is_flag and type(value) is not bool:
            raise InputError(f"{p.name} must be true or false, got {brief(value)}")
        is_text = isinstance(p.type, click.types.StringParamType)
        if is_text and not isinstance(value, (str, type(None))):
            raise InputError(f"{p.name} must be a string, got {brief(value)}")
    return RunManifest(command.name, input_ref, resolved, out, fmt)


def _exit_code(outcome: IterationOutcome) -> int:
    """0 when the run converged, 3 when the budget ran out, 1 otherwise."""
    if isinstance(outcome.status, Converged):
        return EXIT_OK
    if isinstance(outcome.status, MaxIterExceeded):
        return EXIT_BUDGET
    return EXIT_HYPOTHESIS


# ---------------------------------------------------------------------------
# Runners (shared by the click commands and the sweep executor).  Each one
# reads its resolved ``params[key]``, writes its files and returns
# (exit code, JSON text of its record).
# ---------------------------------------------------------------------------

def run_verify(manifest: RunManifest) -> tuple[int, str]:
    _bind_solvers("verify")
    params = manifest.params
    # checked on every run, so that no bad value reaches a manifest unread
    kamran_gauge = Gauge.constant(check_real(params["kamran_sup"], "kamran_sup"))
    M = check_nonnegative(params["M"], "M")
    problem = _load(manifest.input, params["truncate"])
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
    if params["kamran"]:
        kamran = verify_kamran_inequality(
            problem.space,
            problem.f,
            problem.F,
            kamran_gauge,
            M=M,
        )
        payload["kamran"] = kamran.to_dict()
        ok = ok and kamran.holds
    return (EXIT_OK if ok else EXIT_HYPOTHESIS), _emit(manifest, "report.json", payload)


_TRACE_HEADER = ["n", "w_label", "fw_label", "d_n", "D_n", "tail_bound_n", "edge_ok"]


def run_iterate(manifest: RunManifest) -> tuple[int, str]:
    _bind_solvers("iterate")
    params = manifest.params
    problem = _load(manifest.input, params["truncate"])
    replacements = {k: params[k] for k in ("w0", "p0") if params[k] is not None}
    cfg_updates = {
        k: params[k] for k in ("tol", "residual_tol", "max_iter") if params[k] is not None
    }
    if cfg_updates:
        replacements["config"] = dataclasses.replace(problem.config, **cfg_updates)
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


def run_bernstein(manifest: RunManifest) -> tuple[int, str]:
    _bind_solvers("bernstein")
    params = manifest.params
    phi = _builtin_or_file(
        "phi", params["phi"], _PHI_BUILTINS, _PHI_BUILTINS.get, _phi_from_file
    )
    qp = QParams(params["n"], params["q"])
    points = check_integer(params["grid"], "grid")
    if points < 1:
        raise InputError(f"grid needs at least one point, got {points}")
    result = iterate_to_limit(qp, phi, tol=params["tol"], max_iter=params["max_iter"])
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
# an error line echoes a forcing expression whole up to 80 characters, more than
# ``brief`` keeps, as a formula cut short says little, and cuts it in the middle beyond
_EXPR = reprlib.Repr()
_EXPR.maxstring = 80


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
            value = float(
                eval(code, {"__builtins__": {}}, {**_EVAL_NAMES, "b": b, "w": w})
            )
            if not math.isfinite(value):
                raise ValueError(f"the value {value} is not finite")
            return value
        except (ArithmeticError, TypeError, ValueError) as exc:
            raise InputError(
                f"forcing expression {_EXPR.repr(data['expr'])} fails at "
                f"b={float(b)}, w={float(w)}: {exc}"
            ) from None

    return g, gauge_sup


def run_fbvp(manifest: RunManifest) -> tuple[int, str]:
    _bind_solvers("fbvp")
    params = manifest.params
    g, sup = _builtin_or_file(
        "forcing", params["forcing"], _FORCING_BUILTINS, _FORCING_BUILTINS.get,
        _forcing_from_file,
    )
    problem = FbvpProblem(
        beta=params["beta"],
        g=g,
        gauge=Gauge.constant(sup),
        grid_m=params["m"],
        tol=params["tol"],
        max_iter=params["max_iter"],
    )
    report = picard_solve(problem)
    rows = [
        [float(b), float(u)]
        for b, u in zip(problem.grid, report.solution.values)
    ]
    _table(manifest, "solution", ["b", "u_star"], rows)
    payload = {"beta": problem.beta, "m": problem.grid_m, **report.to_dict()}
    return _exit_code(report), _emit(manifest, "report.json", payload)


# the subcommands a sweep job may run
_RUNNERS = {
    "verify": run_verify,
    "iterate": run_iterate,
    "bernstein": run_bernstein,
    "fbvp": run_fbvp,
}


def _guarded(
    runner, command: click.Command, input_ref, params: dict, out: str, fmt: str
) -> tuple[int, str | None, str | None]:
    """Resolve one run's manifest and run it; a run that raises becomes an
    exit code and an error line."""
    try:
        code, record = runner(_manifest(command, input_ref, params, out, fmt))
    except (InputError, DomainError) as exc:
        return EXIT_INPUT, None, f"error: {exc}"
    return code, record, None


def run_sweep(manifest: RunManifest) -> tuple[int, str]:
    """Run every job of the sweep file; a failing job is recorded, not fatal."""
    jobs = load_json(manifest.input)
    if not isinstance(jobs, list) or not jobs:
        raise InputError("sweep file must be a non-empty array of runs")
    jobs = [job if isinstance(job, dict) else {} for job in jobs]
    # imported here, so that no two workers compile the same module at once
    _bind_solvers(*(job["subcommand"] for job in jobs
                    if isinstance(job.get("subcommand"), str)))

    def one(idx_job):
        idx, job = idx_job
        sub, params = job.get("subcommand"), job.get("params", {})
        if not isinstance(sub, str) or sub not in _RUNNERS or not isinstance(params, dict):
            error = (
                f"error: sweep job {idx} needs a known subcommand (got {brief(sub)}) "
                "and a params object"
            )
            return {"index": idx, "exit_code": EXIT_INPUT, "error": error}
        out = os.path.join(manifest.out, f"run-{idx:03d}")
        code, _, error = _guarded(
            _RUNNERS[sub], main.commands[sub], job.get("input"), params, out, manifest.format
        )
        return {"index": idx, "exit_code": code, "error": error}

    import concurrent.futures  # only sweeps use it; it imports logging

    with concurrent.futures.ThreadPoolExecutor(max_workers=manifest.params["jobs"]) as pool:
        runs = list(pool.map(one, enumerate(jobs)))
    code = max(run["exit_code"] for run in runs)
    return code, _emit(manifest, "sweep.json", {"runs": runs})


# ---------------------------------------------------------------------------
# click wiring
# ---------------------------------------------------------------------------

def _dispatch(ctx, runner, input_ref, params: dict) -> None:
    code, record, error = _guarded(
        runner, ctx.command, input_ref, params, ctx.obj["out"], ctx.obj["format"]
    )
    if error is None:
        click.echo(record)
    else:
        click.echo(error, err=True)
    sys.exit(code)


@click.group()
@click.option("--out", default=".", show_default=True, help="Output directory.")
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["csv", "json"]),
    default="csv",
    show_default=True,
    help="Table output format.",
)
@click.pass_context
def main(ctx, out, fmt):
    """Graph-constrained coincidence iteration toolkit."""
    ctx.obj = {"out": out, "format": fmt}


@main.command()
@click.argument("problem")
@click.option("--kamran", is_flag=True, help="Also check the Hausdorff inequality.")
@click.option("--M", "M", type=float, default=0.0, show_default=True)
@click.option("--kamran-sup", type=float, default=0.999, show_default=True)
@click.option("--truncate", type=int, default=None, help="Builtin truncation depth.")
@click.pass_context
def verify(ctx, problem, **params):
    """Check the contraction/graph hypotheses of PROBLEM (builtin or file)."""
    _dispatch(ctx, run_verify, problem, params)


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
    _dispatch(ctx, run_iterate, problem, params)


@main.command()
@click.option("--n", type=int, required=True, help="Operator degree.")
@click.option("--q", type=float, required=True, help="Deformation parameter.")
@click.option(
    "--phi",
    default="square",
    show_default=True,
    help=f"{', '.join(_PHI_BUILTINS)}, or a JSON file of [[a, value], ...] samples.",
)
@click.option("--tol", type=float, default=1e-12, show_default=True,
              help="Bound on the distance of the node values to the limit.")
@click.option("--max-iter", type=int, default=200_000, show_default=True,
              help="Budget of operator applications.")
@click.option("--grid", type=int, default=101, show_default=True)
@click.pass_context
def bernstein(ctx, **params):
    """Iterate the nonlinear q-Bernstein operator to its limit."""
    _dispatch(ctx, run_bernstein, None, params)


@main.command()
@click.option("--beta", type=float, required=True, help="Fractional order (> 1).")
@click.option(
    "--forcing",
    default="sin-pi",
    show_default=True,
    help=f"{', '.join(_FORCING_BUILTINS)}, or a JSON file {{'expr': ..., 'gauge_sup': ...}}.",
)
@click.option("--m", type=int, default=200, show_default=True, help="Grid panels (even).")
@click.option("--tol", type=float, default=1e-10, show_default=True)
@click.option("--max-iter", type=int, default=10_000, show_default=True)
@click.pass_context
def fbvp(ctx, **params):
    """Solve the fractional boundary problem by Picard iteration."""
    _dispatch(ctx, run_fbvp, None, params)


@main.command()
@click.argument("specfile")
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True)
@click.pass_context
def sweep(ctx, specfile, **params):
    """Fan out independent runs described in SPECFILE (JSON array)."""
    _dispatch(ctx, run_sweep, specfile, params)


def process_main() -> None:
    """Entry of a ``graphfix`` process: the console script and ``python -m
    graphfix.cli``.  It runs ``main`` on the command line and freezes the
    heap once the run's solver modules are loaded (``_bind_solvers``), so
    that the collections of the run and of interpreter exit skip what
    import left.  A call of ``main`` itself leaves the collector alone."""
    global _freeze_pending
    _freeze_pending = True
    main()


if __name__ == "__main__":
    process_main()
