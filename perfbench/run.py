"""Run one graphfix benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is not installed: every
process gets PYTHONPATH=src.  A run repeats whole passes of the
workload, each in a fresh process (workloads.py), until S seconds have
passed.  Set-up (a fresh `import graphfix.cli`) is timed twice after
each pass, at least SETUP_RUNS times in all.  With --trace 1, traced and
untraced passes alternate; the traced ones give the per-layer numbers
and their difference from the untraced ones is the tracing overhead.

Every time is reported at the reference speed of speed.py: a pass's
times are scaled by REFERENCE_S over the mean of the reference samples
taken during that pass, set-up and import times by those taken in this
process.  A time metric is the mean over the passes; setup_s is the
median of its samples.  Every pass sends the same requests, so
`attempted` counts one pass's requests and `failed` those that failed in
any pass.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; metric names and units are
those of BENCHMARK.json (end_to_end with --trace 0, per_layer with
--trace 1).  The full record, with the environment and every pass's raw
times, goes to .bench_out/results/<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import speed  # noqa: E402

SETUP_RUNS = 12
IMPORTTIME_RUNS = 5
MIN_PASSES = 3
PASS_TIMEOUT = 150
# glibc raises its mmap threshold as large blocks are freed, and where the
# heap then puts the 32 MB FBVP kernels decides whether ~90 MB of freed
# blocks stay resident: the same pass peaks at 410 or 501 MB depending on
# the size of the environment.  A fixed threshold keeps every block above
# it in its own mapping, so peak_rss_mb is the program's own peak.
MMAP_THRESHOLD = 16 * 1024 * 1024


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["MALLOC_MMAP_THRESHOLD_"] = str(MMAP_THRESHOLD)
    return env


def setup_time(env: dict, reference: list[float]) -> float:
    """Wall time of a fresh interpreter that imports graphfix.cli, after a
    sample of the reference loop."""
    reference.append(speed.reference_loop())
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import graphfix.cli"], env=env, check=True)
    return time.perf_counter() - start


def import_times(env: dict) -> dict[str, float]:
    """`python -X importtime` split of the CLI's start-up, in ms (medians).

    graphfix is the self time of graphfix's own modules; numpy and click
    are the cumulative times of those packages.
    """
    samples: dict[str, list[float]] = {"graphfix": [], "numpy": [], "click": []}
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import graphfix.cli"],
                              env=env, check=True, capture_output=True, text=True)
        own = 0.0
        cumulative = {}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            fields = line[len("import time:"):].split("|")
            try:
                self_us, cum_us = float(fields[0]), float(fields[1])
            except ValueError:
                continue  # the header line
            name = fields[2].strip()
            if name.split(".")[0] == "graphfix":
                own += self_us
            cumulative[name] = cum_us
        samples["graphfix"].append(own / 1000.0)
        samples["numpy"].append(cumulative["numpy"] / 1000.0)
        samples["click"].append(cumulative["click"] / 1000.0)
    return {k: statistics.median(v) for k, v in samples.items()}


def run_pass(args, env: dict, index: int, traced: bool, out_root: str) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--traced", str(int(traced)),
           "--out", os.path.join(out_root, f"pass-{index:03d}")]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=PASS_TIMEOUT)
    if proc.returncode != 0:
        fail(f"pass {index} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def blas_record() -> dict:
    """The BLAS numpy links and the thread count it uses, as users get it."""
    import ctypes

    import numpy as np

    record = {"threads_env": {k: os.environ.get(k) for k in
                              ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record.update(name=blas.get("name"), version=blas.get("version"))
    except (TypeError, KeyError):
        pass
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                getattr(lib, sym).restype = ctypes.c_int
                record["threads"] = getattr(lib, sym)()
                break
    return record


def environment(args, version: str) -> dict:
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted(glob.glob("src/graphfix/*.py")):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "python": sys.version,
        "platform": platform.platform(),
        "numpy": np.__version__,
        "blas": blas_record(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "graphfix_version": version,
        "seed": args.seed,
        "workload": args.workload,
        "sizes": (inputs.TINY if args.tiny else inputs.SPECS)[args.workload],
    }


def at_reference_speed(p: dict) -> dict:
    """A pass's times scaled by its own reference samples (speed.py)."""
    scale = speed.REFERENCE_S / statistics.fmean(p["reference"])
    return {**p, "scale": scale, "wall": p["wall"] * scale,
            "times": {k: t * scale for k, t in p["times"].items()},
            "cli_walls": [t * scale for t in p["cli_walls"]],
            "self_times": {k: t * scale for k, t in p["self_times"].items()}}


def median_of(passes: list[dict], get) -> float:
    return statistics.median(get(p) for p in passes)


def mean_of(passes: list[dict], get) -> float:
    """Times are means over the passes: with five or so passes a run, the
    mean of the scaled times moves less from run to run than the median."""
    return statistics.fmean(get(p) for p in passes)


def request_counts(passes: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) of a run.

    Every pass sends the same requests, so a run attempts one pass's
    requests, and a request failed if it failed in any pass.  Counting them
    once, not once per pass, keeps the counts independent of how many
    passes fit in the run.
    """
    attempted = passes[0]["attempted"]
    problems = [f"pass {i} attempted {p['attempted']} requests, pass 0 {attempted}"
                for i, p in enumerate(passes) if p["attempted"] != attempted]
    failed = {json.dumps({k: v for k, v in c.items() if k != "error"}, sort_keys=True)
              for p in passes for c in p["crashes"]}
    return attempted, len(failed), problems


def end_to_end(plain: list[dict], all_passes: list[dict], setup: list[float]) -> dict:
    out = {"setup_s": statistics.median(setup), "wall_s": mean_of(plain, lambda p: p["wall"])}
    for kind in ("load", "verify", "walk", "bernstein", "fbvp", "sweep", "sweep_par"):
        out[f"{kind}_s"] = mean_of(plain, lambda p, k=kind: p["times"][k])
    attempted, failed, _ = request_counts(all_passes)
    out["ok_frac"] = 1.0 - failed / attempted
    out["bernstein_err"] = max(r["err"] for p in all_passes for r in p["bernstein"]
                               if (r["n"], r["q"]) in inputs.BERNSTEIN_ERR_REQUESTS)
    out["fbvp_err"] = max(r["err"] for p in all_passes for r in p["fbvp"])
    out["peak_rss_mb"] = median_of(plain, lambda p: p["rss_mb"])
    return out


def per_layer(plain: list[dict], traced: list[dict], setup: list[float],
              imports: dict[str, float]) -> dict:
    out = {}
    names = {n for p in traced for n in p["self_times"]}
    for name in names:
        out[f"{name}_s"] = mean_of(traced, lambda p, n=name: p["self_times"].get(n, 0.0))
    counts = traced[0]["counts"]
    for name in counts:
        out[name] = median_of(traced, lambda p, n=name: p["counts"][n])
    out["engine.exact_frac"] = counts["engine.exact"] / counts["engine.converged"]
    out["bernstein.limit_err"] = max(r["err"] for p in traced for r in p["bernstein"])
    for beta, _ in inputs.FBVP_ORDERS:
        out[f"fbvp.err.beta{beta:g}"] = max(
            r["err"] for p in traced for r in p["fbvp"] if r["beta"] == beta)
    for name, ms in imports.items():
        out[f"import.{name}_ms"] = ms
    setup_s = statistics.median(setup)
    out["cli.after_import_s"] = statistics.median(
        w - setup_s for p in plain for w in p["cli_walls"])
    out["cli.sweep_speedup"] = (mean_of(plain, lambda p: p["times"]["sweep"])
                                / mean_of(plain, lambda p: p["times"]["sweep_par"]))
    out["bench.trace_overhead_s"] = (mean_of(traced, lambda p: p["wall"])
                                     - mean_of(plain, lambda p: p["wall"]))
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description="Run one graphfix benchmark workload.")
    ap.add_argument("--workload", required=True, choices=sorted(inputs.SPECS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="self-test sizes")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join("src", "graphfix", "cli.py")):
        fail("run from the root of a graphfix checkout (src/graphfix is missing)")
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    env = child_env()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_root = os.path.join(".bench_out", tag)
    shutil.rmtree(out_root, ignore_errors=True)
    os.makedirs(out_root)

    start = time.perf_counter()
    raw_imports = import_times(env) if args.trace else {}
    reference: list[float] = []
    raw_setup = [setup_time(env, reference)]
    min_passes = MIN_PASSES + 1 if args.trace else MIN_PASSES  # 2 traced, 2 untraced
    passes: list[tuple[bool, dict]] = []
    durations: list[float] = []
    # start a pass only if a typical pass ends before the deadline
    while len(passes) < min_passes or (
            time.perf_counter() - start + statistics.median(durations) < args.seconds):
        traced = bool(args.trace) and len(passes) % 2 == 1
        began = time.perf_counter()
        passes.append((traced, run_pass(args, env, len(passes), traced, out_root)))
        # spread over the run, like the passes
        raw_setup += [setup_time(env, reference), setup_time(env, reference)]
        durations.append(time.perf_counter() - began)
    while len(raw_setup) < SETUP_RUNS:
        raw_setup.append(setup_time(env, reference))
    # set-up and import times are scaled by this process's reference
    # samples, which run right before each set-up sample
    scale = speed.REFERENCE_S / statistics.fmean(reference)
    setup = [t * scale for t in raw_setup]
    imports = {k: t * scale for k, t in raw_imports.items()}
    scaled = [(t, at_reference_speed(p)) for t, p in passes]
    plain = [p for t, p in scaled if not t]
    traced = [p for t, p in scaled if t]
    everything = [p for _, p in scaled]

    if args.trace:
        values = per_layer(plain, traced, setup, imports)
        wanted = bench["per_layer"]
    else:
        values = end_to_end(plain, everything, setup)
        wanted = bench["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        fail(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    attempted, failed, problems = request_counts(everything)
    wrong = problems + [w for p in everything for w in p["wrong"]]
    result = {"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}

    os.makedirs(os.path.join(".bench_out", "results"), exist_ok=True)
    record = {
        "environment": environment(args, everything[0]["version"]),
        "seconds": args.seconds,
        "trace": args.trace,
        "result": result,
        "all_values": values,
        "reference_s": speed.REFERENCE_S,
        "setup_scale": scale,
        "pass_scales": [p["scale"] for p in everything],
        "wrong": wrong,
        "setup_samples_s": raw_setup,
        "import_ms": raw_imports,
        "passes": [{"traced": t, **p} for t, p in passes],
    }
    with open(os.path.join(".bench_out", "results", f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    for w in wrong[:20]:
        print(f"wrong: {w}", file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
