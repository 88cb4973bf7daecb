"""Workload inputs, generated from the seed.

The program under test receives only what these functions return:
problem-file dicts, operator parameters and CLI argument lists.  Every
workload runs every request kind, so every metric is measured on every
workload; the sizes decide which layers do the work.  Sizes are fixed
per workload and the seed draws only the content, so two seeds cost
about the same.
"""

from __future__ import annotations

import math
import random

PHI_NAMES = ("square", "cube", "sin")
FBVP_ORDERS = ((1.25, "const"), (1.5, "const"), (1.9, "const"), (2.0, "sin-pi"))

# Request sizes per workload.  "tiny" is the self-test size of each one.
SPECS = {
    "finite-large": {
        "ternary_depth": 498,  # 500 points, coordinates, ball edges
        "ladder_rungs": 499,  # 500 points, explicit distances, list edges
        "kamran_depth": 198,  # the Kamran loop costs 5.3 s at 500 points
        # the other layers' requests are sized so that each kind takes a few
        # tenths of a second: shorter timings are too noisy to compare
        "bernstein": [(5, 0.5), (5, 0.9), (5, 1.0), (5, 2.0), (10, 0.5), (10, 0.9),
                      (10, 1.0), (20, 0.9), (20, 1.0), (40, 1.0)],
        "fbvp": [(beta, forcing, 1200) for beta, forcing in FBVP_ORDERS],
        "nonlinear_m": 1200,
        "sweep": "finite",
        "sweep_size": 120,
    },
    "operators-large": {
        "ternary_depth": 198,
        "ladder_rungs": 199,
        "kamran_depth": 98,
        # known crash cases of iterate_to_limit: (10, 2.0), (40, 0.9),
        # (60, 1.0), (120, 0.5) and n = 200, where the O(n^3) basis shows
        "bernstein": [
            (5, 0.5), (5, 0.9), (5, 1.0), (5, 2.0), (10, 0.5), (10, 0.9),
            (10, 1.0), (20, 0.9), (20, 1.0), (40, 1.0),
            (10, 2.0), (40, 0.9), (60, 1.0), (120, 0.5), (200, 1.0),
        ],
        # the O(m^2) kernel build shows at m = 4000
        "fbvp": [(beta, forcing, 2000) for beta, forcing in FBVP_ORDERS] + [(1.5, "const", 4000)],
        "nonlinear_m": 2000,
        "sweep": "operators",
        "sweep_size": 600,
    },
    "cli-small": {"cli": True, "ladder_rungs": 11, "sweep": "cli"},
}

TINY = {
    "finite-large": {
        **SPECS["finite-large"],
        "ternary_depth": 20, "ladder_rungs": 19, "kamran_depth": 8, "sweep_size": 12,
        "fbvp": [(beta, forcing, 40) for beta, forcing in FBVP_ORDERS],
        "nonlinear_m": 40,
    },
    "operators-large": {
        **SPECS["operators-large"],
        "ternary_depth": 20, "ladder_rungs": 19, "kamran_depth": 8,
        "bernstein": [(5, 0.9), (10, 1.0), (10, 2.0)],
        "fbvp": [(beta, forcing, 40) for beta, forcing in FBVP_ORDERS],
        "nonlinear_m": 40,
        "sweep_size": 40,
    },
    "cli-small": SPECS["cli-small"],
}

# The Bernstein requests bernstein_err is taken over: those that complete
# at the commit that defined the benchmark.  A fix that makes the crash
# cases complete leaves this maximum comparable.
BERNSTEIN_ERR_REQUESTS = frozenset(
    [(5, 0.5), (5, 0.9), (5, 1.0), (5, 2.0), (10, 0.5), (10, 0.9), (10, 1.0),
     (20, 0.9), (20, 1.0), (40, 1.0)]
)



def phi(name: str):
    """The CLI's builtin phi functions."""
    return {
        "square": lambda a: a * a,
        "cube": lambda a: a**3,
        "sin": lambda a: math.sin(math.pi * a),
    }[name]


def ternary_dict(depth: int) -> dict:
    """The ternary orbit instance as a problem file with coordinates.

    Points 0, 1 and t_n = 3^-n for n <= depth; f divides by 3, F hops two
    rungs down with a detour through 1/3.  Successors below the cut are
    clamped to 0 and their owners listed as truncated.
    """
    def t(n):
        return f"1/{3**n}"  # the labels of the builtin example-3-3

    points = [{"label": "0", "coord": [0.0]}, {"label": "1", "coord": [1.0]}]
    points += [{"label": t(n), "coord": [3.0**-n]} for n in range(1, depth + 1)]
    f = {"0": "0", "1": t(1), t(depth): "0"}
    f.update({t(n): t(n + 1) for n in range(1, depth)})
    F = {"0": ["0", t(1)], "1": ["0"]}
    F.update({t(n): [t(1), t(n + 2)] for n in range(1, depth - 1)})
    F.update({t(n): [t(1), "0"] for n in (depth - 1, depth)})
    return {
        "points": points,
        "edges": {"mode": "ball", "radius": 1.0 / 9.0},
        "gauge": {"form": "constant", "value": 1.0 / 3.0, "sup": 1.0 / 3.0},
        "f": f,
        "F": F,
        "w0": t(1),
        "p0": t(3),
        "truncated": [t(depth - 1), t(depth)],
    }


def ladder_dict(rng: random.Random, rungs: int) -> dict:
    """A conforming geometric ladder of fixed size seen through a random
    relabeling f, with an explicit distance matrix and complete list edges.

    Rung i sits at scale * r^i and steps to rung i + 1; F(w) holds the
    successor of f(w) and, for 40% of the points drawn at random, the
    bottom point.  The share is fixed, so every seed gives the same number
    of admissible starts and so of requests.  The ratio r stays
    below (k - 0.02) / (1 + k - 0.02) for the gauge k, which keeps
    D(f(w), F(w)) within the contraction bound, and above 0.25, which
    keeps r^499 a normal double.
    """
    k = rng.uniform(0.45, 0.55)
    r = rng.uniform(0.25, 0.28)
    scale = 10.0 ** rng.uniform(-1.0, 1.0)
    names = [f"p{i}" for i in range(rungs)] + ["zero"]
    values = [scale * r**i for i in range(rungs)] + [0.0]
    succ = {names[i]: names[i + 1] for i in range(rungs)}
    succ["zero"] = "zero"
    shuffled = names[:]
    rng.shuffle(shuffled)
    f = dict(zip(names, shuffled))
    F = {w: [succ[f[w]]] for w in names}
    open_points = [w for w in names if F[w][0] != "zero"]
    for w in rng.sample(open_points, round(0.4 * len(open_points))):
        F[w].append("zero")
    inv_f = {img: w for w, img in f.items()}
    return {
        "points": [{"label": s} for s in names],
        "distances": [[abs(x - y) for y in values] for x in values],
        "edges": {"mode": "list", "pairs": [[u, v] for u in names for v in names]},
        "gauge": {"form": "constant", "value": k, "sup": k},
        "f": f,
        "F": F,
        "w0": inv_f[names[0]],
        "p0": names[1],
        "config": {"tol": 1e-12, "residual_tol": 1e-11, "max_iter": 10_000},
    }


def bernstein_requests(spec: dict) -> list[dict]:
    """The workload's (n, q) pairs.  phi and the table format are fixed per
    pair, so bernstein_err and the run time do not depend on the seed."""
    return [
        {"n": n, "q": q, "phi": PHI_NAMES[i % 3], "format": "csv" if i % 2 else "json"}
        for i, (n, q) in enumerate(spec["bernstein"])
    ]


def fbvp_requests(rng: random.Random, spec: dict) -> list[dict]:
    reqs = [
        {"beta": beta, "forcing": forcing, "m": m,
         "format": "json" if forcing == "sin-pi" else "csv"}
        for beta, forcing, m in spec["fbvp"]
    ]
    # one nonlinear forcing 0.25 sin(w) + c b; no closed form, so only the
    # discrete residual is checked
    reqs.append({"beta": 1.5, "forcing": "nonlinear", "m": spec["nonlinear_m"],
                 "c": rng.uniform(0.5, 1.5), "format": "csv"})
    return reqs


def forcing(req: dict):
    """(g, certified gauge sup) for an FBVP request."""
    if req["forcing"] == "const":
        return (lambda b, w: 1.0), 0.0
    if req["forcing"] == "sin-pi":
        return (lambda b, w: math.pi**2 * math.sin(math.pi * b)), 0.0
    c = req["c"]
    return (lambda b, w: 0.25 * math.sin(w) + c * b), 0.25


# CLI jobs: (argument list after the global flags, expected exit code).
# README_JOBS are the README examples.
README_JOBS = [
    (["verify", "example-3-3"], 0),
    (["verify", "example-3-3", "--kamran", "--M", "0"], 1),
    (["iterate", "example-3-3"], 0),
    (["bernstein", "--n", "5", "--q", "0.9", "--phi", "square"], 0),
    (["fbvp", "--beta", "2", "--forcing", "sin-pi"], 0),
]


def sweep_jobs(kind: str, size: int, problem_file: str) -> list[tuple[list[str], int]]:
    """The jobs a workload's `graphfix sweep` runs, as CLI argument lists."""
    if kind == "cli":
        return README_JOBS + [
            (["fbvp", "--beta", str(beta), "--forcing", "const"], 0)
            for beta, forcing in FBVP_ORDERS if forcing == "const"
        ]
    if kind == "finite":
        return [
            (["verify", problem_file], 0),
            (["iterate", problem_file], 0),
            (["verify", "example-3-3", "--truncate", str(size)], 0),
            (["iterate", "example-3-3", "--truncate", str(size)], 0),
        ]
    return [
        (["bernstein", "--n", "20", "--q", "0.9", "--phi", "sin"], 0),
        (["bernstein", "--n", "40", "--q", "1.0", "--phi", "cube"], 0),
        (["fbvp", "--beta", "1.5", "--forcing", "const", "--m", str(size)], 0),
        (["fbvp", "--beta", "2", "--forcing", "sin-pi", "--m", str(size)], 0),
    ]


def job_spec(args: list[str]) -> dict:
    """Translate a CLI argument list into a sweep-file entry."""
    sub, rest = args[0], args[1:]
    params: dict = {}
    problem = None
    names = {"--n": "n", "--q": "q", "--phi": "phi", "--beta": "beta",
             "--forcing": "forcing", "--m": "m", "--M": "M", "--truncate": "truncate"}
    casts = {"n": int, "m": int, "truncate": int, "q": float, "beta": float, "M": float}
    i = 0
    while i < len(rest):
        tok = rest[i]
        if tok == "--kamran":
            params["kamran"] = True
            i += 1
        elif tok in names:
            key = names[tok]
            params[key] = casts.get(key, str)(rest[i + 1])
            i += 2
        else:
            problem = tok
            i += 1
    return {"subcommand": sub, "input": problem, "params": params}
