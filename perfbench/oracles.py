"""Output oracles.  Each returns None when a result is right and a short
reason when it is wrong; the self-test shows each one rejecting a
perturbed result.

They recompute from the benchmark's own inputs, not from the program's
objects: distances from the problem dict, the Bernstein limit line from
phi's endpoint values (Kelisky & Rivlin 1967), and FBVP solutions from
closed forms (constant forcing: (b^(beta-1) - b^beta) / (beta Gamma(beta));
sin-pi at beta = 2: sin(pi b)).
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

# The ROADMAP's acceptance level for the Bernstein limit line.
BERNSTEIN_TOL = 1e-8


def distance_fn(problem: dict):
    """d(u, v) from a problem dict's distance matrix or coordinates."""
    labels = [p["label"] for p in problem["points"]]
    index = {s: i for i, s in enumerate(labels)}
    if problem.get("distances") is not None:
        matrix = problem["distances"]
        return lambda u, v: matrix[index[u]][index[v]]
    coords = [np.asarray(p["coord"], dtype=float) for p in problem["points"]]
    return lambda u, v: float(np.linalg.norm(coords[index[u]] - coords[index[v]]))


def check_walk(problem: dict, dist, status: str, w_star, fw_star) -> str | None:
    """A walk on a problem the verifier accepts must converge to a point
    whose residual D(f(w*), F(w*)) is within residual_tol."""
    if status != "converged":
        return f"walk ended {status} on a verified problem"
    if problem["f"][w_star] != fw_star:
        return f"f({w_star}) is {problem['f'][w_star]}, not {fw_star}"
    tol = problem.get("config", {}).get("residual_tol", 1e-8)
    residual = min(dist(fw_star, y) for y in problem["F"][w_star])
    if residual > tol:
        return f"endpoint residual {residual:.3g} > {tol:.3g}"
    return None


def check_kamran(holds: bool, witnesses: list) -> str | None:
    """The ternary orbit breaks the Hausdorff inequality on the pair (0, 1)."""
    if holds or not any({w["v"], w["w"]} == {"0", "1"} for w in witnesses):
        return "Kamran check missed the violating pair (0, 1)"
    return None


def bernstein_error(phi, grid, limit_values) -> float:
    """Worst gap between the limit and the line through |phi(0)|, |phi(1)|."""
    grid = np.asarray(grid, dtype=float)
    line = abs(phi(0.0)) * (1.0 - grid) + abs(phi(1.0)) * grid
    return float(np.max(np.abs(np.asarray(limit_values, dtype=float) - line)))


def check_bernstein(err: float) -> str | None:
    if not err <= BERNSTEIN_TOL:
        return f"limit-line error {err:.3g} > {BERNSTEIN_TOL:g}"
    return None


def fbvp_exact(beta: float, forcing: str, grid):
    grid = np.asarray(grid, dtype=float)
    if forcing == "const":
        return (grid ** (beta - 1) - grid**beta) / (beta * math.gamma(beta))
    if forcing == "sin-pi" and beta == 2.0:
        return np.sin(np.pi * grid)
    return None


def fbvp_error(beta: float, forcing: str, grid, values) -> float | None:
    exact = fbvp_exact(beta, forcing, grid)
    if exact is None:
        return None
    return float(np.max(np.abs(np.asarray(values, dtype=float) - exact)))


def check_fbvp(beta: float, m: int, err: float) -> str | None:
    """The kink-split rule is O(h^beta); h^beta bounds every case measured
    from m = 40 to m = 4000."""
    if not err <= (1.0 / m) ** beta:
        return f"closed-form error {err:.3g} > h^beta at beta={beta}, m={m}"
    return None


def check_residual(values, K, g, grid, tol: float = 1e-8) -> str | None:
    """Nonlinear forcing: u must solve u = K g(., u) and vanish at both ends."""
    u = np.asarray(values, dtype=float)
    resid = float(np.max(np.abs(u - K @ np.array([g(b, x) for b, x in zip(grid, u)]))))
    if not (resid <= tol and abs(u[0]) <= tol and abs(u[-1]) <= tol):
        return f"Picard residual {resid:.3g} or boundary values exceed {tol:g}"
    return None


def read_table(path: str) -> list[dict]:
    """Rows of a table written as csv or as a json array of records."""
    with open(path) as fh:
        if path.endswith(".json"):
            rows = json.load(fh)
        else:
            rows = list(csv.DictReader(fh))
    if not rows:
        raise ValueError(f"{path} has no rows")
    return rows


def check_cli(code: int, expected: int, out_dir: str, files: list[str]) -> str | None:
    """Exit code as documented, and every output file present and parsable."""
    if code != expected:
        return f"exit code {code}, expected {expected}"
    for name in files:
        path = os.path.join(out_dir, name)
        if not os.path.exists(path):
            return f"missing output {name}"
        try:
            if name.endswith(".json"):
                with open(path) as fh:
                    json.load(fh)
            else:
                read_table(path)
        except (ValueError, OSError) as exc:
            return f"cannot parse {name}: {exc}"
    return None
