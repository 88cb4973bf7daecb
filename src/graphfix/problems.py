"""Built-in problems and the problem-file format: its one reader and one
writer.

The ternary orbit problem is the package's reference instance: the space
{0, 1} cup {1/3^n}, f dividing by 3, and F hopping two rungs down with a
detour through 1/3.  Its graph (a 1/9-ball) excludes exactly the pairs
that would break the contraction bound, while the Hausdorff-based
inequality fails on the pair (0, 1) for every gauge, which is what the
comparison builtins demonstrate.

Truncation: the infinite tail is cut at depth N; successors that would
fall below the cut are clamped to 0 and their owner points are recorded
in ``truncated`` so hypothesis checks skip pairs that only exist as
truncation artifacts.  The iteration itself needs no skipping: the
clamped step satisfies the per-step inequalities and lands the orbit
exactly on 0.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import asdict, fields

from .engine import CoincidenceProblem, IterationConfig
from .errors import InputError, brief, check_integer
from .metric import ClosedSet, EdgeStructure, FiniteMetricSpace, Gauge
from .serialize import load_json

BUILTIN_NAMES = ("example-3-3", "example-3-5", "kamran-counterexample", "identity")


def ternary_orbit_problem(
    depth: int = 12, config: IterationConfig | None = None
) -> CoincidenceProblem:
    """The ternary orbit instance truncated at 1/3^depth (3 <= depth <= 644)."""
    depth = check_integer(depth, "depth")
    if depth < 3:
        raise InputError("ternary orbit problem needs depth >= 3")
    # every distance is at least 3^-depth, a normal double up to depth 644
    if depth > 644:
        raise InputError(
            "ternary orbit problem needs depth <= 644: "
            "past it, 3^-depth is below the smallest normal double"
        )
    labels = ["0", "1"] + [f"1/{3**n}" for n in range(1, depth + 1)]
    values = [0.0, 1.0] + [3.0**-n for n in range(1, depth + 1)]
    space = FiniteMetricSpace.from_coords(labels, values)

    def lab(n: int) -> str:
        return f"1/{3**n}"

    f = {"0": "0", "1": lab(1)}
    for n in range(1, depth):
        f[lab(n)] = lab(n + 1)
    f[lab(depth)] = "0"  # clamped: true image 1/3^(depth+1) is below the cut

    F = {"0": ClosedSet.finite(["0", lab(1)]), "1": ClosedSet.finite(["0"])}
    for n in range(1, depth - 1):
        F[lab(n)] = ClosedSet.finite([lab(1), lab(n + 2)])
    for n in (depth - 1, depth):
        F[lab(n)] = ClosedSet.finite([lab(1), "0"])  # clamped second member

    return CoincidenceProblem(
        space=space,
        f=f,
        F=F,
        edges=EdgeStructure.ball(space, 1.0 / 9.0),
        gauge=Gauge.constant(1.0 / 3.0),
        w0=lab(1),
        p0=lab(3),
        config=config or IterationConfig(),
        truncated=frozenset({lab(depth - 1), lab(depth)}),
    )


def identity_problem() -> CoincidenceProblem:
    """Every point is a common fixed point: f = id, F(w) = {w}."""
    labels = ["0", "1/4", "1/2", "3/4", "1"]
    values = [0.0, 0.25, 0.5, 0.75, 1.0]
    space = FiniteMetricSpace.from_coords(labels, values)
    return CoincidenceProblem(
        space=space,
        f={s: s for s in labels},
        F={s: ClosedSet.finite([s]) for s in labels},
        edges=EdgeStructure.ball(space, 2.0),
        gauge=Gauge.constant(0.5),
        w0="0",
        p0="0",
    )


def builtin_problem(name: str, depth: int | None = None) -> CoincidenceProblem:
    """Look up an embedded problem by its public name.  ``depth`` cuts the
    ternary orbit; the identity problem has none and refuses one."""
    if name == "example-3-3" or name == "example-3-5":
        # same truncated dataset; the second name flags the comparison use
        return ternary_orbit_problem(12 if depth is None else depth)
    if name == "kamran-counterexample":
        # a small cut suffices: the violating pair (0, 1) survives any depth
        return ternary_orbit_problem(4 if depth is None else depth)
    if name == "identity":
        if depth is not None:
            raise InputError("the identity problem takes no truncation depth")
        return identity_problem()
    raise InputError(f"unknown builtin problem {name!r}; known: {BUILTIN_NAMES}")


# ---------------------------------------------------------------------------
# Problem files
# ---------------------------------------------------------------------------

def problem_to_dict(problem: CoincidenceProblem) -> dict:
    space = problem.space
    if space.coords is None:
        points = [{"label": s} for s in space.labels]
        geometry = {"distances": [list(map(float, row)) for row in space.matrix]}
    else:
        points = [
            {"label": s, "coord": list(map(float, c))}
            for s, c in zip(space.labels, space.coords)
        ]
        geometry = {"norm": space.norm}
    out = {
        "points": points,
        **geometry,
        "edges": (
            {"mode": "ball", "radius": problem.edges.radius}
            if problem.edges.mode == "ball"
            else {
                "mode": "list",
                "pairs": sorted(
                    [space.labels[u], space.labels[v]]
                    for u, v in zip(*problem.edges.adjacency.nonzero())
                ),
            }
        ),
        "gauge": (
            {
                "form": "constant",
                "value": problem.gauge.values[0],
                "sup": problem.gauge.certified_sup,
            }
            if problem.gauge.form == "constant"
            else {
                "form": "piecewise",
                "breakpoints": list(problem.gauge.breakpoints),
                "values": list(problem.gauge.values),
                "sup": problem.gauge.certified_sup,
            }
        ),
        "f": dict(problem.f),
        "F": {w: list(problem.F[w].members) for w in space.labels},
        "w0": problem.w0,
        "p0": problem.p0,
        "config": asdict(problem.config),
    }
    if problem.truncated:
        out["truncated"] = sorted(problem.truncated)
    return out


def space_from_dict(data: Mapping) -> FiniteMetricSpace:
    """Build a space from the ``points`` (+ ``distances``/coords) file section."""
    try:
        points = data["points"]
    except KeyError:
        raise InputError("problem file needs a 'points' array") from None
    if not isinstance(points, list) or not points:
        raise InputError("'points' must be a non-empty array")
    labels = []
    coords = []
    for entry in points:
        if not isinstance(entry, Mapping) or "label" not in entry:
            raise InputError("every point needs a 'label'")
        labels.append(str(entry["label"]))
        coords.append(entry.get("coord"))
    have_coords = all(c is not None for c in coords)
    have_matrix = "distances" in data and data["distances"] is not None
    if have_matrix and have_coords:
        raise InputError("give either 'distances' or per-point 'coord', not both")
    if have_matrix:
        return FiniteMetricSpace.from_matrix(labels, data["distances"])
    if have_coords:
        return FiniteMetricSpace.from_coords(
            labels, coords, norm=data.get("norm", "euclidean")
        )
    raise InputError("points need 'coord' entries or a 'distances' matrix")


def edges_from_dict(data: Mapping, space: FiniteMetricSpace) -> EdgeStructure:
    if not isinstance(data, Mapping) or "mode" not in data:
        raise InputError("'edges' must be an object with a 'mode'")
    mode = data["mode"]
    if mode == "ball":
        if "radius" not in data:
            raise InputError("ball edges need a 'radius'")
        return EdgeStructure.ball(space, data["radius"])
    if mode == "list":
        pairs = data.get("pairs")
        if not isinstance(pairs, list):
            raise InputError("list edges need a 'pairs' array")
        return EdgeStructure.from_pairs(space, pairs)
    raise InputError(f"unknown edge mode {brief(mode)}")


def gauge_from_dict(data: Mapping) -> Gauge:
    if not isinstance(data, Mapping) or "form" not in data:
        raise InputError("'gauge' must be an object with a 'form'")
    form = data["form"]
    if form == "constant":
        if "value" not in data:
            raise InputError("constant gauge needs a 'value'")
        return Gauge.constant(data["value"], data.get("sup"))
    if form == "piecewise":
        try:
            breakpoints, values = data["breakpoints"], data["values"]
            sup = data["sup"]
        except KeyError as exc:
            raise InputError(f"piecewise gauge needs {exc}") from None
        if not isinstance(breakpoints, list) or not isinstance(values, list):
            raise InputError("piecewise gauge breakpoints and values must be arrays")
        return Gauge.piecewise(breakpoints, values, sup)
    raise InputError(f"unknown gauge form {brief(form)}")


def problem_from_dict(data: Mapping) -> CoincidenceProblem:
    space = space_from_dict(data)
    for key in ("edges", "gauge", "f", "F", "w0", "p0"):
        if key not in data:
            raise InputError(f"problem file needs a {key!r} section")
    edges = edges_from_dict(data["edges"], space)
    gauge = gauge_from_dict(data["gauge"])
    if not isinstance(data["f"], Mapping) or not isinstance(data["F"], Mapping):
        raise InputError("problem file 'f' and 'F' must be objects keyed by label")
    for w, image in data["F"].items():
        if not isinstance(image, list):
            raise InputError(f"F({brief(w)}) must be a list of labels, not {brief(image)}")
    fmap = {str(k): str(v) for k, v in data["f"].items()}
    images = {str(k): ClosedSet.finite(v) for k, v in data["F"].items()}
    truncated = data.get("truncated", [])
    if not isinstance(truncated, list):
        raise InputError(f"'truncated' must be a list of labels, not {brief(truncated)}")
    cfg = data.get("config", {})
    if not isinstance(cfg, Mapping):
        raise InputError("problem file 'config' must be an object")
    names = {f.name for f in fields(IterationConfig)}
    unknown = [str(key) for key in cfg if key not in names]
    if unknown:
        raise InputError(f"unknown problem file config key(s): {', '.join(unknown)}")
    config = IterationConfig(**cfg)
    return CoincidenceProblem(
        space=space,
        f=fmap,
        F=images,
        edges=edges,
        gauge=gauge,
        w0=str(data["w0"]),
        p0=str(data["p0"]),
        config=config,
        truncated=frozenset(map(str, truncated)),
    )


def load_problem(path) -> CoincidenceProblem:
    return problem_from_dict(load_json(path))
