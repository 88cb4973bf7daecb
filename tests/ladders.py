"""A random conforming-problem generator for the tests.

The package's own instances are the builtins of ``graphfix.problems``;
these ladders are drawn only to exercise the verifiers and the walk on
many small problems.
"""

import random

from graphfix.engine import CoincidenceProblem, IterationConfig
from graphfix.errors import InputError
from graphfix.metric import ClosedSet, EdgeStructure, FiniteMetricSpace, Gauge


def random_ladder_problem(
    rng: random.Random,
    max_points: int = 12,
    gauge_value: float | None = None,
) -> CoincidenceProblem:
    """Draw a conforming problem: a geometric ladder seen through a random
    relabeling f, with optional decoy members and either complete or
    metric-ball edges.

    The construction keeps D(f(w), F(w)) <= (r/(1-r)) d(f(v), f(w)) with a
    fixed margin, so every draw passes the hypothesis verifier; tests
    still run the verifier as the gate rather than trusting this.
    """
    L = rng.randint(3, max(3, max_points - 1))
    if gauge_value is not None:
        if not (0.1 < gauge_value < 1.0):
            raise InputError("gauge_value must lie in (0.1, 1)")
        k0 = gauge_value
    else:
        k0 = rng.uniform(0.25, 0.85)
    r_hi = (k0 - 0.02) / (1.0 + (k0 - 0.02))
    r = rng.uniform(min(0.1, r_hi / 2), r_hi)
    scale = 10.0 ** rng.uniform(-1.0, 1.0)

    rungs = [f"p{i}" for i in range(L)]
    labels = rungs + ["zero"]
    values = [scale * r**i for i in range(L)] + [0.0]
    space = FiniteMetricSpace.from_coords(labels, values)

    succ = {rungs[i]: rungs[i + 1] for i in range(L - 1)}
    succ[rungs[L - 1]] = "zero"
    succ["zero"] = "zero"

    shuffled = labels[:]
    rng.shuffle(shuffled)
    f = dict(zip(labels, shuffled))  # random bijection

    F = {}
    for w in labels:
        members = [succ[f[w]]]
        if rng.random() < 0.4 and "zero" not in members:
            members.append("zero")
        F[w] = ClosedSet.finite(members)

    gap0 = values[0] - values[1]
    if rng.random() < 0.5:
        edges = EdgeStructure.from_pairs(
            space, [(u, v) for u in labels for v in labels]
        )
    else:
        radius = rng.uniform(1.05 * gap0, 2.0 * values[0] + gap0)
        edges = EdgeStructure.ball(space, radius)

    inv_f = {v: k for k, v in f.items()}
    w0 = inv_f[rungs[0]]
    p0 = succ[rungs[0]]
    return CoincidenceProblem(
        space=space,
        f=f,
        F=F,
        edges=edges,
        gauge=Gauge.constant(k0),
        w0=w0,
        p0=p0,
        config=IterationConfig(tol=1e-12, residual_tol=1e-11, max_iter=10_000),
    )
