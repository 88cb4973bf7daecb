"""Problem files: every problem survives problem_to_dict -> JSON ->
problem_from_dict, and a number written as a string is an input error."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphfix.engine import CoincidenceProblem, IterationConfig
from graphfix.errors import InputError
from graphfix.metric import EdgeStructure, FiniteMetricSpace, Gauge
from graphfix.problems import problem_from_dict, problem_to_dict
from graphfix.serialize import json_dumps
from graphfix.verifier import verify_coincidence_hypotheses, verify_kamran_inequality

_NORMS = ["euclidean", "manhattan", "chebyshev"]
_GAUGE_VALUES = st.floats(0.0, 0.99)


def _space(draw, labels):
    """A coordinate space (distinct points whose coordinates are 0 or of
    magnitude 1e-290 to 1e100, so that every distance is a normal double),
    or an explicit matrix with off-diagonal entries in [s, 2s], which meets
    the triangle inequality exactly."""
    n = len(labels)
    if draw(st.booleans()):
        dim = draw(st.integers(1, 3))
        magnitude = st.floats(1e-290, 1e100)
        coord = st.just(0.0) | magnitude | magnitude.map(lambda x: -x)
        coords = draw(st.lists(st.lists(coord, min_size=dim, max_size=dim),
                               min_size=n, max_size=n, unique_by=tuple))
        return FiniteMetricSpace.from_coords(labels, coords, draw(st.sampled_from(_NORMS)))
    scale = 10.0 ** draw(st.integers(-3, 3))
    m = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            m[i, j] = m[j, i] = scale * draw(st.floats(1.0, 2.0))
    return FiniteMetricSpace.from_matrix(labels, m)


def _gauge(draw):
    if draw(st.booleans()):
        value = draw(_GAUGE_VALUES)
        return Gauge.constant(value, draw(st.floats(value, 0.99)))
    cuts = draw(st.lists(st.floats(1e-6, 1e3), max_size=3, unique=True))
    values = draw(st.lists(_GAUGE_VALUES, min_size=len(cuts) + 1,
                           max_size=len(cuts) + 1))
    return Gauge.piecewise([0.0] + sorted(cuts), values, draw(st.floats(max(values), 0.99)))


@st.composite
def problems(draw):
    """A valid problem: coordinate or explicit space, ball or list edges,
    constant or piecewise gauge, with or without truncated labels."""
    n = draw(st.integers(2, 6))
    labels = [f"p{i}" for i in range(n)]
    space = _space(draw, labels)
    label = st.sampled_from(labels)
    f = {w: draw(label) for w in labels}
    image = st.sampled_from(sorted(set(f.values())))
    F = {w: draw(st.lists(image, min_size=1, max_size=3, unique=True)) for w in labels}
    w0 = draw(label)
    p0 = draw(st.sampled_from(F[w0]))
    if draw(st.booleans()):
        radius = 2 * space.distance(f[w0], p0) + draw(st.floats(1e-3, 1e3))
        edges = EdgeStructure.ball(space, radius)
    else:
        pairs = draw(st.lists(st.tuples(label, label), max_size=2 * n))
        edges = EdgeStructure.from_pairs(space, pairs + [(f[w0], p0)])
    config = IterationConfig(
        tol=draw(st.floats(1e-15, 1.0)),
        residual_tol=draw(st.floats(1e-15, 1.0)),
        max_iter=draw(st.integers(0, 10_000)),
    )
    return CoincidenceProblem(
        space=space, f=f, F=F, edges=edges, gauge=_gauge(draw), w0=w0, p0=p0,
        config=config, truncated=frozenset(draw(st.lists(label, unique=True))),
    )


def _reports(p):
    return (
        verify_coincidence_hypotheses(
            p.space, p.f, p.F, p.edges, p.gauge, truncated=p.truncated
        ).to_dict(),
        verify_kamran_inequality(p.space, p.f, p.F, p.gauge, M=0.5).to_dict(),
    )


@settings(max_examples=120, deadline=None)
@given(problems())
def test_problem_round_trips_through_json(problem):
    back = problem_from_dict(json.loads(json_dumps(problem_to_dict(problem))))
    space, other = problem.space, back.space
    assert other.labels == space.labels
    assert other.matrix.tobytes() == space.matrix.tobytes()
    assert other.norm == space.norm
    if space.coords is not None:
        assert other.coords.tobytes() == space.coords.tobytes()
    assert back.edges.mode == problem.edges.mode
    assert np.array_equal(back.edges.adjacency, problem.edges.adjacency)
    assert back.gauge == problem.gauge
    assert back.config == problem.config
    assert (back.w0, back.p0, back.truncated) == (problem.w0, problem.p0, problem.truncated)
    assert dict(back.f) == dict(problem.f)
    assert {w: Z.members for w, Z in back.F.items()} == {
        w: Z.members for w, Z in problem.F.items()
    }
    assert _reports(back) == _reports(problem)


def _numeric_leaves(node, path=()):
    """The path of every number (not a bool) in a JSON-like tree."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path] if isinstance(node, (int, float)) and not isinstance(node, bool) else []
    return [p for key, child in items for p in _numeric_leaves(child, path + (key,))]


@settings(max_examples=120, deadline=None)
@given(problems(), st.data())
def test_any_number_written_as_a_string_is_an_input_error(problem, data):
    tree = json.loads(json_dumps(problem_to_dict(problem)))
    *parents, key = data.draw(st.sampled_from(_numeric_leaves(tree)))
    node = tree
    for step in parents:
        node = node[step]
    # numeric-looking text too: "1", "1e3", "-inf", "nan" are strings all the same
    node[key] = data.draw(st.text(alphabet="0123456789.-+eEinfa x", max_size=5))
    with pytest.raises(InputError):
        problem_from_dict(tree)
