import dataclasses
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphfix.errors import DomainError, InputError
from graphfix.metric import (
    ClosedSet,
    EdgeStructure,
    FiniteMetricSpace,
    Gauge,
    edges_from_dict,
    gauge_from_dict,
    space_from_dict,
    validate_pair,
)

from set_distances import hausdorff_distance, point_to_set_distance

TOL = 1e-12


def ternary_space(depth=6):
    labels = ["0", "1"] + [f"1/{3**n}" for n in range(1, depth + 1)]
    values = [0.0, 1.0] + [3.0**-n for n in range(1, depth + 1)]
    return FiniteMetricSpace.from_coords(labels, values)


# --- point_to_set_distance ------------------------------------------------

def test_point_to_set_membership_gives_zero():
    space = ternary_space()
    assert point_to_set_distance("1/3", ["1/3", "1/27"], space) == 0.0


def test_point_to_set_ternary_value():
    # D(1/27, {1/3, 1/81}) = 1/27 - 1/81 = 2/81
    space = ternary_space()
    d = point_to_set_distance("1/27", ["1/3", "1/81"], space)
    assert abs(d - 2.0 / 81.0) < TOL


def test_point_to_set_bruteforce_min():
    space = FiniteMetricSpace.from_coords(["0", "0.5", "1"], [0.0, 0.5, 1.0])
    # independent oracle: explicit min over both members
    expected = min(abs(0.5 - 0.0), abs(0.5 - 1.0))
    assert point_to_set_distance("0.5", ["0", "1"], space) == expected


def test_point_to_set_errors():
    space = ternary_space()
    with pytest.raises(DomainError):
        point_to_set_distance("0", [], space)
    with pytest.raises(InputError):
        point_to_set_distance("nope", ["0"], space)


# --- hausdorff_distance ----------------------------------------------------

def test_hausdorff_ternary_pair():
    space = ternary_space()
    h = hausdorff_distance(["0", "1/3"], ["0"], space)
    assert abs(h - 1.0 / 3.0) < TOL


def test_hausdorff_identity_and_singletons():
    space = ternary_space()
    assert hausdorff_distance(["0", "1/9"], ["0", "1/9"], space) == 0.0
    assert hausdorff_distance(["0"], ["1"], space) == 1.0


def _oracle_hausdorff(y_idx, z_idx, matrix):
    """Independent double-loop implementation over raw indices."""
    sup_fwd = 0.0
    for i in y_idx:
        best = min(matrix[i][j] for j in z_idx)
        sup_fwd = max(sup_fwd, best)
    sup_bwd = 0.0
    for j in z_idx:
        best = min(matrix[j][i] for i in y_idx)
        sup_bwd = max(sup_bwd, best)
    return max(sup_fwd, sup_bwd)


@st.composite
def space_and_subsets(draw, n_subsets=2):
    coords = draw(
        st.lists(st.integers(-200, 200), min_size=2, max_size=10, unique=True)
    )
    labels = [f"s{i}" for i in range(len(coords))]
    space = FiniteMetricSpace.from_coords(labels, [c / 7.0 for c in coords])
    subsets = []
    for _ in range(n_subsets):
        idx = draw(
            st.lists(
                st.integers(0, len(labels) - 1), min_size=1, max_size=len(labels),
                unique=True,
            )
        )
        subsets.append([labels[i] for i in idx])
    return space, subsets


@settings(max_examples=100, deadline=None)
@given(space_and_subsets(n_subsets=2))
def test_hausdorff_matches_double_loop_oracle(data):
    space, (y, z) = data
    y_idx = [space.index(s) for s in y]
    z_idx = [space.index(s) for s in z]
    expected = _oracle_hausdorff(y_idx, z_idx, space.matrix)
    assert hausdorff_distance(y, z, space) == expected


@settings(max_examples=100, deadline=None)
@given(space_and_subsets(n_subsets=3))
def test_hausdorff_metric_axioms(data):
    space, (y, z, x) = data
    hyz = hausdorff_distance(y, z, space)
    assert hyz == hausdorff_distance(z, y, space)  # symmetry, exactly
    assert hyz <= (
        hausdorff_distance(y, x, space) + hausdorff_distance(x, z, space) + 1e-12
    )
    assert (hyz == 0.0) == (set(y) == set(z))  # identity of indiscernibles


@settings(max_examples=100, deadline=None)
@given(space_and_subsets(n_subsets=2))
def test_point_to_set_dominated_by_hausdorff(data):
    space, (y, z) = data
    h = hausdorff_distance(y, z, space)
    for u in y:
        assert point_to_set_distance(u, z, space) <= h + 1e-15


# --- edges -------------------------------------------------------------------

def test_edges_reflexive_always():
    space = ternary_space()
    ball = EdgeStructure.ball(space, 1e-9)
    pairs = EdgeStructure.from_pairs(space, [("0", "1")])
    for s in space.labels:
        assert ball.contains(s, s)
        assert pairs.contains(s, s)


def test_ball_edges_strict_radius():
    space = ternary_space()
    edges = EdgeStructure.ball(space, 1.0 / 9.0)
    assert edges.contains("1/9", "1/27")   # d = 2/27 < 1/9
    assert not edges.contains("0", "1")    # d = 1 >= 1/9
    assert not edges.contains("0", "1/3")  # d = 1/3 >= 1/9


def test_edges_unknown_label():
    space = ternary_space()
    edges = EdgeStructure.ball(space, 0.5)
    with pytest.raises(InputError):
        edges.contains("0", "missing")


@settings(max_examples=50, deadline=None)
@given(space_and_subsets(n_subsets=1), st.floats(0.01, 10.0))
def test_ball_reflexivity_property(data, radius):
    space, _ = data
    edges = EdgeStructure.ball(space, radius)
    assert all(edges.contains(s, s) for s in space.labels)


# --- gauges -----------------------------------------------------------------

def test_constant_gauge_everywhere():
    k = Gauge.constant(1.0 / 3.0)
    assert k(0.04) == 1.0 / 3.0
    assert k(0.0) == 1.0 / 3.0
    assert k(1e9) == 1.0 / 3.0


def test_zero_gauge():
    k = Gauge.constant(0.0)
    assert k(123.0) == 0.0


def test_piecewise_gauge_left_closed():
    k = Gauge.piecewise([0.0, 1.0], [0.2, 0.5], sup=0.5)
    assert k(0.0) == 0.2
    assert k(0.999) == 0.2
    assert k(1.0) == 0.5  # breakpoint belongs to the right interval
    assert k(5.0) == 0.5


def test_gauge_negative_argument():
    with pytest.raises(InputError):
        Gauge.constant(0.3)(-0.1)


def test_gauge_validation():
    with pytest.raises(InputError):
        Gauge.constant(1.0)
    with pytest.raises(InputError):
        Gauge.constant(0.5, sup=0.4)  # sup must dominate
    with pytest.raises(InputError):
        Gauge.piecewise([0.5, 1.0], [0.1, 0.2], sup=0.3)  # must start at 0
    with pytest.raises(InputError):
        Gauge.piecewise([0.0, 0.0], [0.1, 0.2], sup=0.3)  # ascending


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(0.0, 0.99), min_size=1, max_size=5),
    st.floats(0.0, 1e6),
)
def test_gauge_never_reaches_one(values, t):
    sup = max(values)
    if sup >= 1.0:
        return
    bps = [float(i) for i in range(len(values))]
    k = Gauge.piecewise(bps, values, sup=sup)
    v = k(t)
    assert 0.0 <= v < 1.0
    assert v <= k.certified_sup


# --- space validation and file loading ---------------------------------------

def test_space_rejects_bad_matrices():
    with pytest.raises(InputError):
        FiniteMetricSpace.from_matrix(["a", "a"], [[0, 1], [1, 0]])
    with pytest.raises(InputError):
        FiniteMetricSpace.from_matrix(["a", "b"], [[0, 1], [2, 0]])  # asymmetric
    with pytest.raises(InputError):
        FiniteMetricSpace.from_matrix(["a", "b"], [[0, -1], [-1, 0]])
    with pytest.raises(InputError):
        FiniteMetricSpace.from_matrix(["a", "b"], [[1, 1], [1, 0]])  # diag
    with pytest.raises(InputError):
        # triangle: d(a,c) = 5 > 1 + 1
        FiniteMetricSpace.from_matrix(
            ["a", "b", "c"], [[0, 1, 5], [1, 0, 1], [5, 1, 0]]
        )


@pytest.mark.parametrize("bad", ["1", "x", None, [1.0]])
def test_a_coordinate_or_distance_that_is_no_number_is_refused(bad):
    with pytest.raises(InputError, match="number"):
        FiniteMetricSpace.from_coords(["a", "b"], [[0.0], [bad]])
    with pytest.raises(InputError, match="number"):
        FiniteMetricSpace.from_matrix(["a", "b"], [[0.0, bad], [bad, 0.0]])


def test_integer_coordinates_beyond_64_bits_build():
    space = FiniteMetricSpace.from_coords(["a", "b"], [[0], [2**70]])
    assert space.distance("a", "b") == 2.0**70


@pytest.mark.parametrize("scale", [1e9, 1e12, 1e15])
@pytest.mark.parametrize("norm", ["euclidean", "manhattan"])
@pytest.mark.parametrize("dim", [1, 3])
def test_large_collinear_coordinates_build(scale, norm, dim):
    # the norm guarantees the triangle inequality; at these magnitudes the
    # rounding of the distances exceeds any absolute slack of 1e-9
    rng = np.random.default_rng(80)
    t = rng.uniform(-1.0, 1.0, 80) * scale
    direction = np.array([1.0, -2.0, 0.5])[:dim]
    labels = [f"x{i}" for i in range(80)]
    space = FiniteMetricSpace.from_coords(labels, t[:, None] * direction, norm=norm)
    assert len(space) == 80
    # the same distances as an explicit matrix pass the relative slack
    assert np.array_equal(FiniteMetricSpace.from_matrix(labels, space.matrix).matrix,
                          space.matrix)


def test_triangle_violation_beyond_relative_slack_is_refused():
    rng = np.random.default_rng(80)
    t = rng.uniform(-1.0, 1.0, 80) * 1e12
    labels = [f"x{i}" for i in range(80)]
    m = np.abs(t[:, None] - t[None, :])
    FiniteMetricSpace.from_matrix(labels, m)
    # stretch the pair of extreme points past the points between them
    i, j = int(np.argmin(t)), int(np.argmax(t))
    m[i, j] = m[j, i] = m[i, j] * (1 + 1e-7)
    with pytest.raises(InputError, match="triangle inequality fails"):
        FiniteMetricSpace.from_matrix(labels, m)


def test_coordinate_spaces_keep_the_other_checks():
    with pytest.raises(InputError, match="distinct"):
        FiniteMetricSpace.from_coords(["a", "a"], [0.0, 1.0])
    with pytest.raises(InputError, match="finite"):
        FiniteMetricSpace.from_coords(["a", "b"], [0.0, float("nan")])


def test_space_from_dict_variants():
    space = space_from_dict(
        {"points": [{"label": "a", "coord": [0.0]}, {"label": "b", "coord": [2.0]}]}
    )
    assert space.distance("a", "b") == 2.0
    space2 = space_from_dict(
        {"points": [{"label": "a"}, {"label": "b"}], "distances": [[0, 3], [3, 0]]}
    )
    assert space2.distance("a", "b") == 3.0
    with pytest.raises(InputError):
        space_from_dict({"points": [{"label": "a"}]})  # neither coords nor matrix
    with pytest.raises(InputError):
        space_from_dict(
            {
                "points": [{"label": "a", "coord": [0.0]}],
                "distances": [[0.0]],
            }
        )


def test_edges_and_gauge_from_dict():
    space = FiniteMetricSpace.from_coords(["a", "b"], [0.0, 1.0])
    ball = edges_from_dict({"mode": "ball", "radius": 2.0}, space)
    assert ball.contains("a", "b")
    lst = edges_from_dict({"mode": "list", "pairs": [["a", "b"]]}, space)
    assert lst.contains("a", "b") and not lst.contains("b", "a")
    with pytest.raises(InputError, match="'zz'"):
        edges_from_dict({"mode": "list", "pairs": [["a", "zz"]]}, space)
    for bad in ([["a"]], [["a", "b", "a"]], [3], [[["a"], "b"]]):
        with pytest.raises(InputError, match="pairs of point labels"):
            edges_from_dict({"mode": "list", "pairs": bad}, space)
    k = gauge_from_dict({"form": "constant", "value": 0.25, "sup": 0.3})
    assert k(1.0) == 0.25 and k.certified_sup == 0.3
    with pytest.raises(InputError):
        gauge_from_dict({"form": "constant", "value": 1.2, "sup": 1.2})


def test_list_edges_round_trip_through_problem_dict():
    from graphfix.problems import problem_from_dict, problem_to_dict, ternary_orbit_problem

    p = ternary_orbit_problem(6)
    labels = p.space.labels
    rng = random.Random(5)
    pairs = [(u, v) for u in labels for v in labels if rng.random() < 0.3]
    pairs.append((p.f[p.w0], p.p0))
    edges = EdgeStructure.from_pairs(p.space, pairs)
    problem = dataclasses.replace(p, edges=edges)
    data = problem_to_dict(problem)
    expected = sorted({(u, v) for u, v in pairs} | {(s, s) for s in labels})
    assert data["edges"] == {"mode": "list", "pairs": [list(e) for e in expected]}
    back = problem_from_dict(json.loads(json.dumps(data)))
    assert back.edges.mode == "list"
    for u in labels:
        for v in labels:
            assert back.edges.contains(u, v) == edges.contains(u, v)
            assert edges.contains(u, v) == (u == v or (u, v) in pairs)



def test_coordinate_space_round_trips_through_problem_dict_bit_identically():
    # the file keeps the coordinates and the norm, so the space reloads as
    # a coordinate space, without the O(n^3) explicit-matrix check
    from graphfix.engine import CoincidenceProblem
    from graphfix.problems import problem_from_dict, problem_to_dict
    from graphfix.serialize import json_dumps

    labels = [f"p{i}" for i in range(80)]
    coords = 1e12 * np.random.default_rng(7).random(80)
    space = FiniteMetricSpace.from_coords(labels, coords, norm="chebyshev")
    problem = CoincidenceProblem(
        space=space,
        f={s: s for s in labels},
        F={s: ClosedSet.finite([s]) for s in labels},
        edges=EdgeStructure.ball(space, 1.0),
        gauge=Gauge.constant(0.5),
        w0="p0",
        p0="p0",
    )
    data = json.loads(json_dumps(problem_to_dict(problem)))
    assert "distances" not in data and data["norm"] == "chebyshev"
    back = problem_from_dict(data)
    assert back.space.norm == "chebyshev"
    assert back.space.matrix.tobytes() == space.matrix.tobytes()
    assert back.space.coords.tobytes() == space.coords.tobytes()
    with pytest.raises(ValueError):
        space.coords[0, 0] = 0.0

def test_edge_adjacency_is_built_once_and_read_only():
    space = ternary_space()
    ball = EdgeStructure.ball(space, 1.0 / 9.0)
    assert np.array_equal(ball.adjacency, (space.matrix < 1.0 / 9.0) | np.eye(len(space), dtype=bool))
    with pytest.raises(ValueError):
        ball.adjacency[0, 1] = True
    zero = EdgeStructure.ball(space, 0.0)  # no pair is closer than 0: diagonal only
    assert np.array_equal(zero.adjacency, np.eye(len(space), dtype=bool))


def test_validated_pair_index_form_is_read_only():
    space = FiniteMetricSpace.from_coords(["a", "b", "c", "d"], [0.0, 1.0, 2.0, 3.0])
    f = {"a": "b", "b": "b", "c": "a", "d": "a"}
    F = {"a": ["b", "a"], "b": ["c"], "c": ["a", "b", "a"], "d": ClosedSet.finite(["b"])}
    pair = validate_pair(space, f, F)
    assert pair.space is space
    assert dict(pair.f) == f
    assert pair.F["d"] is F["d"]  # a ClosedSet is reused as it is
    assert pair.F["c"].members == ("a", "b")
    assert pair.misses == (("b", "c"),)  # c is nobody's image
    assert pair.fi.tolist() == [1, 1, 0, 0]
    assert pair.members.tolist() == [[1, 0], [2, 2], [0, 1], [1, 1]]  # padded
    assert pair.inverse.tolist() == [2, 0, -1, -1]  # lowest-index preimage
    assert pair.nearest.tolist() == [1, 2, 0, 1]  # member of F(w) nearest f(w)
    assert pair.gap.tolist() == [0.0, 1.0, 0.0, 1.0]  # D(f(w), F(w))
    assert pair.coincident.tolist() == [True, False, True, False]
    assert pair.tables == (
        [1, 1, 0, 0], [2, 0, -1, -1], [1, 2, 0, 1], [0.0, 1.0, 0.0, 1.0],
        [True, False, True, False],
    )
    for arr in (pair.fi, pair.members, pair.inverse, pair.nearest, pair.gap,
                pair.coincident):
        with pytest.raises(ValueError):
            arr[0] = 0
    with pytest.raises(TypeError):
        pair.f["a"] = "a"
    with pytest.raises(TypeError):
        pair.F["a"] = ClosedSet.finite(["a"])
    with pytest.raises(dataclasses.FrozenInstanceError):
        pair.fi = None
    with pytest.raises(InputError):
        validate_pair(space, {**f, "a": "z"}, F)


def test_closed_set_dedups_and_rejects_empty():
    fin = ClosedSet.finite(["a", "b", "a"])
    assert fin.members == ("a", "b")  # duplicates collapse
    with pytest.raises(DomainError):
        ClosedSet.finite([])
