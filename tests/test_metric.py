import dataclasses
import json
import random
import re
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphfix import metric
from graphfix.errors import DomainError, InputError, brief
from graphfix.metric import (
    EPS,
    ClosedSet,
    EdgeStructure,
    FiniteMetricSpace,
    Gauge,
    _check_triangle,
    _real_array,
    validate_pair,
)
from graphfix.problems import (
    edges_from_dict,
    gauge_from_dict,
    problem_from_dict,
    problem_to_dict,
    space_from_dict,
    ternary_orbit_problem,
)

from set_distances import hausdorff_distance, point_to_set_distance

TOL = 1e-12
_PAIRS_MESSAGE = "edges must be [u, v] pairs of point labels"


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


_SMALLEST_NORMAL = 2.2250738585072014e-308


@pytest.mark.parametrize("labels, matrix, error", [
    (["a", "b"], [[0.0, 0.0], [0.0, 0.0]],
     "d(a,b) = 0.0: distinct points must be at a positive distance"),
    (["a", "b", "c"], [[0, 1, 1], [1, 0, 0], [1, 0, 0]],
     "d(b,c) = 0.0: distinct points must be at a positive distance"),
    (["a", "b", "c"], [[0, 1, 1], [1, 0, 1e-310], [1, 1e-310, 0]],
     "d(b,c) = 1e-310: below the smallest normal double "
     "2.2250738585072014e-308"),
    (["a", "b"], [[0, 5e-324], [5e-324, 0]],
     "d(a,b) = 5e-324: below the smallest normal double "
     "2.2250738585072014e-308"),
], ids=["twin", "zero", "subnormal", "smallest-subnormal"])
def test_a_distance_of_zero_or_below_the_smallest_normal_double_is_refused(
    labels, matrix, error
):
    # a metric separates its points, and a subnormal distance leaves
    # within no relative slack
    with pytest.raises(InputError) as exc:
        FiniteMetricSpace.from_matrix(labels, matrix)
    assert str(exc.value) == error


def test_coordinates_at_a_distance_of_zero_or_below_the_smallest_normal_double_are_refused():
    with pytest.raises(InputError, match=r"^d\(b,c\) = 0\.0: distinct points"):
        FiniteMetricSpace.from_coords(["a", "b", "c"], [[0.0, 1.0], [2.0, 3.0], [2.0, 3.0]])
    with pytest.raises(InputError, match=r"^d\(a,c\) = 1e-310: below the smallest normal"):
        FiniteMetricSpace.from_coords(["a", "b", "c"], [0.0, 1.0, 1e-310])


def test_the_smallest_normal_distance_is_accepted():
    space = FiniteMetricSpace.from_matrix(
        ["a", "b"], [[0.0, _SMALLEST_NORMAL], [_SMALLEST_NORMAL, 0.0]]
    )
    assert space.distance("a", "b") == _SMALLEST_NORMAL
    coords = FiniteMetricSpace.from_coords(["a", "b"], [0.0, _SMALLEST_NORMAL])
    assert coords.distance("a", "b") == _SMALLEST_NORMAL
    assert len(FiniteMetricSpace.from_matrix(["a"], [[0.0]])) == 1


@pytest.mark.parametrize("bad", ["1", "x", None, [1.0], True, False])
def test_a_coordinate_or_distance_that_is_no_number_is_refused(bad):
    with pytest.raises(InputError, match="number"):
        FiniteMetricSpace.from_coords(["a", "b"], [[0.0], [bad]])
    with pytest.raises(InputError, match="number"):
        FiniteMetricSpace.from_matrix(["a", "b"], [[0.0, bad], [bad, 0.0]])


def test_integer_coordinates_beyond_64_bits_build():
    space = FiniteMetricSpace.from_coords(["a", "b"], [[0], [2**70]])
    assert space.distance("a", "b") == 2.0**70


def test_a_number_too_large_for_a_float_is_refused():
    with pytest.raises(InputError, match="gauge value is too large for a float"):
        Gauge.constant(10**400)
    with pytest.raises(InputError, match="coordinates is too large for a float"):
        FiniteMetricSpace.from_coords(["a", "b"], [[0], [10**400]])


def _rows_ending_in(last):
    """A 100 x 100 nested list of numbers whose very last entry is ``last``:
    a type scan that stops early misses it."""
    rows = [[float(i + j) for j in range(100)] for i in range(100)]
    rows[-1][-1] = last
    return rows


@pytest.mark.parametrize(
    "last", [True, np.bool_(True), "1.5", 10**400, None],
    ids=["bool", "numpy-bool", "text", "too-large", "null"],
)
def test_an_entry_that_is_no_number_is_refused_wherever_it_lies(last):
    message = ("distances is too large for a float" if type(last) is int
               else f"distances must be a number, got {brief(last)}")
    # the entry last, in a last row that is a tuple, and in the first row
    tupled = _rows_ending_in(last)
    tupled[-1] = tuple(tupled[-1])
    early = _rows_ending_in(1.0)
    early[0][1] = last
    for rows in (_rows_ending_in(last), tupled, early):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            _real_array(rows, "distances")


def test_a_row_nested_deeper_or_ragged_is_refused():
    deeper = _rows_ending_in(1.0)
    deeper[-1][-1] = [1.0]
    ragged = _rows_ending_in(1.0)
    del ragged[-1][-1]
    ragged_first = _rows_ending_in(1.0)
    del ragged_first[0][-1]
    deeper_tuple = _rows_ending_in(1.0)
    deeper_tuple[0] = tuple(deeper_tuple[0][:-1]) + ([1.0],)
    for rows in (deeper, ragged, ragged_first, deeper_tuple):
        with pytest.raises(InputError, match="^distances must be a rectangular array of numbers$"):
            _real_array(rows, "distances")
    with pytest.raises(InputError, match=r"^distance matrix must be 1x1, got \(1, 0\)$"):
        FiniteMetricSpace.from_matrix(["a"], [[]])


def test_rows_of_lists_read_as_any_other_rows():
    # a tuple of rows takes the general read, the reference for a list of lists
    big = _rows_ending_in(2**70)
    big[3][4] = np.int64(-5)
    big[7][1] = 2**63 + 1
    for rows in ([[0, 1], [1, 0]], [[0.5], [2]], [[]], [[0.0]], _rows_ending_in(1.0), big):
        read = _real_array(rows, "distances")
        assert read.flags.owndata
        assert read.dtype == float and read.shape == np.shape(rows)
        assert read.tobytes() == _real_array(tuple(rows), "distances").tobytes()


def test_a_buffer_reads_as_the_array_of_its_format():
    # a 2-D memoryview has no rows to walk; its format gives the entries' type
    coords = FiniteMetricSpace.from_coords("abc", memoryview(np.array([[0.0], [1.0], [3.0]])))
    assert coords.distance("a", "c") == 3.0
    with pytest.raises(InputError, match="rectangular array of numbers"):
        FiniteMetricSpace.from_matrix("ab", memoryview(np.eye(2, dtype=bool)))


def test_an_integer_beyond_64_bits_is_read_wherever_it_lies():
    arr = _real_array(_rows_ending_in(2**70), "distances")
    assert arr[-1, -1] == 2.0**70 and arr[0, 1] == 1.0 and arr.dtype == float


def test_coordinate_distances_neither_underflow_nor_overflow():
    # squaring 1e200 overflows and squaring 2^-600 underflows
    assert FiniteMetricSpace.from_coords(["a", "b"], [0.0, 1e200]).distance("a", "b") == 1e200
    tiny = FiniteMetricSpace.from_coords(["a", "b", "c"], [0.0, 2.0**-600, 2.0**-599])
    assert tiny.matrix.tolist() == [[0.0, 2.0**-600, 2.0**-599],
                                    [2.0**-600, 0.0, 2.0**-600],
                                    [2.0**-599, 2.0**-600, 0.0]]
    for c in (2.0**-600, 1e200):
        plane = FiniteMetricSpace.from_coords(["o", "p"], [[0.0, 0.0], [3.0 * c, 4.0 * c]])
        assert plane.distance("o", "p") == 5.0 * c


def test_ternary_orbit_file_distances_are_exact_differences():
    # coordinates 3^-n down to n = 498: the squares of most differences underflow
    problem = problem_from_dict(problem_to_dict(ternary_orbit_problem(498)))
    x = problem.space.coords[:, 0]
    m = problem.space.matrix
    assert np.array_equal(m, np.abs(x[:, None] - x[None, :]))
    assert np.count_nonzero(m) == len(m) * (len(m) - 1)


@pytest.mark.parametrize("norm", ["euclidean", "manhattan", "chebyshev"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_coordinate_distances_keep_the_bits_of_numpy_norm(norm, dim):
    # wherever no square underflows or overflows
    rng = np.random.default_rng(dim)
    pts = rng.normal(size=(60, dim)) * 10.0 ** rng.integers(-100, 100, size=(60, 1))
    labels = [f"x{i}" for i in range(60)]
    space = FiniteMetricSpace.from_coords(labels, pts, norm=norm)
    order = {"euclidean": 2, "manhattan": 1, "chebyshev": np.inf}[norm]
    want = np.linalg.norm(pts[:, None, :] - pts[None, :, :], ord=order, axis=2)
    assert np.array_equal(space.matrix, want)


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


def _reference_check_triangle(labels, m):
    """The per-k scan over the whole matrix that the blocked check replaced:
    the oracle for its verdict and its message."""
    grown = m * (1.0 + EPS)
    bound = np.empty_like(m)
    over = np.empty(m.shape, dtype=bool)
    for k in range(len(labels)):
        np.add(grown[:, k : k + 1], grown[k : k + 1, :], out=bound)
        if np.greater(m, bound, out=over).any():
            i, j = np.unravel_index(np.argmax(m - bound), m.shape)
            raise InputError(
                f"triangle inequality fails: d({labels[i]},{labels[j]}) > "
                f"d({labels[i]},{labels[k]}) + d({labels[k]},{labels[j]})"
            )


def _triangle_verdict(check, m):
    """None if ``check`` accepts ``m``, else the text of its InputError."""
    labels = tuple(f"p{i}" for i in range(len(m)))
    try:
        check(labels, m)
    except InputError as exc:
        return str(exc)
    return None


def _assert_triangle_check_matches_reference(m):
    assert np.array_equal(m, m.T)
    expected = _triangle_verdict(_reference_check_triangle, m)
    assert _triangle_verdict(_check_triangle, m) == expected
    return expected


# sizes around the row block of 32, and at several blocks
_TRIANGLE_SIZES = [1, 2, 3, 31, 32, 33, 65, 129, 200]


def _with_workers(count, check, *args):
    """``check(*args)`` with the triangle scan split among ``count`` threads."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metric, "_triangle_workers", lambda n: count)
        return check(*args)


@st.composite
def triangle_matrices(draw):
    """Symmetric distance matrices with a zero diagonal: random metrics
    (shortest paths over integer weights), collinear ladders scaled by a
    power of two, geometric ladders shaped like the benchmark's (whose
    chunk bounds prune most detours), the discrete metric (which leaves
    only the diagonal blocks to scan), and norm distances of random points
    (which leave nothing to prune); then up to three pairs stretched or
    shrunk, some by less than the relative slack, and the points perhaps
    relabeled at random."""
    n = draw(st.sampled_from(_TRIANGLE_SIZES))
    kind = draw(st.sampled_from(["paths", "ladder", "geometric", "discrete", "coords"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "paths":
        m = rng.integers(1, 20, (n, n)).astype(float)
        m = np.minimum(m, m.T)
        np.fill_diagonal(m, 0.0)
        for k in range(n):
            np.minimum(m, m[:, k : k + 1] + m[k : k + 1, :], out=m)
    elif kind == "ladder":
        t = np.cumsum(rng.integers(1, 4, n)) * 2.0 ** draw(st.integers(-40, 40))
        m = np.abs(t[:, None] - t[None, :])
    elif kind == "geometric":
        # rungs at scale * r^i and a last point at 0, as perfbench's ladder_dict
        r, scale = rng.uniform(0.25, 0.28), 10.0 ** rng.uniform(-1.0, 1.0)
        t = scale * r ** np.arange(n)
        t[-1] = 0.0
        m = np.abs(t[:, None] - t[None, :])
    elif kind == "discrete":
        m = 1.0 - np.eye(n)
    else:
        pts = rng.normal(size=(n, draw(st.integers(1, 3))))
        order = draw(st.sampled_from([1, 2, np.inf]))
        m = np.linalg.norm(pts[:, None, :] - pts[None, :, :], ord=order, axis=2)
    if n > 1:
        for _ in range(draw(st.integers(0, 3))):
            i = draw(st.integers(0, n - 1))
            j = draw(st.integers(0, n - 1).filter(lambda j: j != i))
            factor = draw(st.sampled_from([1 + 1e-10, 1 + 1e-7, 1.5, 0.5, 0.0]))
            m[i, j] = m[j, i] = m[i, j] * factor
    if draw(st.booleans()):
        order = rng.permutation(n)
        m = m[np.ix_(order, order)]
    return m


@settings(max_examples=150, deadline=None)
@given(triangle_matrices())
def test_triangle_check_matches_per_k_reference(m):
    _with_workers(1, _assert_triangle_check_matches_reference, m)


@settings(max_examples=150, deadline=None)
@given(triangle_matrices())
def test_triangle_check_on_three_threads_matches_per_k_reference(m):
    # three threads where there are three blocks (65 points), fewer below
    _with_workers(3, _assert_triangle_check_matches_reference, m)


def _ladder_with_detours(n, detours):
    """Distances of n points on a line, where each (i, k, j) of ``detours``
    puts k alone between i and j, far from the rest, and d(i, j) is then
    stretched so that k, and only k, breaks the triangle inequality for it."""
    t = 100.0 + np.arange(n, dtype=float)
    for s, (i, k, j) in enumerate(detours):
        t[[i, k, j]] = 4.0 * s + np.array([0.0, 1.0, 2.0])
    m = np.abs(t[:, None] - t[None, :])
    for i, k, j in detours:
        m[i, j] = m[j, i] = 2.5
    return m


_DETOUR_CASES = [
    # i, k and j each in a different block of rows
    (200, [(10, 70, 130)], (10, 70, 130)),
    (200, [(150, 3, 90)], (90, 3, 150)),
    # the block scan meets the violation of rows 5 and 60 first, but the
    # first k with a violation is 7, through which rows 100 and 170 break it
    (200, [(5, 180, 60), (100, 7, 170)], (100, 7, 170)),
    # one pair in the first block, one in the second
    (65, [(1, 2, 3), (60, 61, 62)], (1, 2, 3)),
    # both pairs inside the first block
    (65, [(1, 2, 3), (20, 21, 22)], (1, 2, 3)),
    # with three threads, the second one's first block holds the only violation
    (200, [(40, 41, 42)], (40, 41, 42)),
    # the only violation runs through the last block but one
    (1000, [(10, 990, 500)], (10, 990, 500)),
]


def _assert_names_the_first_k(workers, n, detours, named):
    i, k, j = named
    m = _ladder_with_detours(n, detours)
    message = _with_workers(workers, _assert_triangle_check_matches_reference, m)
    assert message == f"triangle inequality fails: d(p{i},p{j}) > d(p{i},p{k}) + d(p{k},p{j})"


@pytest.mark.parametrize("n, detours, named", _DETOUR_CASES)
def test_triangle_check_names_the_first_k_and_its_worst_pair(n, detours, named):
    _assert_names_the_first_k(1, n, detours, named)


@pytest.mark.parametrize("n, detours, named", _DETOUR_CASES)
def test_triangle_check_on_three_threads_names_the_first_k(n, detours, named):
    # the threads switch every microsecond, so a verdict one of them lost
    # or left behind would show
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _assert_names_the_first_k(3, n, detours, named)
    finally:
        sys.setswitchinterval(interval)


def _tight_detour(stretch):
    """96 points on a line, in three blocks of 32, where the chunk bound of
    the first block is tight for the pair of the other two: p0 sits at 1
    and the rest of its block far right, p32 at 0 and the rest of its
    block far left, p64 at 2 and the rest of its block near -1, closer to
    p32 than p64 is.  d(p32, p64) = 2 is then stretched by ``stretch``, so
    that p0, the only point between them, may break the inequality."""
    x = np.concatenate([50.0 + 0.01 * np.arange(32), -10.0 - 0.01 * np.arange(32),
                        -1.0 + 0.001 * np.arange(32)])
    x[[0, 32, 64]] = [1.0, 0.0, 2.0]
    m = np.abs(x[:, None] - x[None, :])
    m[32, 64] = m[64, 32] = 2.0 * stretch
    return m


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("stretch, refused",
                         [(1.25, True), (1 + 100 * EPS, True), (1 + EPS / 10, False)])
def test_triangle_chunk_bounds_prune_no_violation_where_they_are_tight(workers, stretch, refused):
    # the bound of p0's chunk for (p32, p64) is (1 + 1) (1 + EPS), so it
    # keeps the chunk for any stretch beyond the slack; a bound taken from
    # the row of p64's block farthest from p0, or scaled by more than
    # 1 + EPS, would drop it, and the chunk lies outside the span of both
    # blocks
    message = _with_workers(workers, _assert_triangle_check_matches_reference,
                            _tight_detour(stretch))
    assert message == ("triangle inequality fails: d(p32,p64) > d(p32,p0) + d(p0,p64)"
                       if refused else None)


class _FaultyInWorkers(np.ndarray):
    """A matrix whose rows cannot be read outside the main thread."""

    def __getitem__(self, key):
        if threading.current_thread() is not threading.main_thread():
            raise MemoryError("no row for a worker")
        return super().__getitem__(key)


def test_an_exception_in_a_triangle_worker_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(metric, "_triangle_workers", lambda n: 3)
    m = _ladder_with_detours(200, []).view(_FaultyInWorkers)
    before = threading.active_count()
    with pytest.raises(MemoryError, match="no row for a worker"):
        _check_triangle(tuple(f"p{i}" for i in range(200)), m)
    assert threading.active_count() == before


@pytest.mark.parametrize("detours", [[], [(150, 3, 90)]])
def test_triangle_check_leaves_no_thread_behind(monkeypatch, detours):
    monkeypatch.setattr(metric, "_triangle_workers", lambda n: 3)
    m = _ladder_with_detours(200, detours)
    before = threading.active_count()
    verdict = _triangle_verdict(_check_triangle, m)
    assert (verdict is None) == (not detours)
    assert threading.active_count() == before


@pytest.mark.parametrize("size", [1e308, np.finfo(float).max])
def test_triangle_check_near_the_largest_double_warns_of_nothing(monkeypatch, size):
    # d(i, k) + d(k, j), and d (1 + EPS) itself, overflow to inf there, which
    # only loosens a bound: the verdicts stand, and no thread warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        space = FiniteMetricSpace.from_matrix(["a", "b", "c"], size * (1.0 - np.eye(3)))
        assert space.distance("a", "c") == size
        monkeypatch.setattr(metric, "_triangle_workers", lambda n: 3)
        for detours, verdict in (([], None), ([(150, 3, 90)], "d(p90,p150) > d(p90,p3)")):
            m = _ladder_with_detours(200, detours)
            m *= size / m.max()
            message = _triangle_verdict(_check_triangle, m)
            assert (message is None) if verdict is None else (verdict in message)


def test_triangle_workers_follow_the_cpus_and_the_matrix_size(monkeypatch):
    monkeypatch.setattr(metric.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    # each thread's buffers take 6 x 32 x n doubles, at most the n x n matrix
    assert [metric._triangle_workers(n) for n in (1, 191, 192, 384, 576, 1000)] == [1, 1, 1, 2, 3, 4]


def test_triangle_violation_beyond_relative_slack_is_refused():
    rng = np.random.default_rng(80)
    t = rng.uniform(-1.0, 1.0, 80) * 1e12
    labels = [f"x{i}" for i in range(80)]
    m = np.abs(t[:, None] - t[None, :])
    FiniteMetricSpace.from_matrix(labels, m)
    # stretch the pair of extreme points past the points between them: by
    # 1e-10 within the relative slack, by 1e-7 beyond it
    i, j = int(np.argmin(t)), int(np.argmax(t))
    d = m[i, j]
    m[i, j] = m[j, i] = d * (1 + 1e-10)
    FiniteMetricSpace.from_matrix(labels, m)
    assert _assert_triangle_check_matches_reference(m) is None
    m[i, j] = m[j, i] = d * (1 + 1e-7)
    with pytest.raises(InputError, match="triangle inequality fails"):
        FiniteMetricSpace.from_matrix(labels, m)
    assert _assert_triangle_check_matches_reference(m) is not None


def test_triangle_check_memory_is_below_one_and_a_half_matrices():
    # the threads' buffers fit, on any number of CPUs; three n x n arrays do
    # not, and a refused matrix is worded in one more
    n = 1000
    for detours in ([], [(10, 990, 500)]):
        m = _ladder_with_detours(n, detours)
        tracemalloc.start()
        try:
            verdict = _triangle_verdict(_check_triangle, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (verdict is None) == (not detours)
        assert peak < 1.5 * n * n * 8


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
    for bad in ([["a"]], [["a", "b", "a"]], [3], [[["a"], "b"]], ["ab"], [{"a": 1, "b": 2}],
                [["a", "b"], "ba"], [["a", {"b": 1}]]):
        with pytest.raises(InputError, match="pairs of point labels"):
            edges_from_dict({"mode": "list", "pairs": bad}, space)
    k = gauge_from_dict({"form": "constant", "value": 0.25, "sup": 0.3})
    assert k(1.0) == 0.25 and k.certified_sup == 0.3
    with pytest.raises(InputError):
        gauge_from_dict({"form": "constant", "value": 1.2, "sup": 1.2})


def test_edge_pairs_read_labels_through_str():
    space = FiniteMetricSpace.from_matrix(["0", "1", "x"], [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    numeric = EdgeStructure.from_pairs(space, [(0, 1), ["1", "x"], (1, 0)])
    text = EdgeStructure.from_pairs(space, [("0", "1"), ("1", "x"), ("1", "0")])
    assert np.array_equal(numeric.adjacency, text.adjacency)
    # pairs from any iterable, once
    assert np.array_equal(EdgeStructure.from_pairs(space, iter([("0", "1")])).adjacency,
                          EdgeStructure.from_pairs(space, [["0", "1"]]).adjacency)


def _pair_by_pair(space, pairs):
    """The reference adjacency: each pair set on its own, the diagonal too."""
    adjacency = np.eye(len(space), dtype=bool)
    for u, v in pairs:
        adjacency[space.index(str(u)), space.index(str(v))] = True
    return adjacency


def test_edge_pairs_beyond_the_first_chunk_read_as_the_first():
    labels = [str(i) for i in range(100)]
    space = FiniteMetricSpace.from_coords(labels, [float(i) for i in range(100)])
    rng = random.Random(7)
    chunk = metric._PAIR_CHUNK
    pairs = [[rng.choice(labels), rng.choice(labels)] for _ in range(2 * chunk + 500)]
    pairs += [tuple(p) for p in pairs[: chunk // 2]]  # repeats, as tuples
    rng.shuffle(pairs)
    edges = EdgeStructure.from_pairs(space, pairs)
    assert np.array_equal(edges.adjacency, _pair_by_pair(space, pairs))
    # a number past the first chunk is read through str()
    at = chunk + 3
    numeric = EdgeStructure.from_pairs(space, pairs[:at] + [(7, 93)] + pairs[at:])
    assert np.array_equal(numeric.adjacency, _pair_by_pair(space, pairs + [("7", "93")]))
    # each bad pair past the first chunk gives its own error; an entry that
    # is no pair decides first, even after a label that misses
    unknown = "unknown point label 'zz'"
    for bad, message in (("ab", _PAIRS_MESSAGE), (["1", "2", "3"], _PAIRS_MESSAGE),
                         (["1", "zz"], unknown)):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            EdgeStructure.from_pairs(space, pairs[:at] + [bad] + pairs[at:])
    for early in (["zz", "1"], [5, "zz"]):
        late = pairs[:at] + [early] + pairs[at:] + ["ab"]
        with pytest.raises(InputError, match=f"^{re.escape(_PAIRS_MESSAGE)}$"):
            EdgeStructure.from_pairs(space, late)


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
    assert pair.tables == (
        [1, 1, 0, 0], [2, 0, -1, -1], [1, 2, 0, 1], [0.0, 1.0, 0.0, 1.0],
    )
    for arr in (pair.fi, pair.members, pair.inverse, pair.nearest, pair.gap):
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


def test_validate_pair_refuses_a_map_defined_at_no_point_label():
    space = FiniteMetricSpace.from_coords(["a", "b"], [0.0, 1.0])
    f, F = {"a": "a", "b": "b"}, {"a": ["a"], "b": ["b"]}
    for name, args in (("f", ({**f, "ghost": "a"}, F)), ("F", (f, {**F, "ghost": ["a"]}))):
        with pytest.raises(InputError, match=f"{name} is defined at 'ghost', which is no point label"):
            validate_pair(space, *args)


def test_validate_pair_returns_the_pair_it_made_for_its_own_maps():
    space = FiniteMetricSpace.from_coords(["a", "b", "c"], [0.0, 1.0, 3.0])
    f = {"a": "b", "b": "c", "c": "c"}
    F = {"a": ["c"], "b": ["c", "b"], "c": ["c"]}
    pair = validate_pair(space, f, F)
    assert validate_pair(space, pair.f, pair.F) is pair
    # the caller's maps, copies of the pair's own, or another space with the
    # same labels and distances are validated anew
    twin = FiniteMetricSpace.from_matrix(space.labels, space.matrix)
    for args in ((space, f, F), (space, dict(pair.f), pair.F),
                 (space, pair.f, dict(pair.F)), (twin, pair.f, pair.F)):
        other = validate_pair(*args)
        assert other is not pair
        assert other.fi.tolist() == pair.fi.tolist()
        assert other.members.tolist() == pair.members.tolist()
    assert validate_pair(twin, pair.f, pair.F).space is twin
    # a problem hands its own maps on, so its verifiers reuse its pair
    problem = ternary_orbit_problem(6)
    assert validate_pair(problem.space, problem.f, problem.F) is problem.pair


def test_validate_pair_forgets_a_pair_that_nothing_holds():
    import gc

    space = FiniteMetricSpace.from_coords(["a", "b"], [0.0, 1.0])
    pair = validate_pair(space, {"a": "a", "b": "b"}, {"a": ["a"], "b": ["a"]})
    key = (id(space), id(pair.f), id(pair.F))
    assert metric._PAIRS[key] is pair
    alive = len(metric._PAIRS)
    del pair
    gc.collect()
    assert key not in metric._PAIRS
    assert len(metric._PAIRS) == alive - 1


def test_validate_pair_under_racing_threads():
    # 6 threads on 2 cores, switching often: hits on a problem's pair race
    # with misses that store and drop pairs of fresh maps; a hit must return
    # that very pair, and a miss a pair equal to a lone check's
    p = ternary_orbit_problem(40)
    f, F = dict(p.f), {w: list(Z.members) for w, Z in p.F.items()}
    want = validate_pair(p.space, f, F)
    hits, misses = [], []

    def work():
        for _ in range(30):
            hits.append(validate_pair(p.space, p.f, p.F))
            fresh = validate_pair(p.space, dict(f), F)
            misses.append(fresh)
            hits.append(validate_pair(p.space, fresh.f, fresh.F) is fresh)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(hits) == 360 and len(misses) == 180
    assert all(x is p.pair or x is True for x in hits)
    assert len({id(x) for x in misses}) == 180
    for x in misses:
        assert x.f == want.f and x.F == want.F and x.misses == want.misses
        for name in ("fi", "members", "inverse", "nearest", "gap"):
            assert getattr(x, name).tobytes() == getattr(want, name).tobytes()


def test_space_matrix_is_read_only_and_a_copy_of_the_callers_array():
    m = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], float)
    s = FiniteMetricSpace.from_matrix("abc", m)
    assert s.matrix is not m
    m[0, 2] = m[2, 0] = 50.0  # would break the triangle inequality of s
    assert s.matrix.tolist() == [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    with pytest.raises(ValueError):
        s.matrix[0, 1] = 7.0
    # views of the caller's memory are copied as well; a buffer reads as an array
    base = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], float)
    for given in (base, base[:, :], base.T, memoryview(base)):
        space = FiniteMetricSpace.from_matrix("abc", given)
        assert not np.shares_memory(space.matrix, base)
        assert not space.matrix.flags.writeable
    base[0, 1] = base[1, 0] = 1.5
    assert space.distance("a", "b") == 1.0


def test_space_matrix_of_a_list_or_of_coordinates_is_not_copied(monkeypatch):
    made = []

    def recording(function):
        def wrapped(*args):
            made.append(function(*args))
            return made[-1]
        return wrapped

    monkeypatch.setattr(metric, "_real_array", recording(metric._real_array))
    listed = FiniteMetricSpace.from_matrix("abc", [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    assert listed.matrix is made[-1]
    monkeypatch.setattr(metric, "_norms", recording(metric._norms))
    coords = FiniteMetricSpace.from_coords("abc", [0.0, 1.0, 3.0])
    assert coords.matrix is made[-1]
    for space in (listed, coords):
        assert not space.matrix.flags.writeable
        with pytest.raises(ValueError):
            space.matrix[0, 1] = 7.0


def test_closed_set_dedups_and_rejects_empty():
    fin = ClosedSet.finite(["a", "b", "a"])
    assert fin.members == ("a", "b")  # duplicates collapse
    with pytest.raises(DomainError):
        ClosedSet.finite([])


def test_closed_set_refuses_a_bare_string():
    # "ab" would split into the members a and b, b"ab" into 97 and 98
    for bare in ("ab", b"ab"):
        with pytest.raises(InputError, match=f"not the string {bare!r}"):
            ClosedSet.finite(bare)
    space = FiniteMetricSpace.from_coords(["a", "b", "ab"], [0.0, 1.0, 2.0])
    with pytest.raises(InputError, match="not the string 'ab'"):
        validate_pair(space, {"a": "a", "b": "b", "ab": "ab"},
                      {"a": ["a"], "b": ["b"], "ab": "ab"})
