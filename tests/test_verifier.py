import dataclasses
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphfix.engine import CoincidenceProblem, IterationConfig, run_coincidence_iteration
from graphfix.errors import DomainError, InputError
from graphfix.metric import (
    EPS,
    ClosedSet,
    EdgeStructure,
    FiniteMetricSpace,
    Gauge,
    validate_pair,
    within,
)
from graphfix.problems import identity_problem, ternary_orbit_problem
from graphfix.serialize import json_dumps
from graphfix.verifier import (
    HypothesisReport,
    _checked_pairs,
    KamranReport,
    best_approximant_set,
    enumerate_coincidence_points,
    verify_coincidence_hypotheses,
    verify_invariant_approx_hypotheses,
    verify_kamran_inequality,
)

from ladders import random_ladder_problem
from set_distances import hausdorff_distance, point_to_set_distance

TOL = 1e-12


# --- loop oracles: the checks as label loops, the form that defines them -------
# ``holds(lhs, rhs, scale)`` decides each inequality: the package's slack
# rule by default, an exact comparison for the Fraction oracle below.  The
# oracles count every failure and list a witness for each; ``_bounded``
# cuts a list to the verifiers' first and worst witness.

def _excess(lhs, rhs):
    """(lhs - rhs)/rhs, with a zero rhs read as 0 (lhs = 0) or inf."""
    if rhs > 0:
        return (lhs - rhs) / rhs
    return float("inf") if lhs > 0 else 0.0


def _top(margin, excess):
    """The margin after one more checked pair (None before the first)."""
    return excess if margin is None else max(margin, excess)


def _reference_hypotheses(space, f, F, edges, gauge, truncated=frozenset(), holds=within):
    pair = validate_pair(space, f, F)
    fmap, sets = pair.f, pair.F
    images = {w: Z.members for w, Z in sets.items()}
    truncated = frozenset(truncated)
    report = HypothesisReport(range_ok=not pair.misses)
    for u, y in pair.misses:
        report.witnesses.append({"condition": "range", "u": u, "member": y})

    for v in space.labels:
        fv = fmap[v]
        for w in space.labels:
            if w in truncated:
                continue
            fw = fmap[w]
            if fw not in images[v]:
                continue
            if not edges.contains(fv, fw):
                continue
            d = space.distance(fv, fw)
            D = point_to_set_distance(fw, sets[w], space)
            bound = gauge(d) * d
            excess = _excess(D, bound)
            report.margin["i"] = _top(report.margin["i"], excess)
            if not holds(D, bound, bound):
                report.failing["i"] += 1
                report.witnesses.append(
                    {"condition": "i", "v": v, "w": w, "fv": fv, "fw": fw,
                     "d": d, "D": D, "bound": bound, "excess": excess}
                )
            # (ii) reads d against the nearest f(p) in F(w) with no edge
            others = [p for p in space.labels
                      if fmap[p] in images[w] and not edges.contains(fw, fmap[p])]
            if not others:
                continue
            excess = _excess(d, min(space.distance(fw, fmap[p]) for p in others))
            report.margin["ii"] = _top(report.margin["ii"], excess)
            for p in others:
                fp = fmap[p]
                if holds(space.distance(fw, fp), d, d):
                    report.failing["ii"] += 1
                    report.witnesses.append(
                        {"condition": "ii", "v": v, "w": w, "p": p, "fw": fw,
                         "fp": fp, "d_fw_fp": space.distance(fw, fp), "d": d,
                         "excess": excess}
                    )

    for w0 in space.labels:
        for p0 in images[w0]:
            if edges.contains(fmap[w0], p0):
                report.admissible_start = (w0, p0)
                break
        if report.admissible_start:
            break
    if not report.admissible_start:
        report.witnesses.append(
            {"condition": "start", "detail": "no admissible (w0, p0) pair"}
        )
    return report


def _reference_kamran(space, f, F, gauge, M=0.0, holds=within):
    pair = validate_pair(space, f, F)
    fmap, images = pair.f, pair.F
    report = KamranReport(M=float(M))
    for v in space.labels:
        for w in space.labels:
            H = hausdorff_distance(images[v], images[w], space)
            d = space.distance(fmap[v], fmap[w])
            D = point_to_set_distance(fmap[v], images[w], space)
            rhs = gauge(d) * d + M * D
            excess = _excess(H, rhs)
            report.margin = _top(report.margin, excess)
            if not holds(H, rhs, rhs):
                report.failing += 1
                report.witnesses.append(
                    {"v": v, "w": w, "H": H, "d": d, "D": D, "lhs": H, "rhs": rhs,
                     "excess": excess}
                )
    return report


def _first_and_worst(witnesses):
    """The first witness and, if it belongs to another pair, the worst:
    the first of those with the largest excess (the witnesses of one
    pair share its excess and follow each other)."""
    if not witnesses:
        return []
    worst = max(witnesses, key=lambda w: w["excess"])
    return witnesses[:1] if worst is witnesses[0] else [witnesses[0], worst]


def _bounded(report):
    """An oracle's report with every witness list cut to the verifiers'
    form, the first and worst witness."""
    report = dataclasses.replace(report)
    if isinstance(report, KamranReport):
        report.witnesses = _first_and_worst(report.witnesses)
        return report
    kind = {c: [w for w in report.witnesses if w["condition"] == c]
            for c in ("range", "i", "ii", "start")}
    report.witnesses = [*kind["range"], *_first_and_worst(kind["i"]),
                        *_first_and_worst(kind["ii"]), *kind["start"]]
    return report


def _assert_matches_oracles(space, f, F, edges, gauge, truncated=frozenset(),
                            Ms=(0.0, 0.7)):
    """Both verifiers equal their loop oracles cut to the verifiers'
    form, down to the written JSON."""
    got = verify_coincidence_hypotheses(space, f, F, edges, gauge, truncated)
    want = _bounded(_reference_hypotheses(space, f, F, edges, gauge, truncated))
    assert got.to_dict() == want.to_dict()
    assert json_dumps(got.to_dict()) == json_dumps(want.to_dict())
    for M in Ms:
        got = verify_kamran_inequality(space, f, F, gauge, M=M)
        want = _bounded(_reference_kamran(space, f, F, gauge, M=M))
        assert got.to_dict() == want.to_dict()
        assert json_dumps(got.to_dict()) == json_dumps(want.to_dict())


# --- verify_coincidence_hypotheses -------------------------------------------

def test_ternary_orbit_hypotheses_all_true():
    p = ternary_orbit_problem(12)
    rep = verify_coincidence_hypotheses(
        p.space, p.f, p.F, p.edges, p.gauge, truncated=p.truncated
    )
    assert rep.all_ok
    assert rep.witnesses == []
    assert rep.admissible_start is not None


def test_identity_pair_hypotheses_all_true():
    p = identity_problem()
    rep = verify_coincidence_hypotheses(p.space, p.f, p.F, p.edges, p.gauge)
    assert rep.all_ok


def test_tiny_gauge_breaks_condition_i():
    p = ternary_orbit_problem(12)
    rep = verify_coincidence_hypotheses(
        p.space, p.f, p.F, p.edges, Gauge.constant(0.01), truncated=p.truncated
    )
    assert rep.failing["i"]
    hits = [
        w
        for w in rep.witnesses
        if w["condition"] == "i" and w["v"] == "1/3" and w["fw"] == "1/27"
    ]
    assert hits
    # D(1/27, {1/3, 1/81}) = 2/81 exceeds 0.01 * d(1/9, 1/27)
    assert abs(hits[0]["D"] - 2.0 / 81.0) < TOL
    assert hits[0]["D"] > hits[0]["bound"]


def _missing_edge_case():
    # one ladder step whose follow-up edge is removed from an explicit list
    labels = ["a", "b", "c"]
    space = FiniteMetricSpace.from_coords(labels, [0.0, 1.0, 1.5])
    f = {s: s for s in labels}
    F = {"a": ["b"], "b": ["c"], "c": ["c"]}
    edges = EdgeStructure.from_pairs(space, [("a", "b")])  # (b, c) missing
    return space, f, F, edges, Gauge.constant(0.9)


def _range_miss_case():
    labels = ["a", "b"]
    space = FiniteMetricSpace.from_coords(labels, [0.0, 1.0])
    f = {"a": "a", "b": "a"}  # range of f is {a}
    F = {"a": ["b"], "b": ["a"]}
    return space, f, F, EdgeStructure.ball(space, 2.0), Gauge.constant(0.5)


def test_condition_ii_detects_missing_edge():
    rep = verify_coincidence_hypotheses(*_missing_edge_case())
    assert rep.failing["ii"]
    assert any(w["condition"] == "ii" for w in rep.witnesses)


def test_condition_ii_slack_admits_rounding_ties():
    # d(b, c) = 0.2 exceeds d(a, b) = 0.3 - 0.1 = 0.19999999999999998 by
    # rounding only, so the missing edge (b, c) must still be reported
    labels = ["a", "b", "c"]
    space = FiniteMetricSpace.from_coords(labels, [0.1, 0.3, 0.5])
    assert space.distance("b", "c") > space.distance("a", "b")
    f = {s: s for s in labels}
    F = {"a": ["b"], "b": ["c"], "c": ["c"]}
    edges = EdgeStructure.from_pairs(space, [("a", "b")])
    rep = verify_coincidence_hypotheses(space, f, F, edges, Gauge.constant(0.99))
    ii = [(w["v"], w["w"], w["p"]) for w in rep.witnesses if w["condition"] == "ii"]
    assert ii == [("a", "b", "c")]
    _assert_matches_oracles(space, f, F, edges, Gauge.constant(0.99))


def test_range_condition_reported():
    rep = verify_coincidence_hypotheses(*_range_miss_case())
    assert not rep.range_ok
    assert any(w["condition"] == "range" and w["member"] == "b" for w in rep.witnesses)


# --- agreement with the loop oracles -------------------------------------------

def test_verifiers_match_oracles_on_random_ladders():
    rng = random.Random(4242)
    for _ in range(40):
        p = random_ladder_problem(rng)
        _assert_matches_oracles(p.space, p.f, p.F, p.edges, p.gauge, p.truncated)


@pytest.mark.parametrize("k", [0.01, 1.0 / 3.0, 0.999])
@pytest.mark.parametrize("cut", [True, False])
def test_verifiers_match_oracles_on_ternary_orbit(k, cut):
    p = ternary_orbit_problem(12)
    truncated = p.truncated if cut else frozenset()
    _assert_matches_oracles(p.space, p.f, p.F, p.edges, Gauge.constant(k), truncated)


def test_verifiers_match_oracles_on_missing_edge_and_range_miss():
    _assert_matches_oracles(*_missing_edge_case())
    _assert_matches_oracles(*_range_miss_case())


def test_verifiers_match_oracles_with_piecewise_gauge():
    p = ternary_orbit_problem(12)
    gauge = Gauge.piecewise([0.0, 0.01, 1.0 / 9.0, 0.3], [0.05, 0.4, 0.2, 0.9], sup=0.9)
    # a breakpoint value hit exactly belongs to the interval on its right
    assert gauge(1.0 / 9.0) == 0.2
    for edges in (p.edges, EdgeStructure.ball(p.space, 0.5)):
        _assert_matches_oracles(p.space, p.f, p.F, edges, gauge, p.truncated)


def test_verifiers_match_oracles_when_an_image_holds_every_label():
    rng = random.Random(31)
    labels = [f"x{i}" for i in range(30)]
    space = FiniteMetricSpace.from_coords(
        labels, [[rng.uniform(-1, 1), rng.uniform(-1, 1)] for _ in labels]
    )
    f = {s: rng.choice(labels) for s in labels}
    F = {s: rng.sample(labels, rng.randint(1, 3)) for s in labels}
    F[labels[4]] = labels[::-1]  # every label, in reverse order
    F[labels[9]] = labels
    edges = EdgeStructure.from_pairs(
        space, [(u, v) for u in labels for v in labels if rng.random() < 0.6]
    )
    gauge = Gauge.piecewise([0.0, 0.5], [0.3, 0.8], sup=0.8)
    _assert_matches_oracles(space, f, F, edges, gauge, frozenset(labels[:3]))


def _unstructured_problem(rng):
    """(space, f, F, edges, gauge, truncated): arbitrary f and F, list or
    ball edges and a constant or piecewise gauge on up to 9 points."""
    n = rng.randint(1, 9)
    labels = [f"q{i}" for i in range(n)]
    # distinct tenths make near-ties that only the comparison slack resolves
    space = FiniteMetricSpace.from_coords(labels, [k / 10.0 for k in rng.sample(range(9), n)])
    f = {s: rng.choice(labels) for s in labels}
    F = {s: rng.sample(labels, rng.randint(1, n)) for s in labels}
    pairs = [(u, v) for u in labels for v in labels if rng.random() < 0.5]
    edges = (EdgeStructure.from_pairs(space, pairs) if rng.random() < 0.7
             else EdgeStructure.ball(space, rng.uniform(0.0, 2.0)))
    gauge = rng.choice([Gauge.constant(rng.uniform(0, 0.99)),
                        Gauge.piecewise([0.0, 1.0 / 3.0], [0.9, 0.1], sup=0.9)])
    truncated = frozenset(rng.sample(labels, rng.randint(0, 1)))
    return space, f, F, edges, gauge, truncated


def test_verifiers_match_oracles_on_unstructured_problems():
    # arbitrary f, F, list edges and gauges: every flag and witness kind shows up
    rng = random.Random(17)
    kinds = set()
    for _ in range(40):
        space, f, F, edges, gauge, truncated = _unstructured_problem(rng)
        _assert_matches_oracles(space, f, F, edges, gauge, truncated)
        rep = verify_coincidence_hypotheses(space, f, F, edges, gauge, truncated)
        kinds.update(w["condition"] for w in rep.witnesses)
    assert kinds == {"range", "i", "ii"}


@st.composite
def pair_instances(draw):
    """(space, f, F, edges, gauge, truncated) on up to 10 points: f drawn
    with repeats (so not injective and missing part of the range), F(w)
    rows of 1 to n members (ragged, with range misses), list or ball
    edges, and some truncated owners."""
    n = draw(st.integers(1, 10))
    labels = [f"p{i}" for i in range(n)]
    spots = draw(st.lists(st.integers(0, 40), min_size=n, max_size=n, unique=True))
    space = FiniteMetricSpace.from_coords(labels, [x / 10.0 for x in spots])
    index = st.integers(0, n - 1)
    f = {s: labels[draw(index)] for s in labels}
    F = {s: [labels[i] for i in draw(st.lists(index, min_size=1, max_size=n, unique=True))]
         for s in labels}
    if draw(st.booleans()):
        pairs = draw(st.lists(st.tuples(index, index), max_size=n * n))
        edges = EdgeStructure.from_pairs(space, [(labels[u], labels[v]) for u, v in pairs])
    else:
        edges = EdgeStructure.ball(space, draw(st.floats(0.0, 4.5)))
    gauge = Gauge.constant(draw(st.floats(0.0, 0.99)))
    truncated = frozenset(draw(st.lists(st.sampled_from(labels), max_size=2)))
    return space, f, F, edges, gauge, truncated


@settings(max_examples=150, deadline=None)
@given(pair_instances())
def test_checked_pairs_are_the_row_major_pairs_of_the_image_table(instance):
    space, f, F, edges, gauge, truncated = instance
    pair = validate_pair(space, f, F)
    n = len(space)
    # the n x n reference: in_image[v, y] says y is in F(v)
    in_image = np.zeros((n, n), dtype=bool)
    in_image[np.arange(n)[:, None], pair.members] = True
    want_vs, want_ws = np.nonzero(in_image[:, pair.fi])
    vs, ws = _checked_pairs(pair)
    assert vs.tolist() == want_vs.tolist()
    assert ws.tolist() == want_ws.tolist()
    _assert_matches_oracles(space, f, F, edges, gauge, truncated, Ms=(0.0,))


# --- verify_kamran_inequality -------------------------------------------------

def test_kamran_violated_on_ternary_pair():
    p = ternary_orbit_problem(12)
    rep = verify_kamran_inequality(p.space, p.f, p.F, Gauge.constant(0.999), M=0.0)
    assert not rep.holds
    hits = [w for w in rep.witnesses if (w["v"], w["w"]) == ("0", "1")]
    assert hits
    w = hits[0]
    assert abs(w["H"] - 1.0 / 3.0) < TOL
    assert abs(w["d"] - 1.0 / 3.0) < TOL
    assert w["D"] == 0.0


def test_kamran_constant_images_always_hold():
    labels = ["a", "b", "c"]
    space = FiniteMetricSpace.from_coords(labels, [0.0, 1.0, 3.0])
    f = {s: s for s in labels}
    F = {s: ["a", "c"] for s in labels}  # constant set-valued map: H = 0
    rep = verify_kamran_inequality(space, f, F, Gauge.constant(0.0), M=0.0)
    assert rep.holds


def test_kamran_single_valued_contraction_through_f():
    # F(v) = {g(v)} with g a 0.5-contraction of the f-images: stepping down
    # a ratio-0.3 ladder shrinks every pair distance by at most 0.3/0.7
    labels = [f"x{i}" for i in range(6)]
    values = [2.0 * 0.3**i for i in range(5)] + [0.0]
    space = FiniteMetricSpace.from_coords(labels, values)
    f = {s: s for s in labels}
    succ = {labels[i]: labels[i + 1] for i in range(5)}
    succ[labels[5]] = labels[5]
    F = {s: [succ[s]] for s in labels}
    rep = verify_kamran_inequality(space, f, F, Gauge.constant(0.5), M=0.0)
    # brute force over all ordered pairs is the check itself; it must hold
    assert rep.holds, rep.witnesses[:3]


def _shortest_paths(weights):
    """The metric of shortest paths over a symmetric matrix of positive
    weights (Floyd-Warshall)."""
    m = np.array(weights, dtype=float)
    np.fill_diagonal(m, 0.0)
    for k in range(len(m)):
        m = np.minimum(m, m[:, k, None] + m[None, k, :])
    return m


def _kamran_instance(kind, seed, k):
    """(space, f, F, gauge) on an explicit distance matrix times 2^k, with
    F(w) = G(f(w)), so that H(Fv, Fw) = 0 wherever f(v) = f(w).

    ladder: a geometric ladder with its distances stretched pairwise by up
    to 30% and closed under shortest paths, G(x) the next rung, at times
    with the ladder's end as a second member; core: weights in [1, 2] with
    a core C of points at scale 1e-3, G mapping C to one of its points and
    the rest into C; free: weights in [1, 2] and any G.  The gauge is the
    least constant k* for which Kamran's inequality at M = 0 holds, or
    lies within the slack below it, or just beyond the slack (a near
    miss); where k* is too large for a gauge it is drawn at random."""
    rng = random.Random(seed)
    n = rng.randint(2, 8)
    stretch = [[1.0 + rng.uniform(0.0, 0.3) for _ in range(n)] for _ in range(n)]
    stretch = np.minimum(stretch, np.transpose(stretch))
    if kind == "ladder":
        r = rng.uniform(0.1, 0.4)
        values = np.array([r**i for i in range(n - 1)] + [0.0])
        weights = np.abs(values[:, None] - values[None, :]) * stretch
        G = [[min(x + 1, n - 1)] + ([n - 1] if rng.random() < 0.3 else []) for x in range(n)]
    else:
        weights = 2.0 * stretch - 1.0  # in [1, 1.6]
        core = rng.randint(1, n)
        weights[:core, :core] *= 1e-3
        pool = range(core if kind == "core" else n)
        G = [rng.sample(pool, rng.randint(1, min(2, len(pool)))) for _ in range(n)]
        if kind == "core":
            G[:core] = [[0]] * core
    matrix = _shortest_paths(weights) * 2.0**k
    labels = [f"x{i}" for i in range(n)]
    space = FiniteMetricSpace.from_matrix(labels, matrix)
    f = {s: rng.choice(labels) for s in labels}
    F = {s: [labels[y] for y in G[labels.index(f[s])]] for s in labels}
    ratios = [hausdorff_distance(F[v], F[w], space) / space.distance(f[v], f[w])
              for v in labels for w in labels if f[v] != f[w]]
    least = max(ratios, default=0.0)
    if least < 0.99:
        gauge = least * rng.choice([1.0, 1.0 - 0.5 * EPS, 1.0 + 1e-12, 1.0 - 1e3 * EPS])
    else:
        gauge = rng.uniform(0.0, 0.99)
    return space, f, F, Gauge.constant(gauge)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["ladder", "core", "free"]), st.integers(0, 2**32 - 1),
       st.integers(-40, 40))
def test_kamran_with_m_zero_implies_conditions_i_and_ii_complete_graph(kind, seed, k):
    # for f(w) in F(v), D(f(w), F(w)) <= H(F(v), F(w)) <= k(d) d: both sides
    # are minima and maxima of the same distance entries, so in floats too
    space, f, F, gauge = _kamran_instance(kind, seed, k)
    kamran = verify_kamran_inequality(space, f, F, gauge, M=0.0)
    complete = EdgeStructure(space, adjacency=np.ones((len(space), len(space)), dtype=bool))
    rep = verify_coincidence_hypotheses(space, f, F, complete, gauge)
    if kamran.failing == 0:
        assert rep.failing == {"i": 0, "ii": 0}, (kamran, rep)


# --- enumerate_coincidence_points ----------------------------------------------

def test_enumerate_on_ternary_orbit():
    p = ternary_orbit_problem(12)
    cs = enumerate_coincidence_points(p.space, p.f, p.F)
    assert "0" in cs.coincidence
    assert cs.common_fixed == ("0",)


def test_enumerate_identity_everywhere():
    p = identity_problem()
    cs = enumerate_coincidence_points(p.space, p.f, p.F)
    assert cs.coincidence == p.space.labels
    assert cs.common_fixed == p.space.labels


def _oracle_coincidence_scan(labels, f, F):
    """Second, independently coded scan over index pairs."""
    coin, common = [], []
    for i in range(len(labels)):
        w = labels[i]
        found = False
        for member in F[w].members if hasattr(F[w], "members") else F[w]:
            if f[w] == member:
                found = True
        if found:
            coin.append(w)
            if w == f[w]:
                common.append(w)
    return tuple(coin), tuple(common)


def test_enumerate_matches_independent_scan():
    rng = random.Random(99)
    for _ in range(40):
        p = random_ladder_problem(rng, max_points=10)
        cs = enumerate_coincidence_points(p.space, p.f, p.F)
        coin, common = _oracle_coincidence_scan(p.space.labels, p.f, p.F)
        assert cs.coincidence == coin
        assert cs.common_fixed == common


# --- best_approximant_set -------------------------------------------------------

def test_best_approximant_member_of_Q():
    assert best_approximant_set([(0.0,), (1.0,)], (1.0,)) == [(1.0,)]


def test_best_approximant_symmetric_tie():
    out = best_approximant_set([(0.0,), (1.0,)], (0.5,))
    assert set(out) == {(0.0,), (1.0,)}


def test_best_approximant_tiny_distances_do_not_tie():
    # squared, both distances underflow to 0
    assert best_approximant_set([(0.0,), (2.0**-600,)], (2.0**-599,)) == [(2.0**-600,)]
    Q = [(0.0, 0.0), (2.0**-600, 2.0**-600)]
    assert best_approximant_set(Q, (2.0**-599, 2.0**-599)) == [Q[1]]


def test_best_approximant_euclidean_bruteforce():
    Q = [(0.0, 0.0), (1.0, 0.0), (0.0, 2.0)]
    out = best_approximant_set(Q, (0.4, 0.0))
    assert out == [(0.0, 0.0)]


def test_best_approximant_empty():
    with pytest.raises(DomainError):
        best_approximant_set([], (0.0,))


def test_best_approximant_ragged_Q_is_input_error():
    with pytest.raises(InputError):
        best_approximant_set([(0.0, 0.0), (1.0,)], (1.0,))


def test_best_approximant_z_of_lower_dimension_is_input_error():
    # would broadcast (0.9,) against every 2-D point
    with pytest.raises(InputError):
        best_approximant_set([(0.0, 0.0), (1.0, 1.0)], (0.9,))


def test_best_approximant_nan_in_z_is_input_error():
    with pytest.raises(InputError):
        best_approximant_set([(0.0,), (1.0,)], (float("nan"),))


def test_best_approximant_z_of_higher_dimension_is_input_error():
    with pytest.raises(InputError):
        best_approximant_set([(0.0, 0.0), (1.0, 1.0)], (0.0, 0.0, 0.0))


# --- verify_invariant_approx_hypotheses ------------------------------------------

def test_invariant_approx_identity_case():
    Q = [(0.0,), (1.0,), (3.0,)]
    f = {(0.0,): (0.0,), (1.0,): (1.0,), (3.0,): (3.0,)}
    F = {q: [q] for q in f}
    rep = verify_invariant_approx_hypotheses(Q, (0.4,), f, F, Gauge.constant(0.5))
    assert rep.all_ok


def test_invariant_approx_detects_f_escape():
    # f maps the unique best approximant outside the best set
    Q = [(0.0,), (1.0,), (3.0,)]
    f = {(0.0,): (1.0,), (1.0,): (1.0,), (3.0,): (3.0,)}
    F = {q: [q] for q in f}
    rep = verify_invariant_approx_hypotheses(Q, (0.1,), f, F, Gauge.constant(0.5))
    # f(B) = {1} against B = {0}: both points are in one set only
    assert rep.failing == {"i": 0, "ii": 2}
    assert rep.to_dict()["condition_ii_ok"] is False and not rep.all_ok
    assert any(w["condition"] == "ii" for w in rep.witnesses)


def test_invariant_approx_invariance_violation():
    # F(best) reaches farther from z than f(best)
    Q = [(0.0,), (1.0,)]
    f = {(0.0,): (0.0,), (1.0,): (1.0,)}
    F = {(0.0,): [(1.0,)], (1.0,): [(1.0,)]}
    rep = verify_invariant_approx_hypotheses(Q, (0.0,), f, F, Gauge.constant(0.9))
    assert not rep.range_ok


def test_invariant_approx_fixed_points_by_enumeration():
    Q = [(0.0, 0.0), (1.0, 0.0), (0.0, 2.0)]
    f = {q: q for q in Q}
    F = {q: [q] for q in Q}
    rep = verify_invariant_approx_hypotheses(Q, (0.4, 0.0), f, F, Gauge.constant(0.5))
    assert rep.all_ok
    best = best_approximant_set(Q, (0.4, 0.0))
    fixed = [q for q in best if f[q] == q and q in F[q]]
    assert fixed == [(0.0, 0.0)]


def test_invariant_approx_checks_condition_i_on_B_only():
    # B = {0} holds a common fixed point; w = 1 outside B must not count
    Q = [(0.0,), (1.0,), (3.0,)]
    f = {(0.0,): (0.0,), (1.0,): (0.0,), (3.0,): (3.0,)}
    F = {(0.0,): [(0.0,)], (1.0,): [(3.0,)], (3.0,): [(3.0,)]}
    rep = verify_invariant_approx_hypotheses(Q, (0.4,), f, F, Gauge.constant(0.5))
    assert rep.all_ok
    assert rep.witnesses == []
    assert rep.admissible_start == ((0.0,), (0.0,))


def test_invariant_approx_F_leaving_B_fails():
    # F(0) = {0.5} meets the invariance inequality but leaves Q, so B has
    # no coincidence point
    Q = [(0.0,), (1.0,), (3.0,)]
    f = {q: q for q in Q}
    F = {(0.0,): [(0.5,)], (1.0,): [(1.0,)], (3.0,): [(3.0,)]}
    rep = verify_invariant_approx_hypotheses(Q, (0.4,), f, F, Gauge.constant(0.5))
    assert not rep.range_ok
    assert not rep.all_ok
    assert rep.admissible_start is None
    assert {"condition": "invariance", "p": (0.0,), "outside": [(0.5,)]} in rep.witnesses


def test_invariant_approx_condition_i_witness_in_coordinates():
    # B = {-1, 1}; F swaps them, so D(fw, Fw) = 2 exceeds 0.5 * d(fv, fw)
    Q = [(-1.0,), (1.0,), (4.0,)]
    f = {q: q for q in Q}
    F = {(-1.0,): [(1.0,)], (1.0,): [(-1.0,)]}
    rep = verify_invariant_approx_hypotheses(Q, (0.0,), f, F, Gauge.constant(0.5))
    assert rep.range_ok
    assert rep.admissible_start == ((-1.0,), (1.0,))
    # both pairs fail by the same excess, so the first is also the worst
    assert rep.failing == {"i": 2, "ii": 0}
    assert rep.margin == {"i": 1.0, "ii": None}
    assert rep.witnesses == [
        {"condition": "i", "v": (-1.0,), "w": (1.0,), "fv": (-1.0,), "fw": (1.0,),
         "d": 2.0, "D": 2.0, "bound": 1.0, "excess": 1.0},
    ]


_OFFSETS = [(float(x), float(y)) for x in range(-2, 3) for y in range(-2, 3)]
_ORDS = {"euclidean": 2, "manhattan": 1, "chebyshev": np.inf}


@st.composite
def invariant_approx_instances(draw):
    """(Q, z, f, F, gauge, norm) on a small integer grid around z.

    Q holds some points of one ring around z, the best-approximant set B,
    and some points farther out; integer offsets make the ties exact.
    f permutes B and F maps B into B, except for near misses that send
    one image of f or member of F out of B."""
    norm = draw(st.sampled_from(sorted(_ORDS)))
    radius = {p: np.linalg.norm(p, _ORDS[norm]) for p in _OFFSETS}
    r = draw(st.sampled_from(sorted(set(radius.values()))))
    ring = [p for p in _OFFSETS if radius[p] == r]
    outer = [p for p in _OFFSETS if radius[p] > r]
    picked = draw(st.lists(st.sampled_from(ring), min_size=min(2, len(ring)),
                           max_size=4, unique=True))
    if outer:
        picked += draw(st.lists(st.sampled_from(outer), max_size=4, unique=True))
    z = draw(st.sampled_from(_OFFSETS))
    Q = [(x + z[0], y + z[1]) for x, y in draw(st.permutations(picked))]
    B = best_approximant_set(Q, z, norm)
    f = {q: q for q in Q}
    f.update(zip(B, draw(st.permutations(B))))
    F = {q: draw(st.lists(st.sampled_from(B), min_size=1, max_size=3, unique=True))
         for q in Q}
    miss = draw(st.sampled_from(["none", "none", "f", "F"]))
    if miss == "f":
        f[B[0]] = draw(st.sampled_from(Q + [(0.5, 0.5)]))
    elif miss == "F":
        F[B[-1]] = F[B[-1]] + [draw(st.sampled_from(Q + [(0.5, 0.5)]))]
    gauge = Gauge.constant(draw(st.sampled_from([0.0, 0.3, 0.6, 0.9])))
    return Q, z, f, F, gauge, norm


@settings(max_examples=150, deadline=None)
@given(invariant_approx_instances())
def test_all_ok_invariant_report_walks_to_a_coincidence_on_B(instance):
    Q, z, f, F, gauge, norm = instance
    rep = verify_invariant_approx_hypotheses(Q, z, f, F, gauge, norm)
    if not rep.all_ok:
        return
    B = best_approximant_set(Q, z, norm)
    label = {p: f"b{i}" for i, p in enumerate(B)}
    space = FiniteMetricSpace.from_coords(list(label.values()), B, norm)
    w0, p0 = rep.admissible_start
    problem = CoincidenceProblem(
        space=space,
        f={label[p]: label[f[p]] for p in B},
        F={label[p]: [label[u] for u in F[p]] for p in B},
        edges=EdgeStructure(space, adjacency=np.ones((len(B), len(B)), dtype=bool)),
        gauge=gauge,
        w0=label[w0],
        p0=label[p0],
    )
    out = run_coincidence_iteration(problem)
    assert out.converged
    assert out.to_dict()["exact_coincidence"] is True


# --- theorem-scale consistency: all-true report => engine agrees with oracle ----

def test_all_true_hypotheses_imply_engine_reaches_coincidence_set():
    rng = random.Random(2024)
    for _ in range(30):
        p = random_ladder_problem(rng)
        rep = verify_coincidence_hypotheses(
            p.space, p.f, p.F, p.edges, p.gauge, truncated=p.truncated
        )
        assert rep.all_ok
        out = run_coincidence_iteration(p)
        assert out.converged
        cs = enumerate_coincidence_points(p.space, p.f, p.F)
        assert out.status.w_star in cs.coincidence


# --- one scale-free slack rule ----------------------------------------------------

def _walk_records(space, f, F, edges, gauge, config):
    """The walk's record from every admissible start, or [] when F leaves
    the range of f (a CoincidenceProblem refuses that)."""
    pair = validate_pair(space, f, F)
    if pair.misses:
        return []
    starts = [(w0, p0) for w0 in space.labels for p0 in pair.F[w0].members
              if edges.contains(pair.f[w0], p0)]
    return [
        run_coincidence_iteration(
            CoincidenceProblem(space, pair.f, pair.F, edges, gauge, w0, p0, config)
        ).to_dict()
        for w0, p0 in starts
    ]


def _verdicts(space, f, F, edges, gauge, truncated, config, M=0.0):
    """The verifier report, the Kamran report and the walk records."""
    return (
        verify_coincidence_hypotheses(space, f, F, edges, gauge, truncated).to_dict(),
        verify_kamran_inequality(space, f, F, gauge, M=M).to_dict(),
        _walk_records(space, f, F, edges, gauge, config),
    )


def _four_point_line(s):
    """Four points at spacing s, f = id and F(x_i) = {x_(i+1)} with x_3
    fixed: every step has length s, so a gauge of 0.01 breaks condition
    (i) at every scale.  Ball edges of radius 4s; tol 1e-300."""
    labels = ["x0", "x1", "x2", "x3"]
    space = FiniteMetricSpace.from_coords(labels, [i * s for i in range(4)])
    F = {"x0": ["x1"], "x1": ["x2"], "x2": ["x3"], "x3": ["x3"]}
    return (space, {x: x for x in labels}, F, EdgeStructure.ball(space, 4 * s),
            Gauge.constant(0.01), frozenset(), IterationConfig(1e-300, 1e-300))


def test_four_point_line_fails_condition_i_at_every_scale():
    seen = set()
    for e in range(61):
        hyp, kam, walks = _verdicts(*_four_point_line(2.0**-e))
        walk = walks[0]
        seen.add((hyp["condition_i_ok"], hyp["all_ok"], kam["holds"],
                  walk["status"], walk.get("condition"), walk.get("step")))
    assert seen == {(False, False, False, "hypothesis-violated", "i", 2)}


def test_an_excess_past_the_largest_double_reads_inf():
    # D = s against a bound of 5e-324 s: (D - bound)/bound overflows
    space, f, F, edges, _, _, _ = _four_point_line(1.0)
    rep = verify_coincidence_hypotheses(space, f, F, edges, Gauge.constant(5e-324))
    assert rep.failing == {"i": 2, "ii": 0}  # the last step, x3 to x3, holds
    assert rep.margin["i"] == rep.witnesses[0]["excess"] == np.inf


def _unscaled(value, c):
    """``value`` with every float divided by c, apart from the relative
    excesses and margins, which no scale changes."""
    if isinstance(value, dict):
        return {k: v if k in ("excess", "margin") else _unscaled(v, c)
                for k, v in value.items()}
    if isinstance(value, list):
        return [_unscaled(v, c) for v in value]
    return value / c if isinstance(value, float) else value


def _scaled(space, f, F, edges, gauge, truncated, config, c):
    """The instance with every distance, the ball radius, the gauge's
    breakpoints, tol and residual_tol multiplied by c."""
    big = FiniteMetricSpace.from_matrix(space.labels, space.matrix * c)
    big_edges = (EdgeStructure.ball(big, edges.radius * c) if edges.radius is not None
                 else EdgeStructure(big, adjacency=edges.adjacency))
    big_gauge = Gauge(tuple(b * c for b in gauge.breakpoints), gauge.values,
                      gauge.certified_sup)
    big_config = IterationConfig(config.tol * c, config.residual_tol * c, config.max_iter)
    return big, f, F, big_edges, big_gauge, truncated, big_config


_TERNARY_GAUGES = [Gauge.constant(k) for k in (0.01, 1.0 / 3.0, 0.999)] + [
    Gauge.piecewise([0.0, 0.01, 1.0 / 9.0, 0.3], [0.05, 0.4, 0.2, 0.9], sup=0.9)
]


def _scaling_instance(kind, seed):
    rng = random.Random(seed)
    if kind == "ladder":
        p = random_ladder_problem(rng)
        return p.space, p.f, p.F, p.edges, p.gauge, p.truncated, p.config
    if kind == "ternary":
        p = ternary_orbit_problem(rng.randint(3, 12))
        return (p.space, p.f, p.F, p.edges, rng.choice(_TERNARY_GAUGES),
                p.truncated, p.config)
    return (*_unstructured_problem(rng), IterationConfig())


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["ladder", "ternary", "unstructured"]),
       st.integers(0, 2**32 - 1), st.integers(-60, 60), st.sampled_from([0.0, 0.7]))
def test_verdicts_do_not_change_when_every_distance_is_scaled_by_two_to_the_k(
    kind, seed, k, M
):
    # multiplying by 2^k is exact in binary floating point, so a scale-free
    # rule gives the same reports, with every distance in them times 2^k
    instance = _scaling_instance(kind, seed)
    c = 2.0**k
    hyp, kam, walks = _verdicts(*instance, M=M)
    big_hyp, big_kam, big_walks = _verdicts(*_scaled(*instance, c), M=M)
    assert _unscaled(big_hyp, c) == hyp
    assert {**_unscaled(big_kam, c), "M": big_kam["M"]} == kam
    assert len(big_walks) == len(walks)
    distances = {"final_residual": None, "error_bound": None}
    for big, walk in zip(big_walks, walks):
        assert big["final_residual"] == walk["final_residual"] * c
        assert big["error_bound"] == walk["error_bound"] * c
        assert {**big, **distances} == {**walk, **distances}


class _ExactSpace:
    """A float space whose distances are read as exact fractions."""

    def __init__(self, space, exact):
        self._space, self._exact = space, exact

    def __getattr__(self, name):
        return getattr(self._space, name)

    def distance(self, u, v):
        return self._exact[self._space.index(u)][self._space.index(v)]


class _ExactGauge:
    """A gauge whose values are read as exact fractions."""

    def __init__(self, gauge):
        self._gauge = gauge

    def __call__(self, t):
        return Fraction(self._gauge(t))


def _rational_instance(rng):
    """Distinct points p/q on a line, as floats and with their exact distances;
    arbitrary f and F, list or ball edges, and a gauge at, just off or far
    off a ratio D(f(w), F(w)) / d(f(v), f(w)) of the instance, so that
    some checks are ties or lie within EPS of one."""
    n = rng.randint(2, 7)
    labels = [f"r{i}" for i in range(n)]
    xs = []
    while len(xs) < n:  # distinct points: a zero distance is refused
        x = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        if x not in xs:
            xs.append(x)
    exact = [[abs(a - b) for b in xs] for a in xs]
    # coordinates rounded to floats, so equal exact distances may differ in floats
    space = FiniteMetricSpace.from_coords(labels, [float(x) for x in xs])
    f = {s: rng.choice(labels) for s in labels}
    F = {s: rng.sample(labels, rng.randint(1, min(3, n))) for s in labels}
    pairs = [(u, v) for u in labels for v in labels if rng.random() < 0.6]
    edges = (EdgeStructure.from_pairs(space, pairs) if rng.random() < 0.7
             else EdgeStructure.ball(space, rng.randint(1, 40) / 4.0))
    d = {(u, v): exact[i][j] for i, u in enumerate(labels) for j, v in enumerate(labels)}
    ratios = [min(d[f[w], y] for y in F[w]) / d[f[v], f[w]]
              for v in labels for w in labels if d[f[v], f[w]]]
    ratios = [r for r in ratios if 0 < r < Fraction(9, 10)] or [Fraction(1, 2)]
    k = float(rng.choice(ratios)) * (1 + rng.choice([0.0, 1e-12, -1e-12, 1e-8, -1e-8]))
    return space, exact, f, F, edges, Gauge.constant(k)


def _less_worst(witnesses):
    """(condition, v, w, p) of each witness but the worst ones, which
    follow the first of their condition."""
    seen = set()
    out = []
    for w in witnesses:
        if "excess" not in w or w["condition"] not in seen:
            out.append((w["condition"], w.get("v"), w.get("w"), w.get("p")))
        seen.add(w["condition"])
    return out


def test_float_verdicts_match_exact_fraction_oracle_beyond_the_slack():
    # the loop oracles in exact rational arithmetic decide every check with
    # no slack; the float verifiers must agree wherever no check exceeds
    # its bound by a relative 2 EPS or less (EPS plus the data's rounding)
    rng = random.Random(5)
    decided = undecided = 0
    verdicts = set()
    for _ in range(150):
        space, exact, f, F, edges, gauge = _rational_instance(rng)
        close = []

        def exactly(lhs, rhs, scale):
            if rhs < lhs <= rhs * (1 + 2 * Fraction(EPS)):
                close.append((lhs, rhs))
            return lhs <= rhs

        exact_space, exact_gauge = _ExactSpace(space, exact), _ExactGauge(gauge)
        want = _reference_hypotheses(exact_space, f, F, edges, exact_gauge, holds=exactly)
        want_kamran = _reference_kamran(exact_space, f, F, exact_gauge, M=Fraction(0),
                                        holds=exactly)
        got = verify_coincidence_hypotheses(space, f, F, edges, gauge)
        got_kamran = verify_kamran_inequality(space, f, F, gauge)
        if close:
            undecided += 1
            continue
        decided += 1
        # the same verdicts, counts and first witnesses; the worst witness
        # and the margin are float and Fraction excesses, which may break
        # ties apart
        want = _bounded(want)
        for rep in (want, got):
            rep.witnesses = _less_worst(rep.witnesses)
            rep.margin = None
        assert got == want
        assert got_kamran.holds == want_kamran.holds
        assert got_kamran.failing == len(want_kamran.witnesses)
        assert ([(w["v"], w["w"]) for w in got_kamran.witnesses[:1]]
                == [(w["v"], w["w"]) for w in want_kamran.witnesses[:1]])
        verdicts.add((got.failing["i"] == 0, got.failing["ii"] == 0, got_kamran.holds))
    # both kinds of instance occur, and every verdict of (i), (ii) and Kamran
    assert decided >= 100 and undecided >= 5
    assert {v[0] for v in verdicts} == {v[1] for v in verdicts} == {True, False}
    assert {v[2] for v in verdicts} == {True, False}


# --- cost: nothing n x n in the hypothesis check --------------------------------

def _line_problem(n):
    """f = id and F(w) = {w, w + 1} on the points 0, 1, ..., n - 1."""
    labels = [str(i) for i in range(n)]
    space = FiniteMetricSpace.from_coords(labels, np.arange(n, dtype=float))
    F = {s: ClosedSet.finite([s, labels[min(i + 1, n - 1)]]) for i, s in enumerate(labels)}
    return CoincidenceProblem(space, {s: s for s in labels}, F, EdgeStructure.ball(space, 1.5),
                              Gauge.constant(0.5), "0", "0")


def test_hypothesis_check_builds_no_n_by_n_table():
    # the 2n pairs are found from F's members: an n x n boolean table alone
    # would take n^2 bytes, 4 times the bound
    n = 2000
    p = _line_problem(n)
    tracemalloc.start()
    try:
        rep = verify_coincidence_hypotheses(p.space, p.f, p.F, p.edges, p.gauge)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.all_ok
    assert peak < n * n / 4, peak


# --- Jachymski's Banach G-contractions ------------------------------------------
# A map T of a space with a graph G is a Banach G-contraction if it keeps
# every edge an edge and shrinks it by a factor alpha < 1 (Jachymski, Proc.
# Amer. Math. Soc. 136 (2008), 1359-1373).  With f = id and F(w) = {T w} the
# checked pairs are (v, T v), and the hypotheses hold on G with gauge alpha.

def _invariant_graph(T, space, alpha):
    """The largest edge set on which T is a Banach G-contraction with rate
    alpha: the pairs whose every T-image pair shrinks by alpha."""
    n = len(T)
    d = space.matrix
    T = np.array(T)
    edge = d[T[:, None], T[None, :]] <= alpha * d
    while True:
        kept = edge & edge[T[:, None], T[None, :]]
        if (kept == edge).all():
            return edge
        edge = kept


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 10), st.integers(0, 2**32 - 1))
def test_banach_g_contraction_passes_and_a_near_miss_fails(n, seed):
    # T moves each rung r^i of a geometric ladder to the next and the end 0
    # to itself, which shrinks every pair by r/(1 - r) at most; some random
    # images keep pairs out of G
    rng = random.Random(seed)
    r = rng.uniform(0.05, 0.45)
    alpha = r / (1 - r) * rng.uniform(1.001, 1.2)
    labels = [f"x{i}" for i in range(n)]
    space = FiniteMetricSpace.from_coords(labels, [r**i for i in range(n - 1)] + [0.0])
    T = [min(i + 1, n - 1) if rng.random() < 0.8 else rng.randrange(n) for i in range(n)]
    T[-1] = n - 1  # a fixed point, so (0, T 0) is an edge and a start exists
    adjacency = _invariant_graph(T, space, alpha)
    edges = EdgeStructure(space, adjacency=adjacency)
    f = {s: s for s in labels}
    F = {s: [labels[T[i]]] for i, s in enumerate(labels)}
    rep = verify_coincidence_hypotheses(space, f, F, edges, Gauge.constant(alpha))
    assert rep.all_ok, rep.witnesses
    # the checked steps v -> T v -> T^2 v that move
    moving = [v for v in range(n)
              if adjacency[v, T[v]] and T[v] != v and T[T[v]] != T[v]]
    if not moving:
        return
    # (i) fails for a gauge just below the largest checked ratio
    ratio = max(space.matrix[T[v], T[T[v]]] / space.matrix[v, T[v]] for v in moving)
    below = verify_coincidence_hypotheses(space, f, F, edges, Gauge.constant(ratio * (1 - 1e-6)))
    assert below.failing["i"] and not below.failing["ii"]
    # (ii) fails once G loses the image (T v, T^2 v) of a checked edge
    v = rng.choice(moving)
    cut = adjacency.copy()
    cut[T[v], T[T[v]]] = False
    broken = verify_coincidence_hypotheses(
        space, f, F, EdgeStructure(space, adjacency=cut), Gauge.constant(alpha))
    assert broken.failing["ii"]
    assert any(w["condition"] == "ii" and w["w"] == labels[T[v]] for w in broken.witnesses)
