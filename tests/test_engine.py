import dataclasses
import math
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphfix.engine import (
    CoincidenceProblem,
    ConvergenceCertificate,
    Converged,
    HypothesisViolated,
    IterationConfig,
    IterationOutcome,
    IterationTrace,
    MaxIterExceeded,
    TraceRow,
    run_coincidence_iteration,
)
from graphfix.errors import DomainError, InputError
from graphfix.fbvp import FbvpProblem, picard_solve
from graphfix.metric import (
    ClosedSet,
    EdgeStructure,
    FiniteMetricSpace,
    Gauge,
    validate_pair,
    within,
)
from graphfix.problems import builtin_problem, identity_problem, ternary_orbit_problem
from graphfix.serialize import json_dumps
from graphfix.verifier import enumerate_coincidence_points

from ladders import random_ladder_problem
from set_distances import point_to_set_distance

TOL = 1e-12


def ternary_space(depth=6):
    labels = ["0", "1"] + [f"1/{3**n}" for n in range(1, depth + 1)]
    values = [0.0, 1.0] + [3.0**-n for n in range(1, depth + 1)]
    return FiniteMetricSpace.from_coords(labels, values)


# --- the reference walk ---------------------------------------------------------

def _reference_walk(problem):
    """The label-loop walk: the nearest member of F(w_n) found by
    ``space.distance`` over its labels, ties to the lowest label index,
    with every distance, residual and edge looked up by label.  It stops
    once rho/(1 - rho) d_n, rho = sqrt(sup k), is within tol and the
    residual within residual_tol."""
    space, f, F, gauge, cfg = (
        problem.space, problem.f, problem.F, problem.gauge, problem.config
    )
    rho = math.sqrt(gauge.certified_sup)
    cert = ConvergenceCertificate(rho)
    trace = IterationTrace()

    def outcome(status, common=None):
        return IterationOutcome(status, trace, cert, common)

    def preimage(y):
        return next(w for w in space.labels if f[w] == y)

    w0 = problem.w0
    fw0 = f[w0]
    start_edge = problem.edges.contains(fw0, problem.p0)
    trace.rows.append(TraceRow(0, w0, fw0, float("nan"),
                               point_to_set_distance(fw0, F[w0], space), float("nan"),
                               start_edge))
    if not start_edge:
        return outcome(HypothesisViolated("edge", 0))
    w = preimage(problem.p0)
    prev_fw, fw = fw0, f[w]
    d_n = space.distance(fw0, problem.p0)
    d_prev = None
    n = 1
    while True:
        residual = point_to_set_distance(fw, F[w], space)
        bound = rho / (1.0 - rho) * d_n
        edge_ok = problem.edges.contains(prev_fw, fw)
        trace.rows.append(TraceRow(n, w, fw, d_n, residual, bound, edge_ok))
        if not edge_ok:
            return outcome(HypothesisViolated("edge", n))
        if d_prev is not None:
            limit = math.sqrt(gauge(d_prev)) * d_prev
            if not within(d_n, limit, limit):
                return outcome(HypothesisViolated("i", n))
        if bound <= cfg.tol and residual <= cfg.residual_tol:
            common = fw if f[fw] == fw and fw in F[fw] else None
            return outcome(Converged(w, fw, fw in F[w]), common)
        if n > cfg.max_iter:
            return outcome(MaxIterExceeded())
        y = min(F[w].members, key=lambda y: (space.distance(fw, y), space.index(y)))
        D = space.distance(fw, y)
        if D > 0 and (d_n == 0 or gauge(d_n) == 0.0):
            return outcome(HypothesisViolated("i", n))
        prev_fw, w = fw, preimage(y)
        fw = f[w]
        d_prev, d_n = d_n, D
        n += 1


def _admissible_starts(p):
    return [
        (w0, p0)
        for w0 in p.space.labels
        for p0 in p.F[w0].members
        if p.edges.contains(p.f[w0], p0)
    ]


def _assert_walks_match_reference(problem, every_start=True):
    starts = _admissible_starts(problem) if every_start else [(problem.w0, problem.p0)]
    assert starts
    for w0, p0 in starts:
        q = dataclasses.replace(problem, w0=w0, p0=p0)
        got, want = run_coincidence_iteration(q), _reference_walk(q)
        assert repr(got.trace.rows) == repr(want.trace.rows)
        assert got.to_dict() == want.to_dict()
        assert json_dumps(got.to_dict()) == json_dumps(want.to_dict())


@pytest.mark.parametrize("max_iter", [None, 0, 2])
def test_walk_matches_reference_walk(max_iter):
    config = None if max_iter is None else IterationConfig(max_iter=max_iter)
    for depth in (3, 4, 5, 6, 9, 12):
        _assert_walks_match_reference(ternary_orbit_problem(depth, config))
    rng = random.Random(808)
    for _ in range(40):
        p = random_ladder_problem(rng)
        if config is not None:
            p = dataclasses.replace(p, config=config)
        _assert_walks_match_reference(p)
    for gauge_value in (0.0, 0.01, 0.05, 0.5):
        for sparse in (False, True):
            for decoy in (False, True):
                p = _ladder_problem(gauge_value, decoy=decoy)
                if sparse:
                    edges = EdgeStructure.from_pairs(p.space, [("x0", "x1")])
                    p = dataclasses.replace(p, edges=edges)
                if config is not None:
                    p = dataclasses.replace(p, config=config)
                _assert_walks_match_reference(p)
    for p in (_tie_problem(), _zero_step_problem()):
        _assert_walks_match_reference(p)


# --- successor selection ---------------------------------------------------------

def _identity_pair(space, F):
    """validate_pair for f = id, with F(w) = {w} where ``F`` is silent."""
    return validate_pair(
        space, {s: s for s in space.labels}, {s: F.get(s, [s]) for s in space.labels}
    )


def test_select_nearest_on_orbit_step():
    space = ternary_space()
    pair = _identity_pair(space, {"1/9": ["1/3", "1/81"]})
    w = space.index("1/9")
    assert space.labels[pair.nearest[w]] == "1/81"
    assert pair.gap[w] == space.distance("1/9", "1/81")
    assert pair.gap[w] > 0.0


def test_select_returns_coincident_member():
    space = ternary_space()
    pair = _identity_pair(space, {"1/9": ["1", "1/9"]})
    w = space.index("1/9")
    assert space.labels[pair.nearest[w]] == "1/9"
    assert pair.gap[w] == 0.0


def _tie_problem():
    # f = id; from 1 the walk reaches 0.5, whose members 1 and 0, listed in
    # reverse index order, are both at distance 0.5
    space = FiniteMetricSpace.from_coords(["0", "0.5", "1"], [0.0, 0.5, 1.0])
    return CoincidenceProblem(
        space=space,
        f={s: s for s in space.labels},
        F={"0": ["0"], "0.5": ["1", "0"], "1": ["0.5"]},
        edges=EdgeStructure.ball(space, 2.0),
        gauge=Gauge.constant(0.25),
        w0="1",
        p0="0.5",
    )


def test_select_tie_breaks_to_lowest_index():
    p = _tie_problem()
    assert p.pair.nearest[p.space.index("0.5")] == p.space.index("0")
    out = run_coincidence_iteration(p)
    # the tie goes to "0"; the step of 0.5 after 0.5 then breaks (i)
    assert [r.w_label for r in out.trace.rows] == ["1", "0.5", "0"]
    assert out.status == HypothesisViolated("i", 2)


def _zero_step_problem():
    # f(b) = a is reached with a first step of 0, and D(a, F(a)) = 2 > 0
    space = FiniteMetricSpace.from_coords(["a", "b", "c"], [0.0, 1.0, 2.0])
    return CoincidenceProblem(
        space=space,
        f={"a": "a", "b": "a", "c": "c"},
        F={"a": ["c"], "b": ["a"], "c": ["c"]},
        edges=EdgeStructure.ball(space, 5.0),
        gauge=Gauge.constant(0.5),
        w0="b",
        p0="a",
    )


def test_select_zero_gauge_with_positive_residual():
    # k(d_1) = 0 with D(f(w_1), F(w_1)) > 0 fails at step 1, before any
    # step-ratio check could
    out = run_coincidence_iteration(_ladder_problem(0.0))
    assert out.status == HypothesisViolated("i", 1)
    assert out.trace.rows[-1].residual > 0
    # so does d_1 = 0
    out = run_coincidence_iteration(_zero_step_problem())
    assert out.status == HypothesisViolated("i", 1)
    assert out.trace.rows[-1].d == 0.0 and out.trace.rows[-1].residual == 2.0


# --- the tail bound -------------------------------------------------------------

def test_tail_bound_closed_form():
    cert = ConvergenceCertificate(rate=1.0 / 3.0)
    # oracle: direct evaluation of rate / (1 - rate) * d, here (1/2) (2/9)
    assert abs(cert.error_bound(2.0 / 9.0) - 1.0 / 9.0) < TOL
    assert cert.error_bound(2.0 / 9.0) == 0.11111111111111109
    # the steps after d, rate d + rate^2 d + ..., sum to the bound
    tail = math.fsum((2.0 / 9.0) * (1.0 / 3.0) ** j for j in range(1, 60))
    assert abs(cert.error_bound(2.0 / 9.0) - tail) < TOL


def test_tail_bound_zero_first_step():
    for rate in (0.0, 0.5, 1.0 - 2.0**-53):
        assert ConvergenceCertificate(rate).error_bound(0.0) == 0.0
    # a walk that starts on the common fixed point takes a zero first step,
    # which certifies it at once
    out = run_coincidence_iteration(dataclasses.replace(ternary_orbit_problem(12), w0="0", p0="0"))
    assert out.converged and out.iterations == 0
    assert out.trace.rows[-1].d == out.trace.rows[-1].bound == out.error_bound == 0.0


def test_tail_bound_quarter_rate():
    cert = ConvergenceCertificate(rate=0.25)
    assert abs(cert.error_bound(1.0) - 1.0 / 3.0) < TOL
    assert abs(cert.error_bound(3.0) - 1.0) < TOL


def test_tail_bound_dominates_observed_tail():
    # the rate 1/4 bound must dominate distances to the limit in any
    # conforming trace; use an exact quarter-ladder as that trace
    cert = ConvergenceCertificate(rate=0.25)
    d0 = 1.0
    positions = [sum(d0 * 0.25**j for j in range(n)) for n in range(30)]
    limit = d0 / (1 - 0.25)
    for n in range(1, 25):
        step = positions[n] - positions[n - 1]
        assert limit - positions[n] <= cert.error_bound(step) + 1e-12


def test_certificate_validation():
    for rate in (1.0, -0.1, math.nan, math.inf):
        with pytest.raises(DomainError):
            ConvergenceCertificate(rate=rate)
    # the rate is the whole certificate: no prefactor can be given
    with pytest.raises(TypeError):
        ConvergenceCertificate(rate=0.25, B=0.01)


def test_certificate_from_zero_gauge():
    cert = ConvergenceCertificate(math.sqrt(Gauge.constant(0.0).certified_sup))
    assert cert.error_bound(0.7) == 0.0


def test_trace_bounds_are_tail_bound_bit_for_bit():
    # each row's bound (trace column tail_bound_n) is the certificate's
    # error bound of that row's step, and the record's error_bound the last
    walk = run_coincidence_iteration(ternary_orbit_problem(20))
    operator = picard_solve(
        FbvpProblem(beta=1.5, g=lambda b, w: 0.5 * w + 1.0, gauge=Gauge.constant(0.5))
    )
    assert walk.certificate.rate == math.sqrt(1.0 / 3.0)
    assert operator.certificate.rate == operator.kappa * 0.5
    for out in (walk, operator):
        rows = [row for row in out.trace.rows if row.n >= 1]
        assert len(rows) > 5 and rows[0].n == 1
        for row in rows:
            bound = out.certificate.error_bound(row.d)
            assert struct.pack("<d", row.bound) == struct.pack("<d", bound)
        assert struct.pack("<d", out.to_dict()["error_bound"]) == struct.pack("<d", rows[-1].bound)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_every_trace_bound_covers_the_distance_to_where_the_walk_ends(seed):
    # the bound at row n certifies d(f(w_n), limit); the limit is where the
    # same walk stops when only a zero step can meet its tol, an enumerated
    # coincidence point
    problem = random_ladder_problem(random.Random(seed))
    exhaustive = dataclasses.replace(problem.config, tol=1e-300)
    coincidences = enumerate_coincidence_points(problem.space, problem.f, problem.F).coincidence
    for w0, p0 in _admissible_starts(problem):
        start = dataclasses.replace(problem, w0=w0, p0=p0)
        out = run_coincidence_iteration(start)
        end = run_coincidence_iteration(dataclasses.replace(start, config=exhaustive))
        assert out.converged and end.converged
        assert end.trace.rows[-1].d == 0.0 and end.status.w_star in coincidences
        fw_end = end.status.f_w_star
        for row in out.trace.rows[1:]:
            assert problem.space.distance(row.fw_label, fw_end) <= row.bound
        assert out.error_bound <= problem.config.tol


# --- run_coincidence_iteration ----------------------------------------------------

def test_ternary_orbit_converges_to_common_fixed_point():
    out = run_coincidence_iteration(ternary_orbit_problem(12))
    assert isinstance(out.status, Converged)
    assert out.status.w_star == "0"
    assert out.status.f_w_star == "0"
    assert out.common_fixed_point == "0"
    assert out.final_residual == 0.0


def test_ternary_orbit_depth_must_be_an_integer():
    depth7 = ternary_orbit_problem(7).space.labels
    assert ternary_orbit_problem(7.0).space.labels == depth7
    assert builtin_problem("example-3-3", 7.0).space.labels == depth7
    for depth, message in ((5.5, "depth must be an integer, got 5.5"),
                           ("7", "depth must be a number, got '7'"),
                           (True, "depth must be a number, got True")):
        with pytest.raises(InputError, match=f"^{message}$"):
            ternary_orbit_problem(depth)
        with pytest.raises(InputError, match=f"^{message}$"):
            builtin_problem("kamran-counterexample", depth)


def test_identity_problem_converges_at_start():
    p = identity_problem()
    out = run_coincidence_iteration(p)
    assert isinstance(out.status, Converged)
    assert out.status.w_star == p.w0
    assert out.iterations == 0


def test_budget_zero_exhausts():
    p = ternary_orbit_problem(6, config=IterationConfig(max_iter=0))
    out = run_coincidence_iteration(p)
    assert isinstance(out.status, MaxIterExceeded)
    assert len(out.trace.rows) >= 1  # trace retained


def test_construction_rejects_bad_problems():
    space = ternary_space()
    p = ternary_orbit_problem(6)
    with pytest.raises(InputError):
        dataclasses.replace(p, p0="1")  # 1 not in F(1/3)
    # range violation: F reaches a point outside f(W)
    labels = ["a", "b"]
    sp = FiniteMetricSpace.from_coords(labels, [0.0, 1.0])
    with pytest.raises(InputError):
        CoincidenceProblem(
            space=sp,
            f={"a": "a", "b": "a"},
            F={"a": ClosedSet.finite(["b"]), "b": ClosedSet.finite(["a"])},
            edges=EdgeStructure.ball(sp, 2.0),
            gauge=Gauge.constant(0.5),
            w0="b",
            p0="a",
        )
    assert space is not None


def test_construction_rejects_edges_over_other_labels():
    p = ternary_orbit_problem(6)
    same = FiniteMetricSpace.from_matrix(p.space.labels, p.space.matrix)
    q = dataclasses.replace(p, edges=EdgeStructure.ball(same, 1.0 / 9.0))
    assert run_coincidence_iteration(q).to_dict() == run_coincidence_iteration(p).to_dict()
    order = np.arange(len(p.space))[::-1]
    flipped = FiniteMetricSpace.from_matrix(
        [p.space.labels[i] for i in order], p.space.matrix[np.ix_(order, order)]
    )
    with pytest.raises(InputError, match="edges must be built over"):
        dataclasses.replace(p, edges=EdgeStructure.ball(flipped, 1.0 / 9.0))


def test_restart_does_not_revalidate_the_pair(monkeypatch):
    from graphfix.metric import ValidatedPair

    calls = []  # one entry per ValidatedPair built
    post_init = ValidatedPair.__post_init__
    monkeypatch.setattr(
        ValidatedPair, "__post_init__", lambda self: calls.append(None) or post_init(self)
    )
    p = ternary_orbit_problem(8)
    assert len(calls) == 1
    q = dataclasses.replace(p, w0="1/9", p0="1/81")
    r = dataclasses.replace(q, w0="1/3", p0="1/27", config=IterationConfig(tol=1e-6))
    assert len(calls) == 1
    assert q.pair is p.pair and r.pair is p.pair
    # the walk's tables are shared too, and their Python lists built once
    for name in ("nearest", "gap", "tables"):
        assert getattr(q.pair, name) is getattr(p.pair, name)
        assert getattr(r.pair, name) is getattr(p.pair, name)
    assert q.f is p.f and q.F is p.F
    # a bad start still raises, without a validation
    with pytest.raises(InputError):
        dataclasses.replace(p, p0="1")
    with pytest.raises(InputError):
        dataclasses.replace(p, w0="nowhere")
    assert len(calls) == 1
    # a new F is validated again, and one outside the range of f is refused
    bad_F = {**p.F, "1": ClosedSet.finite(["1"])}  # 1 is nobody's image
    with pytest.raises(InputError, match="range condition"):
        dataclasses.replace(p, F=bad_F)
    assert len(calls) == 2
    # the pair is no argument: only validate_pair makes one
    with pytest.raises(TypeError):
        CoincidenceProblem(p.space, p.f, p.F, p.edges, p.gauge, p.w0, p.p0, pair=p.pair)


def _flipped_edges(p):
    """A ball graph over the problem's labels in reverse order."""
    order = np.arange(len(p.space))[::-1]
    flipped = FiniteMetricSpace.from_matrix(
        [p.space.labels[i] for i in order], p.space.matrix[np.ix_(order, order)]
    )
    return EdgeStructure.ball(flipped, 1.0 / 9.0)


def _sparse_ladder():
    """x0 -> x1 -> ... -> end with F(w) = {succ(w), end}, f = id, and the
    one edge (x0, x1) besides the diagonal: (x0, end) is no edge."""
    p = _ladder_problem(0.5, decoy=True)
    return dataclasses.replace(p, edges=EdgeStructure.from_pairs(p.space, [("x0", "x1")]))


_UNKNOWN = "unknown point label 'nowhere'"
_NOT_IN_F = "p0 must belong to F(w0)"
_NO_EDGE = "(f(w0), p0) must be an edge"
_OTHER_LABELS = "edges must be built over the problem's labels, in order"

# (problem, replacements, message); the last rows of each problem hold two
# faults, and the message is the one of the check that runs first
_BAD_RESTARTS = [
    ("example-3-3", {"w0": "nowhere"}, _UNKNOWN),
    ("example-3-3", {"p0": "nowhere"}, _UNKNOWN),
    ("example-3-3", {"p0": "1"}, _NOT_IN_F),
    ("example-3-3", {"w0": "0", "p0": "1/3"}, _NO_EDGE),
    ("example-3-3", {"truncated": frozenset({"nowhere"})}, _UNKNOWN),
    ("example-3-3", {"truncated": ["1/3", "nowhere"]}, _UNKNOWN),
    ("example-3-3", {"truncated": "10"}, "truncated takes labels, not the string '10'"),
    ("example-3-3", {"edges": "flipped"}, _OTHER_LABELS),
    ("example-3-3", {"w0": "nowhere", "p0": "1"}, _UNKNOWN),
    ("example-3-3", {"p0": "nowhere", "truncated": {"elsewhere"}}, _UNKNOWN),
    ("example-3-3", {"truncated": {"nowhere"}, "p0": "1"}, _UNKNOWN),
    ("example-3-3", {"p0": "1", "edges": "flipped"}, _NOT_IN_F),
    ("example-3-3", {"w0": "0", "p0": "1/3", "edges": "flipped"}, _OTHER_LABELS),
    ("example-3-3", {"truncated": "10", "w0": "nowhere"},
     "truncated takes labels, not the string '10'"),
    ("ladder", {"w0": "nowhere"}, _UNKNOWN),
    ("ladder", {"p0": "nowhere"}, _UNKNOWN),
    ("ladder", {"p0": "x2"}, _NOT_IN_F),
    ("ladder", {"p0": "end"}, _NO_EDGE),
    ("ladder", {"truncated": {"x1", "nowhere"}}, _UNKNOWN),
    ("ladder", {"truncated": b"x1"}, "truncated takes labels, not the string b'x1'"),
    ("ladder", {"edges": "flipped"}, _OTHER_LABELS),
    ("ladder", {"w0": "x1", "p0": "nowhere"}, _UNKNOWN),
    ("ladder", {"p0": "x2", "edges": "flipped"}, _NOT_IN_F),
    ("ladder", {"p0": "end", "edges": "flipped"}, _OTHER_LABELS),
]


@pytest.mark.parametrize("name,changes,message", _BAD_RESTARTS)
def test_bad_restart_names_its_first_failing_check(name, changes, message):
    p = builtin_problem(name) if name != "ladder" else _sparse_ladder()
    if changes.get("edges") == "flipped":
        changes = {**changes, "edges": _flipped_edges(p)}
    with pytest.raises(InputError) as exc:
        dataclasses.replace(p, **changes)
    assert str(exc.value) == message
    # a fresh build of the same problem fails the same way
    fields = {k: getattr(p, k) for k in ("space", "edges", "gauge", "w0", "p0", "config", "truncated")}
    with pytest.raises(InputError) as fresh:
        CoincidenceProblem(f=dict(p.f), F=dict(p.F), **{**fields, **changes})
    assert str(fresh.value) == message


def test_a_restart_reads_truncated_labels_from_any_collection():
    p = _sparse_ladder()
    q = dataclasses.replace(p, truncated=["x4", "x4"])
    assert q.truncated == frozenset({"x4"}) and type(q.truncated) is frozenset
    assert run_coincidence_iteration(q).to_dict() == run_coincidence_iteration(p).to_dict()


def test_restarts_match_fresh_builds():
    rng = random.Random(2024)
    for _ in range(20):
        p = random_ladder_problem(rng)
        starts = _admissible_starts(p)
        assert starts
        for w0, p0 in starts:
            restart = dataclasses.replace(p, w0=w0, p0=p0)
            fresh = CoincidenceProblem(
                space=p.space,
                f=dict(p.f),
                F={w: list(Z.members) for w, Z in p.F.items()},
                edges=p.edges,
                gauge=p.gauge,
                w0=w0,
                p0=p0,
                config=p.config,
            )
            assert fresh.pair is not restart.pair
            a = run_coincidence_iteration(restart)
            b = run_coincidence_iteration(fresh)
            assert repr(a.trace.rows) == repr(b.trace.rows)
            assert json_dumps(a.to_dict()) == json_dumps(b.to_dict())


def _ladder_problem(gauge_value, edges=None, decoy=False):
    labels = [f"x{i}" for i in range(5)] + ["end"]
    values = [1.0 * 0.3**i for i in range(5)] + [0.0]
    space = FiniteMetricSpace.from_coords(labels, values)
    succ = {labels[i]: labels[i + 1] for i in range(5)}
    succ["end"] = "end"
    F = {s: ClosedSet.finite([succ[s]] + (["end"] if decoy else [])) for s in labels}
    return CoincidenceProblem(
        space=space,
        f={s: s for s in labels},
        F=F,
        edges=edges or EdgeStructure.ball(space, 10.0),
        gauge=Gauge.constant(gauge_value),
        w0="x0",
        p0="x1",
    )


def test_gauge_too_small_flags_condition_i():
    out = run_coincidence_iteration(_ladder_problem(0.01))
    assert isinstance(out.status, HypothesisViolated)
    assert out.status.condition == "i"


def test_missing_edge_flags_edge_condition():
    labels = [f"x{i}" for i in range(5)] + ["end"]
    values = [1.0 * 0.3**i for i in range(5)] + [0.0]
    space = FiniteMetricSpace.from_coords(labels, values)
    edges = EdgeStructure.from_pairs(space, [("x0", "x1")])  # nothing else
    succ = {labels[i]: labels[i + 1] for i in range(5)}
    succ["end"] = "end"
    p = CoincidenceProblem(
        space=space,
        f={s: s for s in labels},
        F={s: ClosedSet.finite([succ[s]]) for s in labels},
        edges=edges,
        gauge=Gauge.constant(0.5),
        w0="x0",
        p0="x1",
    )
    out = run_coincidence_iteration(p)
    assert isinstance(out.status, HypothesisViolated)
    assert out.status.condition == "edge"
    assert out.status.step == 2


def test_random_problems_agree_with_enumeration_oracle():
    rng = random.Random(11)
    for _ in range(50):
        p = random_ladder_problem(rng, gauge_value=0.5)
        out = run_coincidence_iteration(p)
        assert out.converged
        cs = enumerate_coincidence_points(p.space, p.f, p.F)
        assert out.status.w_star in cs.coincidence


def test_trace_invariants_on_random_runs():
    rng = random.Random(31337)
    for _ in range(40):
        p = random_ladder_problem(rng)
        out = run_coincidence_iteration(p)
        assert out.converged
        rows = out.trace.rows
        alpha = p.gauge.certified_sup
        ds = [r.d for r in rows[1:]]
        # monotone geometric decrease at sqrt(alpha)
        for a, b in zip(ds, ds[1:]):
            assert b <= math.sqrt(alpha) * a * (1 + 1e-12) + 1e-15
        # edges present at every recorded step
        assert all(r.edge_ok for r in rows[1:])
        # residual at convergence
        assert rows[-1].residual <= p.config.residual_tol
        # certificate soundness: distance to limit below the recorded bound
        fw_star = out.status.f_w_star
        for r in rows[1:]:
            dist = p.space.distance(r.fw_label, fw_star)
            assert dist <= r.bound + 1e-10


def test_trace_strictly_decreasing_until_zero():
    out = run_coincidence_iteration(ternary_orbit_problem(10))
    ds = [r.d for r in out.trace.rows[1:]]
    for a, b in zip(ds, ds[1:]):
        if a > 0:
            assert b < a
        else:
            assert b == 0.0


def test_iteration_config_validation():
    with pytest.raises(InputError):
        IterationConfig(tol=0.0)
    with pytest.raises(InputError):
        IterationConfig(residual_tol=-1.0)
    with pytest.raises(InputError):
        IterationConfig(max_iter=-1)
    assert IterationConfig(max_iter=0).max_iter == 0  # budget probes allowed
