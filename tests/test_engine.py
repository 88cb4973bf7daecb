import dataclasses
import itertools
import math
import random
import struct

import numpy as np
import pytest

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
    run_operator_iteration,
    tail_bound,
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
    with every distance, residual and edge looked up by label."""
    space, f, F, gauge, cfg = (
        problem.space, problem.f, problem.F, problem.gauge, problem.config
    )
    cert = ConvergenceCertificate.from_gauge(gauge)
    trace = IterationTrace()

    def outcome(status, common=None):
        return IterationOutcome(status, trace, cert, common)

    def preimage(y):
        return next(w for w in space.labels if f[w] == y)

    w0 = problem.w0
    fw0 = f[w0]
    start_edge = problem.edges.contains(fw0, problem.p0)
    trace.append(TraceRow(0, w0, fw0, float("nan"),
                          point_to_set_distance(fw0, F[w0], space), float("nan"),
                          start_edge))
    if not start_edge:
        return outcome(HypothesisViolated("edge", 0))
    w = preimage(problem.p0)
    prev_fw, fw = fw0, f[w]
    d1 = d_n = space.distance(fw0, problem.p0)
    d_prev = None
    n = 1
    while True:
        residual = point_to_set_distance(fw, F[w], space)
        bound = tail_bound(cert, d1, n)
        edge_ok = problem.edges.contains(prev_fw, fw)
        trace.append(TraceRow(n, w, fw, d_n, residual, bound, edge_ok))
        if not edge_ok:
            return outcome(HypothesisViolated("edge", n))
        if d_prev is not None:
            limit = math.sqrt(gauge(d_prev)) * d_prev
            if not within(d_n, limit, limit):
                return outcome(HypothesisViolated("i", n))
        if residual <= cfg.residual_tol and (d_n <= cfg.tol or bound <= cfg.tol):
            common = fw if f[fw] == fw and fw in F[fw] else None
            return outcome(Converged(w, fw, fw in F[w]), common)
        if n > cfg.max_iter:
            return outcome(MaxIterExceeded(w))
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


# --- tail_bound -----------------------------------------------------------------

def test_tail_bound_closed_form():
    cert = ConvergenceCertificate(alpha=1.0 / 3.0)
    # oracle: direct evaluation of B * alpha^(n/2) / (1 - sqrt(alpha)) * d0
    expected = math.sqrt(3.0) * (2.0 / 9.0) / (1.0 - math.sqrt(1.0 / 3.0))
    assert abs(tail_bound(cert, 2.0 / 9.0, 0) - expected) < TOL
    assert abs(tail_bound(cert, 2.0 / 9.0, 0) - 0.9106836025229589) < 1e-15


def test_tail_bound_zero_first_step():
    cert = ConvergenceCertificate(alpha=0.5)
    for n in (0, 1, 5, 50):
        assert tail_bound(cert, 0.0, n) == 0.0


def test_tail_bound_quarter_rate():
    cert = ConvergenceCertificate(alpha=0.25)
    assert abs(tail_bound(cert, 1.0, 4) - 0.25) < TOL


def test_tail_bound_dominates_observed_tail():
    # alpha = 1/4, B = 2 bound must dominate distances to the limit in any
    # conforming trace; use an exact quarter-ladder as that trace
    cert = ConvergenceCertificate(alpha=0.25)
    d0 = 1.0
    positions = [sum(d0 * 0.25**j for j in range(n)) for n in range(30)]
    limit = d0 / (1 - 0.25)
    for n in range(25):
        assert limit - positions[n] <= tail_bound(cert, d0, n) + 1e-12


def test_certificate_validation():
    with pytest.raises(DomainError):
        ConvergenceCertificate(alpha=1.0)
    cert = ConvergenceCertificate(alpha=0.5)
    with pytest.raises(InputError):
        tail_bound(cert, -1.0, 0)
    with pytest.raises(InputError):
        tail_bound(cert, 1.0, -1)


def test_certificate_from_zero_gauge():
    cert = ConvergenceCertificate.from_gauge(Gauge.constant(0.0))
    assert tail_bound(cert, 0.7, 0) == 0.7  # 0^0 = 1 convention
    assert tail_bound(cert, 0.7, 3) == 0.0


def test_certificate_prefactor_is_derived_from_alpha():
    # a settable B let ConvergenceCertificate(alpha=0.25, B=0.01) bound the
    # tail 200 times too low
    with pytest.raises(TypeError):
        ConvergenceCertificate(alpha=0.25, B=0.01)
    for alpha in (1e-300, 1e-9, 0.25, 1.0 / 3.0, 0.5, 0.9, 1.0 - 2.0**-53):
        cert = ConvergenceCertificate(alpha)
        assert cert.B == alpha ** -0.5
        assert dataclasses.replace(cert, alpha=0.25).B == 2.0
    assert ConvergenceCertificate(0.0).B == 1.0
    assert ConvergenceCertificate(0.25).bound(1.0, 0) == 4.0


def test_trace_bounds_are_tail_bound_bit_for_bit():
    walk = run_coincidence_iteration(ternary_orbit_problem(20))
    operator = picard_solve(
        FbvpProblem(beta=1.5, g=lambda b, w: 0.5 * w + 1.0, gauge=Gauge.constant(0.5))
    )
    for out in (walk, operator):
        rows = [row for row in out.trace.rows if row.n >= 1]
        assert len(rows) > 5 and rows[0].n == 1
        d1 = rows[0].d
        for row in rows:
            bound = tail_bound(out.certificate, d1, row.n)
            assert struct.pack("<d", row.bound) == struct.pack("<d", bound)


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
    import graphfix.engine as engine

    calls = []
    validate = engine.validate_pair
    monkeypatch.setattr(
        engine, "validate_pair", lambda *args: calls.append(args) or validate(*args)
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


# --- run_operator_iteration --------------------------------------------------------

def cfg(tol=1e-12, max_iter=10_000):
    return IterationConfig(tol=tol, residual_tol=10 * tol, max_iter=max_iter)


def test_operator_identity_converges_immediately():
    w0 = np.array([1.0, -2.0, 3.0])
    out = run_operator_iteration(lambda u: u, w0, lambda d: True,
                                 Gauge.constant(0.5), cfg())
    assert out.converged
    assert np.array_equal(out.status.w_star, w0)
    assert out.iterations == 0


def test_operator_halving_map_reaches_zero():
    w0 = np.linspace(-1.0, 1.0, 7)
    out = run_operator_iteration(lambda u: u / 2.0, w0, lambda d: True,
                                 Gauge.constant(0.5), cfg())
    assert out.converged
    assert np.max(np.abs(out.status.w_star)) <= 2e-12
    # closed form: after n halvings the iterate is w0 / 2^n
    n = len(out.trace.rows)
    assert np.max(np.abs(out.status.w_star - w0 / 2.0**n)) <= 1e-12


def test_operator_displacement_violation_detected():
    out = run_operator_iteration(
        lambda u: u * 2.0 + 1.0, np.array([1.0, 1.0]), lambda d: True,
        Gauge.constant(0.5), cfg(),
    )
    assert isinstance(out.status, HypothesisViolated)
    assert out.status.condition == "i"


def test_operator_subspace_gate():
    out = run_operator_iteration(
        lambda u: u / 2.0,
        np.array([1.0, 0.0, 1.0]),
        lambda d: abs(d[0]) < 1e-15,  # displacement must vanish at the left end
        Gauge.constant(0.5),
        cfg(),
    )
    assert isinstance(out.status, HypothesisViolated)
    assert out.status.condition == "edge"
    assert out.status.step == 0


def test_operator_budget_exhaustion_keeps_history():
    out = run_operator_iteration(
        lambda u: u * 0.99, np.array([1.0]), lambda d: True,
        Gauge.constant(0.99), cfg(tol=1e-15, max_iter=5),
    )
    assert isinstance(out.status, MaxIterExceeded)
    assert out.status.last_point is not None
    assert len(out.trace.rows) == 5


def test_operator_iteration_drives_bernstein_to_endpoint_line():
    # the operator interpolates endpoint values, so displacements vanish
    # there and the limit keeps the start's endpoint values
    from graphfix.bernstein import QParams, contraction_constant, nodes, operator_matrix

    qp = QParams(4, 0.8)
    B = operator_matrix(qp)
    w0 = nodes(qp) ** 2
    out = run_operator_iteration(
        lambda u: B @ np.abs(u),
        w0,
        lambda d: abs(d[0]) <= 1e-12 and abs(d[-1]) <= 1e-12,
        Gauge.constant(1.0 - contraction_constant(qp)),
        cfg(),
    )
    assert out.converged
    assert abs(out.status.w_star[0] - w0[0]) <= 1e-12
    assert abs(out.status.w_star[-1] - w0[-1]) <= 1e-12


# --- the reference operator loop -------------------------------------------------

def _reference_run_operator_iteration(T, w0, in_W0, gauge, config):
    """The operator loop before it took one displacement per step: two
    subtractions per step, sups through ``np.max``, ``tail_bound`` per
    row, and every displacement kept in a list.  The contraction check's
    scale adds ||w0|| and every displacement to the bound."""
    cert = ConvergenceCertificate.from_gauge(gauge)
    trace = IterationTrace()

    def sup(vec) -> float:
        return float(np.max(np.abs(vec))) if np.size(vec) else 0.0

    w_cur = np.asarray(w0, dtype=float).copy()
    w_next = np.asarray(T(w_cur), dtype=float)
    if not in_W0(w_cur - w_next):
        trace.append(TraceRow(0, None, None, float("nan"), sup(w_cur - w_next),
                              float("nan"), False))
        return IterationOutcome(HypothesisViolated("edge", 0), trace, cert)

    ds = [sup(w_cur - w_next)]
    d1 = ds[0]
    n = 1
    status = None
    while True:
        w_after = np.asarray(T(w_next), dtype=float)
        resid = sup(w_next - w_after)
        trace.append(
            TraceRow(n, None, None, ds[-1], resid, tail_bound(cert, d1, n), True)
        )
        if ds[-1] <= config.tol and resid <= config.residual_tol:
            status = Converged(w_next, w_next)
            break
        if not in_W0(w_next - w_after):
            status = HypothesisViolated("edge", n)
            break
        d_prev, d_cur = ds[-1], resid
        limit = gauge(d_prev) * d_prev
        reach = sum(ds, sup(w0)) + d_cur
        if not within(d_cur, limit, limit + reach):
            status = HypothesisViolated("i", n)
            break
        if n >= config.max_iter:
            status = MaxIterExceeded(w_next)
            break
        ds.append(d_cur)
        w_cur, w_next = w_next, w_after
        n += 1

    outcome = IterationOutcome(status, trace, cert)
    if isinstance(status, Converged):
        if not in_W0(np.asarray(w0, dtype=float) - status.w_star):
            outcome.status = HypothesisViolated("edge", n)
    return outcome


def _bits(value):
    """``value`` with every float replaced by its bytes, so that == is bit
    equality (NaN equals itself, -0.0 differs from 0.0)."""
    if isinstance(value, dict):
        return {k: _bits(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, float):
        return struct.pack("<d", value)
    return value


def _run_logged(run, T, w0, make_in_W0, gauge, config):
    """One run with T and in_W0 wrapped to log every call: the outcome,
    the T arguments and the in_W0 arguments, in call order."""
    t_args, w0_args = [], []
    in_W0 = make_in_W0()

    def logged_T(u):
        t_args.append(np.array(u))
        return T(u)

    def logged_in_W0(delta):
        w0_args.append(np.array(delta))
        return in_W0(delta)

    return run(logged_T, w0, logged_in_W0, gauge, config), t_args, w0_args


def _assert_matches_reference(T, w0, make_in_W0, gauge, config):
    new, new_t, new_w0 = _run_logged(run_operator_iteration, T, w0, make_in_W0,
                                     gauge, config)
    ref, ref_t, ref_w0 = _run_logged(_reference_run_operator_iteration, T, w0,
                                     make_in_W0, gauge, config)
    assert _bits(new.to_dict()) == _bits(ref.to_dict())
    assert type(new.status) is type(ref.status)
    assert _bits(new.point) == _bits(ref.point)
    assert len(new.trace) == len(ref.trace)
    for got, want in zip(new.trace.rows, ref.trace.rows):
        assert _bits(dataclasses.astuple(got)) == _bits(dataclasses.astuple(want))
    assert _bits(new.certificate.alpha) == _bits(ref.certificate.alpha)
    assert _bits(new_t) == _bits(ref_t)
    assert _bits(new_w0) == _bits(ref_w0)
    return new


def _always():
    return lambda delta: True


def _endpoints_fixed():
    return lambda delta: abs(delta[0]) <= 1e-12 and abs(delta[-1]) <= 1e-12


def _fails_on_call(k):
    """A fresh in_W0 that holds on its first k - 1 calls and fails on call k."""
    def make():
        calls = itertools.count(1)
        return lambda delta: next(calls) < k
    return make


_PHIS = {
    "square": lambda a: a * a,
    "sin": lambda a: math.sin(math.pi * a),
    "negative-ends": lambda a: 3.0 * a * (1.0 - a) - 0.25 - 0.5 * a,
    "negative-left": lambda a: math.cos(3.0 * a) - 1.2,
}


@pytest.mark.parametrize("n", [1, 2, 5, 10, 20, 40])
def test_operator_loop_matches_reference_on_bernstein(n):
    from graphfix.bernstein import QParams, contraction_constant, nodes, operator_matrix

    runs = 0
    for q in (0.5, 0.9, 1.0, 2.0):
        qp = QParams(n, q)
        B = operator_matrix(qp)
        # the paper's gauge wherever 1 - b_nq stays below 1, and a false one
        gauges = [Gauge.constant(min(1.0 - contraction_constant(qp), 1.0 - 1e-9)),
                  Gauge.constant(0.3)]
        for phi in _PHIS.values():
            start = np.array([float(phi(t)) for t in nodes(qp)])
            nonneg = start[0] >= 0.0 and start[-1] >= 0.0
            make = _endpoints_fixed if nonneg else _always
            for gauge in gauges:
                for max_iter in (0, 1, 7, 5000):
                    _assert_matches_reference(
                        lambda u: B @ np.abs(u), start, make, gauge,
                        IterationConfig(tol=1e-12, residual_tol=1e-12,
                                        max_iter=max_iter),
                    )
                    runs += 1
    assert runs == 4 * len(_PHIS) * 2 * 4


@pytest.mark.parametrize("beta", [1.25, 1.5, 2.0])
def test_operator_loop_matches_reference_on_fbvp(beta):
    from graphfix.fbvp import FbvpProblem

    forcings = [
        (lambda b, w: 1.0, Gauge.constant(0.0)),  # const
        (lambda b, w: 0.5 * w + 1.0, Gauge.constant(0.5)),  # linear-w
        # false gauges: slopes 0.5 and 3 certified far below themselves
        (lambda b, w: 0.5 * w + 1.0, Gauge.constant(1e-3)),
        (lambda b, w: 3.0 * math.sin(w) + b, Gauge.constant(0.01)),
    ]
    stops = []
    for g, gauge in forcings:
        problem = FbvpProblem(beta=beta, g=g, gauge=gauge, grid_m=40)
        K = problem.matrix
        assert K.norm_inf() < 1.0
        for max_iter in (0, 1, 7, 10_000):
            out = _assert_matches_reference(
                lambda u: K @ problem.forcing_vector(u), np.zeros(41), _always,
                gauge,
                IterationConfig(tol=1e-10, residual_tol=1e-9, max_iter=max_iter),
            )
            stops.append(getattr(out.status, "condition", None))
    assert stops.count("i") >= 4  # each false gauge fails condition (i)


@pytest.mark.parametrize("fail_on, step", [(1, 0), (2, 1), (5, 4), (40, 39), (42, 41)])
def test_operator_loop_matches_reference_when_in_W0_fails(fail_on, step):
    # call 1 is the start displacement (step 0) and call k the displacement
    # of step k - 1; the run converges at step 41 before its in_W0 call, so
    # call 42 is the final check of the total displacement
    w0 = np.linspace(-1.0, 2.0, 9)
    out = _assert_matches_reference(
        lambda u: 0.5 * u + 0.25, w0, _fails_on_call(fail_on), Gauge.constant(0.5),
        cfg(),
    )
    assert isinstance(out.status, HypothesisViolated)
    assert (out.status.condition, out.status.step) == ("edge", step)


@pytest.mark.parametrize("max_iter", [0, 1, 7])
def test_operator_loop_matches_reference_on_an_empty_vector(max_iter):
    out = _assert_matches_reference(
        lambda u: 0.5 * u, np.zeros(0), _always, Gauge.constant(0.5),
        cfg(max_iter=max_iter),
    )
    assert out.converged and out.trace.rows[-1].residual == 0.0


def test_operator_loop_matches_reference_on_scaled_and_signed_maps():
    rng = np.random.default_rng(13)
    for _ in range(60):
        size = int(rng.integers(1, 12))
        A = rng.normal(size=(size, size))
        A *= rng.uniform(0.2, 1.2) / max(np.max(np.sum(np.abs(A), axis=1)), 1e-300)
        c = rng.normal(size=size) * 10.0 ** rng.integers(-8, 8)
        w0 = rng.normal(size=size) * 10.0 ** rng.integers(-8, 8)
        gauge = Gauge.constant(float(rng.uniform(0.0, 0.99)))
        max_iter = int(rng.choice([0, 1, 7, 300]))
        _assert_matches_reference(lambda u: A @ u + c, w0, _always, gauge,
                                  cfg(tol=1e-9, max_iter=max_iter))


def test_iteration_config_validation():
    with pytest.raises(InputError):
        IterationConfig(tol=0.0)
    with pytest.raises(InputError):
        IterationConfig(residual_tol=-1.0)
    with pytest.raises(InputError):
        IterationConfig(max_iter=-1)
    assert IterationConfig(max_iter=0).max_iter == 0  # budget probes allowed
