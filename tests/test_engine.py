import dataclasses
import math
import random

import numpy as np
import pytest

from graphfix.engine import (
    CoincidenceProblem,
    ConvergenceCertificate,
    Converged,
    HypothesisViolated,
    IterationConfig,
    MaxIterExceeded,
    run_coincidence_iteration,
    run_operator_iteration,
    select_successor,
    tail_bound,
)
from graphfix.errors import DomainError, HypothesisViolation, InputError
from graphfix.metric import ClosedSet, EdgeStructure, FiniteMetricSpace, Gauge
from graphfix.problems import (
    identity_problem,
    random_ladder_problem,
    ternary_orbit_problem,
)
from graphfix.serialize import json_dumps
from graphfix.verifier import enumerate_coincidence_points

TOL = 1e-12


def ternary_space(depth=6):
    labels = ["0", "1"] + [f"1/{3**n}" for n in range(1, depth + 1)]
    values = [0.0, 1.0] + [3.0**-n for n in range(1, depth + 1)]
    return FiniteMetricSpace.from_coords(labels, values)


# --- select_successor ---------------------------------------------------------

def test_select_nearest_on_orbit_step():
    space = ternary_space()
    y = select_successor(
        2.0 / 9.0, "1/9", ClosedSet.finite(["1/3", "1/81"]),
        Gauge.constant(1.0 / 3.0), space,
    )
    assert y == "1/81"


def test_select_returns_coincident_member():
    space = ternary_space()
    y = select_successor(
        0.5, "1/9", ClosedSet.finite(["1", "1/9"]), Gauge.constant(0.5), space
    )
    assert y == "1/9"


def test_select_tie_breaks_to_lowest_index():
    space = FiniteMetricSpace.from_coords(["0", "0.5", "1"], [0.0, 0.5, 1.0])
    y = select_successor(
        1.0, "0.5", ClosedSet.finite(["1", "0"]), Gauge.constant(0.25), space
    )
    assert y == "0"  # both at distance 0.5; "0" has the lower label index


def test_select_zero_gauge_with_positive_residual():
    space = ternary_space()
    with pytest.raises(HypothesisViolation):
        select_successor(
            0.1, "1/9", ClosedSet.finite(["1"]), Gauge.constant(0.0), space
        )


def test_select_empty_set():
    space = ternary_space()
    with pytest.raises(DomainError):
        select_successor(0.1, "1/9", (), Gauge.constant(0.5), space)


# --- tail_bound -----------------------------------------------------------------

def test_tail_bound_closed_form():
    cert = ConvergenceCertificate(alpha=1.0 / 3.0, B=math.sqrt(3.0))
    # oracle: direct evaluation of B * alpha^(n/2) / (1 - sqrt(alpha)) * d0
    expected = math.sqrt(3.0) * (2.0 / 9.0) / (1.0 - math.sqrt(1.0 / 3.0))
    assert abs(tail_bound(cert, 2.0 / 9.0, 0) - expected) < TOL
    assert abs(tail_bound(cert, 2.0 / 9.0, 0) - 0.9106836025229589) < 1e-15


def test_tail_bound_zero_first_step():
    cert = ConvergenceCertificate(alpha=0.5, B=2.0)
    for n in (0, 1, 5, 50):
        assert tail_bound(cert, 0.0, n) == 0.0


def test_tail_bound_quarter_rate():
    cert = ConvergenceCertificate(alpha=0.25, B=2.0)
    assert abs(tail_bound(cert, 1.0, 4) - 0.25) < TOL


def test_tail_bound_dominates_observed_tail():
    # alpha = 1/4, B = 2 bound must dominate distances to the limit in any
    # conforming trace; use an exact quarter-ladder as that trace
    cert = ConvergenceCertificate(alpha=0.25, B=2.0)
    d0 = 1.0
    positions = [sum(d0 * 0.25**j for j in range(n)) for n in range(30)]
    limit = d0 / (1 - 0.25)
    for n in range(25):
        assert limit - positions[n] <= tail_bound(cert, d0, n) + 1e-12


def test_certificate_validation():
    with pytest.raises(DomainError):
        ConvergenceCertificate(alpha=1.0, B=1.0)
    with pytest.raises(DomainError):
        ConvergenceCertificate(alpha=0.5, B=0.0)
    cert = ConvergenceCertificate(alpha=0.5, B=1.0)
    with pytest.raises(InputError):
        tail_bound(cert, -1.0, 0)
    with pytest.raises(InputError):
        tail_bound(cert, 1.0, -1)


def test_certificate_from_zero_gauge():
    cert = ConvergenceCertificate.from_gauge(Gauge.constant(0.0))
    assert tail_bound(cert, 0.7, 0) == 0.7  # 0^0 = 1 convention
    assert tail_bound(cert, 0.7, 3) == 0.0


# --- run_coincidence_iteration ----------------------------------------------------

def test_ternary_orbit_converges_to_common_fixed_point():
    out = run_coincidence_iteration(ternary_orbit_problem(12))
    assert isinstance(out.status, Converged)
    assert out.status.w_star == "0"
    assert out.status.f_w_star == "0"
    assert out.common_fixed_point == "0"
    assert out.final_residual == 0.0


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
        starts = [
            (w0, p0)
            for w0 in p.space.labels
            for p0 in p.members(w0)
            if p.edges.contains(p.f[w0], p0)
        ]
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


def test_iteration_config_validation():
    with pytest.raises(InputError):
        IterationConfig(tol=0.0)
    with pytest.raises(InputError):
        IterationConfig(residual_tol=-1.0)
    with pytest.raises(InputError):
        IterationConfig(max_iter=-1)
    assert IterationConfig(max_iter=0).max_iter == 0  # budget probes allowed
