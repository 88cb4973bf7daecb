"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance and runtime budget is pinned here.
"""

import math
import random
import time
from math import comb

import numpy as np

from graphfix.bernstein import (
    QParams,
    basis,
    contraction_constant,
    iterate_to_limit,
)
from graphfix.engine import Converged, run_coincidence_iteration
from graphfix.fbvp import FbvpProblem, GreenKernel, green_kernel, picard_solve
from graphfix.metric import Gauge
from graphfix.problems import ternary_orbit_problem
from graphfix.verifier import (
    enumerate_coincidence_points,
    verify_coincidence_hypotheses,
    verify_kamran_inequality,
)

from ladders import random_ladder_problem


def test_criterion_1_ternary_orbit_reproduction():
    t0 = time.perf_counter()
    problem = ternary_orbit_problem(12)
    assert problem.gauge.certified_sup == 1.0 / 3.0
    assert problem.edges.radius == 1.0 / 9.0
    report = verify_coincidence_hypotheses(
        problem.space, problem.f, problem.F, problem.edges, problem.gauge,
        truncated=problem.truncated,
    )
    assert report.all_ok

    assert problem.w0 == "1/3" and problem.p0 == "1/27"
    outcome = run_coincidence_iteration(problem)
    assert isinstance(outcome.status, Converged)
    assert outcome.status.w_star == "0"
    assert outcome.status.f_w_star in problem.F["0"]
    assert outcome.common_fixed_point == "0"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: ternary orbit reproduction ({elapsed:.3f}s)")


def test_criterion_2_kamran_counterexample():
    t0 = time.perf_counter()
    problem = ternary_orbit_problem(12)
    report = verify_kamran_inequality(
        problem.space, problem.f, problem.F, Gauge.constant(0.999), M=0.0
    )
    assert not report.holds
    hits = [w for w in report.witnesses if (w["v"], w["w"]) == ("0", "1")]
    assert hits
    w = hits[0]
    assert abs(w["H"] - 1.0 / 3.0) <= 1e-12
    assert abs(w["d"] - 1.0 / 3.0) <= 1e-12
    assert abs(w["D"] - 0.0) <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\nPASS criterion 2: Hausdorff-inequality counterexample ({elapsed:.3f}s)")


def test_criterion_3_step_decrease_and_certificate():
    t0 = time.perf_counter()
    rng = random.Random(20250809)
    checked = 0
    while checked < 200:
        problem = random_ladder_problem(rng, max_points=12)
        assert len(problem.space) <= 12
        report = verify_coincidence_hypotheses(
            problem.space, problem.f, problem.F, problem.edges, problem.gauge,
            truncated=problem.truncated,
        )
        assert report.all_ok  # the generator must produce conforming problems
        outcome = run_coincidence_iteration(problem)
        assert outcome.converged
        rows = outcome.trace.rows
        alpha = problem.gauge.certified_sup
        root = math.sqrt(alpha)
        ds = [r.d for r in rows[1:]]
        for a, b in zip(ds, ds[1:]):
            assert b <= root * a + 1e-10
        fw_star = outcome.status.f_w_star
        for r in rows[1:]:
            dist = problem.space.distance(r.fw_label, fw_star)
            assert dist <= r.bound + 1e-10
        coincidence = enumerate_coincidence_points(
            problem.space, problem.f, problem.F
        ).coincidence
        assert outcome.status.w_star in coincidence
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"\nPASS criterion 3: 200 random problems, steps+certificate+oracle "
          f"({elapsed:.2f}s)")


def test_criterion_4_bernstein_iterates():
    t0 = time.perf_counter()
    for q in (0.5, 0.9, 1.0, 2.0, 7.3):
        assert contraction_constant(QParams(1, q)) == 1.0
    assert contraction_constant(QParams(2, 1.0)) == 0.5

    grid = np.linspace(0.0, 1.0, 101)
    for n, q in ((3, 0.5), (5, 0.9), (5, 1.0), (8, 2.0)):
        result = iterate_to_limit(QParams(n, q), lambda a: a * a, tol=1e-12)
        assert result.converged
        limit = result.evaluate_grid(grid)
        # phi(0) = 0, phi(1) = 1: the limit line is the identity
        assert np.max(np.abs(limit - grid)) <= 1e-8
        ds = [r.d for r in result.trace.rows if not math.isnan(r.d)]
        bound = 1.0 - result.b_nq + 1e-12
        for a, b in zip(ds, ds[1:]):
            if a > 0:
                assert b / a <= bound
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"\nPASS criterion 4: q-Bernstein iterate limits ({elapsed:.2f}s)")


def test_criterion_5_partition_of_unity_and_q1_reduction():
    t0 = time.perf_counter()
    grid = np.linspace(0.0, 1.0, 201)
    for n in range(1, 11):
        for q in (0.5, 0.9, 1.0, 1.5, 3.0):
            qp = QParams(n, q)
            for a in grid:
                assert abs(basis(qp, [a])[0].sum() - 1.0) <= 1e-12
        qp1 = QParams(n, 1.0)
        for a in grid:
            bv = basis(qp1, [a])[0]
            classical = np.array(
                [comb(n, i) * a**i * (1.0 - a) ** (n - i) for i in range(n + 1)]
            )
            assert np.max(np.abs(bv - classical)) <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"\nPASS criterion 5: partition of unity and q=1 reduction ({elapsed:.2f}s)")


def test_criterion_6_fbvp_classical_limit():
    t0 = time.perf_counter()
    sin_problem = FbvpProblem(
        beta=2.0,
        g=lambda b, w: math.pi**2 * math.sin(math.pi * b),
        gauge=Gauge.constant(0.0),
        grid_m=200,
    )
    rep = picard_solve(sin_problem)
    assert rep.converged
    err = np.max(np.abs(rep.solution.values - np.sin(math.pi * sin_problem.grid)))
    assert err <= 1e-5

    lin_problem = FbvpProblem(
        beta=2.0, g=lambda b, w: 0.5 * w + 1.0, gauge=Gauge.constant(0.5), grid_m=200
    )
    rep2 = picard_solve(lin_problem)
    assert rep2.converged
    K = np.column_stack([lin_problem.matrix @ e for e in np.eye(lin_problem.grid_m + 1)])
    direct = np.linalg.solve(
        np.eye(lin_problem.grid_m + 1) - 0.5 * K, K @ np.ones(lin_problem.grid_m + 1)
    )
    assert np.max(np.abs(rep2.solution.values - direct)) <= 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"\nPASS criterion 6: classical fractional limit ({elapsed:.2f}s)")


def test_criterion_7_fbvp_fractional_self_consistency():
    t0 = time.perf_counter()
    for beta in (1.25, 1.5, 1.9):
        problem = FbvpProblem(
            beta=beta,
            g=lambda b, w: 0.25 * math.sin(w) + b,
            gauge=Gauge.constant(0.25),
            grid_m=200,
        )
        rep = picard_solve(problem)
        assert rep.converged
        assert rep.residual <= 1e-8
        ratio_cap = rep.kappa / 4.0
        ds = [r.d for r in rep.trace.rows if not math.isnan(r.d)]
        for a, b in zip(ds, ds[1:]):
            if a > 1e-12:
                assert b <= ratio_cap * a + 1e-14

        kernel = GreenKernel(beta)
        for a in np.linspace(0.0, 1.0, 41):
            assert green_kernel(kernel, 0.0, a) == 0.0
            assert green_kernel(kernel, 1.0, a) == 0.0
        p = beta - 1.0
        for t in np.linspace(0.02, 0.98, 25):
            upper = ((t * (1 - t)) ** p - 0.0**p) / kernel.gamma_beta
            lower = (t * (1 - t)) ** p / kernel.gamma_beta
            assert abs(upper - lower) <= 1e-12
            assert abs(green_kernel(kernel, t, t) - lower) <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"\nPASS criterion 7: fractional self-consistency ({elapsed:.2f}s)")
