import math

import mpmath
import numpy as np
import pytest

from graphfix.engine import HypothesisViolated, MaxIterExceeded
from graphfix.errors import InputError
from graphfix.fbvp import (
    FbvpProblem,
    GreenKernel,
    GridFunction,
    _panel_weights,
    apply_integral_operator,
    build_operator_matrix,
    green_kernel,
    picard_solve,
    quadrature_kappa,
    verify_condition_i,
)
from graphfix.metric import Gauge

TOL = 1e-12


# --- gamma --------------------------------------------------------------------

def test_gamma_integers():
    assert GreenKernel(2.0).gamma_beta == 1.0
    assert abs(GreenKernel(5.0).gamma_beta - 24.0) < 24.0 * TOL


def test_gamma_against_libm_oracle():
    for beta in np.linspace(1.05, 30.0, 499):
        assert GreenKernel(beta).gamma_beta == math.gamma(beta)


def test_gamma_against_high_precision_oracle():
    mpmath.mp.dps = 40
    for beta in (1.01, 1.25, 1.5, 1.9, 2.0, 3.7):
        ref = float(mpmath.gamma(beta))
        assert abs(GreenKernel(beta).gamma_beta - ref) <= 1e-14 * abs(ref)


# --- green kernel ----------------------------------------------------------------

def test_kernel_vanishes_on_boundary():
    for beta in (1.25, 1.5, 2.0, 3.0):
        K = GreenKernel(beta)
        for a in np.linspace(0.0, 1.0, 17):
            assert green_kernel(K, 0.0, a) == 0.0
            assert green_kernel(K, 1.0, a) == 0.0


def test_kernel_classical_limit():
    # beta = 2 reduces to the a(1-b) / b(1-a) kernel of -w'' with zero data
    K = GreenKernel(2.0)
    assert abs(green_kernel(K, 0.75, 0.5) - 0.125) < TOL
    for b in np.linspace(0.0, 1.0, 21):
        for a in np.linspace(0.0, 1.0, 21):
            classical = a * (1 - b) if a <= b else b * (1 - a)
            assert abs(green_kernel(K, b, a) - classical) < TOL


def test_kernel_branches_agree_on_diagonal():
    for beta in (1.25, 1.5, 1.9, 2.0):
        K = GreenKernel(beta)
        p = beta - 1.0
        for t in np.linspace(0.05, 0.95, 19):
            first = ((t * (1 - t)) ** p - 0.0**p) / K.gamma_beta
            second = (t * (1 - t)) ** p / K.gamma_beta
            assert abs(first - second) < 1e-12
            assert abs(green_kernel(K, t, t) - second) < 1e-12
    K15 = GreenKernel(1.5)
    assert abs(green_kernel(K15, 0.5, 0.5) - 0.5641895835477563) < 1e-12


def test_kernel_nonnegative_for_beta_up_to_two():
    grid = np.linspace(0.0, 1.0, 201)
    for beta in (1.1, 1.5, 2.0):
        K = GreenKernel(beta)
        vals = green_kernel(K, grid[:, None], grid[None, :])
        assert np.min(vals) >= 0.0


def test_kernel_input_validation():
    K = GreenKernel(1.5)
    with pytest.raises(InputError):
        green_kernel(K, -0.1, 0.5)
    with pytest.raises(InputError):
        green_kernel(K, 0.5, 1.1)
    with pytest.raises(InputError):
        GreenKernel(1.0)


# --- quadrature weights -------------------------------------------------------------

def test_panel_weights_integrate_cubics():
    # Simpson (even) is exact on cubics; the 3/8 closure keeps that
    for npanels in (2, 4, 6, 3, 5, 7, 9):
        w = _panel_weights(npanels)
        xs = np.arange(npanels + 1, dtype=float)
        for k in range(4):
            exact = npanels ** (k + 1) / (k + 1)
            assert abs(float(w @ xs**k) - exact) <= 1e-9 * max(1.0, exact)


def test_panel_weights_single_panel_trapezoid():
    assert np.array_equal(_panel_weights(1), [0.5, 0.5])
    assert np.array_equal(_panel_weights(0), [0.0])


# --- integral operator ----------------------------------------------------------------

def test_operator_zero_forcing():
    prob = FbvpProblem(beta=1.5, g=lambda b, w: 0.0, gauge=Gauge.constant(0.0),
                       grid_m=40)
    out = apply_integral_operator(prob, GridFunction.zeros(40))
    assert np.all(out.values == 0.0)


def test_operator_sin_forcing_classical():
    prob = FbvpProblem(
        beta=2.0, g=lambda b, w: math.pi**2 * math.sin(math.pi * b),
        gauge=Gauge.constant(0.0), grid_m=200,
    )
    out = apply_integral_operator(prob, GridFunction.zeros(200))
    err = np.max(np.abs(out.values - np.sin(math.pi * prob.grid)))
    assert err <= 1e-5
    assert out.values[0] == 0.0 and out.values[-1] == 0.0


def test_operator_constant_forcing_quadratic():
    prob = FbvpProblem(beta=2.0, g=lambda b, w: 1.0, gauge=Gauge.constant(0.0),
                       grid_m=200)
    out = apply_integral_operator(prob, GridFunction.zeros(200))
    exact = prob.grid * (1.0 - prob.grid) / 2.0
    assert np.max(np.abs(out.values - exact)) <= 1e-6


def test_quadrature_order_at_least_two():
    # sup error on the sin case must shrink at least 4x per grid doubling
    errs = []
    for m in (50, 100, 200):
        prob = FbvpProblem(
            beta=2.0, g=lambda b, w: math.pi**2 * math.sin(math.pi * b),
            gauge=Gauge.constant(0.0), grid_m=m,
        )
        out = apply_integral_operator(prob, GridFunction.zeros(m))
        errs.append(np.max(np.abs(out.values - np.sin(math.pi * prob.grid))))
    assert errs[0] / errs[1] >= 3.5
    assert errs[1] / errs[2] >= 3.5


def test_kappa_matches_analytic_maximum():
    # beta = 2: int_0^1 G(b, a) da = b(1-b)/2, maximal value 1/8
    prob = FbvpProblem(beta=2.0, g=lambda b, w: 0.0, gauge=Gauge.constant(0.0),
                       grid_m=100)
    assert abs(quadrature_kappa(prob) - 0.125) <= 1e-6


# --- picard solver -----------------------------------------------------------------------

def test_picard_w_independent_single_iteration():
    prob = FbvpProblem(
        beta=2.0, g=lambda b, w: math.pi**2 * math.sin(math.pi * b),
        gauge=Gauge.constant(0.0), grid_m=200,
    )
    rep = picard_solve(prob)
    assert rep.converged
    assert rep.iterations == 1
    assert np.max(np.abs(rep.solution.values - np.sin(math.pi * prob.grid))) <= 1e-5


def test_picard_linear_matches_direct_elimination():
    prob = FbvpProblem(beta=2.0, g=lambda b, w: 0.5 * w + 1.0,
                       gauge=Gauge.constant(0.5), grid_m=200)
    rep = picard_solve(prob)
    assert rep.converged
    K = prob.matrix
    direct = np.linalg.solve(np.eye(prob.grid_m + 1) - 0.5 * K, K @ np.ones(201))
    assert np.max(np.abs(rep.solution.values - direct)) <= 1e-8
    assert rep.residual <= 1e-8
    assert rep.warning is None
    assert abs(rep.effective_factor - rep.kappa * 0.5) < TOL


def test_picard_fractional_self_consistency():
    prob = FbvpProblem(
        beta=1.5, g=lambda b, w: 0.25 * math.sin(w) + b,
        gauge=Gauge.constant(0.25), grid_m=200,
    )
    rep = picard_solve(prob)
    assert rep.converged
    assert rep.residual <= 1e-8
    ds = rep.displacement_history
    for x, y in zip(ds, ds[1:]):
        if x > 1e-12:
            assert y <= (rep.kappa / 4.0) * x + 1e-14


def test_picard_gauge_violation_flagged():
    # forcing slope 2 massively exceeds the certified bound 0.1
    prob = FbvpProblem(beta=1.2, g=lambda b, w: 2.0 * w + 1.0,
                       gauge=Gauge.constant(0.1), grid_m=40)
    rep = picard_solve(prob)
    assert not rep.converged
    assert isinstance(rep.outcome.status, HypothesisViolated)


def test_picard_budget_report():
    prob = FbvpProblem(beta=1.5, g=lambda b, w: 0.5 * w + 1.0,
                       gauge=Gauge.constant(0.5), grid_m=40,
                       tol=1e-14, max_iter=2)
    rep = picard_solve(prob)
    assert not rep.converged
    assert isinstance(rep.outcome.status, MaxIterExceeded)
    assert len(rep.displacement_history) >= 1


def test_problem_validation():
    with pytest.raises(InputError):
        FbvpProblem(beta=0.9, g=lambda b, w: 0.0, gauge=Gauge.constant(0.0))
    with pytest.raises(InputError):
        FbvpProblem(beta=1.5, g=lambda b, w: 0.0, gauge=Gauge.constant(0.0),
                    grid_m=41)
    with pytest.raises(InputError):
        build_operator_matrix(1.5, 3)


# --- condition (i) sampling -------------------------------------------------------------

def _grid_pair(m, f1, f2):
    return (GridFunction.from_callable(f1, m), GridFunction.from_callable(f2, m))


def test_condition_i_linear_ratio_exactly_half():
    prob = FbvpProblem(beta=2.0, g=lambda b, w: 0.5 * w, gauge=Gauge.constant(0.5),
                       grid_m=40)
    samples = [
        _grid_pair(40, lambda b: math.sin(3 * b), lambda b: b * b - 0.3),
        _grid_pair(40, lambda b: 2.0, lambda b: -1.0),
    ]
    rep = verify_condition_i(prob, samples)
    assert rep.holds
    assert abs(rep.max_ratio - 0.5) <= 1e-15


def test_condition_i_detects_unbounded_slope():
    prob = FbvpProblem(beta=2.0, g=lambda b, w: w * w, gauge=Gauge.constant(0.99),
                       grid_m=20)
    samples = [_grid_pair(20, lambda b: 2.0, lambda b: 3.0)]
    rep = verify_condition_i(prob, samples)
    assert not rep.holds
    assert rep.max_ratio >= 5.0  # |4 - 9| / |2 - 3|


def test_condition_i_sine_within_near_unit_gauge():
    prob = FbvpProblem(
        beta=2.0, g=lambda b, w: math.sin(w), gauge=Gauge.constant(1.0 - 1e-6),
        grid_m=40,
    )
    samples = [
        _grid_pair(40, lambda b: 0.5 + b, lambda b: 1.5 - b),
        _grid_pair(40, lambda b: 0.3, lambda b: 0.9),
    ]
    rep = verify_condition_i(prob, samples)
    assert rep.holds
    assert rep.max_ratio <= 1.0


def test_condition_i_needs_samples():
    prob = FbvpProblem(beta=2.0, g=lambda b, w: 0.0, gauge=Gauge.constant(0.0),
                       grid_m=20)
    with pytest.raises(InputError):
        verify_condition_i(prob, [])
