import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from graphfix.engine import HypothesisViolated, MaxIterExceeded
from graphfix.errors import InputError
from graphfix.fbvp import (
    FbvpProblem,
    GreenKernel,
    _odd_row_corrections,
    build_operator_matrix,
    green_kernel,
    picard_solve,
    quadrature_kappa,
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


@pytest.mark.parametrize("beta", [171.7, 172.0, 1e4, 1e300])
def test_huge_beta_solves_to_zero(beta):
    # Gamma(beta) overflows a double past 171.62; 1/Gamma(beta) is below
    # 6e-309 there, so K, and with it the solution, is 0
    assert GreenKernel(beta).gamma_beta == math.inf
    prob = FbvpProblem(beta=beta, g=lambda b, w: 0.5 * w + 1.0,
                       gauge=Gauge.constant(0.5), grid_m=40)
    rep = picard_solve(prob)
    assert rep.converged
    assert np.all(rep.solution.values == 0.0)
    assert rep.kappa == 0.0 and rep.residual == 0.0



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
# Two dense references for the operator: the per-row construction, and the
# in-place (m+1)^2 build checked against it.

def _panel_weights(npanels: int) -> np.ndarray:
    """Quadrature weights on npanels+1 equispaced nodes, unit spacing.

    Composite Simpson for even counts; odd counts >= 3 close with the
    3/8 rule on the last three panels; a single panel falls back to the
    trapezoid rule.
    """
    if npanels == 0:
        return np.zeros(1)
    if npanels == 1:
        return np.array([0.5, 0.5])
    w = np.zeros(npanels + 1)
    simpson_panels = npanels if npanels % 2 == 0 else npanels - 3
    if simpson_panels > 0:
        w[0] += 1.0 / 3.0
        w[simpson_panels] += 1.0 / 3.0
        w[1:simpson_panels:2] += 4.0 / 3.0
        w[2:simpson_panels:2] += 2.0 / 3.0
    if npanels % 2 == 1:
        w[-4:] += np.array([3.0, 9.0, 9.0, 3.0]) / 8.0
    return w


def _reference_operator_matrix(beta: float, m: int) -> np.ndarray:
    """Row j: the kernel at b_j times the rule on [0, b_j] plus the rule on [b_j, 1]."""
    grid = np.linspace(0.0, 1.0, m + 1)
    G = green_kernel(GreenKernel(beta), grid[:, None], grid[None, :])
    K = np.zeros((m + 1, m + 1))
    for j in range(m + 1):
        wts = np.zeros(m + 1)
        wts[: j + 1] += _panel_weights(j) / m
        wts[j:] += _panel_weights(m - j) / m
        K[j] = wts * G[j]
    return K


def _toeplitz(v: np.ndarray) -> np.ndarray:
    """Read-only (m+1) x (m+1) view T[j, k] = v[m + j - k] of a 2m+1 vector."""
    return sliding_window_view(v[::-1], (v.size + 1) // 2)[::-1]


def _dense_operator_matrix(beta: float, m: int) -> np.ndarray:
    """K in place from the m+1 powers s^p: an outer product less a Toeplitz
    view, times the Simpson and parity-pattern weights, plus the odd-row
    corrections."""
    scale = 1.0 / (m * GreenKernel(beta).gamma_beta)
    sp = np.linspace(0.0, 1.0, m + 1) ** (beta - 1.0)
    K = np.outer(sp, sp[::-1])
    K -= _toeplitz(np.concatenate((np.zeros(m), sp)))
    rows, cols, weights = _odd_row_corrections(m)
    corrections = K[rows, cols] * (weights * scale)
    simpson = np.full(m + 1, 2 / 3)
    simpson[1::2] = 4 / 3
    simpson[[0, m]] = 1 / 3
    K[0::2] *= simpson * scale
    d = np.arange(-m, m + 1)
    pattern = np.where((d % 2 == 0) == (d > 0), 4 / 3, 2 / 3)
    pattern[m] = 2.0
    K[1::2] *= _toeplitz(pattern * scale)[1::2]
    np.add.at(K, (rows, cols), corrections)
    return K


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


@pytest.mark.parametrize("beta", [1.01, 1.25, 1.5, 1.9, 2.0, 3.7])
def test_operator_matrix_matches_per_row_construction(beta):
    for m in [*range(2, 41, 2), 200]:
        K = _dense_operator_matrix(beta, m)
        ref = _reference_operator_matrix(beta, m)
        assert K.shape == ref.shape
        assert np.max(np.abs(K - ref)) <= 1e-13 * np.max(np.abs(ref)), m
        assert np.all(K[0] == 0.0) and np.all(K[m] == 0.0), m
        assert np.all(K >= 0.0), m  # quadrature_kappa relies on it


@pytest.mark.parametrize("beta", [1.01, 1.25, 1.5, 1.9, 2.0, 3.7])
def test_operator_matches_dense_reference(beta):
    rng = np.random.default_rng(7)
    for m in [*range(2, 41, 2), 200, 2000]:
        K = _dense_operator_matrix(beta, m)
        op = build_operator_matrix(beta, m)
        bound = 1e-13 * np.max(np.sum(np.abs(K), axis=1))
        for v in (np.ones(m + 1), rng.choice([-1.0, 1.0], m + 1), rng.random(m + 1)):
            out = op @ v
            assert np.max(np.abs(out - K @ v)) <= bound * np.max(np.abs(v)), m
            assert out[0] == 0.0 and out[m] == 0.0, m


@pytest.mark.parametrize("beta", [1.01, 1.5, 2.0, 3.7])
@pytest.mark.parametrize("m", [1022, 1024])
def test_operator_matches_dense_reference_at_the_tightest_pads(beta, m):
    # at m = 1022 the 2048-point transforms hold 2m + 1 = 2045 points with
    # three to spare, and the third convolution wraps onto lags up to m - 4;
    # at m = 1024, 2m + 1 = 2049 is one past 2048, so n doubles to 4096
    K = _dense_operator_matrix(beta, m)
    op = build_operator_matrix(beta, m)
    bound = 1e-13 * np.max(np.sum(np.abs(K), axis=1))
    rng = np.random.default_rng(11)
    for v in (np.ones(m + 1), rng.choice([-1.0, 1.0], m + 1), rng.random(m + 1)):
        assert np.max(np.abs(op @ v - K @ v)) <= bound * np.max(np.abs(v))


def test_transform_length_is_the_smallest_power_of_two_covering_2m_plus_1():
    for m, n in ((2, 8), (4, 16), (6, 16), (200, 512), (600, 2048), (1022, 2048),
                 (1024, 4096), (1200, 4096), (2000, 4096), (4000, 8192)):
        filters = build_operator_matrix(1.5, m).filters
        assert 2 * filters.shape[1] - 2 == n, m
        assert n >= 2 * m + 1 > n // 2, m


def test_operator_memory_is_linear_in_m():
    # the dense (m+1)^2 matrix alone would take 128 MB at m = 4000
    prob = FbvpProblem(beta=1.5, g=lambda b, w: 0.5 * w + 1.0,
                       gauge=Gauge.constant(0.5), grid_m=4000)
    tracemalloc.start()
    try:
        rep = picard_solve(prob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.converged
    assert peak < 8 * 2**20


# --- integral operator ----------------------------------------------------------------

def test_operator_zero_forcing():
    prob = FbvpProblem(beta=1.5, g=lambda b, w: 0.0, gauge=Gauge.constant(0.0),
                       grid_m=40)
    out = prob.matrix @ prob.forcing_vector(np.zeros(41))
    assert np.all(out == 0.0)


def test_forcing_receives_floats_at_the_grid_nodes():
    seen = []

    def g(b, w):
        seen.append((type(b), type(w), b, w))
        return 0.5 * w + 1.0

    prob = FbvpProblem(beta=1.5, g=g, gauge=Gauge.constant(0.5), grid_m=40)
    values = np.linspace(-1.0, 1.0, 41) ** 3
    out = prob.forcing_vector(values)
    assert [t for t in seen if t[:2] != (float, float)] == []
    assert [(b, w) for _, _, b, w in seen] == list(zip(prob.grid, values))
    # the builtin forcings give the same bits as with numpy scalars
    for f in (lambda b, w: math.pi**2 * math.sin(math.pi * b), lambda b, w: 1.0,
              lambda b, w: 0.5 * w + 1.0):
        prob.g = f
        ref = np.array([f(b, u) for b, u in zip(prob.grid, values)], dtype=float)
        assert prob.forcing_vector(values).tobytes() == ref.tobytes()
    assert out.dtype == float and out.shape == (41,)


def test_operator_sin_forcing_classical():
    prob = FbvpProblem(
        beta=2.0, g=lambda b, w: math.pi**2 * math.sin(math.pi * b),
        gauge=Gauge.constant(0.0), grid_m=200,
    )
    out = prob.matrix @ prob.forcing_vector(np.zeros(201))
    err = np.max(np.abs(out - np.sin(math.pi * prob.grid)))
    assert err <= 1e-5
    assert out[0] == 0.0 and out[-1] == 0.0


def test_operator_constant_forcing_quadratic():
    prob = FbvpProblem(beta=2.0, g=lambda b, w: 1.0, gauge=Gauge.constant(0.0),
                       grid_m=200)
    out = prob.matrix @ prob.forcing_vector(np.zeros(201))
    exact = prob.grid * (1.0 - prob.grid) / 2.0
    assert np.max(np.abs(out - exact)) <= 1e-6


def test_quadrature_order_at_least_two():
    # sup error on the sin case must shrink at least 4x per grid doubling
    errs = []
    for m in (50, 100, 200):
        prob = FbvpProblem(
            beta=2.0, g=lambda b, w: math.pi**2 * math.sin(math.pi * b),
            gauge=Gauge.constant(0.0), grid_m=m,
        )
        out = prob.matrix @ prob.forcing_vector(np.zeros(m + 1))
        errs.append(np.max(np.abs(out - np.sin(math.pi * prob.grid))))
    assert errs[0] / errs[1] >= 3.5
    assert errs[1] / errs[2] >= 3.5


def test_kappa_matches_analytic_maximum():
    # beta = 2: int_0^1 G(b, a) da = b(1-b)/2, maximal value 1/8
    prob = FbvpProblem(beta=2.0, g=lambda b, w: 0.0, gauge=Gauge.constant(0.0),
                       grid_m=100)
    assert abs(quadrature_kappa(prob) - 0.125) <= 1e-6
    for beta in (1.01, 1.5, 3.7):
        prob = FbvpProblem(beta=beta, g=lambda b, w: 0.0, gauge=Gauge.constant(0.0),
                           grid_m=100)
        row_sums = np.sum(np.abs(_dense_operator_matrix(beta, 100)), axis=1)
        assert abs(quadrature_kappa(prob) - np.max(row_sums)) <= 1e-14 * np.max(row_sums)


@pytest.mark.parametrize(
    "beta", [1 + 1e-12, 1 + 1e-9, 1 + 1e-6, 1.001, 1.01, 1.1, 1.5, 2.0, 3.0, 10.0, 171.7]
)
def test_kappa_is_below_one(beta):
    # a Gauge refuses sup k >= 1, so kappa < 1 keeps kappa * sup k below 1:
    # the contraction the report's effective_factor states always holds.
    # K @ 1 approaches 1 - 1/m as beta -> 1 (at the node b = 1/m)
    for m in (2, 4, 6, 10, 20, 50, 100, 200, 1000, 2000, 4000):
        prob = FbvpProblem(beta=beta, g=lambda b, w: 0.0, gauge=Gauge.constant(0.0),
                           grid_m=m)
        assert quadrature_kappa(prob) < 1.0, m


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
    K = _dense_operator_matrix(2.0, 200)
    direct = np.linalg.solve(np.eye(prob.grid_m + 1) - 0.5 * K, K @ np.ones(201))
    assert np.max(np.abs(rep.solution.values - direct)) <= 1e-8
    assert rep.residual <= 1e-8
    u = rep.solution.values
    assert rep.residual == float(np.max(np.abs(u - prob.matrix @ prob.forcing_vector(u))))
    assert abs(rep.effective_factor - rep.kappa * 0.5) < TOL


def test_picard_fractional_self_consistency():
    prob = FbvpProblem(
        beta=1.5, g=lambda b, w: 0.25 * math.sin(w) + b,
        gauge=Gauge.constant(0.25), grid_m=200,
    )
    rep = picard_solve(prob)
    assert rep.converged
    assert rep.residual <= 1e-8
    ds = [r.d for r in rep.trace.rows if not math.isnan(r.d)]
    for x, y in zip(ds, ds[1:]):
        if x > 1e-12:
            assert y <= (rep.kappa / 4.0) * x + 1e-14


def test_picard_gauge_violation_flagged():
    # forcing slope 2 massively exceeds the certified bound 0.1
    prob = FbvpProblem(beta=1.2, g=lambda b, w: 2.0 * w + 1.0,
                       gauge=Gauge.constant(0.1), grid_m=40)
    rep = picard_solve(prob)
    assert not rep.converged
    assert isinstance(rep.status, HypothesisViolated)


def test_picard_budget_report():
    prob = FbvpProblem(beta=1.5, g=lambda b, w: 0.5 * w + 1.0,
                       gauge=Gauge.constant(0.5), grid_m=40,
                       tol=1e-14, max_iter=2)
    rep = picard_solve(prob)
    assert not rep.converged
    assert isinstance(rep.status, MaxIterExceeded)
    assert len(rep.trace.rows) >= 1
    u = rep.solution.values
    assert rep.residual == float(np.max(np.abs(u - prob.matrix @ prob.forcing_vector(u))))


def test_problem_validation():
    with pytest.raises(InputError):
        FbvpProblem(beta=0.9, g=lambda b, w: 0.0, gauge=Gauge.constant(0.0))
    with pytest.raises(InputError):
        FbvpProblem(beta=1.5, g=lambda b, w: 0.0, gauge=Gauge.constant(0.0),
                    grid_m=41)
    with pytest.raises(InputError):
        build_operator_matrix(1.5, 3)


def test_problem_rejects_non_numeric_parameters():
    ok = dict(beta=1.5, g=lambda b, w: 0.0, gauge=Gauge.constant(0.0))
    for bad in ({"beta": "1.5"}, {"grid_m": "40"}, {"grid_m": 40.5}, {"tol": None},
                {"max_iter": [10]}, {"beta": True}):
        with pytest.raises(InputError):
            FbvpProblem(**{**ok, **bad})
    prob = FbvpProblem(**ok, grid_m=40.0)
    assert prob.grid_m == 40 and isinstance(prob.grid_m, int)
