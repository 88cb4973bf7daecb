import dataclasses
import math
import struct
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphfix import fbvp
from graphfix.engine import (
    Converged,
    ConvergenceCertificate,
    HypothesisViolated,
    IterationConfig,
    IterationTrace,
    MaxIterExceeded,
    TraceRow,
)
from graphfix.errors import InputError
from graphfix.fbvp import (
    FbvpProblem,
    GreenKernel,
    GridFunction,
    PicardReport,
    _panel_moments,
    build_operator_matrix,
    green_kernel,
    picard_solve,
)
from graphfix.metric import Gauge, within

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


# --- product-integration weights ------------------------------------------------
# The dense reference builds K row by row from the pair rule, with no Toeplitz
# form, parity table or transform: row j integrates G(b_j, .) against the
# quadratic interpolant on panel pairs aligned at b_j on both sides, and an odd
# row's leftover panels [0, h] and [1 - h, 1] take their neighbouring pair's
# quadratic.  It shares with the operator only the panel moments, which are
# checked against mpmath on their own.

def _lagrange_on_panel(shift: int) -> np.ndarray:
    """Row r: the Lagrange basis function of node r on the nodes 0, 1, 2, as
    coefficients of 1, tau, tau^2 on the panel [shift, shift + 1], tau = t - shift."""
    P = np.polynomial.polynomial
    rows = []
    for r in range(3):
        others = [x for x in range(3) if x != r]
        rows.append(P.polyfromroots([x - shift for x in others]) / np.prod([r - x for x in others]))
    return np.array(rows)


def _dense_operator_matrix(beta: float, m: int) -> np.ndarray:
    gamma = GreenKernel(beta).gamma_beta
    K = np.zeros((m + 1, m + 1))
    if math.isinf(gamma):
        return K
    mu = _panel_moments(beta - 1.0, m) / gamma
    first, second = (mu @ _lagrange_on_panel(shift).T for shift in (0, 1))
    pair = first[:-1] + second[1:]  # pair [s, s + 2] on the nodes s, s + 1, s + 2
    sp = np.linspace(0.0, 1.0, m + 1) ** (beta - 1.0)
    for j in range(1, m):
        # b_j^p int (1 - a)^p v over [0, 1], in u = m - k: pairs start at u = m - j
        w = np.zeros(m + 1)
        s = (m - j) % 2
        count = (m - s) // 2
        for r in range(3):
            w[s + r: s + r + 2 * count: 2] += pair[s: m - 1: 2, r]
        if j % 2:
            w[:3] += first[0]
            w[m - 2:] += second[m - 1]
        K[j] = sp[j] * w[::-1]
        # int_0^b_j (b_j - a)^p v, in t = j - k (entry t + 1, from t = -1): pairs start at t = 0
        w = np.zeros(j + 2)
        for r in range(3):
            w[r + 1: r + 1 + 2 * (j // 2): 2] += pair[0: j - 1: 2, r]
        if j % 2:
            w[j - 1:] += second[j - 1]
        K[j, j + 1:: -1] -= w
    return K


def _max_abs_row_sum(K: np.ndarray) -> float:
    return float(np.max(np.sum(np.abs(K), axis=1)))


@pytest.mark.parametrize("p", [1e-12, 0.25, 0.5, 0.9, 1.0, 2.7, 9.0, 40.0, 170.0])
def test_panel_moments_against_mpmath(p):
    # mu[q, k] = int_{q/m}^{(q+1)/m} x^p (m x - q)^k dx, expanded in powers of
    # x and summed at 60 digits, where the expansion's cancellation is harmless
    mpmath.mp.dps = 60
    # x^p of a node x rounded by a few ulps is off by p times as many
    tol = 1e-14 * max(1.0, p / 10.0)
    for m in (2, 6, 40):
        mu = _panel_moments(p, m)
        P = mpmath.mpf(p)
        for q in range(m):
            lo, hi = mpmath.mpf(q) / m, mpmath.mpf(q + 1) / m
            for k in range(3):
                ref = sum(mpmath.binomial(k, i) * (-q) ** (k - i) * m**i
                          * (hi ** (P + i + 1) - lo ** (P + i + 1)) / (P + i + 1)
                          for i in range(k + 1))
                assert abs(mu[q, k] - float(ref)) <= tol * float(ref) + 1e-300, (m, q, k)


@pytest.mark.parametrize("beta", [1 + 1e-9, 1.01, 1.25, 1.5, 1.9, 2.0, 3.7])
def test_operator_is_exact_on_constants(beta):
    for m in [*range(2, 41, 2), 200, 2000]:
        grid = np.linspace(0.0, 1.0, m + 1)
        exact = (grid ** (beta - 1.0) - grid**beta) / math.gamma(beta + 1.0)
        out = build_operator_matrix(beta, m) @ np.ones(m + 1)
        assert np.max(np.abs(out - exact)) <= 1e-14, m


@pytest.mark.parametrize("beta", [1.01, 1.25, 1.5, 1.9, 2.0, 3.7])
def test_operator_matrix_matches_per_row_construction(beta):
    # KernelOperator.entries, which norm_inf reads, against the pair rule
    for m in [*range(2, 41, 2), 200]:
        ref = _dense_operator_matrix(beta, m)
        j, k = np.indices(ref.shape)
        K = build_operator_matrix(beta, m).entries(j, k)
        assert np.max(np.abs(K - ref)) <= 1e-15 * _max_abs_row_sum(ref), m
        assert np.all(K[0] == 0.0) and np.all(K[m] == 0.0), m


@pytest.mark.parametrize("beta", [1.01, 1.25, 1.5, 1.9, 2.0, 3.7])
def test_operator_matches_dense_reference(beta):
    rng = np.random.default_rng(7)
    for m in [*range(2, 41, 2), 200, 2000]:
        K = _dense_operator_matrix(beta, m)
        op = build_operator_matrix(beta, m)
        bound = 1e-13 * _max_abs_row_sum(K)
        for v in (np.ones(m + 1), rng.choice([-1.0, 1.0], m + 1), rng.random(m + 1)):
            out = op @ v
            assert np.max(np.abs(out - K @ v)) <= bound * np.max(np.abs(v)), m
            assert out[0] == 0.0 and out[m] == 0.0, m


@pytest.mark.parametrize("beta", [10.0, 20.0, 30.0, 50.0])
def test_operator_matches_dense_reference_at_large_beta_on_coarse_grids(beta):
    # ||K||_inf is far below the largest ramp weights there: a ramp past
    # a = 0 cancelled in columns 0..2 cost 6e-2 ||K||_inf at beta = 50, m = 2,
    # and the rounding of a transform over every lag 2e-10 at m = 4
    rng = np.random.default_rng(7)
    for m in (2, 4, 8, 64, 200):
        K = _dense_operator_matrix(beta, m)
        op = build_operator_matrix(beta, m)
        norm = _max_abs_row_sum(K)
        j, k = np.indices(K.shape)
        assert np.max(np.abs(op.entries(j, k) - K)) <= 1e-14 * norm, m
        for v in (np.ones(m + 1), rng.choice([-1.0, 1.0], m + 1), rng.random(m + 1)):
            assert np.max(np.abs(op @ v - K @ v)) <= 1e-12 * norm * np.max(np.abs(v)), m


@pytest.mark.parametrize("beta", [1.01, 1.5, 2.0, 3.7])
@pytest.mark.parametrize("m", [1022, 1024])
def test_operator_matches_dense_reference_at_the_tightest_pads(beta, m):
    # at m = 1022 the 2048-point transforms hold 2m + 1 = 2045 points with
    # three to spare; at m = 1024, 2m + 1 = 2049 is one past 2048, so n
    # doubles to 4096
    K = _dense_operator_matrix(beta, m)
    op = build_operator_matrix(beta, m)
    bound = 1e-13 * _max_abs_row_sum(K)
    rng = np.random.default_rng(11)
    for v in (np.ones(m + 1), rng.choice([-1.0, 1.0], m + 1), rng.random(m + 1)):
        assert np.max(np.abs(op @ v - K @ v)) <= bound * np.max(np.abs(v))


def test_transform_length_is_the_smallest_power_of_two_covering_2m_plus_1():
    for m, n in ((2, 8), (4, 16), (6, 16), (200, 512), (600, 2048), (1022, 2048),
                 (1024, 4096), (1200, 4096), (2000, 4096), (4000, 8192)):
        transform = build_operator_matrix(1.5, m).toeplitz_fft
        assert 2 * transform.size - 2 == n, m
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
    assert err <= 2e-9  # 1.0e-9; the Simpson rule gave 6.4e-7
    assert out[0] == 0.0 and out[-1] == 0.0


def test_operator_constant_forcing_quadratic():
    prob = FbvpProblem(beta=2.0, g=lambda b, w: 1.0, gauge=Gauge.constant(0.0),
                       grid_m=200)
    out = prob.matrix @ prob.forcing_vector(np.zeros(201))
    exact = prob.grid * (1.0 - prob.grid) / 2.0
    assert np.max(np.abs(out - exact)) <= 1e-15


def test_quadrature_order_at_least_two():
    # sup error on the sin case must shrink at least 4x per grid doubling; the
    # rule is of fourth order, and shrinks it 16x
    errs = []
    for m in (50, 100, 200):
        prob = FbvpProblem(
            beta=2.0, g=lambda b, w: math.pi**2 * math.sin(math.pi * b),
            gauge=Gauge.constant(0.0), grid_m=m,
        )
        out = prob.matrix @ prob.forcing_vector(np.zeros(m + 1))
        errs.append(np.max(np.abs(out - np.sin(math.pi * prob.grid))))
    assert errs[0] / errs[1] >= 12.0
    assert errs[1] / errs[2] >= 12.0


ORDER_BETAS = (1.25, 1.5, 1.9)


@pytest.fixture(scope="session")
def sin_references():
    """int_0^1 G(b, a) sin(pi a) da at b = k/80, for each beta of ORDER_BETAS.

    With p = beta - 1, int_0^b (b - a)^p sin(pi a) da is
    Gamma(p + 1) sum_n (-1)^n pi^(2n+1) b^(p+2n+2) / Gamma(p + 2n + 3),
    summed at 30 digits; 30 terms reach below 1e-50.  Its terms
    follow each other by the factor -(pi b)^2 / ((p + 2n + 1)(p + 2n + 2)).
    """
    mpmath.mp.dps = 30

    def ramp(p, b):
        term = mpmath.pi * b ** (p + 2) / ((p + 1) * (p + 2))  # the n = 0 term
        total = term
        for n in range(1, 30):
            term *= -(mpmath.pi * b) ** 2 / ((p + 2 * n + 1) * (p + 2 * n + 2))
            total += term
        return total

    refs = {}
    for beta in ORDER_BETAS:
        p = mpmath.mpf(beta) - 1
        whole = ramp(p, mpmath.mpf(1))
        refs[beta] = np.array([float((b**p * whole - ramp(p, b)) / mpmath.gamma(beta))
                               for b in (mpmath.mpf(k) / 80 for k in range(81))])
    return refs


@pytest.mark.parametrize("beta", ORDER_BETAS)
def test_quadrature_order_on_sin_against_mpmath(beta, sin_references):
    # the ROADMAP asks for order >= 1.9; the rule measures 3.9 to 4.2
    errs = []
    for m in (20, 40, 80):
        out = build_operator_matrix(beta, m) @ np.sin(np.pi * np.linspace(0.0, 1.0, m + 1))
        errs.append(np.max(np.abs(out - sin_references[beta][:: 80 // m])))
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert min(orders) >= 3.5, orders


def test_kappa_matches_analytic_maximum():
    # beta = 2: int_0^1 G(b, a) da = b(1-b)/2, maximal value 1/8
    prob = FbvpProblem(beta=2.0, g=lambda b, w: 0.0, gauge=Gauge.constant(0.0),
                       grid_m=100)
    assert abs(prob.matrix.norm_inf() - 0.125) <= 1e-15
    for beta in (1.01, 1.5, 3.7):
        prob = FbvpProblem(beta=beta, g=lambda b, w: 0.0, gauge=Gauge.constant(0.0),
                           grid_m=100)
        norm = _max_abs_row_sum(_dense_operator_matrix(beta, 100))
        assert abs(prob.matrix.norm_inf() - norm) <= 1e-14 * norm


KAPPA_BETAS = [1 + 1e-12, 1 + 1e-9, 1 + 1e-6, 1.001, 1.01, 1.1, 1.5, 2.0, 3.0, 10.0, 171.7]


@pytest.mark.parametrize("beta", KAPPA_BETAS)
def test_kappa_inspects_every_negative_entry(beta):
    # K has negative entries, so kappa = ||K||_inf reads them; norm_inf looks
    # only where they can lie.  At beta = 1 + 1e-12 rounding leaves entries
    # near -1e-18 elsewhere, which move no row sum by more than 1e-17.
    for m in (2, 4, 6, 10, 20, 50, 100, 200, 1000):
        ref = _dense_operator_matrix(beta, m)
        op = build_operator_matrix(beta, m)
        norm = _max_abs_row_sum(ref)
        tail, band = op._negative_reach()
        looked = np.zeros(ref.shape, dtype=bool)
        looked[:, 0] = looked[:, tail:] = True
        for t in range(1, band + 1):
            looked[np.arange(t, m + 1), np.arange(m + 1 - t)] = True
        missed = np.sum(np.maximum(-ref, 0.0) * ~looked, axis=1)
        assert np.max(missed) <= 1e-16 * norm, m
        assert abs(op.norm_inf() - norm) <= 1e-14 * norm, m


@pytest.mark.parametrize("beta", KAPPA_BETAS)
def test_kappa_is_below_one(beta):
    # a Gauge refuses sup k >= 1, so kappa < 1 keeps kappa * sup k below 1:
    # the contraction the report's effective_factor states always holds.
    # K @ 1 approaches 1 - 1/m as beta -> 1 (at the node b = 1/m)
    for m in (2, 4, 6, 10, 20, 50, 100, 200, 1000, 2000, 4000):
        prob = FbvpProblem(beta=beta, g=lambda b, w: 0.0, gauge=Gauge.constant(0.0),
                           grid_m=m)
        assert prob.matrix.norm_inf() < 1.0, m


# --- picard solver -----------------------------------------------------------------------

def test_picard_w_independent_single_iteration():
    prob = FbvpProblem(
        beta=2.0, g=lambda b, w: math.pi**2 * math.sin(math.pi * b),
        gauge=Gauge.constant(0.0), grid_m=200,
    )
    rep = picard_solve(prob)
    assert rep.converged
    # a forcing free of w has rate 0, so u_1 = K g is certified exact and
    # the run stops without a further step
    assert rep.iterations == 0 and rep.error_bound == 0.0
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
    assert abs(rep.certificate.rate - rep.kappa * 0.5) < TOL


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


@pytest.mark.parametrize("beta", [1.5, 2.0])
def test_picard_catches_a_gauge_of_half_the_slope(beta):
    # the step check tests kappa * k, the rate the report certifies; a gauge
    # that claims half the forcing's slope passes k but not kappa * k here
    for slope in (0.4, 0.9, 1.8):
        prob = FbvpProblem(beta=beta, g=lambda b, w: slope * w + 1.0,
                           gauge=Gauge.constant(slope / 2), grid_m=200)
        rep = picard_solve(prob)
        assert isinstance(rep.status, HypothesisViolated), slope
        assert rep.status.condition == "i" and rep.status.step >= 1, slope
        if slope < 1.0:  # the exact gauge passes
            prob.gauge = Gauge.constant(slope)
            assert picard_solve(prob).converged, slope


@settings(max_examples=60, deadline=None)
@given(st.floats(1.01, 4.0), st.integers(1, 20), st.floats(-0.95, 0.95),
       st.floats(-8.0, 8.0), st.sampled_from([-1.0, 1.0]), st.floats(-14.0, -6.0))
def test_picard_error_bound_covers_the_distance_to_the_fixed_point(beta, half_m, s, log_c,
                                                                   sign, log_tol):
    # g = s w + c makes the fixed point the solution of (I - s K) u = K c,
    # solved densely with K's own entries; a converged run is within its
    # error_bound of it, up to the rounding floor of its stop
    m, c = 2 * half_m, sign * 10.0**log_c
    problem = FbvpProblem(beta=beta, g=lambda b, w: s * w + c, gauge=Gauge.constant(abs(s)),
                          grid_m=m, tol=10.0**log_tol)
    rep = picard_solve(problem)
    assert rep.converged
    K = problem.matrix.entries(*np.indices((m + 1, m + 1)))
    fixed = np.linalg.solve(np.eye(m + 1) - s * K, K @ np.full(m + 1, c))
    distance = float(np.max(np.abs(rep.solution.values - fixed)))
    assert rep.error_bound <= problem.tol + rep.rounding_floor
    assert distance <= rep.error_bound + rep.rounding_floor


def test_picard_certifies_down_to_the_rounding_at_a_rate_near_one():
    # at beta = 1.001 kappa is near 1, so rho = kappa 0.99 is about 0.98: the
    # bound rho/(1 - rho) d_n magnifies a step stalled at its rounding 48-fold,
    # and only a floor that carries the same 1/(1 - rho) lets the run stop
    for m, s, c in ((200, -0.99, 1e8), (2000, 0.99, 1e8), (200, -0.99, -2e3)):
        problem = FbvpProblem(beta=1.001, g=lambda b, w: s * w + c, gauge=Gauge.constant(0.99),
                              grid_m=m, tol=1e-14, max_iter=3000)
        rep = picard_solve(problem)
        assert rep.converged and rep.certificate.rate > 0.97, (m, s, c)
        assert rep.error_bound <= problem.tol + rep.rounding_floor


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


# --- the reference Picard loop ---------------------------------------------------------

def _reference_picard(problem):
    """The Picard loop written plainly: T(u) = K g(., u) from u_0 = 0, two
    subtractions per step, sups through ``np.max``, every displacement
    kept in a list and the check's scale summed afresh from them.  The
    stop needs rho/(1 - rho) d_n, rho = kappa sup k, within tol and the
    residual within residual_tol, each plus the step's rounding floor,
    16 * 2^-52 (||u|| + kappa ||g(., u)||) / (1 - rho).  A failed step gives the zero
    profile, with residual d_1."""
    K, gauge, config = problem.matrix, problem.gauge, problem.config
    kappa = K.norm_inf()
    rho = kappa * gauge.certified_sup
    cert = ConvergenceCertificate(rho)
    trace = IterationTrace()

    def sup(vec):
        return float(np.max(np.abs(vec)))

    zero = np.zeros(problem.grid_m + 1)
    u = K @ problem.forcing_vector(zero)
    ds = [sup(zero - u)]
    n = 1
    while True:
        g = problem.forcing_vector(u)
        u_after = K @ g
        resid = sup(u - u_after)
        floor = 16.0 * 2.0**-52 * (sup(u) + kappa * sup(g)) / (1.0 - rho)
        bound = rho / (1.0 - rho) * ds[-1]
        trace.rows.append(TraceRow(n, None, None, ds[-1], resid, bound, True))
        if bound <= config.tol + floor and resid <= config.residual_tol + floor:
            status = Converged()
            break
        limit = kappa * gauge(ds[-1]) * ds[-1]
        if not within(resid, limit, limit + sum(ds) + resid):
            status = HypothesisViolated("i", n)
            u, resid = zero, ds[0]
            break
        if n >= config.max_iter:
            status = MaxIterExceeded()
            break
        ds.append(resid)
        u = u_after
        n += 1
    return PicardReport(status, trace, cert, solution=GridFunction(u), residual=resid,
                        rounding_floor=floor, kappa=kappa)


def _bits(value):
    """``value`` with every float and array replaced by its bytes, so that
    == is bit equality (NaN equals itself, -0.0 differs from 0.0)."""
    if isinstance(value, dict):
        return {k: _bits(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, float):
        return struct.pack("<d", value)
    return value


def _run_logged(solve, problem, g):
    """One run with the forcing g logging its arguments: the report and the
    (b, w) of every call, in call order, as one array."""
    calls = []

    def logged(b, w):
        calls.append((b, w))
        return g(b, w)

    problem.g = logged
    return solve(problem), np.array(calls)


@pytest.mark.parametrize("beta", [1.25, 1.5, 2.0])
def test_picard_matches_reference_loop(beta):
    forcings = [
        (lambda b, w: 1.0, Gauge.constant(0.0)),  # const
        (lambda b, w: 0.5 * w + 1.0, Gauge.constant(0.5)),  # linear-w
        # false gauges: slopes 0.5 and 3 certified far below themselves
        (lambda b, w: 0.5 * w + 1.0, Gauge.constant(1e-3)),
        (lambda b, w: 3.0 * math.sin(w) + b, Gauge.constant(0.01)),
    ]
    # s w + c at extreme sizes: the check's scale must follow the iterate's,
    # and at c = 1e8 the stop must allow for the iterate's rounding (a few
    # 1e-8, above tol 1e-10), or the run spends its whole budget
    for s, c in ((0.5, 1e-8), (-0.9, 3e-4), (0.9, -2e3), (-0.5, 1e8)):
        forcings.append((lambda b, w, s=s, c=c: s * w + c, Gauge.constant(abs(s))))
    stops = []
    for g, gauge in forcings:
        for max_iter in (0, 1, 7, 10_000):
            problem = FbvpProblem(beta=beta, g=g, gauge=gauge, grid_m=40, max_iter=max_iter)
            new, new_calls = _run_logged(picard_solve, problem, g)
            ref, ref_calls = _run_logged(_reference_picard, problem, g)
            assert type(new.status) is type(ref.status)
            assert _bits(vars(new.status)) == _bits(vars(ref.status))
            assert _bits(new.to_dict()) == _bits(ref.to_dict())
            assert [_bits(dataclasses.astuple(r)) for r in new.trace.rows] == [
                _bits(dataclasses.astuple(r)) for r in ref.trace.rows]
            assert _bits(new.solution.values) == _bits(ref.solution.values)
            assert _bits([new.residual, new.rounding_floor, new.kappa, new.certificate.rate]) \
                == _bits([ref.residual, ref.rounding_floor, ref.kappa, ref.certificate.rate])
            assert _bits(new_calls) == _bits(ref_calls)
            stops.append(new.to_dict()["status"])
    assert stops[8:16:4] == ["hypothesis-violated"] * 2  # the false gauges at max_iter 0
    assert stops[-1] == "converged"  # c = 1e8 at the full budget
    assert {"converged", "hypothesis-violated", "max-iter-exceeded"} == set(stops)


def test_problem_validation():
    with pytest.raises(InputError):
        FbvpProblem(beta=0.9, g=lambda b, w: 0.0, gauge=Gauge.constant(0.0))
    with pytest.raises(InputError):
        FbvpProblem(beta=1.5, g=lambda b, w: 0.0, gauge=Gauge.constant(0.0),
                    grid_m=41)
    with pytest.raises(InputError):
        build_operator_matrix(1.5, 3)


def test_operator_build_checks_its_parameters():
    for beta, m, message in (
        ("x", 4, "beta must be a number, got 'x'"),
        (True, 4, "beta must be a number, got True"),
        (1.5, "4", "grid_m must be a number, got '4'"),
        (1.5, 4.5, "grid_m must be an integer, got 4.5"),
        (1.5, 0, "grid_m must be an even integer >= 2"),
        # beta before the grid
        (0.5, 3, "fractional order beta must exceed 1"),
    ):
        with pytest.raises(InputError, match=message):
            build_operator_matrix(beta, m)
    assert np.array_equal(build_operator_matrix(1.5, 4.0) @ np.ones(5),
                          build_operator_matrix(1.5, 4) @ np.ones(5))


def test_problem_builds_its_stop_rule_and_operator_once(monkeypatch):
    ok = dict(beta=1.5, g=lambda b, w: 0.0, gauge=Gauge.constant(0.0))
    # refused at construction, not when picard_solve runs
    with pytest.raises(InputError, match="max_iter must be nonnegative"):
        FbvpProblem(**ok, max_iter=-1)
    with pytest.raises(InputError, match="tolerances must be positive"):
        FbvpProblem(**ok, tol=0.0)
    calls = []
    build = fbvp.build_operator_matrix
    monkeypatch.setattr(fbvp, "build_operator_matrix",
                        lambda *args: calls.append(args) or build(*args))
    prob = FbvpProblem(**ok, grid_m=40, tol=1e-8, max_iter=7)
    assert calls == [(1.5, 40)]
    assert prob.config == IterationConfig(tol=1e-8, residual_tol=10.0 * 1e-8, max_iter=7)
    rep = picard_solve(prob)
    assert calls == [(1.5, 40)]
    assert rep.kappa == prob.matrix.norm_inf()
    assert rep.to_dict()["effective_factor"] == rep.certificate.rate == 0.0


def test_problem_rejects_non_numeric_parameters():
    ok = dict(beta=1.5, g=lambda b, w: 0.0, gauge=Gauge.constant(0.0))
    for bad in ({"beta": "1.5"}, {"grid_m": "40"}, {"grid_m": 40.5}, {"tol": None},
                {"max_iter": [10]}, {"beta": True}):
        with pytest.raises(InputError):
            FbvpProblem(**{**ok, **bad})
    prob = FbvpProblem(**ok, grid_m=40.0)
    assert prob.grid_m == 40 and isinstance(prob.grid_m, int)
