import math
import sys
from fractions import Fraction
from math import comb

import mpmath
import numpy as np
import pytest

from graphfix.bernstein import (
    QParams,
    _expm1_row,
    _log_q_binomials,
    _log_qints,
    basis,
    contraction_constant,
    iterate_to_limit,
    nodes,
    operator_matrix,
)
from graphfix.errors import InputError

TOL = 1e-12


# --- q-integers ----------------------------------------------------------------

def _q_integers(n, q):
    """[k]_q for k = 1..n, as basis takes them."""
    return np.exp(_log_qints(n, q))


def _mp_log_q_integer(i, q):
    """log [i]_q at 50 digits."""
    with mpmath.workdps(50):
        mq = mpmath.mpf(q)
        return mpmath.log((mq**i - 1) / (mq - 1))


def test_q_integer_zero():
    # [0]_q = 0: the row starts at +0, and so does every node vector
    for q in (0.2, 3.7):
        assert _expm1_row(5, q)[0] == 0.0
    for q in (0.2, 1.0, 3.7):
        assert math.copysign(1.0, nodes(QParams(5, q))[0]) == 1.0


def test_q_integer_classical():
    assert abs(_q_integers(3, 1.0)[-1] - 3.0) < TOL


def test_q_integer_half():
    # direct sum 1 + 0.5 + 0.25
    assert abs(_q_integers(3, 0.5)[-1] - 1.75) < TOL


def test_q_integer_matches_direct_sum():
    for q in (0.3, 0.9, 1.0, 1.7, 4.0):
        for i, value in enumerate(_q_integers(11, q), start=1):
            direct = sum(q**k for k in range(i))
            assert abs(value - direct) <= 1e-12 * max(1.0, direct)


@pytest.mark.parametrize("i, q", [(2, 1.5e154), (2, 1e200), (2, 1e300), (3, 1e150),
                                  (4, 1e100), (11, 1e30), (31, 1e10), (365, 7.0)])
def test_q_integer_where_q_to_the_i_overflows(i, q):
    with pytest.raises(OverflowError):
        q**i
    ref = float(_mp_log_q_integer(i, q))
    assert abs(_log_qints(i, q)[-1] - ref) <= 4 * math.ulp(ref)


@pytest.mark.parametrize("i, q", [(3, 1e155), (32, 1e10), (366, 7.0), (1024, 2.0),
                                  (1025, 2.0), (709_000, 1.001)])
def test_log_q_integer_beyond_the_double_range(i, q):
    # [i]_q itself exceeds the largest double; its logarithm does not
    mp_ref = _mp_log_q_integer(i, q)
    assert mp_ref > math.log(sys.float_info.max)
    ref = float(mp_ref)
    assert abs(_log_qints(i, q)[-1] - ref) <= 4 * math.ulp(ref)


# --- q-binomials ------------------------------------------------------------------

def _q_binomials(n, q):
    """[n choose i]_q for i = 0..n, as basis takes them."""
    return np.exp(_log_q_binomials(n, q))


def test_q_binomial_edge_and_classical():
    assert _q_binomials(4, 2.3)[0] == 1.0
    assert abs(_q_binomials(4, 1.0)[2] - 6.0) < TOL


def test_q_binomial_three_one_two():
    # [3]_2!/([2]_2! [1]_2!) = 21/3 = [3]_2 = 7
    assert abs(_q_binomials(3, 2.0)[1] - 7.0) < TOL


def test_q_binomial_symmetry():
    for q in (0.5, 1.0, 2.0):
        for n in range(1, 9):
            row = _q_binomials(n, q)
            assert np.all(np.abs(row - row[::-1]) <= 1e-10 * (1 + row))


def test_qparams_rejects_non_numeric_parameters():
    for n, q in (("abc", 1.0), ("5", 1.0), (None, 1.0), (2.5, 1.0), (5, "0.9"), (5, None)):
        with pytest.raises(InputError):
            QParams(n, q)
    qp = QParams(5.0, 1)
    assert (qp.n, qp.q) == (5, 1.0) and isinstance(qp.n, int)


# --- basis --------------------------------------------------------------------------

def test_basis_endpoint_interpolation():
    qp = QParams(5, 0.7)
    assert basis(qp, [0.0])[0][0] == 1.0
    assert all(basis(qp, [0.0])[0][i] == 0.0 for i in range(1, 6))
    assert basis(qp, [1.0])[0][5] == 1.0
    assert all(basis(qp, [1.0])[0][i] == 0.0 for i in range(5))


def test_basis_degree_one_is_linear():
    for q in (0.5, 1.0, 2.5):
        qp = QParams(1, q)
        for a in np.linspace(0.0, 1.0, 11):
            assert abs(basis(qp, [a])[0][1] - a) < TOL
            assert abs(basis(qp, [a])[0][0] - (1.0 - a)) < TOL


def test_basis_partition_of_unity():
    for n in (1, 2, 5, 8, 10):
        for q in (0.5, 0.9, 1.0, 1.5, 3.0):
            qp = QParams(n, q)
            for a in np.linspace(0.0, 1.0, 53):
                assert abs(basis(qp, [a])[0].sum() - 1.0) <= 1e-12


def test_basis_q1_reduces_to_classical_bernstein():
    for n in (2, 5, 10):
        qp = QParams(n, 1.0)
        for a in np.linspace(0.0, 1.0, 31):
            bv = basis(qp, [a])[0]
            classical = np.array(
                [comb(n, i) * a**i * (1.0 - a) ** (n - i) for i in range(n + 1)]
            )
            assert np.max(np.abs(bv - classical)) <= 1e-12


def test_basis_reproduces_linear_functions():
    # a and 1-a are fixed: sum_i t_i b_i(a) = a
    for n, q in ((4, 0.6), (6, 1.3)):
        qp = QParams(n, q)
        ts = nodes(qp)
        for a in np.linspace(0.0, 1.0, 21):
            assert abs(float(ts @ basis(qp, [a])[0]) - a) <= 1e-12


def _mp_basis(n, q, a):
    """b_{n,i}(q, a) for i = 0..n at 50 digits, from the defining products."""
    with mpmath.workdps(50):
        q, a = mpmath.mpf(q), mpmath.mpf(a)
        qint = (lambda k: (q**k - 1) / (q - 1)) if q != 1 else mpmath.mpf
        binom = [mpmath.mpf(1)]
        for k in range(1, n + 1):
            binom.append(binom[-1] * qint(n - k + 1) / qint(k))
        den = mpmath.fprod(1 - a + q**j * a for j in range(n))
        return np.array([
            float(binom[i] * q ** (i * (i - 1) // 2) * a**i * (1 - a) ** (n - i) / den)
            for i in range(n + 1)
        ])


@pytest.mark.parametrize("n, q", [(120, 0.5), (200, 1.0), (100, 3.0), (150, 0.2)])
def test_basis_matches_mpmath_at_high_degree(n, q):
    qp = QParams(n, q)
    for a in (0.013, 0.37, 0.81):
        assert np.max(np.abs(basis(qp, [a])[0] - _mp_basis(n, q, a))) <= 1e-12


def test_operator_matrix_rows_are_basis_vectors():
    for n, q in ((1, 0.5), (7, 2.0), (40, 0.9), (120, 1.0)):
        qp = QParams(n, q)
        B = operator_matrix(qp)
        for t, row in zip(nodes(qp), B):
            assert np.array_equal(row, basis(qp, [t])[0])


def test_basis_rejects_outside_unit_interval():
    with pytest.raises(InputError):
        basis(QParams(3, 1.0), [1.5])[0][1]


def test_nodes_endpoints_exact():
    for n, q in ((1, 0.5), (7, 2.0), (10, 0.9)):
        ts = nodes(QParams(n, q))
        assert ts[0] == 0.0 and ts[-1] == 1.0
        assert np.all(np.diff(ts) > 0)


@pytest.mark.parametrize("n, q", [(3, 1e300), (40, 1e10), (2, 1e200), (200, 1e4)])
def test_nodes_do_not_overflow(n, q):
    with pytest.raises(OverflowError):
        q**n  # beyond the largest double
    _assert_nodes_match_mpmath(n, q)


@pytest.mark.parametrize("n, q", [(1750, 1.5), (7424, 1.1)])
def test_nodes_where_the_formula_gives_an_infinite_q_integer(n, q):
    # q**n is finite, but (q**n - 1) / (q - 1) is inf without an OverflowError
    assert (q**n - 1.0) / (q - 1.0) == math.inf
    _assert_nodes_match_mpmath(n, q)


def _assert_nodes_match_mpmath(n, q):
    """Exact endpoints, nondecreasing, and each t_i = [i]_q / [n]_q within
    4 units in the last place of its value at 60 digits."""
    ts = nodes(QParams(n, q))
    assert ts[0] == 0.0 and ts[-1] == 1.0
    assert np.all(np.diff(ts) >= 0.0)
    with mpmath.workdps(60):
        mq = mpmath.mpf(q)
        if q == 1.0:
            ref = [mpmath.mpf(i) / n for i in range(n + 1)]
        else:
            power, den = mpmath.mpf(1), mq**n - 1
            ref = []
            for _ in range(n + 1):
                ref.append((power - 1) / den)
                power *= mq
        ref = np.array([float(r) for r in ref])
    ulps = np.array([math.ulp(r) for r in ref])
    assert np.all(np.abs(ts - ref) <= 4 * ulps), np.max(np.abs(ts - ref) / ulps)


_NODE_DEGREES = (1, 2, 3, 7, 40, 50, 120, 200, 400, 1750, 3000, 7424)


@pytest.mark.parametrize("q", [1e-300, 1e-5, 0.2, 0.5, 0.9, 1 - 1e-7, 1.0, 1 + 1e-7, 1.1,
                               1.3, 1.5, 2.0, 3.0, 1e4, 1e5, 1e10, 1e200, 1e300])
def test_nodes_are_within_4_ulp_of_mpmath(q):
    # near q = 1, q^i - 1 and q - 1 both cancel; far from it they overflow
    for n in _NODE_DEGREES:
        _assert_nodes_match_mpmath(n, q)


@pytest.mark.parametrize("n, q", [(20, 1 + 1e-7), (20, 1 - 1e-7), (30, 1 + 1e-7),
                                  (10, 1 + 1e-9)])
def test_operator_reproduces_the_identity_near_q_one(n, q):
    # sum_i t_i b_i(t_j) = t_j holds only for exact nodes
    qp = QParams(n, q)
    ts = nodes(qp)
    assert np.max(np.abs(operator_matrix(qp) @ ts - ts)) <= 1e-14


# --- the operator at a grid of points ---------------------------------------------

def test_operator_fixes_nonnegative_constants():
    qp = QParams(4, 0.8)
    vals = np.full(5, 2.5)
    out = basis(qp, np.linspace(0.0, 1.0, 9)) @ np.abs(vals)
    assert np.all(np.abs(out - 2.5) <= 1e-12)


def test_operator_modulus_flips_negative_constants():
    qp = QParams(4, 0.8)
    vals = np.full(5, -1.25)
    out = basis(qp, np.linspace(0.0, 1.0, 9)) @ np.abs(vals)
    assert np.all(np.abs(out - 1.25) <= 1e-12)


def test_operator_degree_one_two_terms():
    qp = QParams(1, 1.7)
    vals = np.array([-2.0, 3.0])
    grid = np.linspace(0.0, 1.0, 9)
    out = basis(qp, grid) @ np.abs(vals)
    assert np.all(np.abs(out - (2.0 * (1 - grid) + 3.0 * grid)) <= 1e-12)


# --- contraction constant -------------------------------------------------------------

def test_contraction_degree_one_is_exactly_one():
    for q in (1e-300, 0.3, 1.0, 1 + 1e-9, 5.0, 1e300):
        assert contraction_constant(QParams(1, q)) == 1.0


def test_contraction_two_one_exact():
    assert contraction_constant(QParams(2, 1.0)) == 0.5


def test_contraction_three_two():
    assert abs(contraction_constant(QParams(3, 2.0)) - 0.03411373214803694) < 1e-15


def test_contraction_lower_bounds_endpoint_mass():
    # dense grid search over b_{n,0} + b_{n,n}: the closed form must stay below
    for n, q in ((2, 1.0), (3, 2.0), (5, 0.9), (8, 2.0), (6, 0.5)):
        qp = QParams(n, q)
        b_nq = contraction_constant(qp)
        grid_min = min(
            basis(qp, [a])[0][[0, n]].sum() for a in np.linspace(0.0, 1.0, 2001)
        )
        assert b_nq <= grid_min + 1e-12


def test_contraction_in_unit_interval():
    # ranges where the true value stays above the smallest positive double
    for n in (1, 2, 4, 9, 16):
        for q in (0.4, 1.0, 2.0, 6.0):
            b = contraction_constant(QParams(n, q))
            assert 0.0 < b <= 1.0


# --- iterates ---------------------------------------------------------------------------

def test_iterate_square_limit_is_identity_line():
    res = iterate_to_limit(QParams(5, 0.9), lambda a: a * a, tol=1e-12)
    assert res.converged
    grid = np.linspace(0.0, 1.0, 101)
    assert np.max(np.abs(res.evaluate_grid(grid) - grid)) <= 1e-10


def test_iterate_square_limit_is_the_identity_line_near_q_one():
    # inexact nodes move the limit off the line by 6.8e-8 here
    res = iterate_to_limit(QParams(10, 1 + 1e-9), lambda a: a * a)
    assert res.converged
    grid = np.linspace(0.0, 1.0, 101)
    assert np.max(np.abs(res.evaluate_grid(grid) - grid)) <= 1e-10


def test_evaluate_grid_matches_pointwise_operator():
    for n, q in ((5, 0.9), (8, 1.2), (20, 1.0)):
        res = iterate_to_limit(QParams(n, q), lambda a: math.sin(math.pi * a) + a,
                               max_iter=50)
        grid = np.linspace(0.0, 1.0, 101)
        pointwise = [basis(res.params, [a])[0] @ np.abs(res.values) for a in grid]
        assert np.max(np.abs(res.evaluate_grid(grid) - pointwise)) <= 1e-14


def test_iterate_constant_fixed_immediately():
    res = iterate_to_limit(QParams(4, 1.2), lambda a: 3.0, tol=1e-12)
    assert res.converged
    assert res.iterations == 0
    assert abs(res.evaluate_grid([0.37])[0] - 3.0) <= 1e-12


def test_iterate_displacement_contracts_by_interior_mass():
    # consecutive displacement norms shrink by at least 1 - b_{n,q}
    for n, q in ((3, 0.5), (5, 1.0), (6, 2.0)):
        res = iterate_to_limit(QParams(n, q), lambda a: math.sin(math.pi * a) + a,
                               tol=1e-11)
        assert res.converged
        ds = [r.d for r in res.trace.rows if not math.isnan(r.d)]
        b = res.b_nq
        for x, y in zip(ds, ds[1:]):
            if x > 1e-13:
                assert y <= (1.0 - b) * x + 1e-14


def test_iterate_contraction_on_random_node_vectors():
    rng = np.random.default_rng(5)
    for n, q in ((4, 0.7), (7, 1.5)):
        qp = QParams(n, q)
        B = operator_matrix(qp)
        b = contraction_constant(qp)
        for _ in range(25):
            u = rng.uniform(0.0, 4.0, n + 1)
            Lu = B @ np.abs(u)
            L2u = B @ np.abs(Lu)
            lhs = np.max(np.abs(Lu - L2u))
            rhs = (1.0 - b) * np.max(np.abs(u - Lu))
            assert lhs <= rhs + 1e-12


def test_iterate_outside_nonneg_endpoints_reports_empirical_limit():
    # phi(0) < 0: the limit line formula is not asserted, but the iterates
    # still settle on the line through the endpoint moduli
    phi = lambda a: a - 0.5
    res = iterate_to_limit(QParams(4, 1.0), phi, tol=1e-12)
    assert not res.endpoint_nonneg
    assert res.converged
    grid = np.linspace(0.0, 1.0, 21)
    expected = 0.5 * (1 - grid) + 0.5 * grid
    assert np.max(np.abs(res.evaluate_grid(grid) - expected)) <= 1e-9


@pytest.mark.parametrize("phi", [lambda a: a * a, lambda a: a - 0.5], ids=["square", "a-0.5"])
def test_iterate_checks_the_endpoints_for_every_phi(monkeypatch, phi):
    # a first row that moves 1e-3 of its weight from the left endpoint to
    # the next node breaks the endpoint interpolation; a negative phi(0)
    # must not switch the check off
    exact = operator_matrix

    def leaky(params):
        B = exact(params)
        B[0, 0] -= 1e-3
        B[0, 1] += 1e-3
        return B

    monkeypatch.setattr("graphfix.bernstein.operator_matrix", leaky)
    record = iterate_to_limit(QParams(10, 0.9), phi).to_dict()
    assert (record["status"], record.get("condition")) == ("hypothesis-violated", "edge")


@pytest.mark.parametrize("n, q", [(10, 2.0), (40, 0.9), (60, 1.0), (120, 0.5), (200, 1.0)])
def test_iterate_refuses_a_gauge_that_rounds_to_one_before_building(n, q):
    # 1 - b_nq rounds to 1.0, so the paper's gauge certifies nothing here;
    # it is not used, and c_p = ||B_int^p|| <= 1/2 certifies the limit
    assert 1.0 - contraction_constant(QParams(n, q)) == 1.0
    res = iterate_to_limit(QParams(n, q), lambda a: a * a)
    assert res.converged, res.to_dict()
    assert 0.0 <= res.rate <= 0.5 and res.error_bound <= 1e-12
    grid = np.linspace(0.0, 1.0, 101)
    assert np.max(np.abs(res.evaluate_grid(grid) - grid)) <= 1e-8


_ITEM_1_GRID = [(n, q) for n in (1, 2, 3, 50, 400)
                for q in (1e-300, 1e-5, 0.5, 1.0, 1 + 1e-7, 3.0, 1e5, 1e300)]


@pytest.mark.parametrize("n, q", _ITEM_1_GRID)
def test_iterate_converges_on_the_whole_parameter_grid(n, q):
    # 1 - b_nq rounds to 1.0 on 19 of these 40 pairs
    res = iterate_to_limit(QParams(n, q), lambda a: a**3)
    assert res.converged, res.to_dict()
    assert res.iterations <= 200_000
    grid = np.linspace(0.0, 1.0, 101)
    assert np.max(np.abs(res.evaluate_grid(grid) - grid)) <= 1e-8


@pytest.mark.parametrize("n, q", [(200, 0.9), (400, 1.0)])
@pytest.mark.parametrize("stop, message", [
    ({"tol": -1}, "tolerances must be positive"),
    ({"tol": "x"}, "tol must be a number, got 'x'"),
    ({"max_iter": -1}, "max_iter must be nonnegative"),
    ({"max_iter": 2.5}, "max_iter must be an integer, got 2.5"),
])
def test_iterate_checks_its_stop_parameters_first(monkeypatch, n, q, stop, message):
    # before the gauge (which refuses (400, 1.0)), the nodes, phi and B
    def unbuilt(*args):
        raise AssertionError("built before the stop parameters were checked")

    monkeypatch.setattr("graphfix.bernstein.contraction_constant", unbuilt)
    monkeypatch.setattr("graphfix.bernstein.nodes", unbuilt)
    monkeypatch.setattr("graphfix.bernstein.operator_matrix", unbuilt)
    with pytest.raises(InputError, match=f"^{message}$"):
        iterate_to_limit(QParams(n, q), unbuilt, **stop)


def test_iterate_rounding_at_the_iterate_size_is_no_contraction_failure():
    # the exact rate is 1/2 = k, and late displacements exceed k d by a
    # rounding of u, about 1e-16, which is far above EPS k d: the check's
    # scale must include the iterate's size
    res = iterate_to_limit(QParams(2, 1.0), lambda a: math.cos(3.0 * a) - 1.2)
    assert res.converged, res.to_dict()


def test_iterate_budget_report():
    # the certificate needs p = 8 steps at (6, 1.0): a budget below 8 stops
    # before any block, and otherwise every block of 8 steps must fit
    assert iterate_to_limit(QParams(6, 1.0), lambda a: a * a).power == 8
    for max_iter, iterations in ((0, 0), (3, 0), (7, 0), (8, 8), (23, 16), (24, 24)):
        res = iterate_to_limit(QParams(6, 1.0), lambda a: a * a, tol=1e-12,
                               max_iter=max_iter)
        assert res.to_dict()["status"] == "max-iter-exceeded"
        assert res.iterations == iterations <= max_iter
        assert [r.n for r in res.trace.rows] == list(range(0, iterations + 1, 8))
        assert res.error_bound > 1e-12
        assert res.status.last_point is res.values


@pytest.mark.parametrize("n, q", [(5, 0.9), (20, 1.0), (40, 1.0)])
def test_iterate_agrees_with_a_plain_loop(n, q):
    phi = lambda a: math.sin(math.pi * a) + a * a
    res = iterate_to_limit(QParams(n, q), phi, tol=1e-12)
    assert res.converged and res.iterations > 0
    B = operator_matrix(QParams(n, q))
    u = np.array([phi(t) for t in nodes(QParams(n, q))])
    for _ in range(res.iterations):
        u = B @ np.abs(u)
    assert np.max(np.abs(u - res.values)) <= 1e-12


@pytest.mark.parametrize("n, q, phi", [
    (5, 0.9, lambda a: a * a), (20, 1.0, lambda a: math.sin(math.pi * a)),
    (40, 3.0, lambda a: 1e-300 * (a - 0.3) ** 2), (60, 0.5, lambda a: 100.0 * math.cos(a)),
    (7, 1.0, lambda a: 2.5 - a),
])
def test_iterate_error_bound_covers_the_distance_to_the_line(n, q, phi):
    for tol in (1e-12, 1e-6):
        res = iterate_to_limit(QParams(n, q), phi, tol=tol)
        assert res.converged
        v0, v1 = (Fraction(abs(float(v))) for v in res.values[[0, -1]])
        distance = max(
            abs(Fraction(float(u)) - (v0 * (1 - Fraction(float(t))) + v1 * Fraction(float(t))))
            for u, t in zip(res.values, nodes(QParams(n, q)))
        )
        assert distance <= Fraction(res.error_bound) <= Fraction(tol)
        assert res.error_bound == res.trace.rows[-1].bound


def test_iterate_reports_a_certificate_that_bounds_the_spectral_radius():
    # Kelisky & Rivlin: at q = 1 the interior block's largest eigenvalue is
    # 1 - 1/n; Gelfand's formula puts c_p^(1/p) above it
    for n, q in ((10, 1.0), (60, 1.0), (40, 0.9), (30, 2.0)):
        res = iterate_to_limit(QParams(n, q), lambda a: a * a)
        B_int = operator_matrix(QParams(n, q))[1:-1, 1:-1]
        rho = np.max(np.abs(np.linalg.eigvals(B_int)))
        if q == 1.0:
            assert abs(rho - (1.0 - 1.0 / n)) <= 1e-10
        assert 0.0 <= res.rate <= 0.5 and res.power & (res.power - 1) == 0
        assert rho <= res.spectral_bound < 1.0
        assert res.certificate.rate == res.rate
        assert np.max(np.sum(np.linalg.matrix_power(B_int, res.power), axis=1)) == \
            pytest.approx(res.rate, rel=1e-12)
        record = res.to_dict()
        assert (record["power"], record["rate"], record["error_bound"]) == (
            res.power, res.rate, res.error_bound)


def _lines_fixed(ts, M):
    """The node matrix with interior block M and endpoint columns chosen so
    that B 1 = 1 and B t = t, with exact unit endpoint rows."""
    n = len(ts) - 1
    B = np.zeros((n + 1, n + 1))
    B[0, 0] = B[n, n] = 1.0
    B[1:n, 1:n] = M
    B[1:n, n] = ts[1:n] - M @ ts[1:n]
    B[1:n, 0] = 1.0 - B[1:n, n] - M.sum(axis=1)
    return B


@pytest.mark.parametrize("phi", [lambda a: a * a, lambda a: math.sin(math.pi * a)],
                         ids=["square", "sin"])
def test_iterate_stops_on_an_interior_row_sum_above_one(monkeypatch, phi):
    exact = operator_matrix

    def heavy(params):
        B = exact(params)
        B[5, 5] += 1e-3
        return B

    monkeypatch.setattr("graphfix.bernstein.operator_matrix", heavy)
    record = iterate_to_limit(QParams(10, 0.9), phi).to_dict()
    assert (record["status"], record.get("condition")) == ("hypothesis-violated", "line")


@pytest.mark.parametrize("M, status, condition", [
    # B = I: every power has norm 1, and squaring runs into the budget
    (np.eye(2), "max-iter-exceeded", None),
    # row sums 0.1, but the eigenvalue 1.9 on (1, -1): the rate check fails
    (np.array([[1.0, -0.9], [-0.9, 1.0]]), "hypothesis-violated", "i"),
])
def test_iterate_never_converges_when_the_interior_block_does_not_contract(
    monkeypatch, M, status, condition
):
    monkeypatch.setattr("graphfix.bernstein.operator_matrix",
                        lambda params: _lines_fixed(nodes(params), M))
    res = iterate_to_limit(QParams(3, 1.0), lambda a: a**3)
    record = res.to_dict()
    assert (record["status"], record.get("condition")) == (status, condition)
    assert res.iterations <= 200_000
