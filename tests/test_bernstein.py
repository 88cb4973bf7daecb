import math
import sys
from math import comb

import mpmath
import numpy as np
import pytest

from graphfix.bernstein import (
    QParams,
    _log_q_binomials,
    basis,
    basis_vector,
    contraction_constant,
    iterate_to_limit,
    nodes,
    operator_matrix,
    q_integer,
)
from graphfix.errors import InputError

TOL = 1e-12


# --- q-integers ----------------------------------------------------------------

def test_q_integer_zero():
    for q in (0.2, 1.0, 3.7):
        assert q_integer(0, q) == 0.0


def test_q_integer_classical():
    assert q_integer(3, 1.0) == 3.0


def test_q_integer_half():
    # direct sum 1 + 0.5 + 0.25
    assert abs(q_integer(3, 0.5) - 1.75) < TOL


def test_q_integer_matches_direct_sum():
    for q in (0.3, 0.9, 1.0, 1.7, 4.0):
        for i in range(12):
            direct = sum(q**k for k in range(i))
            assert abs(q_integer(i, q) - direct) <= 1e-12 * max(1.0, direct)


@pytest.mark.parametrize("i, q", [(2, 1.5e154), (2, 1e200), (2, 1e300), (3, 1e150),
                                  (4, 1e100), (11, 1e30), (31, 1e10), (365, 7.0)])
def test_q_integer_where_q_to_the_i_overflows(i, q):
    with pytest.raises(OverflowError):
        q**i
    with mpmath.workdps(50):
        mq = mpmath.mpf(q)
        ref = float((mq**i - 1) / (mq - 1))
    assert abs(q_integer(i, q) - ref) <= 2 * math.ulp(ref)


@pytest.mark.parametrize("i, q", [(3, 1e155), (32, 1e10), (366, 7.0), (1024, 2.0),
                                  (1025, 2.0), (709_000, 1.001)])
def test_q_integer_beyond_the_double_range_raises(i, q):
    with mpmath.workdps(50):
        mq = mpmath.mpf(q)
        assert (mq**i - 1) / (mq - 1) > sys.float_info.max
    with pytest.raises(OverflowError):
        q_integer(i, q)


def test_q_integer_errors():
    with pytest.raises(InputError):
        q_integer(-1, 0.5)
    with pytest.raises(InputError):
        q_integer(2, 0.0)


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
    assert basis_vector(qp, 0.0)[0] == 1.0
    assert all(basis_vector(qp, 0.0)[i] == 0.0 for i in range(1, 6))
    assert basis_vector(qp, 1.0)[5] == 1.0
    assert all(basis_vector(qp, 1.0)[i] == 0.0 for i in range(5))


def test_basis_degree_one_is_linear():
    for q in (0.5, 1.0, 2.5):
        qp = QParams(1, q)
        for a in np.linspace(0.0, 1.0, 11):
            assert abs(basis_vector(qp, a)[1] - a) < TOL
            assert abs(basis_vector(qp, a)[0] - (1.0 - a)) < TOL


def test_basis_partition_of_unity():
    for n in (1, 2, 5, 8, 10):
        for q in (0.5, 0.9, 1.0, 1.5, 3.0):
            qp = QParams(n, q)
            for a in np.linspace(0.0, 1.0, 53):
                assert abs(basis_vector(qp, a).sum() - 1.0) <= 1e-12


def test_basis_q1_reduces_to_classical_bernstein():
    for n in (2, 5, 10):
        qp = QParams(n, 1.0)
        for a in np.linspace(0.0, 1.0, 31):
            bv = basis_vector(qp, a)
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
            assert abs(float(ts @ basis_vector(qp, a)) - a) <= 1e-12


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
        assert np.max(np.abs(basis_vector(qp, a) - _mp_basis(n, q, a))) <= 1e-12


def test_operator_matrix_rows_are_basis_vectors():
    for n, q in ((1, 0.5), (7, 2.0), (40, 0.9), (120, 1.0)):
        qp = QParams(n, q)
        B = operator_matrix(qp)
        for t, row in zip(nodes(qp), B):
            assert np.array_equal(row, basis_vector(qp, t))


def test_basis_rejects_outside_unit_interval():
    with pytest.raises(InputError):
        basis_vector(QParams(3, 1.0), 1.5)[1]


def test_nodes_endpoints_exact():
    for n, q in ((1, 0.5), (7, 2.0), (10, 0.9)):
        ts = nodes(QParams(n, q))
        assert ts[0] == 0.0 and ts[-1] == 1.0
        assert np.all(np.diff(ts) > 0)


def _q_integer_by_formula(i, q):
    """[i]_q = (q**i - 1) / (q - 1), as q_integer took it before it was made
    overflow-free: it raises OverflowError wherever q**i does."""
    if i == 0:
        return 0.0
    if q == 1.0:
        return float(i)
    return (q**i - 1.0) / (q - 1.0)


def _nodes_by_formula(n, q):
    """t_i = [i]_q / [n]_q from the q-integer formula, as nodes took them
    before they were made overflow-free."""
    denom = _q_integer_by_formula(n, q)
    return np.array([_q_integer_by_formula(i, q) / denom for i in range(n + 1)])


@pytest.mark.parametrize("n, q", [(3, 1e300), (40, 1e10), (2, 1e200), (200, 1e4)])
def test_nodes_do_not_overflow(n, q):
    with pytest.raises(OverflowError):
        _nodes_by_formula(n, q)  # q**n is beyond the largest double
    _assert_nodes_match_mpmath(n, q)


@pytest.mark.parametrize("n, q", [(1750, 1.5), (7424, 1.1)])
def test_nodes_where_the_formula_gives_an_infinite_q_integer(n, q):
    # q**n is finite, but (q**n - 1) / (q - 1) is inf without an OverflowError
    assert _q_integer_by_formula(n, q) == math.inf
    _assert_nodes_match_mpmath(n, q)


def _assert_nodes_match_mpmath(n, q):
    ts = nodes(QParams(n, q))
    assert ts[0] == 0.0 and ts[-1] == 1.0
    assert np.all(np.isfinite(ts)) and np.all(np.diff(ts) >= 0.0)
    # t_i = [i]_q / [n]_q against 50 digits
    with mpmath.workdps(50):
        mq = mpmath.mpf(q)
        ref = [float((mq**i - 1) / (mq**n - 1)) for i in range(n + 1)]
    assert np.allclose(ts, ref, rtol=1e-12, atol=0.0)


def test_nodes_are_the_formula_wherever_it_is_finite():
    finite = 0
    for n in (1, 2, 7, 40, 120, 200):
        for q in (0.2, 0.5, 0.9, 1.0, 1.3, 2.0, 1e10):
            try:
                ref = _nodes_by_formula(n, q)
            except OverflowError:
                continue  # test_nodes_do_not_overflow covers these
            assert nodes(QParams(n, q)).tobytes() == ref.tobytes(), (n, q)
            finite += 1
    assert finite == 39


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
    for q in (0.3, 1.0, 5.0):
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
            basis_vector(qp, a)[[0, n]].sum() for a in np.linspace(0.0, 1.0, 2001)
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


def test_evaluate_grid_matches_pointwise_operator():
    for n, q in ((5, 0.9), (8, 1.2), (20, 1.0)):
        res = iterate_to_limit(QParams(n, q), lambda a: math.sin(math.pi * a) + a,
                               max_iter=50)
        grid = np.linspace(0.0, 1.0, 101)
        pointwise = [basis_vector(res.params, a) @ np.abs(res.values) for a in grid]
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


def test_iterate_rounding_at_the_iterate_size_is_no_contraction_failure():
    # the exact rate is 1/2 = k, and late displacements exceed k d by a
    # rounding of u, about 1e-16, which is far above EPS k d: the check's
    # scale must include the iterate's size
    res = iterate_to_limit(QParams(2, 1.0), lambda a: math.cos(3.0 * a) - 1.2)
    assert res.converged, res.to_dict()


def test_iterate_budget_report():
    res = iterate_to_limit(QParams(6, 1.0), lambda a: a * a, tol=1e-12, max_iter=3)
    assert not res.converged
    ds = [r.d for r in res.trace.rows]
    assert len(ds) == 3  # displacement history retained

