"""Nonlinear q-analogue Bernstein (Lupas-type) operator and its iterates.

The operator acts on a function phi through its samples at the nodes
t_i = [i]_q / [n]_q only:

    (L phi)(a) = sum_i |phi(t_i)| b_{n,i}(q, a),

with the rational basis

    b_{n,i}(q, a) = qbinom(n, i) q^(i(i-1)/2) a^i (1-a)^(n-i)
                    / prod_{j=0}^{n-1} (1 - a + q^j a).

The basis is a partition of unity and interpolates at the endpoints, so
constants with nonnegative endpoint values are fixed; the modulus makes
the operator nonlinear off the nonnegative cone.  The paper's bound:
iterating contracts interior displacement mass at rate at most
1 - b_{n,q} where

    b_{n,q} = (q^(n/2) / (1 + q^(n/2)))^(n-1) / max(1, q^((n-1)^2)),

and for phi with phi(0), phi(1) >= 0 the iterates converge to the line
phi(0)(1-a) + phi(1)a.  In double precision 1 - b_{n,q} rounds to 1 for
most (n, q), so ``iterate_to_limit`` reports b_{n,q} and certifies with
c_p = ||B_int^p||_inf <= 1/2 instead, the norm of a power of the
interior block of the node matrix, found by repeated squaring (the
spectra behind it: Kelisky & Rivlin, Pacific J. Math. 21 (1967) at
q = 1; Ostrovska, J. Approx. Theory 123 (2003) for q != 1).

Basis evaluation runs in log space (all factors are positive), which
keeps degrees up to the hundreds finite for q far from 1.  ``basis``
evaluates a whole array of points at once: the log q-binomial row is
built once in O(n) and the denominator is one (points x n) array, so the
basis costs O(n) per point and the node matrix O(n^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .engine import (
    Converged,
    ConvergenceCertificate,
    HypothesisViolated,
    IterationConfig,
    IterationOutcome,
    IterationTrace,
    MaxIterExceeded,
    TraceRow,
)
from .errors import InputError, check_integer, check_real
from .metric import within

@dataclass(frozen=True)
class QParams:
    """Operator degree n >= 1 and deformation parameter q > 0."""

    n: int
    q: float

    def __post_init__(self):
        n = check_integer(self.n, "degree n")
        q = check_real(self.q, "q")
        if n < 1:
            raise InputError("degree n must be a positive integer")
        if not (q > 0):
            raise InputError("q must be positive")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "q", q)


def _expm1_row(n: int, q: float) -> np.ndarray:
    """E_k = -expm1(-k |log q|) for k = 0..n, with E_0 = 0 (q != 1).

    Every q-integer of the module comes from this row: for q != 1,
    [k]_q = q^((k-1)[q > 1]) E_k / E_1.  There is no cancellation near
    q = 1, where q^k - 1 and q - 1 would both lose their digits, and no
    overflow far from it, since 0 <= E_k <= 1.
    """
    return -np.expm1(np.arange(n + 1) * -abs(math.log(q)))


def _log_qints(n: int, q: float) -> np.ndarray:
    """log [k]_q = [q > 1](k-1) log q + log E_k - log E_1 for k = 1..n."""
    k = np.arange(1, n + 1)
    if q == 1.0:
        return np.log(k)
    log_e = np.log(_expm1_row(n, q)[1:])
    return (k - 1) * max(math.log(q), 0.0) + log_e - log_e[0]


def _log_q_binomials(n: int, q: float) -> np.ndarray:
    """log [n choose i]_q for i = 0..n in O(n): the cumulative sum of
    log [n-k+1]_q - log [k]_q up to i = n/2, mirrored for the upper half."""
    log_qint = _log_qints(n, q)
    half = n // 2
    row = np.zeros(n + 1)
    row[1 : half + 1] = np.cumsum(log_qint[::-1][:half] - log_qint[:half])
    row[n - half :] = row[half::-1]
    return row


def nodes(params: QParams) -> np.ndarray:
    """Operator nodes t_i = [i]_q/[n]_q; t_0 = 0 and t_n = 1 exactly.

    From the row E of :func:`_expm1_row`, t_i = E_i/E_n for q < 1 and
    q^(i-n) E_i/E_n for q > 1: within 4 units in the last place of the
    exact ratio, for every n and q, with no intermediate beyond [0, 1].
    """
    n, q = params.n, params.q
    if q == 1.0:
        return np.arange(n + 1) / n
    row = _expm1_row(n, q)
    ts = row / row[-1]
    if q > 1.0:
        ts *= np.power(q, np.arange(-n, 1.0))
    return ts


def basis(params: QParams, points) -> np.ndarray:
    """Row k holds the n+1 basis values b_{n,i}(q, a) at a = points[k].

    Each row sums to 1 (Gauss identity); a = 0 and a = 1 give exact unit
    rows.  Interior points are evaluated in log space for all points at
    once, at O(n) array work per point.
    """
    n, q = params.n, params.q
    a = np.asarray(points, dtype=float)
    if not np.all((a >= 0.0) & (a <= 1.0)):
        raise InputError("basis argument a must lie in [0, 1]")
    out = np.zeros((a.size, n + 1))
    out[a == 0.0, 0] = 1.0
    out[a == 1.0, n] = 1.0
    inner = (a > 0.0) & (a < 1.0)
    la, l1a = np.log(a[inner, None]), np.log1p(-a[inner, None])
    lq = math.log(q)
    # log prod_{j<n} (1 - a + q^j a) with t = j log q + log a: logaddexp is
    # t + log1p((1 - a) e^-t) once t is large, so q far from 1 stays finite
    logden = np.logaddexp(l1a, np.arange(n) * lq + la).sum(axis=1, keepdims=True)
    i = np.arange(n + 1)
    lognum = _log_q_binomials(n, q) + (i * (i - 1) / 2) * lq + i * la + (n - i) * l1a
    # logden is one number per point, and its rounding (up to 2e-7 of a row
    # at n = 3000, q = 1e300) scales the whole row; the row sums to 1, so
    # dividing by the computed sum removes that common factor
    rows = np.exp(lognum - logden)
    out[inner] = rows / rows.sum(axis=1, keepdims=True)
    return out


def operator_matrix(params: QParams) -> np.ndarray:
    """Matrix B with B[i, j] = b_{n,j}(q, t_i): one iterate is B @ |u|."""
    return basis(params, nodes(params))


def contraction_constant(params: QParams) -> float:
    """Lower bound b_{n,q} on b_{n,0} + b_{n,n} over [0, 1]; the paper's
    gauge of the iterates is k = 1 - b_{n,q}.  Degree 1 gives exactly 1
    (one-step convergence); q = 1 gives exactly (1/2)^(n-1).  For extreme (n, q)
    the true value drops below the smallest positive double and the
    result underflows to 0."""
    n, q = params.n, params.q
    if q == 1.0:
        return 0.5 ** (n - 1)
    lq = math.log(q)
    s = (n / 2) * lq
    log_ratio = s - np.logaddexp(0.0, s)  # log( q^(n/2) / (1 + q^(n/2)) )
    log_b = (n - 1) * log_ratio - max(0.0, (n - 1) ** 2 * lq)
    return math.exp(log_b)


# Rounding of u = L + e at the nodes, relative to the size of u: the line
# costs at most 2.5 units in the last place and the sum half of one.
_LINE_ROUNDING = 4.0 * 2.0**-52


def _line(v0: float, v1: float, a) -> np.ndarray:
    """The line v0 (1 - a) + v1 a; exact at a = 0 and a = 1."""
    a = np.asarray(a, dtype=float)
    return v0 * (1.0 - a) + v1 * a


@dataclass(kw_only=True)
class IterateResult(IterationOutcome):
    """The iteration's outcome, with the node values it stopped at (within
    ``error_bound`` of the limit line when it converged), the certificate
    (``rate`` c_p = ||B_int^p||_inf at ``power`` p) and evaluators for the
    limit."""

    params: QParams
    values: np.ndarray
    b_nq: float
    endpoint_nonneg: bool
    power: int
    rate: float

    @property
    def iterations(self) -> int:
        """Operator applications: p for each block applied."""
        return self.trace.rows[-1].n if self.trace.rows else 0

    @property
    def spectral_bound(self) -> float:
        """c_p^(1/p), an upper bound on the spectral radius of B_int
        (Gelfand's formula)."""
        if self.power and self.rate >= 0.0:
            return self.rate ** (1.0 / self.power)
        return math.nan

    def evaluate_grid(self, grid) -> np.ndarray:
        return basis(self.params, grid) @ np.abs(self.values)

    def interpolant(self, a):
        """The predicted limit line through the endpoint moduli."""
        return _line(abs(float(self.values[0])), abs(float(self.values[-1])), a)

    def _record(self) -> dict:
        rows = self.trace.rows
        return {
            "n": self.params.n,
            "q": self.params.q,
            "iterations": self.iterations,
            "final_displacement": rows[-1].d if rows else float("nan"),
            "b_nq": self.b_nq,
            "power": self.power,
            "rate": self.rate,
            "spectral_bound": self.spectral_bound,
            "error_bound": self.error_bound,
            "converged": self.converged,
            "endpoint_nonneg": self.endpoint_nonneg,
        }


def _max_row_sum(P: np.ndarray) -> float:
    """||P||_inf of a matrix whose entries are >= 0; 0 when it is empty."""
    return float(P.sum(axis=1).max()) if P.size else 0.0


def _sup(v: np.ndarray) -> float:
    return float(np.max(np.abs(v))) if v.size else 0.0


def iterate_to_limit(
    params: QParams,
    phi: Callable[[float], float],
    tol: float = 1e-12,
    max_iter: int = 200_000,
) -> IterateResult:
    """Iterate u <- B|u| from phi until the iterate is certified within
    tol of its limit, the line L through |phi(0)| and |phi(1)|.

    T(phi) = B|phi| = T(|phi|) and B >= 0, so from u_0 = |phi| at the
    nodes the iterates are u_k = B^k u_0.  The checks, each decided by
    ``metric.within``, hold the run to the theorem:

    - ``edge``: B's endpoint rows are exact unit rows, so every iterate
      keeps the endpoint values and every displacement vanishes there;
    - ``line``: B fixes lines, B 1 = 1 and B t = t at the nodes.  Then
      u_k - L = B_int^k (u_0 - L) on the interior nodes, with B_int the
      interior block, and L is the limit once B_int contracts;
    - ``i``: a block of p steps maps the deviation e = u - L to P e with
      P = B_int^p, and must give ||P e|| <= c_p ||e||, c_p = ||P||_inf,
      up to a rounding of the iterate's size.

    The certificate comes from repeated squaring: P = B_int^p for the
    first p = 2^s with c_p <= 1/2, so O(log p) matrix products replace
    the per-step loop, and only one power is kept.  Every entry of P is
    >= 0, so c_p is its largest row sum with relative rounding, and
    c_p^(1/p) bounds the spectral radius of B_int.  Blocks of P then run
    until ``IterationConfig.reached`` holds for ||u_k - L|| plus the
    rounding of u_k = L + e, the ``error_bound`` each trace row records.
    b_{n,q} is the paper's bound, the per-step rate 1 - b_{n,q}; reported,
    not used, since 1 - b_{n,q} rounds to 1 in double precision for most (n, q).

    ``iterations`` counts operator applications, p per block, and never
    exceeds ``max_iter``: a run whose certificate needs p > max_iter, or
    whose next block would pass it, stops at the budget.
    ``endpoint_nonneg`` says whether the limit line is also
    phi(0)(1-a) + phi(1)a.
    """
    config = IterationConfig(tol=tol, residual_tol=tol, max_iter=max_iter)
    b_nq = contraction_constant(params)
    ts = nodes(params)
    start = np.array([float(phi(t)) for t in ts])
    B = operator_matrix(params)

    u0 = np.abs(start)
    line = _line(u0[0], u0[-1], ts)
    height = max(u0[0], u0[-1])  # ||L||
    e = u0[1:-1] - line[1:-1]
    d = _sup(e)
    size = height + d  # bounds ||u_k|| while every block passes its check
    p, c, k = 0, math.nan, 0
    stopped = None  # "converged", "budget" or a HypothesisViolated

    unit = np.zeros((2, params.n + 1))
    unit[0, 0] = unit[1, -1] = 1.0
    lines = np.stack([np.ones_like(ts), ts], axis=1)
    if not within(np.abs(B[[0, -1]] - unit).sum(), 0.0, 1.0):
        stopped = HypothesisViolated("edge", 0)
    elif not within(np.max(np.abs(B @ lines - lines)), 0.0, 1.0):
        stopped = HypothesisViolated("line", 0)
    else:
        P = B[1:-1, 1:-1].copy()
        del B  # only the power being squared and its square are held
        p, c = 1, _max_row_sum(P)
        while not c <= 0.5 and 2 * p <= max_iter:
            P = P @ P
            p, c = 2 * p, _max_row_sum(P)
        if not c <= 0.5:
            stopped = "budget"

    def bound() -> float:
        return d + _LINE_ROUNDING * (height + d)

    rows = []
    edge_ok = not (isinstance(stopped, HypothesisViolated) and stopped.condition == "edge")
    rows.append(TraceRow(0, None, None, d, d, bound(), edge_ok))
    while stopped is None:
        if config.reached(bound(), d):
            stopped = "converged"
        elif k + p > max_iter:
            stopped = "budget"
        else:
            limit = c * d
            e = P @ e
            d = _sup(e)
            k += p
            rows.append(TraceRow(k, None, None, d, d, bound(), True))
            if not within(d, limit, limit + size):
                stopped = HypothesisViolated("i", k)

    values = start
    if not isinstance(stopped, HypothesisViolated):
        values = line.copy()
        values[1:-1] += e
        if stopped == "budget":
            stopped = MaxIterExceeded()
        # the total displacement u_0 - u vanishes at both endpoints
        elif within(np.abs(u0[[0, -1]] - values[[0, -1]]), 0.0, size).all():
            stopped = Converged()
        else:
            stopped = HypothesisViolated("edge", k)
    return IterateResult(
        stopped,
        IterationTrace(rows),
        ConvergenceCertificate(c) if 0.0 <= c <= 0.5 else None,
        params=params,
        values=values,
        b_nq=b_nq,
        endpoint_nonneg=bool(start[0] >= 0.0 and start[-1] >= 0.0),
        power=p,
        rate=c,
    )
