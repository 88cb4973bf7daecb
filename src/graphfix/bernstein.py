"""Nonlinear q-analogue Bernstein (Lupas-type) operator and its iterates.

The operator acts on a function phi through its samples at the nodes
t_i = [i]_q / [n]_q only:

    (L phi)(a) = sum_i |phi(t_i)| b_{n,i}(q, a),

with the rational basis

    b_{n,i}(q, a) = qbinom(n, i) q^(i(i-1)/2) a^i (1-a)^(n-i)
                    / prod_{j=0}^{n-1} (1 - a + q^j a).

The basis is a partition of unity and interpolates at the endpoints, so
constants with nonnegative endpoint values are fixed; the modulus makes
the operator nonlinear off the nonnegative cone.  Iterating contracts
interior displacement mass at rate at most 1 - b_{n,q} where

    b_{n,q} = (q^(n/2) / (1 + q^(n/2)))^(n-1) / max(1, q^((n-1)^2)),

and for phi with phi(0), phi(1) >= 0 the iterates converge to the line
phi(0)(1-a) + phi(1)a.

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

from .engine import IterationConfig, IterationOutcome, run_operator_iteration
from .errors import InputError, check_integer, check_real
from .metric import Gauge, within

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
    out[inner] = np.exp(lognum - logden)
    return out


def operator_matrix(params: QParams) -> np.ndarray:
    """Matrix B with B[i, j] = b_{n,j}(q, t_i): one iterate is B @ |u|."""
    return basis(params, nodes(params))


def contraction_constant(params: QParams) -> float:
    """Lower bound b_{n,q} on b_{n,0} + b_{n,n} over [0, 1]; the iterates
    gauge is k = 1 - b_{n,q}.  Degree 1 gives exactly 1 (one-step
    convergence); q = 1 gives exactly (1/2)^(n-1).  For extreme (n, q)
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


@dataclass(kw_only=True)
class IterateResult(IterationOutcome):
    """The iteration's outcome, with the node values it stopped at (the
    limit's samples when it converged) and evaluators for the limit."""

    params: QParams
    values: np.ndarray
    b_nq: float
    endpoint_nonneg: bool

    def evaluate_grid(self, grid) -> np.ndarray:
        return basis(self.params, grid) @ np.abs(self.values)

    def interpolant(self, a):
        """The predicted limit line through the endpoint moduli."""
        v0, v1 = abs(float(self.values[0])), abs(float(self.values[-1]))
        a = np.asarray(a, dtype=float)
        return v0 * (1.0 - a) + v1 * a

    def _record(self) -> dict:
        rows = self.trace.rows
        return {
            "n": self.params.n,
            "q": self.params.q,
            "iterations": self.iterations,
            "final_displacement": rows[-1].d if rows else float("nan"),
            "b_nq": self.b_nq,
            "converged": self.converged,
            "endpoint_nonneg": self.endpoint_nonneg,
        }


def iterate_to_limit(
    params: QParams,
    phi: Callable[[float], float],
    tol: float = 1e-12,
    max_iter: int = 200_000,
) -> IterateResult:
    """Iterate the node vector u <- B|u| until the sup-change drops to tol.

    The iterates start from |phi| at the nodes: T(phi) = B|phi| = T(|phi|),
    so they are those of phi, and since B's endpoint rows are exact unit
    rows every iterate keeps the endpoint values |phi(0)| and |phi(1)|.
    The limit agrees with |phi(0)|(1-a) + |phi(1)|a; ``endpoint_nonneg``
    says whether that is phi(0)(1-a) + phi(1)a.  The displacement-in-
    subspace check is ``metric.within``: each endpoint displacement is 0
    up to EPS ||u_0||, since B is stochastic and so ||u_0|| bounds every
    iterate.
    """
    config = IterationConfig(tol=tol, residual_tol=tol, max_iter=max_iter)
    # a gauge that rounds to 1 is refused here, before the O(n^2) builds
    b_nq = contraction_constant(params)
    gauge = Gauge.constant(1.0 - b_nq)
    start = np.array([float(phi(t)) for t in nodes(params)])
    B = operator_matrix(params)
    endpoint_nonneg = bool(start[0] >= 0.0 and start[-1] >= 0.0)

    size = float(np.max(np.abs(start)))

    def in_w0(delta) -> bool:
        return (within(abs(delta[0]), 0.0, size)
                and within(abs(delta[-1]), 0.0, size))

    outcome = run_operator_iteration(lambda u: B @ np.abs(u), np.abs(start), in_w0, gauge, config)
    point = outcome.point
    return IterateResult(
        **vars(outcome),
        params=params,
        values=start if point is None else point,
        b_nq=b_nq,
        endpoint_nonneg=endpoint_nonneg,
    )
