"""Picard solver for the fractional two-point problem via its Green kernel.

The boundary value problem of order beta > 1 with w(0) = w(1) = 0 is
solved through its equivalent integral form

    w(b) = int_0^1 G(b, a) g(a, (f w)(a)) da,

with the normalized kernel

    G(b, a) = [ (b(1-a))^(beta-1) - max(b-a, 0)^(beta-1) ] / Gamma(beta).

Both branches carry the Gamma(beta) divisor so the kernel is continuous
across a = b; it vanishes identically at b = 0 and b = 1, matching the
boundary conditions.  At beta = 2 it reduces to the classical kernel
a(1-b) (for a <= b) of -w'' with Dirichlet data.

Discretization: product integration on the uniform grid b_j = j/m
(Diethelm, Ford & Freed, Nonlinear Dyn. 29, 2002).  Row j integrates
G(b_j, .) exactly against the piecewise-quadratic interpolant of the
forcing on panel pairs aligned at b_j on both sides; for odd j the panels
[0, h] and [1 - h, 1] are left over and take the quadratic of their
neighbouring pair.  The rule is exact on quadratics and of fourth order on
smooth forcings (3.9 to 4.2 measured at beta in {1.25, 1.5, 1.9, 2}).
Both singular factors, (b_j - a)^(beta-1) at a = b_j and (1 - a)^(beta-1)
at a = 1, are integrated exactly on the panel that touches them.

On the uniform grid the (b_j - a)^(beta-1) weights depend on j - k only,
and the (1 - a)^(beta-1) weights on the parity of j only, so

    K @ v = sp * (ends[j mod 2] . v) - toeplitz * v[3:] - near v[0:3],

with sp_j = b_j^(beta-1): two dot products, one causal FFT convolution
(two transforms) and the columns 0..2 apart, with no (m+1)^2 matrix
(see ``KernelOperator``).  Since f enters only through the profile
u = f(w), the Picard update is u <- K g(., u), and the solver returns
u* = f(w*) directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
from .metric import Gauge, within

@dataclass(frozen=True)
class GreenKernel:
    """Kernel data for a given order: beta and the Gamma(beta) divisor."""

    beta: float
    gamma_beta: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "beta", check_real(self.beta, "beta"))
        if not (self.beta > 1):
            raise InputError("fractional order beta must exceed 1")
        # Gamma overflows a double past beta = 171.62, where 1/Gamma(beta) =
        # exp(-lgamma(beta)) < 6e-309 falls below the normal range; inf makes
        # the kernel, and so the solution, exactly 0 there
        try:
            gamma_beta = math.gamma(self.beta)
        except OverflowError:
            gamma_beta = math.inf
        object.__setattr__(self, "gamma_beta", gamma_beta)


def green_kernel(K: GreenKernel, b, a):
    """G(b, a); accepts scalars or broadcastable arrays in [0, 1].

    The single expression covers both branches: for b <= a the
    max(b - a, 0) term vanishes and only (b(1-a))^(beta-1) remains.
    """
    b_arr = np.asarray(b, dtype=float)
    a_arr = np.asarray(a, dtype=float)
    if np.any(b_arr < 0) or np.any(b_arr > 1) or np.any(a_arr < 0) or np.any(a_arr > 1):
        raise InputError("green_kernel arguments must lie in [0, 1]")
    p = K.beta - 1.0
    val = ((b_arr * (1.0 - a_arr)) ** p - np.maximum(b_arr - a_arr, 0.0) ** p)
    out = val / K.gamma_beta
    return float(out) if np.isscalar(b) and np.isscalar(a) else out


# Gauss-Legendre nodes on [0, 1] for the smooth panels, and their weights
# times 1, x and x^2.  Six nodes integrate t^p to about 1e-18 relative on a
# piece whose centre lies at least 16 half-widths from the branch point
# t = 0 (Bernstein ellipse rho >= 16 + sqrt(255)), and over which p log(t)
# varies by at most 0.7.
# (The rule on [-1, 1] is written out: numpy.polynomial, which computes
# it, takes 5 ms to import.)
_GL = np.array([0.2386191860831969, 0.6612093864662645, 0.9324695142031519])
_GL_X = (np.concatenate((-_GL[::-1], _GL)) + 1.0) / 2.0
_GL_W = np.array([0.17132449237917027, 0.3607615730481387, 0.46791393457269104])
_GL_MOMENTS = (np.concatenate((_GL_W, _GL_W[::-1])) / 2.0)[:, None] * _GL_X[:, None] ** np.arange(3)

# The quadratic through the nodes z, z + 1, z + 2 of a panel pair, restricted
# to the pair's first panel [z, z + 1] or second panel [z + 1, z + 2], as
# coefficients of 1, tau, tau^2 with tau the offset into the panel; row r is
# the Lagrange basis function of node z + r.
_FIRST_HALF = np.array([[1.0, -1.5, 0.5], [0.0, 2.0, -1.0], [0.0, -0.5, 0.5]])
_SECOND_HALF = np.array([[0.0, -0.5, 0.5], [1.0, 0.0, -1.0], [0.0, 0.5, 0.5]])


def _panel_moments(p: float, m: int) -> np.ndarray:
    """mu[q, k] = int_{q/m}^{(q+1)/m} x^p (m x - q)^k dx for q < m, k <= 2.

    The panel [0, 1/m] holds the singular point of x^p and is exact,
    m^-(p+1)/(p+k+1).  The others are smooth and take Gauss-Legendre,
    each panel [q, q + 1] (in grid units) cut into s pieces, enough to keep
    them 16 half-widths from t = 0 and to hold the variation of p log(t)
    over each to 0.7: a large p makes x^p steep.  Every power is of a
    number in [0, 1] and every weight is a sum of like-signed terms, so
    nothing overflows or cancels.
    """
    q = np.arange(1.0, m)
    pieces = np.ceil(np.maximum(7.5 / q, p * np.log1p(1.0 / q) / 0.7)).astype(np.intp)
    owner = np.repeat(np.arange(q.size), pieces)
    first = np.cumsum(pieces) - pieces
    s = pieces[owner].astype(float)
    i = np.arange(owner.size) - first[owner]  # the piece [i/s, (i+1)/s] of its panel
    x = (((q[owner] + i / s) / m)[:, None] + _GL_X / (s * m)[:, None]) ** p
    local = x @ _GL_MOMENTS / (s * m)[:, None]  # moments in the piece's own offset
    # shift to the panel's offset tau = (i + y)/s
    local[:, 2] = (i * (i * local[:, 0] + 2.0 * local[:, 1]) + local[:, 2]) / (s * s)
    local[:, 1] = (i * local[:, 0] + local[:, 1]) / s
    mu = np.empty((m, 3))
    mu[0] = m ** -(p + 1.0) / (p + np.arange(1.0, 4.0))
    mu[1:] = np.add.reduceat(local, first, axis=0)
    return mu


def _pair_weights(is_first: np.ndarray, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Weights on the nodes 0..m of a rule that integrates x^p against the
    quadratic interpolant on panel pairs: panel q is the first half of its
    pair where ``is_first[q]`` holds, and the second half otherwise, with
    the weights ``first[q]`` or ``second[q]`` on the pair's three nodes."""
    q = np.arange(is_first.size)
    start = q - ~is_first
    w = np.where(is_first[:, None], first, second)
    return np.bincount((start[:, None] + np.arange(3)).ravel(), w.ravel(), q.size + 1)


def build_operator_matrix(beta: float, m: int) -> "KernelOperator":
    """The product-integration operator K, (K v)_j ~ int G(b_j, a) v(a) da.

    Row j integrates G(b_j, .) exactly against the quadratic interpolant of
    v on panel pairs aligned at b_j on both sides; for odd j the panels
    [0, h] and [1 - h, 1] are left over and take the quadratic of their
    neighbouring pair.  See ``KernelOperator`` for the form it is kept in.
    """
    kernel = GreenKernel(beta)
    m = check_integer(m, "grid_m")
    if m < 2 or m % 2 != 0:
        raise InputError("grid_m must be an even integer >= 2")
    gamma, p = kernel.gamma_beta, kernel.beta - 1.0
    sp = np.linspace(0.0, 1.0, m + 1) ** p
    # past beta = 171.62 1/Gamma(beta) underflows and K is exactly 0
    mu = np.zeros((m, 3)) if math.isinf(gamma) else _panel_moments(p, m) / gamma
    first, second = mu @ _FIRST_HALF.T, mu @ _SECOND_HALF.T
    # in the distance from the singular point in panels, t = j - k for
    # (b_j - a)^p and u = m - k for (1 - a)^p, pairs start at t = 0 and, for
    # even rows, at u = 0; for odd rows at u = 1, the panels [0, 1] and
    # [m - 1, m] joining their neighbouring pairs
    odd = np.arange(m) % 2 == 1
    toeplitz = _pair_weights(~odd, first, second)
    odd[0], odd[m - 1] = True, False
    ends = np.stack((toeplitz[::-1], _pair_weights(odd, first, second)[::-1]))
    # columns 0..2 take the weights of row j's own panels: the Toeplitz ramp
    # runs on past a = 0 there, and an odd row's panel [0, h] takes the
    # quadratic on the nodes 0, 1, 2.  Cancelling the ramp instead would
    # leave a rounding error ((j + 1)/j)^(beta - 1) times the row's size.
    near = np.zeros((m + 1, 3))
    j = np.arange(2, m + 1, 2)
    near[j, 0] = second[j - 1, 2] + first[j - 2, 2]
    near[j, 1:] = toeplitz[j[:, None] - [1, 2]]
    j = np.arange(1, m, 2)
    near[j] = second[j - 1, ::-1]
    j = j[1:]
    near[j, 1] += second[j - 2, 2] + first[j - 3, 2]
    near[j, 2] += toeplitz[j - 2]
    n = 1 << (2 * m).bit_length()  # a power of two >= 2m + 1; see KernelOperator
    # the transform holds only the lags 0..m - 3 that columns 3..m read: a
    # transform's rounding spreads over every lag, and the last ones are
    # the largest weights of all
    return KernelOperator(sp, ends, toeplitz, np.fft.rfft(toeplitz[: m - 2], n), near)


@dataclass(frozen=True, eq=False)
class KernelOperator:
    """K as O(m) vectors; ``K @ v`` costs one FFT convolution.

    With t = j - k, u = m - k and sp_j = b_j^(beta-1), the entry is

        K[j, k] = sp_j ends[j mod 2, k] - toeplitz[j - k]   (k >= 3),
        K[j, k] = sp_j ends[j mod 2, k] - near[j, k]        (k < 3),

    where ends[0] and ends[1] weigh int (1 - a)^(beta-1) v on the pairings
    of even and of odd rows, toeplitz[t] weighs int (b_j - a)^(beta-1) v
    over a ramp of pairs aligned at t = 0 (zero for t < 0), and near
    weighs it on the columns 0..2, where the ramp would run past a = 0
    and where, in odd rows, the leftover panel [0, h] takes its
    quadratic.  All carry the 1/Gamma(beta).  Rows 0 and m are exactly 0.

    The causal convolution of toeplitz with v[3:] is an n-point circular
    one with n >= 2m + 1, so no lag that K @ v reads wraps.  It takes the
    lags 0..m - 3 only, whose weights sum to at most about e beta
    ||K||_inf: K @ v is within 1.1e-13 ||K||_inf ||v||_inf of the dense
    rule up to beta = 50 and m = 2000.
    """

    sp: np.ndarray
    ends: np.ndarray  # (2, m + 1)
    toeplitz: np.ndarray
    toeplitz_fft: np.ndarray  # rfft of toeplitz[: m - 2], zero-padded to n points
    near: np.ndarray  # (m + 1, 3)

    def __matmul__(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        m, n = self.sp.size - 1, 2 * self.toeplitz_fft.size - 2
        out = -(self.near @ v[:3])
        out[3:] -= np.fft.irfft(self.toeplitz_fft * np.fft.rfft(v[3:], n), n)[: m - 2]
        even, odd = self.ends @ v
        out[0::2] += even * self.sp[0::2]
        out[1::2] += odd * self.sp[1::2]
        out[[0, m]] = 0.0
        return out

    def entries(self, j, k) -> np.ndarray:
        """K[j, k] for index arrays j and k, in O(1) each."""
        j, k = np.broadcast_arrays(np.asarray(j), np.asarray(k))
        m = self.sp.size - 1
        out = self.sp[j] * self.ends[j % 2, k]
        ramp = (j >= k) & (k >= 3)
        out[ramp] -= self.toeplitz[j[ramp] - k[ramp]]
        close = k < 3
        out[close] -= self.near[j[close], k[close]]
        out[(j == 0) | (j == m)] = 0.0
        return out

    def _negative_reach(self) -> tuple[int, int]:
        """(tail, band): K's negative entries lie in column 0, in the columns
        tail..m, and on the diagonals 1..band below the main one."""
        m = self.sp.size - 1
        last = [np.nonzero(w < 0)[0] for w in (self.ends[:, ::-1].min(axis=0), self.toeplitz)]
        tail = max(m - 2 - int(np.max(last[0], initial=0)), 1)
        band = 2 + int(last[1][-1]) if last[1].size else 0
        return tail, band

    def norm_inf(self) -> float:
        """kappa = ||K||_inf = max_j sum_k |K[j, k]|, in O(m (band + 1)).

        K[j, k] integrates G(b_j, .) against a quadratic basis function, and
        is negative only where a quadratic resolves G(b_j, .) poorly: next to
        its zeros at a = 0 and a = 1 and to its kink at a = b_j.  Near a = 1
        and a = b_j the pair weights of the singular factors, ends and
        toeplitz, turn negative too, within two nodes of where they last do
        (see ``_negative_reach``): the last 3 columns and no diagonal up to
        beta = 2, 7 columns and 6 diagonals at beta = 10, about beta / 2 of
        each beyond.  So the sum of |K| over a row is its sum plus twice the
        negative parts there.

        Kappa bounds ||K x - K y|| <= kappa ||x - y||, which makes kappa * k
        the rate a Picard step can be checked against.  It is below 1: K @ 1
        is (b^(beta-1) - b^beta)/Gamma(beta+1) < 1 for every beta > 1, and
        kappa stays below 1 on the grids the tests check (beta from
        1 + 1e-12 to 171.7, m up to 4000), where it peaks at 0.99975 at
        beta = 1 + 1e-12, m = 4000.
        """
        m = self.sp.size - 1
        tail, band = self._negative_reach()
        j = np.arange(m + 1)
        # in rows above the last columns K[j, k] = sp_j ends[j mod 2, k], as
        # long as those columns are not among 0..2
        split = tail if tail >= 3 else 0
        negative = self.sp * np.resize(np.maximum(-self.ends[:, tail:], 0.0).sum(axis=1), m + 1)
        negative[split:] = 0.0
        band_j, band_k = np.broadcast_arrays(j[:, None], j[:, None] - np.arange(1, band + 1))
        inner = (band_k >= 1) & (band_k < tail)
        rows = np.concatenate((j, np.repeat(j[split:], m + 1 - tail), band_j[inner]))
        cols = np.concatenate((0 * j, np.tile(j[tail:], m + 1 - split), band_k[inner]))
        negative += np.bincount(rows, np.maximum(-self.entries(rows, cols), 0.0), m + 1)
        # the rule is exact on constants: K 1 = (b^(beta-1) - b^beta)/Gamma(beta+1)
        sums = self.sp * (1.0 - np.linspace(0.0, 1.0, m + 1)) * self.ends[0].sum()
        return float(np.max(sums + 2.0 * negative))


@dataclass
class GridFunction:
    """Real values on the uniform grid b_j = j/m with the sup norm."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 2:
            raise InputError("a grid function needs at least two node values")
        if not np.all(np.isfinite(vals)):
            raise InputError("grid-function values must be finite")
        self.values = vals


@dataclass
class FbvpProblem:
    """Problem data: order, forcing, gauge certificate, grid and stop.

    ``g(b, w_value)`` is the scalar forcing; ``gauge`` certifies its
    Lipschitz-type bound |g(b, u) - g(b, v)| <= k(||u - v||)|u - v|.
    It is called with two Python floats, the node b_j and the profile's
    value there, once per node and Picard step.

    Construction builds the stop rule ``config`` (step tolerance ``tol``,
    residual tolerance 10 tol) and the operator ``matrix`` once, and
    these refuse the parameters out of their range.
    """

    beta: float
    g: Callable[[float, float], float]
    gauge: Gauge
    grid_m: int = 200
    tol: float = 1e-10
    max_iter: int = 10_000
    config: IterationConfig = field(init=False)
    matrix: KernelOperator = field(init=False, repr=False, compare=False)
    _nodes: list[float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.tol = check_real(self.tol, "tol")
        self.config = IterationConfig(self.tol, 10.0 * self.tol, self.max_iter)
        self.beta = check_real(self.beta, "beta")
        self.grid_m = check_integer(self.grid_m, "grid_m")
        self.matrix = build_operator_matrix(self.beta, self.grid_m)
        self._nodes = self.grid.tolist()

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.grid_m + 1)

    def forcing_vector(self, values: np.ndarray) -> np.ndarray:
        """g(b_j, values_j) at every node, with floats as both arguments."""
        pairs = map(self.g, self._nodes, values.tolist())
        return np.fromiter(pairs, float, self.grid_m + 1)


# The rounding of a Picard step, in units of 2^-52 (||u|| + kappa ||g(., u)||);
# see ``picard_solve``.
_ROUNDING_UNITS = 16.0


@dataclass(kw_only=True)
class PicardReport(IterationOutcome):
    """The Picard iteration's outcome, with the coincidence profile and
    the solver's diagnostics."""

    solution: GridFunction
    residual: float
    rounding_floor: float
    kappa: float

    def _record(self) -> dict:
        return {
            "converged": self.converged,
            "iterations": self.iterations,
            "residual": self.residual,
            "rounding_floor": self.rounding_floor,
            "error_bound": self.error_bound,
            "kappa": self.kappa,
            "effective_factor": self.certificate.rate,
        }


def picard_solve(problem: FbvpProblem) -> PicardReport:
    """Iterate u <- T(u) = K g(., u) from u_0 = 0 until the distance to
    the fixed point is certified within tol.

    Returns the coincidence profile u* (= f(w*)) with the discrete
    integral-equation residual ||u* - T(u*)||, the quadrature constant
    kappa = ||K||_inf, and the effective contraction factor kappa * sup k,
    the certificate's rate.  That factor is below 1: a ``Gauge`` refuses
    sup k >= 1, and kappa < 1 (see ``KernelOperator.norm_inf``).

    Since ||T u - T v|| <= kappa k(||u - v||) ||u - v||, each step checks
    its displacement d_{n+1} = ||u_n - u_{n+1}|| against kappa k(d_n) d_n,
    through ``metric.within`` with scale kappa k(d_n) d_n + d_1 + the
    displacements so far, a bound on ||u_{n+1}|| that costs no array pass
    (the rounding of T grows with the iterate's size).  A forcing that
    breaks its gauge by more than a factor of about kappa / rho(K) fails
    that check.  The failure is not raised: the report comes back with a
    ``HypothesisViolated`` status naming condition "i" and the step, and
    the zero profile, whose residual is d_1.  The loop stops by
    ``IterationConfig.reached`` on ``error_bound(d_n)`` >= ||u_n - u*||
    (d_n the step into u_n) and the residual, each tolerance plus the
    step's rounding floor, then on the check, then on the budget.

    The floor is c 2^-52 (||u_n|| + kappa ||g(., u_n)||) / (1 - rho) with
    c = ``_ROUNDING_UNITS`` = 16, and the report gives the last one as
    ``rounding_floor``.  Near the fixed point a step cannot move u by less
    than its own rounding: the forcing's values carry 2^-53 of their size,
    K @ g (its FFT convolution and dot products) a few units of 2^-52
    kappa ||g||, and u_n - u_{n+1} 2^-53 ||u_n||.  Iterated past
    convergence with tol 0, d_n stalled at no more than 3.7 units of
    2^-52 (||u|| + kappa ||g||) over beta from 1.001 to 150, m from 2 to
    8000 and forcings of sizes 1e-200 to 1e8; c = 16 is four times that.
    The 1/(1 - rho) sums a step's rounding over the tail, below which no bound on
    ||u_n - u*|| can fall (at rho = 0.98 a stalled step's bound is 49 d_n).
    Without the floor a tol below the rounding of u could never be met,
    and the run would spend its whole budget; far above it, as with
    iterates of size 1 and tol 1e-10, the floor changes no stop.

    A step costs the forcing at every node, one ``K @`` (an FFT
    convolution) and one displacement u_n - u_{n+1}, whose sup is both the
    step's residual and the next step's d, plus a few scalar operations.
    """
    K = problem.matrix
    kappa = K.norm_inf()
    gauge = problem.gauge
    cfg = problem.config
    cert = ConvergenceCertificate(kappa * gauge.certified_sup)
    rows = []
    reduce_max, absolute = np.maximum.reduce, np.abs

    def sup(vec) -> float:
        return float(reduce_max(absolute(vec)))

    u = K @ problem.forcing_vector(np.zeros(problem.grid_m + 1))
    d1 = d_prev = sup(u)
    reach = d1  # bounds ||u_n|| for every n reached so far

    n = 1
    while True:
        g = problem.forcing_vector(u)
        u_after = K @ g
        resid = sup(u - u_after)
        floor = _ROUNDING_UNITS * 2.0**-52 * (sup(u) + kappa * sup(g)) / (1.0 - cert.rate)
        bound = cert.error_bound(d_prev)
        rows.append(TraceRow(n, None, None, d_prev, resid, bound, True))
        if cfg.reached(bound, resid, floor):
            status = Converged(u, u)
            break
        reach += resid
        limit = kappa * gauge(d_prev) * d_prev
        if not within(resid, limit, limit + reach):
            status = HypothesisViolated("i", n)
            u, resid = np.zeros(problem.grid_m + 1), d1
            break
        if n >= cfg.max_iter:
            status = MaxIterExceeded(u)
            break
        d_prev = resid
        u = u_after
        n += 1

    return PicardReport(
        status,
        IterationTrace(rows),
        cert,
        solution=GridFunction(u),
        residual=resid,
        rounding_floor=floor,
        kappa=kappa,
    )
