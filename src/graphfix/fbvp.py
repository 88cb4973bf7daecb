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

Discretization: a uniform grid b_j = j/m, composite Simpson weights
assembled separately on [0, b_j] and [b_j, 1] so the |.|^(beta-1) kink at
a = b never sits inside a panel (odd panel counts close with a 3/8 or
trapezoid rule).  With s_j = j/m and p = beta - 1 the kernel on the grid
is a product minus a Toeplitz term,

    Gamma(beta) G(b_j, a_k) = s_j^p s_(m-k)^p - [k < j] s_(j-k)^p,

so the m+1 powers s^p give the whole kernel.  An even row's weights are plain
composite Simpson on [0, 1]; an odd row's are a Toeplitz pattern in j - k
(Simpson parity on each side of b_j) corrected in a few entries: the
Simpson starts at 0 and b_j, the 3/8 closures ending at b_j and at 1, or
the trapezoid rule for a single panel.  So K @ v is a dot product, three
FFT convolutions and O(m) corrections, with no (m+1)^2 matrix.  The
transforms are n points long, the smallest power of two >= 2m + 1: two of
the convolutions are 2m + 1 long and do not wrap, and the third wraps only
onto lags that K @ v does not read (see ``KernelOperator``).  Since f
enters only through the profile u = f(w), the Picard update is
u <- K g(., u), and the solver returns u* = f(w*) directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .engine import (
    IterationConfig,
    IterationOutcome,
    run_operator_iteration,
)
from .errors import InputError, check_integer, check_real
from .metric import Gauge

@dataclass(frozen=True)
class GreenKernel:
    """Kernel data for a given order: beta and the Gamma(beta) divisor."""

    beta: float
    gamma_beta: float = field(init=False)

    def __post_init__(self):
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


def _odd_row_corrections(m: int):
    """Entries (rows, cols, weight differences in units of h) where the rule
    on an odd row departs from its Toeplitz pattern.

    An odd row j is split into the parts [0, b_j] and [b_j, 1], each with an
    odd panel count n.  For n >= 3 the part starts with Simpson's 1/3 and
    ends with the 3/8 closure; for n = 1 it is the trapezoid rule.  Entries
    of different parts may coincide, so the differences are to be summed.
    """
    j = np.arange(1, m, 2)
    parts = []
    for lo, hi in ((0 * j, j), (j, 0 * j + m)):
        many = hi - lo >= 3
        # rule minus pattern: 1/3 - 2/3 at the start; 1/3 + 3/8 - 2/3,
        # 9/8 - 4/3, 9/8 - 2/3, 3/8 - 4/3 over the closure; 1/2 - 2/3 and
        # 1/2 - 4/3 for a single panel
        parts += [
            (j[many], lo[many], [-1 / 3]),
            (j[many], hi[many] - 3, [1 / 24, -5 / 24, 11 / 24, -23 / 24]),
            (j[~many], lo[~many], [-1 / 6, -5 / 6]),
        ]
    rows = np.concatenate([np.repeat(r, len(w)) for r, _, w in parts])
    cols = np.concatenate([(c[:, None] + np.arange(len(w))).ravel() for _, c, w in parts])
    weights = np.concatenate([np.tile(w, r.size) for r, _, w in parts])
    return rows, cols, weights


def build_operator_matrix(beta: float, m: int) -> "KernelOperator":
    """The quadrature-weighted kernel K, (K v)_j ~ int G(b_j, a) v(a) da, with
    row j split at b_j, where the kernel's second term loses smoothness."""
    if m < 2 or m % 2 != 0:
        raise InputError("grid_m must be an even integer >= 2")
    scale = 1.0 / (m * GreenKernel(beta).gamma_beta)  # h / Gamma(beta)
    sp = np.linspace(0.0, 1.0, m + 1) ** (beta - 1.0)
    simpson = np.where(np.arange(m + 1) % 2, 4 / 3, 2 / 3) * scale
    simpson[[0, m]] = scale / 3
    # Odd rows, in d = j - k: Simpson parity left of b_j (4/3 at even d),
    # the pattern shifted by one node right of it (4/3 at odd d), and the
    # two interior weights 4/3 + 2/3 meeting at d = 0.
    d = np.arange(-m, m + 1)
    pattern = np.where((d % 2 == 0) == (d > 0), 4 / 3, 2 / 3) * scale
    pattern[m] = 2.0 * scale
    rows, cols, weights = _odd_row_corrections(m)
    kernel = sp[rows] * sp[m - cols] - sp[np.maximum(rows - cols, 0)]  # sp[0] = 0
    n = 1 << (2 * m).bit_length()  # a power of two >= 2m + 1; see KernelOperator
    filters = np.stack([np.fft.rfft(f, n) for f in (sp, pattern, pattern[m:] * sp)])
    return KernelOperator(sp, simpson, filters, rows, cols, kernel * weights * scale)


@dataclass(frozen=True, eq=False)
class KernelOperator:
    """K as O(m) vectors; ``K @ v`` costs O(m log m).  Row j is sp_j (sp_rev . w)
    less sp convolved with w = simpson * v if j is even; if j is odd, sp_j times
    the pattern convolved with sp_rev * v at lag m + j, less pattern * sp
    convolved with v, plus its corrections.  Rows 0 and m are exactly 0.

    The transforms are n >= 2m + 1 points long, so they are circular
    convolutions.  Those with sp and with pattern[m:] * sp are 2m + 1 long
    and do not wrap.  The pattern (2m + 1 long) convolved with sp_rev * v
    (m + 1 long) is 3m + 1 long; its lags n..3m wrap onto lags 0..3m - n,
    which lie below m, and only lags m + 1..2m - 1 are read."""

    sp: np.ndarray
    simpson: np.ndarray
    filters: np.ndarray  # rfft of sp, pattern and pattern[m:] * sp, zero-padded
    rows: np.ndarray  # the odd-row corrections, summed by bincount
    cols: np.ndarray
    corrections: np.ndarray

    def __matmul__(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        sp, m, n = self.sp, self.sp.size - 1, 2 * self.filters.shape[1] - 2
        w = self.simpson * v
        conv = np.fft.irfft(self.filters * np.fft.rfft(np.stack((w, sp[::-1] * v, v)), n), n)
        out = np.empty(m + 1)
        out[0::2] = sp[0::2] * (sp[::-1] @ w) - conv[0, 0 : m + 1 : 2]
        out[1::2] = sp[1::2] * conv[1, m + 1 : 2 * m + 1 : 2] - conv[2, 1 : m + 1 : 2]
        out += np.bincount(self.rows, self.corrections * v[self.cols], minlength=m + 1)
        out[[0, m]] = 0.0
        return out


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
    """

    beta: float
    g: Callable[[float, float], float]
    gauge: Gauge
    grid_m: int = 200
    tol: float = 1e-10
    max_iter: int = 10_000

    def __post_init__(self):
        self.beta = check_real(self.beta, "beta")
        self.grid_m = check_integer(self.grid_m, "grid_m")
        self.tol = check_real(self.tol, "tol")
        self.max_iter = check_integer(self.max_iter, "max_iter")
        if not (self.beta > 1):
            raise InputError("fractional order beta must exceed 1")
        if self.grid_m < 2 or self.grid_m % 2 != 0:
            raise InputError("grid_m must be an even integer >= 2")
        if self.tol <= 0:
            raise InputError("tol must be positive")

    @cached_property
    def matrix(self) -> KernelOperator:
        return build_operator_matrix(self.beta, self.grid_m)

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.grid_m + 1)

    @cached_property
    def _nodes(self) -> list[float]:
        return self.grid.tolist()

    def forcing_vector(self, values: np.ndarray) -> np.ndarray:
        """g(b_j, values_j) at every node, with floats as both arguments."""
        pairs = map(self.g, self._nodes, values.tolist())
        return np.fromiter(pairs, float, self.grid_m + 1)


def quadrature_kappa(problem: FbvpProblem) -> float:
    """max over grid nodes b of the quadrature of int |G(b, a)| da.

    K has no negative entry: G >= 0 for every beta > 1, since
    b(1-a) >= b-a, and every quadrature weight is positive.  So the row
    sums of |K| are K @ 1.  Kappa is below 1: the exact integral is
    (b^(beta-1) - b^beta)/Gamma(beta+1) < 1 for every beta > 1, and the
    quadrature stays below 1 on the grids the tests check (beta from
    1 + 1e-12 to 171.7, m up to 4000), where it peaks at 0.99978 at
    beta = 1 + 1e-12, m = 4000.
    """
    return float(np.max(problem.matrix @ np.ones(problem.grid_m + 1)))


@dataclass(kw_only=True)
class PicardReport(IterationOutcome):
    """The Picard iteration's outcome, with the coincidence profile and
    the solver's diagnostics."""

    solution: GridFunction
    residual: float
    kappa: float
    effective_factor: float

    def _record(self) -> dict:
        return {
            "converged": self.converged,
            "iterations": self.iterations,
            "residual": self.residual,
            "kappa": self.kappa,
            "effective_factor": self.effective_factor,
        }


def picard_solve(problem: FbvpProblem) -> PicardReport:
    """Iterate u <- K g(., u) from zero until the sup-change reaches tol.

    Returns the coincidence profile u* (= f(w*)) with the discrete
    integral-equation residual ||u* - K g(., u*)||, the quadrature
    constant kappa = max_b int |G(b, a)| da, and the effective contraction
    factor kappa * sup k.  That factor is below 1: a ``Gauge`` refuses
    sup k >= 1, and kappa < 1 (see ``quadrature_kappa``).  A macroscopic
    violation of the certified gauge is not raised: the report comes back
    with a ``HypothesisViolated`` status naming the step.
    """
    K = problem.matrix
    kappa = quadrature_kappa(problem)
    effective = kappa * problem.gauge.certified_sup

    def T(u: np.ndarray) -> np.ndarray:
        return K @ problem.forcing_vector(u)

    outcome = run_operator_iteration(
        T,
        np.zeros(problem.grid_m + 1),
        lambda delta: True,
        problem.gauge,
        IterationConfig(
            tol=problem.tol,
            residual_tol=10.0 * problem.tol,
            max_iter=problem.max_iter,
        ),
    )
    u_star = outcome.point
    if u_star is not None:
        # the engine's last step already measured ||u* - T(u*)|| for this point
        residual = outcome.final_residual
    else:
        u_star = np.zeros(problem.grid_m + 1)
        residual = float(np.max(np.abs(u_star - T(u_star))))
    return PicardReport(
        **vars(outcome),
        solution=GridFunction(u_star),
        residual=residual,
        kappa=kappa,
        effective_factor=effective,
    )
