"""Graph-checked successor iteration with a geometric stopping certificate.

Two drivers share the machinery here.  ``run_coincidence_iteration``
walks a finite problem: from the pair (w_n, f(w_n)) it picks the nearest
member of F(w_n), pulls it back through f, and re-checks the contraction
and edge hypotheses at every step, so a conforming run terminates at a
coincidence point and a non-conforming problem is flagged with the exact
failing condition.  ``run_operator_iteration`` is the single-valued
specialization for operator iterates w <- T(w) on vectors under the sup
norm, with the displacement inequality

    ||Tw - T^2 w|| <= k(||w - Tw||) ||w - Tw||

checked each step.  A step costs one call of T plus one displacement:
a vector subtraction, one sup-norm reduction and a few scalar operations
on that sup.  The FBVP Picard solver is its caller; the q-Bernstein
iterates are linear and reach their limit by matrix powers instead.

Both drivers decide their contraction checks with ``metric.within``.
The walk passes the bound as the scale, so no verdict changes when every
distance is multiplied by a power of two.  The operator iteration adds a
bound on the iterate's size, since the rounding of T and of a
displacement grows with that size.

The certificate: once the gauge is globally bounded by alpha < 1, step
distances shrink at least by sqrt(alpha) per step, so the distance from
f(w_n) to the limit is at most  B alpha^(n/2) / (1 - sqrt(alpha)) * d1
with B = alpha^(-1/2) (first step distance d1).  That closed form is
written once, as ``ConvergenceCertificate.bound``, which both drivers
and ``tail_bound`` call.  The walk stops on whichever of the
a-posteriori test d_n <= tol and the certificate fires first, both
gated on the residual; the operator iteration stops on d_n <= tol and
residual <= residual_tol only, and records the tail bound without
stopping on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import (
    DomainError,
    InputError,
    check_integer,
    check_real,
)
from .metric import (
    ClosedSet,
    EdgeStructure,
    FiniteMetricSpace,
    Gauge,
    ValidatedPair,
    validate_pair,
    within,
)


@dataclass(frozen=True)
class IterationConfig:
    """Stopping control: step tolerance, residual tolerance, step budget.

    ``max_iter`` counts successor selections; 0 is allowed so a budget
    probe can demonstrate exhaustion without running.
    """

    tol: float = 1e-9
    residual_tol: float = 1e-8
    max_iter: int = 10_000

    def __post_init__(self):
        object.__setattr__(self, "tol", check_real(self.tol, "tol"))
        object.__setattr__(
            self, "residual_tol", check_real(self.residual_tol, "residual_tol")
        )
        object.__setattr__(self, "max_iter", check_integer(self.max_iter, "max_iter"))
        if self.tol <= 0 or self.residual_tol <= 0:
            raise InputError("tolerances must be positive")
        if self.max_iter < 0:
            raise InputError("max_iter must be nonnegative")


@dataclass(frozen=True)
class ConvergenceCertificate:
    """Geometric tail certificate of rate alpha.

    With a globally certified gauge the bound holds from the first step,
    with the prefactor B = alpha^(-1/2) derived from alpha; alpha = 0
    degenerates to a one-step bound, B = 1 and the 0^0 = 1 convention.
    """

    alpha: float
    B: float = field(init=False)

    def __post_init__(self):
        if not (0.0 <= self.alpha < 1.0):
            raise DomainError("certificate rate alpha must lie in [0, 1)")
        object.__setattr__(self, "B", 1.0 if self.alpha == 0.0 else self.alpha ** -0.5)

    @classmethod
    def from_gauge(cls, gauge: Gauge) -> "ConvergenceCertificate":
        return cls(gauge.certified_sup)

    def bound(self, d1: float, n: int) -> float:
        """B alpha^(n/2) / (1 - sqrt(alpha)) * d1: the distance from step n
        to the limit, for a first step distance d1."""
        return self.B * self.alpha ** (n / 2) / (1.0 - math.sqrt(self.alpha)) * d1


def tail_bound(cert: ConvergenceCertificate, d0: float, n: int) -> float:
    """Upper bound on d(f(w_n), f(w_{n+m})) for every m, hence to the limit,
    for the first step distance d0 (see :meth:`ConvergenceCertificate.bound`)."""
    if d0 < 0:
        raise InputError("d0 must be nonnegative")
    if n < 0:
        raise InputError("n must be nonnegative")
    return cert.bound(d0, n)


@dataclass(slots=True)
class TraceRow:
    """One recorded step; labels are None for operator (vector) runs."""

    n: int
    w_label: str | None
    fw_label: str | None
    d: float
    residual: float
    bound: float
    edge_ok: bool


@dataclass
class IterationTrace:
    rows: list[TraceRow] = field(default_factory=list)

    def append(self, row: TraceRow) -> None:
        self.rows.append(row)

    def __len__(self) -> int:
        return len(self.rows)


@dataclass
class Converged:
    w_star: object
    f_w_star: object
    exact: bool | None = None  # f(w*) in F(w*); None for operator iterates


@dataclass
class HypothesisViolated:
    condition: str
    step: int


@dataclass
class MaxIterExceeded:
    last_point: object | None = None


@dataclass
class IterationOutcome:
    """How a run stopped, with its trace and certificate.

    The one result type of all three solvers: the q-Bernstein and FBVP
    results subclass it and add their own fields and record keys.  The
    certificate is None when a q-Bernstein run stopped before it found one.
    """

    status: object
    trace: IterationTrace
    certificate: ConvergenceCertificate | None
    common_fixed_point: object | None = None

    @property
    def converged(self) -> bool:
        return isinstance(self.status, Converged)

    @property
    def iterations(self) -> int:
        """Successor selections performed (the start pair is step 1)."""
        if not self.trace.rows:
            return 0
        return max(self.trace.rows[-1].n - 1, 0)

    @property
    def final_residual(self) -> float:
        return self.trace.rows[-1].residual if self.trace.rows else float("nan")

    @property
    def point(self):
        """Where the run stopped: w* when it converged, the last iterate
        when the budget ran out, and None after a hypothesis failure."""
        if isinstance(self.status, Converged):
            return self.status.w_star
        if isinstance(self.status, MaxIterExceeded):
            return self.status.last_point
        return None

    def _record(self) -> dict:
        """The solver's own keys of :meth:`to_dict`; subclasses replace it."""
        return {
            "w_star": getattr(self.status, "w_star", None),
            "fw_star": getattr(self.status, "f_w_star", None),
            "common_fixed_point": self.common_fixed_point,
            "iterations": self.iterations,
            "final_residual": self.final_residual,
            "exact_coincidence": getattr(self.status, "exact", None),
        }

    def to_dict(self) -> dict:
        """The run's record: ``status``, the solver's keys, and the failing
        ``condition`` and ``step`` when a hypothesis failed."""
        if isinstance(self.status, Converged):
            status = "converged"
        elif isinstance(self.status, HypothesisViolated):
            status = "hypothesis-violated"
        else:
            status = "max-iter-exceeded"
        out = {"status": status, **self._record()}
        if isinstance(self.status, HypothesisViolated):
            out["condition"] = self.status.condition
            out["step"] = self.status.step
        return out


@dataclass(frozen=True)
class CoincidenceProblem:
    """A finite coincidence instance: (f, F, graph, gauge, start, config).

    ``f`` maps every label to a label; ``F`` maps every label to a finite
    closed set whose members must all lie in the range of f.  ``p0`` must
    belong to F(w0) with (f(w0), p0) an edge.  ``truncated`` marks points
    (labels of the space) whose successor data was clamped when an
    infinite space was cut to a finite one; verifiers skip pairs owned by
    those points.

    ``pair`` is the validated (f, F), whose read-only f and F replace
    the given ones.  It is reused while ``space``, ``f`` and ``F`` are its
    own, so ``dataclasses.replace`` to a new start checks only the start.
    """

    space: FiniteMetricSpace
    f: Mapping[str, str]
    F: Mapping[str, ClosedSet]
    edges: EdgeStructure
    gauge: Gauge
    w0: str
    p0: str
    config: IterationConfig = IterationConfig()
    truncated: frozenset = frozenset()
    pair: ValidatedPair | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        pair = self.pair
        if pair is None or not (
            pair.space is self.space and pair.f is self.f and pair.F is self.F
        ):
            pair = validate_pair(self.space, self.f, self.F)
            if pair.misses:
                w, y = pair.misses[0]
                raise InputError(
                    f"range condition fails: {y!r} in F({w!r}) is not an f-image"
                )
            object.__setattr__(self, "pair", pair)
            object.__setattr__(self, "f", pair.f)
            object.__setattr__(self, "F", pair.F)
        object.__setattr__(self, "truncated", frozenset(self.truncated))
        for label in (self.w0, self.p0, *sorted(self.truncated)):
            self.space.index(label)
        if self.p0 not in self.F[self.w0]:
            raise InputError("p0 must belong to F(w0)")
        # the walk and the verifiers index the adjacency by the space's labels
        if self.edges.space is not self.space and (
            self.edges.space.labels != self.space.labels
        ):
            raise InputError("edges must be built over the problem's labels, in order")
        if not self.edges.contains(self.f[self.w0], self.p0):
            raise InputError("(f(w0), p0) must be an edge")


def run_coincidence_iteration(problem: CoincidenceProblem) -> IterationOutcome:
    """Iterate the graph-checked successor selection until certified stop.

    The successor y_{n+1} is the member of F(w_n) nearest f(w_n), ties to
    the lowest index; on a finite set it satisfies the selection
    inequality d(f(w_n), y) <= D(f(w_n), F(w_n)) / sqrt(k(d_n)) for every
    gauge value.  It is pulled back through f, so after the start a walk
    is a chain of lookups in the tables of the validated pair.  Per step
    the engine checks that (a) consecutive image points are joined by an
    edge, (b) the step distances satisfy d_{n+1} <= sqrt(k(d_n)) d_n, up
    to ``metric.within``'s relative slack, and (c) the gauge is not zero
    while the residual is positive, which the contraction hypothesis
    rules out.  It stops when the step distance
    falls below ``tol`` and the residual D(f(w_n), F(w_n)) below
    ``residual_tol``, or when the tail bound certifies the distance to
    the limit is below ``tol`` (again residual gated, so a Converged
    outcome always has a small residual, and says whether f(w*) lies in
    F(w*) exactly).  At the limit it also reports the common fixed point
    a = f(w*) whenever f(a) = a and f(a) in F(a).
    """
    space = problem.space
    gauge = problem.gauge
    cfg = problem.config
    cert = ConvergenceCertificate.from_gauge(gauge)
    trace = IterationTrace()

    def outcome(status, common=None):
        return IterationOutcome(status, trace, cert, common)

    labels = space.labels
    adjacency = problem.edges.adjacency
    # every member of every F(w) has a preimage, by construction
    fi, inverse, nearest, gap = problem.pair.tables
    w0 = space.index(problem.w0)
    p0 = space.index(problem.p0)
    fw0 = fi[w0]
    # construction checked that (f(w0), p0) is an edge
    trace.append(
        TraceRow(0, labels[w0], labels[fw0], float("nan"), gap[w0], float("nan"), True)
    )
    w = inverse[p0]
    prev_fw = fw0
    fw = fi[w]
    d1 = float(space.matrix[fw0, p0])
    d_n = d1
    d_prev = None
    n = 1

    while True:
        residual = gap[w]
        bound = cert.bound(d1, n)
        edge_ok = bool(adjacency[prev_fw, fw])
        trace.append(TraceRow(n, labels[w], labels[fw], d_n, residual, bound, edge_ok))
        if not edge_ok:
            return outcome(HypothesisViolated("edge", n))
        if d_prev is not None:
            limit = math.sqrt(gauge(d_prev)) * d_prev
            if not within(d_n, limit, limit):
                return outcome(HypothesisViolated("i", n))
        if residual <= cfg.residual_tol and (d_n <= cfg.tol or bound <= cfg.tol):
            # distinct labels sit at a positive distance: f(w) in F(w) iff gap 0
            common = labels[fw] if fi[fw] == fw and gap[fw] == 0.0 else None
            return outcome(Converged(labels[w], labels[fw], gap[w] == 0.0), common)
        if n > cfg.max_iter:
            return outcome(MaxIterExceeded(labels[w]))
        if residual > 0 and (d_n == 0 or gauge(d_n) == 0.0):
            return outcome(HypothesisViolated("i", n))
        prev_fw, w = fw, inverse[nearest[w]]
        fw = fi[w]
        d_prev, d_n = d_n, residual
        n += 1


def run_operator_iteration(
    T: Callable[[np.ndarray], np.ndarray],
    w0,
    in_W0: Callable[[np.ndarray], bool],
    gauge: Gauge,
    config: IterationConfig,
) -> IterationOutcome:
    """Iterate w <- T(w) on vectors under the sup norm until displacement
    and residual drop below the configured tolerances.

    ``in_W0`` receives successive displacements w_n - w_{n+1} (and the
    total displacement w0 - limit at the end); it encodes the graph of
    the iterates theorem, e.g. "vanishes at both endpoints" for operators
    that interpolate the endpoint values.  Each step also re-checks the
    displacement contraction ||w_n - w_{n+1}|| <= k(d) d with d the
    previous displacement, through ``metric.within`` with scale
    k(d) d + ||w_0|| + the sum of the displacements so far, a bound on
    ||w_{n+1}|| that costs no array pass.  A violation aborts with the
    failing condition; an excess within EPS of the iterate's size is
    rounding and passes.

    A step pays for one call of T and one displacement w_n - w_{n+1},
    which serves as both the residual and the argument of ``in_W0``.
    """
    cert = ConvergenceCertificate.from_gauge(gauge)
    trace = IterationTrace()
    rows = trace.rows
    tol, residual_tol, max_iter = config.tol, config.residual_tol, config.max_iter
    reduce_max, absolute = np.maximum.reduce, np.abs

    def sup(vec) -> float:
        return float(reduce_max(absolute(vec))) if vec.size else 0.0

    w_cur = np.asarray(w0, dtype=float).copy()
    w_next = np.asarray(T(w_cur), dtype=float)
    delta = w_cur - w_next
    d1 = d_prev = sup(delta)
    reach = sup(w_cur) + d1  # bounds ||w_n|| for every n reached so far
    if not in_W0(delta):
        rows.append(TraceRow(0, None, None, float("nan"), d1, float("nan"), False))
        return IterationOutcome(HypothesisViolated("edge", 0), trace, cert)

    n = 1
    while True:
        w_after = np.asarray(T(w_next), dtype=float)
        delta = w_next - w_after
        resid = sup(delta)
        rows.append(TraceRow(n, None, None, d_prev, resid, cert.bound(d1, n), True))
        if d_prev <= tol and resid <= residual_tol:
            status = Converged(w_next, w_next)
            break
        if not in_W0(delta):
            status = HypothesisViolated("edge", n)
            break
        reach += resid
        limit = gauge(d_prev) * d_prev
        if not within(resid, limit, limit + reach):
            status = HypothesisViolated("i", n)
            break
        if n >= max_iter:
            status = MaxIterExceeded(w_next)
            break
        d_prev = resid
        w_next = w_after
        n += 1

    outcome = IterationOutcome(status, trace, cert)
    if isinstance(status, Converged):
        if not in_W0(np.asarray(w0, dtype=float) - status.w_star):
            outcome.status = HypothesisViolated("edge", n)
    return outcome
