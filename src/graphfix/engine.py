"""Graph-checked successor iteration and the one stop rule of all three solvers.

``run_coincidence_iteration`` walks a finite problem: from the pair
(w_n, f(w_n)) it picks the nearest member of F(w_n), pulls it back
through f, and re-checks the contraction and edge hypotheses at every
step, so a conforming run terminates at a coincidence point and a
non-conforming problem is flagged with the exact failing condition.  Its
contraction check is decided by ``metric.within`` with the bound as the
scale, so no verdict changes when every distance is multiplied by a
power of two.

The certificate: once every checked step is at most rho < 1 times the one
before, a run is within ``ConvergenceCertificate.error_bound(d_n)`` =
rho/(1 - rho) d_n of its limit after a step d_n (Banach's a-posteriori
estimate); rho is sqrt(sup k) for the walk, kappa sup k for the FBVP Picard
step and c_p per block of p q-Bernstein steps.  All three stop by
``IterationConfig.reached``.

The result types here are shared by all three solvers: the q-Bernstein
iterates and the FBVP Picard solver run their own loops and return
subclasses of ``IterationOutcome``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

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
    """Stopping control: error-bound tolerance, residual tolerance, budget.

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

    def reached(self, error_bound: float, residual: float, floor: float = 0.0) -> bool:
        """The one stop rule: the certified distance to the limit within ``tol``
        and the residual within ``residual_tol``, each plus the rounding ``floor``."""
        return error_bound <= self.tol + floor and residual <= self.residual_tol + floor


@dataclass(frozen=True)
class ConvergenceCertificate:
    """Geometric certificate of per-step rate ``rate`` in [0, 1): each
    checked step is at most ``rate`` times the one before."""

    rate: float

    def __post_init__(self):
        if not (0.0 <= self.rate < 1.0):
            raise DomainError("certificate rate must lie in [0, 1)")

    def error_bound(self, d: float) -> float:
        """rate/(1 - rate) d: the distance to the limit after a step of
        length d, since the steps that follow sum to at most that."""
        return self.rate / (1.0 - self.rate) * d


@dataclass(slots=True)
class TraceRow:
    """One recorded step; labels are None for operator (vector) runs, and
    ``bound`` is the distance to the limit certified at the step."""

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
    def error_bound(self) -> float:
        """The distance to the limit certified at the last step."""
        return self.trace.rows[-1].bound if self.trace.rows else float("nan")

    def _record(self) -> dict:
        """The solver's own keys of :meth:`to_dict`; subclasses replace it."""
        return {
            "w_star": getattr(self.status, "w_star", None),
            "fw_star": getattr(self.status, "f_w_star", None),
            "common_fixed_point": self.common_fixed_point,
            "iterations": self.iterations,
            "final_residual": self.final_residual,
            "error_bound": self.error_bound,
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
    rules out.  Check (b) makes sqrt(sup k) the certificate's rate; the
    walk stops by ``IterationConfig.reached``, with no rounding floor, on
    ``error_bound(d_n)`` (the certified distance from f(w_n) to the limit)
    and the residual D(f(w_n), F(w_n)).  A Converged outcome says whether
    f(w*) lies in F(w*) exactly, and names the common fixed point
    a = f(w*) whenever f(a) = a and f(a) in F(a).
    """
    space = problem.space
    gauge = problem.gauge
    cfg = problem.config
    cert = ConvergenceCertificate(math.sqrt(gauge.certified_sup))
    rows = []

    def outcome(status, common=None):
        return IterationOutcome(status, IterationTrace(rows), cert, common)

    labels = space.labels
    adjacency = problem.edges.adjacency
    # every member of every F(w) has a preimage, by construction
    fi, inverse, nearest, gap = problem.pair.tables
    w0 = space.index(problem.w0)
    p0 = space.index(problem.p0)
    fw0 = fi[w0]
    # construction checked that (f(w0), p0) is an edge
    rows.append(TraceRow(0, labels[w0], labels[fw0], float("nan"), gap[w0], float("nan"), True))
    w = inverse[p0]
    prev_fw = fw0
    fw = fi[w]
    d_n = float(space.matrix[fw0, p0])
    d_prev = None
    n = 1

    while True:
        residual = gap[w]
        bound = cert.error_bound(d_n)
        edge_ok = bool(adjacency[prev_fw, fw])
        rows.append(TraceRow(n, labels[w], labels[fw], d_n, residual, bound, edge_ok))
        if not edge_ok:
            return outcome(HypothesisViolated("edge", n))
        if d_prev is not None:
            limit = math.sqrt(gauge(d_prev)) * d_prev
            if not within(d_n, limit, limit):
                return outcome(HypothesisViolated("i", n))
        if cfg.reached(bound, residual):
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

