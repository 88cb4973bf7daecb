"""Graph-constrained coincidence and fixed-point iteration.

A library and CLI for iterating a single-valued map f against a
closed-valued set-valued map F on a finite metric space carrying a
directed reflexive graph, with certified geometric stopping bounds,
exhaustive hypothesis verifiers, and two operator applications: the
nonlinear q-analogue Bernstein iterates and a Picard solver for a
fractional boundary value problem in Green-kernel integral form.
"""

from .engine import (
    CoincidenceProblem,
    Converged,
    ConvergenceCertificate,
    HypothesisViolated,
    IterationConfig,
    IterationOutcome,
    IterationTrace,
    MaxIterExceeded,
    TraceRow,
    run_coincidence_iteration,
    run_operator_iteration,
    tail_bound,
)
from .errors import DomainError, InputError
from .metric import (
    ClosedSet,
    EdgeStructure,
    FiniteMetricSpace,
    Gauge,
)
from .verifier import (
    CoincidenceSets,
    HypothesisReport,
    KamranReport,
    best_approximant_set,
    enumerate_coincidence_points,
    verify_coincidence_hypotheses,
    verify_invariant_approx_hypotheses,
    verify_kamran_inequality,
)

__version__ = "0.1.0"

__all__ = [
    "ClosedSet",
    "CoincidenceProblem",
    "CoincidenceSets",
    "Converged",
    "ConvergenceCertificate",
    "DomainError",
    "EdgeStructure",
    "FiniteMetricSpace",
    "Gauge",
    "HypothesisReport",
    "HypothesisViolated",
    "InputError",
    "IterationConfig",
    "IterationOutcome",
    "IterationTrace",
    "KamranReport",
    "MaxIterExceeded",
    "TraceRow",
    "best_approximant_set",
    "enumerate_coincidence_points",
    "run_coincidence_iteration",
    "run_operator_iteration",
    "tail_bound",
    "verify_coincidence_hypotheses",
    "verify_invariant_approx_hypotheses",
    "verify_kamran_inequality",
]
