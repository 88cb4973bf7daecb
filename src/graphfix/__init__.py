"""Graph-constrained coincidence and fixed-point iteration.

A library and CLI for iterating a single-valued map f against a
closed-valued set-valued map F on a finite metric space carrying a
directed reflexive graph, with certified geometric stopping bounds,
exhaustive hypothesis verifiers, and two operator applications: the
nonlinear q-analogue Bernstein iterates and a Picard solver for a
fractional boundary value problem in Green-kernel integral form.

The names below are imported from their modules on first access, so
``import graphfix`` (and with it ``import graphfix.cli``) loads no solver
module that the caller does not use.
"""

import importlib

__version__ = "0.1.0"

# each exported name and the module that defines it
_EXPORTS = {
    "CoincidenceProblem": "engine",
    "Converged": "engine",
    "ConvergenceCertificate": "engine",
    "HypothesisViolated": "engine",
    "IterationConfig": "engine",
    "IterationOutcome": "engine",
    "IterationTrace": "engine",
    "MaxIterExceeded": "engine",
    "TraceRow": "engine",
    "run_coincidence_iteration": "engine",
    "DomainError": "errors",
    "InputError": "errors",
    "ClosedSet": "metric",
    "EdgeStructure": "metric",
    "FiniteMetricSpace": "metric",
    "Gauge": "metric",
    "CoincidenceSets": "verifier",
    "HypothesisReport": "verifier",
    "KamranReport": "verifier",
    "best_approximant_set": "verifier",
    "enumerate_coincidence_points": "verifier",
    "verify_coincidence_hypotheses": "verifier",
    "verify_invariant_approx_hypotheses": "verifier",
    "verify_kamran_inequality": "verifier",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """An exported name, imported from its module on first access."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
