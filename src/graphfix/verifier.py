"""Hypothesis verifiers and enumeration oracles on finite spaces.

``verify_coincidence_hypotheses`` checks the graph-contraction
hypotheses the engine relies on; ``verify_kamran_inequality`` checks the
stronger Hausdorff-based inequality

    H(Fv, Fw) <= k(d(fv, fw)) d(fv, fw) + M D(fv, Fw)

for comparison (the ternary orbit example violates it for every gauge
while passing the graph-local hypotheses).

Both checks are exhaustive over every ordered pair (v, w), and both are
index-based: after one validation of (f, F) they read only the distance
matrix, the edge adjacency matrix and the arrays of the validated pair
(``metric.ValidatedPair``): f as the vector ``fi`` of image indices, F
as the n x k array ``members`` of member indices (shorter rows padded
with repeats of their first member, which min and max ignore), and
D(f(w), F(w)) as its ``gap`` table.  An n-point check is a few n x n
array expressions, with O(n^2) temporaries; witnesses are built for
failing pairs only, in the order of the label loops that define the
reports (v, then w, then p).
The loop forms are kept in the test suite as oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import DomainError, InputError, check_real
from .metric import (
    EdgeStructure,
    FiniteMetricSpace,
    Gauge,
    norm_value,
    validate_pair,
)

# Slack for comparing float inequalities built from exact example data.
_SLACK = 1e-12


def _gauge_at(gauge: Gauge, t: np.ndarray) -> np.ndarray:
    """``gauge(t)`` elementwise on an array of nonnegative arguments."""
    pos = np.searchsorted(gauge.breakpoints, t, side="right") - 1
    return np.asarray(gauge.values)[pos]


@dataclass
class HypothesisReport:
    """Outcome of a hypothesis check, with a witness for every false flag."""

    condition_i_ok: bool = True
    condition_ii_ok: bool = True
    range_ok: bool = True
    start_exists: bool = False
    witnesses: list = field(default_factory=list)
    admissible_start: tuple | None = None

    @property
    def all_ok(self) -> bool:
        return (
            self.condition_i_ok
            and self.condition_ii_ok
            and self.range_ok
            and self.start_exists
        )

    def to_dict(self) -> dict:
        return {
            "condition_i_ok": self.condition_i_ok,
            "condition_ii_ok": self.condition_ii_ok,
            "range_ok": self.range_ok,
            "start_exists": self.start_exists,
            "all_ok": self.all_ok,
            "admissible_start": list(self.admissible_start)
            if self.admissible_start
            else None,
            "witnesses": self.witnesses,
        }


def verify_coincidence_hypotheses(
    space: FiniteMetricSpace,
    f: Mapping[str, str],
    F: Mapping,
    edges: EdgeStructure,
    gauge: Gauge,
    truncated=frozenset(),
) -> HypothesisReport:
    """Exhaustively check the graph-contraction hypotheses on a finite space.

    For every ordered pair (v, w) with f(w) in F(v) and (f(v), f(w)) an
    edge it checks

      (i)  D(f(w), F(w)) <= k(d) * d           with d = d(f(v), f(w)),
      (ii) every f(p) in F(w) with d(f(w), f(p)) <= d gives an edge
           (f(w), f(p)),

    plus the range condition F(u) subset of f(W) and the existence of an
    admissible start (w0, p0).  Pairs whose successor owner ``w`` lies in
    ``truncated`` are skipped: their f/F entries stand in for points cut
    away when an infinite space was restricted to a finite one, so the
    checks would test truncation artifacts rather than the original data.
    An all-false report is a valid result; nothing raises.
    """
    pair = validate_pair(space, f, F)
    fmap, fi, members = pair.f, pair.fi, pair.members
    labels = space.labels
    n = len(labels)
    dist = space.matrix
    report = HypothesisReport(range_ok=not pair.misses)
    for u, y in pair.misses:
        report.witnesses.append({"condition": "range", "u": u, "member": y})

    # Row-major (v, w) tables: f(w) in F(v), the edge (f(v), f(w)), d(f(v), f(w)).
    in_image = np.zeros((n, n), dtype=bool)
    in_image[np.arange(n)[:, None], members] = True
    owns = in_image[:, fi]
    edge = edges.adjacency[np.ix_(fi, fi)]
    d = dist[np.ix_(fi, fi)]
    cut = frozenset(truncated)
    skip = np.array([w in cut for w in labels])
    active = owns & edge & ~skip

    bound = _gauge_at(gauge, d) * d
    D = pair.gap  # D(f(w), F(w)), one per w
    fail_i = active & (D > bound + _SLACK)
    # (ii) fails for (v, w) iff some p with f(p) in F(w) and no edge
    # (f(w), f(p)) lies within d(f(v), f(w)) + slack of f(w): compare
    # with the nearest such p, one number per w.
    broken = owns & ~edge
    nearest = np.where(broken, d, np.inf).min(axis=1)
    fail_ii = active & (nearest[None, :] <= d + _SLACK)
    report.condition_i_ok = not fail_i.any()
    report.condition_ii_ok = not fail_ii.any()

    for v, w in zip(*np.nonzero(fail_i | fail_ii)):
        dvw = float(d[v, w])
        fv, fw = fmap[labels[v]], fmap[labels[w]]
        if fail_i[v, w]:
            report.witnesses.append(
                {
                    "condition": "i",
                    "v": labels[v],
                    "w": labels[w],
                    "fv": fv,
                    "fw": fw,
                    "d": dvw,
                    "D": float(D[w]),
                    "bound": float(bound[v, w]),
                }
            )
        if fail_ii[v, w]:
            for p in np.nonzero(broken[w] & (d[w] <= d[v, w] + _SLACK))[0]:
                report.witnesses.append(
                    {
                        "condition": "ii",
                        "v": labels[v],
                        "w": labels[w],
                        "p": labels[p],
                        "fw": fw,
                        "fp": fmap[labels[p]],
                        "d_fw_fp": float(d[w, p]),
                        "d": dvw,
                    }
                )

    # first w0 in label order, then the first p0 in F(w0) member order
    starts = edges.adjacency[fi[:, None], members]
    if starts.any():
        w0, j = divmod(int(np.argmax(starts)), members.shape[1])
        report.start_exists = True
        report.admissible_start = (labels[w0], labels[members[w0, j]])
    else:
        report.witnesses.append(
            {"condition": "start", "detail": "no admissible (w0, p0) pair"}
        )
    return report


@dataclass
class KamranReport:
    """Result of checking the Hausdorff-based inequality with constant M."""

    holds: bool
    M: float
    witnesses: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"holds": self.holds, "M": self.M, "witnesses": self.witnesses}


def verify_kamran_inequality(
    space: FiniteMetricSpace,
    f: Mapping[str, str],
    F: Mapping,
    gauge: Gauge,
    M: float = 0.0,
) -> KamranReport:
    """Check H(Fv, Fw) <= k(d(fv, fw)) d(fv, fw) + M D(fv, Fw) on all pairs."""
    M = check_real(M, "M")
    if M < 0:
        raise InputError("M must be nonnegative")
    pair = validate_pair(space, f, F)
    fi, members = pair.fi, pair.members
    labels = space.labels
    dist = space.matrix
    # P[u, w] = D(u, F(w)), one member slot at a time: temporaries stay n x n
    P = dist[:, members[:, 0]]
    for j in range(1, members.shape[1]):
        np.minimum(P, dist[:, members[:, j]], out=P)
    # sup[v, w] = max over u in F(v) of D(u, F(w)); H is its symmetrised max
    sup = P[members[:, 0]]
    for j in range(1, members.shape[1]):
        np.maximum(sup, P[members[:, j]], out=sup)
    H = np.maximum(sup, sup.T)
    d = dist[np.ix_(fi, fi)]
    D = P[fi]  # D(f(v), F(w))
    rhs = _gauge_at(gauge, d) * d + M * D
    fail = H > rhs + _SLACK
    report = KamranReport(holds=not fail.any(), M=M)
    for v, w in zip(*np.nonzero(fail)):
        report.witnesses.append(
            {
                "v": labels[v],
                "w": labels[w],
                "H": float(H[v, w]),
                "d": float(d[v, w]),
                "D": float(D[v, w]),
                "lhs": float(H[v, w]),
                "rhs": float(rhs[v, w]),
            }
        )
    return report


@dataclass
class CoincidenceSets:
    """Every coincidence point, and the common fixed points among them."""

    coincidence: tuple[str, ...]
    common_fixed: tuple[str, ...]


def enumerate_coincidence_points(
    space: FiniteMetricSpace, f: Mapping[str, str], F: Mapping
) -> CoincidenceSets:
    """Every w with f(w) in F(w), and among them every w = f(w)."""
    pair = validate_pair(space, f, F)
    common = pair.coincident & (pair.fi == np.arange(len(space)))
    labels = space.labels
    return CoincidenceSets(
        tuple(labels[i] for i in np.flatnonzero(pair.coincident)),
        tuple(labels[i] for i in np.flatnonzero(common)),
    )


def best_approximant_set(
    Q: Sequence, z, norm: str = "euclidean", tol: float = 1e-12
) -> list[tuple]:
    """All minimizers of ||q - z|| over Q; ties within ``tol`` all included."""
    pts = [tuple(float(c) for c in np.atleast_1d(q)) for q in Q]
    if not pts:
        raise DomainError("Q must be non-empty")
    zv = np.atleast_1d(np.asarray(z, dtype=float))
    dists = [norm_value(np.asarray(p) - zv, norm) for p in pts]
    dmin = min(dists)
    return [p for p, d in zip(pts, dists) if d <= dmin + tol]


def verify_invariant_approx_hypotheses(
    Q: Sequence,
    z,
    f: Mapping,
    F: Mapping,
    gauge: Gauge,
    norm: str = "euclidean",
) -> HypothesisReport:
    """Check the invariant best-approximation hypotheses on a finite Q.

    ``f`` and ``F`` are keyed by coordinate tuples. Flags map as follows:
    ``condition_i_ok`` is the contraction condition restricted to the
    best-approximant set B, ``condition_ii_ok`` is f(B) = B, ``range_ok``
    is the invariance inequality sup_{u in Fp} ||u - z|| <= ||fp - z||
    for p in B (it forces F(B) into B), and ``start_exists`` records that
    B is non-empty with F defined on it.  On an all-true report the
    coincidence iteration may be run on B under complete-graph edges.
    """
    pts = [tuple(float(c) for c in np.atleast_1d(q)) for q in Q]
    zv = np.atleast_1d(np.asarray(z, dtype=float))
    B = best_approximant_set(pts, z, norm)
    report = HypothesisReport(start_exists=bool(B))

    def dist(p, q) -> float:
        return norm_value(np.asarray(p) - np.asarray(q), norm)

    def f_at(p):
        if p not in f:
            raise InputError(f"f is not defined at {p!r}")
        return tuple(float(c) for c in np.atleast_1d(f[p]))

    def F_at(p):
        if p not in F:
            raise InputError(f"F is not defined at {p!r}")
        return [tuple(float(c) for c in np.atleast_1d(u)) for u in F[p]]

    for v in B:
        fv = f_at(v)
        for w in pts:
            fw = f_at(w)
            if fw not in F_at(v):
                continue
            d = dist(fv, fw)
            D = min(dist(fw, u) for u in F_at(w))
            if D > gauge(d) * d + _SLACK:
                report.condition_i_ok = False
                report.witnesses.append(
                    {"condition": "i", "v": v, "w": w, "d": d, "D": D,
                     "bound": gauge(d) * d}
                )

    image = {f_at(p) for p in B}
    if image != set(B):
        report.condition_ii_ok = False
        report.witnesses.append(
            {
                "condition": "ii",
                "detail": "f does not map the best-approximant set onto itself",
                "f_image": sorted(image),
                "best_set": sorted(set(B)),
            }
        )

    for p in B:
        fp = f_at(p)
        lhs = max(dist(u, tuple(zv)) for u in F_at(p))
        rhs = dist(fp, tuple(zv))
        if lhs > rhs + _SLACK:
            report.range_ok = False
            report.witnesses.append(
                {"condition": "invariance", "p": p, "sup": lhs, "bound": rhs}
            )
    return report
