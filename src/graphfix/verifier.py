"""Brute-force verifiers and enumeration oracles on finite spaces.

Everything here is an exhaustive double/triple loop over point labels:
these functions are the ground truth the iteration engine is tested
against, so clarity wins over speed (spaces stay below ~20 points).

``verify_coincidence_hypotheses`` checks the graph-contraction
hypotheses the engine relies on; ``verify_kamran_inequality`` checks the
stronger Hausdorff-based inequality

    H(Fv, Fw) <= k(d(fv, fw)) d(fv, fw) + M D(fv, Fw)

for comparison (the ternary orbit example violates it for every gauge
while passing the graph-local hypotheses).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import DomainError, InputError
from .metric import (
    EdgeStructure,
    FiniteMetricSpace,
    Gauge,
    hausdorff_distance,
    norm_value,
    point_to_set_distance,
    validate_pair,
)

# Slack for comparing float inequalities built from exact example data.
_SLACK = 1e-12


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
    fmap, sets, misses = validate_pair(space, f, F)
    images = {w: Z.members for w, Z in sets.items()}  # tuples: fast `in` below
    truncated = frozenset(truncated)
    report = HypothesisReport(range_ok=not misses)
    for u, y in misses:
        report.witnesses.append({"condition": "range", "u": u, "member": y})

    for v in space.labels:
        fv = fmap[v]
        for w in space.labels:
            if w in truncated:
                continue
            fw = fmap[w]
            if fw not in images[v]:
                continue
            if not edges.contains(fv, fw):
                continue
            d = space.distance(fv, fw)
            D = point_to_set_distance(fw, sets[w], space)
            bound = gauge(d) * d
            if D > bound + _SLACK:
                report.condition_i_ok = False
                report.witnesses.append(
                    {
                        "condition": "i",
                        "v": v,
                        "w": w,
                        "fv": fv,
                        "fw": fw,
                        "d": d,
                        "D": D,
                        "bound": bound,
                    }
                )
            for p in space.labels:
                fp = fmap[p]
                if fp not in images[w]:
                    continue
                if space.distance(fw, fp) > d + _SLACK:
                    continue
                if not edges.contains(fw, fp):
                    report.condition_ii_ok = False
                    report.witnesses.append(
                        {
                            "condition": "ii",
                            "v": v,
                            "w": w,
                            "p": p,
                            "fw": fw,
                            "fp": fp,
                            "d_fw_fp": space.distance(fw, fp),
                            "d": d,
                        }
                    )

    for w0 in space.labels:
        for p0 in images[w0]:
            if edges.contains(fmap[w0], p0):
                report.start_exists = True
                report.admissible_start = (w0, p0)
                break
        if report.start_exists:
            break
    if not report.start_exists:
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
    if M < 0:
        raise InputError("M must be nonnegative")
    fmap, images, _ = validate_pair(space, f, F)
    report = KamranReport(holds=True, M=float(M))
    for v in space.labels:
        for w in space.labels:
            H = hausdorff_distance(images[v], images[w], space)
            d = space.distance(fmap[v], fmap[w])
            D = point_to_set_distance(fmap[v], images[w], space)
            rhs = gauge(d) * d + M * D
            if H > rhs + _SLACK:
                report.holds = False
                report.witnesses.append(
                    {"v": v, "w": w, "H": H, "d": d, "D": D, "lhs": H, "rhs": rhs}
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
    """Scan all points for f(w) in F(w); also collect w = f(w) in F(w)."""
    fmap, images, _ = validate_pair(space, f, F)
    coin = []
    common = []
    for w in space.labels:
        if fmap[w] in images[w]:
            coin.append(w)
            if fmap[w] == w:
                common.append(w)
    return CoincidenceSets(tuple(coin), tuple(common))


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
