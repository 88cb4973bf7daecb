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
D(f(w), F(w)) as its ``gap`` table.  The hypothesis check finds the
pairs with f(w) in F(v), at most n k of them, by expanding each member of
each F(v) into its preimages under f (``_checked_pairs``), and evaluates
its conditions on those pairs only, so it builds nothing n x n; the
Kamran check, whose H runs over every pair, is a few n x n array
expressions.  Called with a problem's own ``f`` and ``F``, both reuse the
problem's validated pair (see ``metric.validate_pair``).  Every
comparison goes through ``metric.within`` with the right-hand side as its
scale, so a verdict does not change when every distance is multiplied by
a power of two.

A report stays small however many pairs fail.  For each of (i), (ii)
and Kamran's inequality it holds the number of failures, the margin
(the largest relative excess (lhs - rhs)/rhs over the checked pairs,
see ``_excess``), and at most two witnesses, each with its ``excess``:
the first failing pair in the order of the label loops that define the
checks (v, then w, then p) and, if it is another pair, the worst one
(the largest excess, the first of equals).  Its verdicts are read from
those counts, not stored beside them.  The loop forms are kept in the
test suite as oracles, which count every failure and list its witness.
``verify_invariant_approx_hypotheses`` runs ``verify_coincidence_hypotheses``
on the best-approximant set, so it has no pair loop of its own.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import DomainError, InputError, check_labels, check_nonnegative
from .metric import (
    EPS,
    EdgeStructure,
    FiniteMetricSpace,
    Gauge,
    _norms,
    _real_array,
    validate_pair,
    within,
)


def _gauge_at(gauge: Gauge, t: np.ndarray) -> np.ndarray:
    """``gauge(t)`` elementwise on an array of nonnegative arguments."""
    pos = np.searchsorted(gauge.breakpoints, t, side="right") - 1
    return np.asarray(gauge.values)[pos]


def _excess(lhs, rhs, checked):
    """The relative excess (lhs - rhs)/rhs where ``checked``, and -inf
    elsewhere.

    For an inequality lhs <= rhs decided by ``within(lhs, rhs, rhs)``, a
    value <= 0 means that it holds without the slack, one in (0, EPS]
    that it holds only within the slack, and a larger one that it fails.
    A zero rhs reads as 0 where lhs = 0 (it holds with equality) and as
    inf where lhs > 0 (no slack saves it), so nothing is divided by zero;
    an excess beyond the largest double, over a subnormal rhs, is inf too.
    JSON writes inf as null.
    """
    diff = lhs - rhs
    out = np.where(checked, np.where(diff > 0.0, np.inf, 0.0), -np.inf)
    with np.errstate(over="ignore"):
        np.divide(diff, rhs, out=out, where=checked & (rhs > 0.0))
    return out


def _first_and_worst(fail, excess) -> tuple[list[int], float | None]:
    """The flat indices of the first failing entry and, if it is another
    one, of the worst (the largest excess, the first of equals); and the
    margin, the largest excess, None when no entry was checked."""
    top = float(excess.max(initial=-np.inf))
    margin = None if top == -np.inf else top
    if not fail.any():
        return [], margin
    first = int(np.argmax(fail))
    worst = int(np.argmax(np.where(fail, excess, -np.inf)))
    return ([first] if worst == first else [first, worst]), margin


def _checked_pairs(pair) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (v, w) with f(w) in F(v), as index arrays in row-major
    order (v, then w), from the member table of a validated pair.

    Each member y of F(v) (the padding repeats of a row's first member
    dropped) expands into the preimages of y, found by grouping the
    labels by their f-image; so the work is O(n k + P log P) for P pairs.
    """
    fi, members = pair.fi, pair.members
    n = len(fi)
    slot = members != members[:, :1]
    slot[:, 0] = True
    owner, col = np.nonzero(slot)
    ys = members[owner, col]
    by_image = np.argsort(fi, kind="stable")
    images = fi[by_image]
    lo = np.searchsorted(images, ys, side="left")
    count = np.searchsorted(images, ys, side="right") - lo
    # the t-th pair of member slot s has w = by_image[lo[s] + t]
    run_start = np.cumsum(count) - count
    at = np.arange(count.sum()) + np.repeat(lo - run_start, count)
    keys = np.sort(np.repeat(owner, count) * n + by_image[at])
    return np.divmod(keys, n)


@dataclass
class HypothesisReport:
    """Outcome of a hypothesis check, with a witness for every false flag.

    ``failing`` and ``margin`` map "i" and "ii" to the number of failures
    and the margin (see ``_excess``; None when no pair was checked).  (ii)
    fails at a pair (v, w) once for each p that breaks it, and its excess
    there reads lhs = d(f(v), f(w)) against rhs = the distance from f(w)
    to the nearest f(p) in F(w) that is no edge's end: the condition asks
    lhs < rhs, and its slack counts a near tie against it, so (ii) fails
    from an excess of about -EPS on.
    """

    range_ok: bool = True
    witnesses: list = field(default_factory=list)
    admissible_start: tuple | None = None
    failing: dict = field(default_factory=lambda: {"i": 0, "ii": 0})
    margin: dict = field(default_factory=lambda: {"i": None, "ii": None})

    @property
    def all_ok(self) -> bool:
        return (
            not any(self.failing.values())
            and self.range_ok
            and self.admissible_start is not None
        )

    def to_dict(self) -> dict:
        return {
            "condition_i_ok": self.failing["i"] == 0,
            "condition_ii_ok": self.failing["ii"] == 0,
            "range_ok": self.range_ok,
            "start_exists": self.admissible_start is not None,
            "all_ok": self.all_ok,
            "admissible_start": list(self.admissible_start)
            if self.admissible_start
            else None,
            "failing": dict(self.failing),
            "margin": dict(self.margin),
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
    An all-false report is a valid result; nothing raises.  The report
    counts the failures of (i) and (ii) and gives their margins and at
    most two witnesses each (see ``HypothesisReport``).
    """
    cut = frozenset(check_labels(truncated, "truncated"))
    pair = validate_pair(space, f, F)
    fmap, fi, members = pair.f, pair.fi, pair.members
    labels = space.labels
    n = len(labels)
    dist = space.matrix
    report = HypothesisReport(range_ok=not pair.misses)
    for u, y in pair.misses:
        report.witnesses.append({"condition": "range", "u": u, "member": y})

    # The pairs (v, w) with f(w) in F(v), with the edge (f(v), f(w)) and
    # d(f(v), f(w)) of each: every check reads only these.
    vs, ws = _checked_pairs(pair)
    edge = edges.adjacency[fi[vs], fi[ws]]
    d = dist[fi[vs], fi[ws]]
    skip = np.array([w in cut for w in labels])
    active = edge & ~skip[ws]

    bound = _gauge_at(gauge, d) * d
    D = pair.gap[ws]  # D(f(w), F(w))
    fail_i = active & ~within(D, bound, bound)
    # (ii) fails for (v, w) iff some p with f(p) in F(w) and no edge
    # (f(w), f(p)) lies within d(f(v), f(w)) of f(w), up to the slack:
    # compare with the nearest such p, one number per w.  The pairs
    # (w, p) are the same list, read with w first.
    broken = ~edge
    nearest = np.full(n, np.inf)
    np.minimum.at(nearest, vs[broken], d[broken])
    fail_ii = active & within(nearest[ws], d, d)
    excess_i = _excess(D, bound, active)
    picked_i, report.margin["i"] = _first_and_worst(fail_i, excess_i)
    excess_ii = _excess(d, nearest[ws], active & (nearest[ws] < np.inf))
    picked_ii, report.margin["ii"] = _first_and_worst(fail_ii, excess_ii)
    report.failing["i"] = int(np.count_nonzero(fail_i))

    if fail_ii.any():
        # one failure per breaking p: rank the no-edge distances, w major,
        # and count those of row w up to the largest distance that
        # ``within(., d, d)`` admits, d + EPS d
        ranked = np.sort(d[broken])
        size = ranked.size + 1
        keys = np.sort(vs[broken] * size + np.searchsorted(ranked, d[broken]))
        jj = np.flatnonzero(fail_ii)
        start = ws[jj] * size
        reach = np.searchsorted(ranked, d[jj] + EPS * d[jj], side="right")
        counts = np.searchsorted(keys, start + reach) - np.searchsorted(keys, start)
        report.failing["ii"] = int(counts.sum())

    for j in picked_i:
        v, w = vs[j], ws[j]
        report.witnesses.append(
            {
                "condition": "i",
                "v": labels[v],
                "w": labels[w],
                "fv": fmap[labels[v]],
                "fw": fmap[labels[w]],
                "d": float(d[j]),
                "D": float(D[j]),
                "bound": float(bound[j]),
                "excess": float(excess_i[j]),
            }
        )
    row = np.searchsorted(vs, np.arange(n + 1))  # pairs row[w]:row[w + 1] have v = w
    for j in picked_ii:
        v, w = vs[j], ws[j]
        own = np.arange(row[w], row[w + 1])
        k = own[broken[own] & within(d[own], d[j], d[j])][0]  # the first p in label order
        p = ws[k]
        report.witnesses.append(
            {
                "condition": "ii",
                "v": labels[v],
                "w": labels[w],
                "p": labels[p],
                "fw": fmap[labels[w]],
                "fp": fmap[labels[p]],
                "d_fw_fp": float(d[k]),
                "d": float(d[j]),
                "excess": float(excess_ii[j]),
            }
        )

    # first w0 in label order, then the first p0 in F(w0) member order
    starts = edges.adjacency[fi[:, None], members]
    if starts.any():
        w0, j = divmod(int(np.argmax(starts)), members.shape[1])
        report.admissible_start = (labels[w0], labels[members[w0, j]])
    else:
        report.witnesses.append(
            {"condition": "start", "detail": "no admissible (w0, p0) pair"}
        )
    return report


@dataclass
class KamranReport:
    """Result of checking the Hausdorff-based inequality with constant M:
    the number of failing pairs, the margin (see ``_excess``) and at most
    two witnesses, the first failing pair and the worst."""

    M: float
    failing: int = 0
    margin: float | None = None
    witnesses: list = field(default_factory=list)

    @property
    def holds(self) -> bool:
        return self.failing == 0

    def to_dict(self) -> dict:
        return {"holds": self.holds, **asdict(self)}


def verify_kamran_inequality(
    space: FiniteMetricSpace,
    f: Mapping[str, str],
    F: Mapping,
    gauge: Gauge,
    M: float = 0.0,
) -> KamranReport:
    """Check H(Fv, Fw) <= k(d(fv, fw)) d(fv, fw) + M D(fv, Fw) on all pairs."""
    M = check_nonnegative(M, "M")
    pair = validate_pair(space, f, F)
    fi, members = pair.fi, pair.members
    labels = space.labels
    n = len(labels)
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
    fail = ~within(H, rhs, rhs)
    excess = _excess(H, rhs, True)
    picked, margin = _first_and_worst(fail.ravel(), excess.ravel())
    report = KamranReport(M=M, failing=int(np.count_nonzero(fail)), margin=margin)
    for v, w in (divmod(j, n) for j in picked):
        report.witnesses.append(
            {
                "v": labels[v],
                "w": labels[w],
                "H": float(H[v, w]),
                "d": float(d[v, w]),
                "D": float(D[v, w]),
                "lhs": float(H[v, w]),
                "rhs": float(rhs[v, w]),
                "excess": float(excess[v, w]),
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
    hits = pair.gap == 0.0  # f(w) in F(w): distinct labels are never at distance 0
    common = hits & (pair.fi == np.arange(len(space)))
    labels = space.labels
    return CoincidenceSets(
        tuple(labels[i] for i in np.flatnonzero(hits)),
        tuple(labels[i] for i in np.flatnonzero(common)),
    )


def best_approximant_set(Q: Sequence, z, norm: str = "euclidean") -> list[tuple]:
    """All minimizers of ||q - z|| over Q (ties up to ``metric.within``'s
    relative slack), in the order of Q without repeats.  The points of Q
    and z share one dimension (numbers are 1-D points), and every
    coordinate must be finite."""
    pts = _real_array(Q, "Q")
    if not len(pts):
        raise DomainError("Q must be non-empty")
    if pts.ndim == 1:
        pts = pts[:, None]
    zv = np.atleast_1d(_real_array(z, "z"))
    if pts.ndim != 2 or zv.shape != pts.shape[1:]:
        raise InputError("z and the points of Q must be vectors of one dimension")
    if not (np.isfinite(pts).all() and np.isfinite(zv).all()):
        raise InputError("the coordinates of Q and z must be finite")
    dists = _norms(pts - zv, norm)
    least = dists.min()
    best = pts[within(dists, least, least)]
    return list(dict.fromkeys(map(tuple, best.tolist())))


def _point(value) -> tuple:
    """A point given by its coordinates, as a tuple of floats."""
    return tuple(_real_array(value, "a point").ravel().tolist())


def verify_invariant_approx_hypotheses(
    Q: Sequence,
    z,
    f: Mapping,
    F: Mapping,
    gauge: Gauge,
    norm: str = "euclidean",
) -> HypothesisReport:
    """Check the invariant best-approximation hypotheses on a finite Q.

    ``f`` and ``F`` are keyed by coordinate tuples and read on the
    best-approximant set B only.  (ii) is f(B) = B, and ``failing["ii"]``
    counts the points of f(B) and B that are not in both.  ``range_ok``
    is F(B) subset of B: once f(B) = B, every fp lies at distance
    dist(z, Q) from z, so the invariance inequality
    sup_{u in Fp} ||u - z|| <= ||fp - z|| holds for u in Q exactly when u
    lies in B.  With both true, ``verify_coincidence_hypotheses`` on B with
    complete edges gives the (i) count, margin and witnesses and the
    admissible start, in coordinates (otherwise there is no start); on an
    all-true report the coincidence iteration on B from that start
    reaches a coincidence point.
    """
    B = best_approximant_set(Q, z, norm)
    best = set(B)
    report = HypothesisReport()
    try:
        fB = [_point(f[p]) for p in B]
        FB = [[_point(u) for u in F[p]] for p in B]
    except KeyError as exc:
        raise InputError(f"f and F must be defined at {exc.args[0]!r}") from None
    report.failing["ii"] = len(best.symmetric_difference(fB))
    if report.failing["ii"]:
        report.witnesses.append(
            {
                "condition": "ii",
                "detail": "f does not map the best-approximant set onto itself",
                "f_image": sorted(set(fB)),
                "best_set": sorted(B),
            }
        )
    for p, image in zip(B, FB):
        outside = [u for u in image if u not in best]
        if outside:
            report.range_ok = False
            report.witnesses.append(
                {"condition": "invariance", "p": p, "outside": outside}
            )
    if report.failing["ii"] or not report.range_ok:
        report.witnesses.append(
            {"condition": "start", "detail": "not checked: B is not invariant"}
        )
        return report

    label = {p: str(i) for i, p in enumerate(B)}
    space = FiniteMetricSpace.from_coords(list(label.values()), B, norm)
    on_B = verify_coincidence_hypotheses(
        space,
        {label[p]: label[fp] for p, fp in zip(B, fB)},
        {label[p]: [label[u] for u in image] for p, image in zip(B, FB)},
        EdgeStructure(space, adjacency=np.ones((len(B), len(B)), dtype=bool)),
        gauge,
    )
    # on complete edges with F(B) in B = f(B) only (i) can fail
    report.failing, report.margin = on_B.failing, on_B.margin
    report.admissible_start = tuple(B[int(s)] for s in on_B.admissible_start)
    report.witnesses = [
        {k: B[int(x)] if k in ("v", "w", "fv", "fw") else x for k, x in w.items()}
        for w in on_B.witnesses
    ]
    return report
