"""Finite metric spaces, reflexive edge structures, gauges, and closed sets.

These are the primitives every solver in the package shares: a labeled
point set with a validated distance matrix, a directed reflexive graph
over it (explicit pairs or a metric ball), a gauge function
k : [0, inf) -> [0, 1) with a certified supremum strictly below 1, and
non-void finite closed sets, and the one validation path for a pair
(f, F) on a finite space.

All types are immutable after construction and every operation is a pure
function, so instances can be shared freely across threads.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DomainError, InputError, check_real

# Relative triangle-inequality slack accepted when validating a distance matrix.
TRIANGLE_TOL = 1e-9

_NORM_ORDS = {"euclidean": 2, "manhattan": 1, "chebyshev": np.inf}


def _real_array(value, name: str) -> np.ndarray:
    """``value`` as a float array; InputError unless it reads as a
    rectangular array of numbers (a string is not a number)."""
    try:
        arr = np.asarray(value)
    except (TypeError, ValueError):
        raise InputError(f"{name} must be a rectangular array of numbers") from None
    if arr.dtype.kind == "O":  # integers beyond 64 bits, or entries that are no numbers
        arr = np.array([check_real(x, name) for x in arr.flat]).reshape(arr.shape)
    if arr.dtype.kind not in "iuf":
        raise InputError(f"{name} must be a rectangular array of numbers")
    return arr.astype(float, copy=False)


def _norm_ord(norm: str):
    """The ``numpy.linalg.norm`` order of a named norm."""
    if norm not in _NORM_ORDS:
        raise InputError(f"unknown norm {norm!r}; expected one of {sorted(_NORM_ORDS)}")
    return _NORM_ORDS[norm]


def _check_triangle(labels: tuple[str, ...], m: np.ndarray) -> None:
    """Raise InputError unless d(i, j) <= (d(i, k) + d(k, j)) (1 + TRIANGLE_TOL).

    The slack is relative, so it scales with the rounding of the distances
    it compares.  The factor is folded into one scaled copy of the matrix,
    and the n x n buffers are allocated once: fresh ones per k cost page
    faults.
    """
    grown = m * (1.0 + TRIANGLE_TOL)
    bound = np.empty_like(m)
    over = np.empty(m.shape, dtype=bool)
    for k in range(len(labels)):
        np.add(grown[:, k : k + 1], grown[k : k + 1, :], out=bound)
        if np.greater(m, bound, out=over).any():
            i, j = np.unravel_index(np.argmax(m - bound), m.shape)
            raise InputError(
                f"triangle inequality fails: d({labels[i]},{labels[j]}) > "
                f"d({labels[i]},{labels[k]}) + d({labels[k]},{labels[j]})"
            )


@dataclass(frozen=True)
class FiniteMetricSpace:
    """Labeled finite point set with a validated distance matrix.

    The matrix must be symmetric, nonnegative, zero on the diagonal and
    satisfy the triangle inequality within a relative ``TRIANGLE_TOL``
    (taken as given for spaces built by :meth:`from_coords`); violations raise
    :class:`InputError` at construction time.  A :meth:`from_coords`
    space keeps its read-only ``coords`` (one row per label) and its
    ``norm``; both are None for a space given by its matrix.
    """

    labels: tuple[str, ...]
    matrix: np.ndarray
    _index: dict = field(init=False, repr=False, compare=False)
    coords: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    norm: str | None = field(default=None, init=False, compare=False)

    def __post_init__(self):
        self._validate(triangle=True)

    def _validate(self, triangle: bool) -> None:
        labels = tuple(str(s) for s in self.labels)
        object.__setattr__(self, "labels", labels)
        if len(set(labels)) != len(labels):
            raise InputError("point labels must be distinct")
        if not labels:
            raise InputError("a metric space needs at least one point")
        m = _real_array(self.matrix, "distances")
        object.__setattr__(self, "matrix", m)
        n = len(labels)
        if m.shape != (n, n):
            raise InputError(f"distance matrix must be {n}x{n}, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise InputError("distances must be finite")
        if np.any(m < 0):
            raise InputError("distances must be nonnegative")
        if np.any(np.diag(m) != 0.0):
            raise InputError("distance(i, i) must be 0")
        if not np.array_equal(m, m.T):
            raise InputError("distance matrix must be symmetric")
        if triangle:
            _check_triangle(labels, m)
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(labels)})

    @classmethod
    def from_matrix(cls, labels: Sequence[str], matrix) -> "FiniteMetricSpace":
        return cls(tuple(labels), matrix)

    @classmethod
    def from_coords(
        cls, labels: Sequence[str], coords, norm: str = "euclidean"
    ) -> "FiniteMetricSpace":
        """Derive the distance matrix from per-label coordinates.

        A norm-induced distance satisfies the triangle inequality, so the
        O(n^3) check is skipped.  Every other check still runs.
        """
        pts = _real_array(coords, "coordinates")
        if pts.ndim == 1:
            pts = pts[:, None]
        if len(pts) != len(labels):
            raise InputError("one coordinate vector per label required")
        diffs = pts[:, None, :] - pts[None, :, :]
        ordv = _norm_ord(norm)
        pts = pts.copy()
        pts.flags.writeable = False
        space = cls.__new__(cls)
        object.__setattr__(space, "labels", tuple(labels))
        object.__setattr__(space, "matrix", np.linalg.norm(diffs, ord=ordv, axis=2))
        object.__setattr__(space, "coords", pts)
        object.__setattr__(space, "norm", norm)
        space._validate(triangle=False)
        return space

    def __len__(self) -> int:
        return len(self.labels)

    def __contains__(self, label: str) -> bool:
        return label in self._index

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise InputError(f"unknown point label {label!r}") from None

    def distance(self, u: str, v: str) -> float:
        return float(self.matrix[self.index(u), self.index(v)])


@dataclass(frozen=True)
class ClosedSet:
    """A non-void closed subset of a finite metric space, as its labels.

    Members are converted to strings and deduplicated in first-seen order.
    """

    members: tuple[str, ...]

    def __post_init__(self):
        members = tuple(dict.fromkeys(str(s) for s in self.members))
        if not members:
            raise DomainError("a closed set must be non-empty")
        object.__setattr__(self, "members", members)

    @classmethod
    def finite(cls, members: Iterable[str]) -> "ClosedSet":
        return cls(tuple(members))

    def __contains__(self, label: str) -> bool:
        return label in self.members


@dataclass(frozen=True)
class ValidatedPair:
    """A pair (f, F) checked on ``space``, and its index form.

    ``f`` and ``F`` are read-only label maps (F to ClosedSets); ``misses``
    lists the pairs (w, y) with y in F(w) outside the range of f.  The
    read-only arrays are indexed like ``space.labels``: ``fi[w]`` is the
    index of f(w), row w of ``members`` holds the member indices of F(w),
    padded with repeats of the first (min and max ignore repeats), and
    ``inverse[y]`` is the lowest-index preimage of y, or -1.  ``nearest[w]``
    is the member of F(w) nearest f(w), ties to the lowest index,
    ``gap[w]`` is D(f(w), F(w)), and ``coincident[w]`` says whether f(w)
    lies in F(w).
    """

    space: FiniteMetricSpace
    f: Mapping[str, str]
    F: Mapping[str, ClosedSet]
    misses: tuple[tuple[str, str], ...]
    fi: np.ndarray = field(repr=False)
    members: np.ndarray = field(repr=False)
    inverse: np.ndarray = field(repr=False)
    nearest: np.ndarray = field(repr=False)
    gap: np.ndarray = field(repr=False)
    coincident: np.ndarray = field(repr=False)

    def __post_init__(self):
        for a in (self.fi, self.members, self.inverse, self.nearest, self.gap,
                  self.coincident):
            a.flags.writeable = False

    @cached_property
    def tables(self) -> tuple[list, ...]:
        """``fi``, ``inverse``, ``nearest``, ``gap`` and ``coincident`` as
        Python lists, built once per pair for scalar lookups."""
        return tuple(
            a.tolist()
            for a in (self.fi, self.inverse, self.nearest, self.gap, self.coincident)
        )


def validate_pair(space: FiniteMetricSpace, f: Mapping, F: Mapping) -> ValidatedPair:
    """Check a pair (f, F) on ``space``: the one validation path for (f, F),
    and the only code that turns its labels into indices.

    f and F must be defined at every label, every f(w) and every member
    of F(w) must be a label of the space, and every F(w) must be a
    non-empty set (an iterable of labels, or a ClosedSet, which is reused
    as it is).  The range condition is left to the caller, to enforce or
    to report from ``misses``.
    """
    labels = space.labels
    index = space.index
    fmap: dict[str, str] = {}
    images: dict[str, ClosedSet] = {}
    fi = []
    rows = []
    for w in labels:
        if w not in f:
            raise InputError(f"f is not defined at {w!r}")
        if w not in F:
            raise InputError(f"F is not defined at {w!r}")
        fi.append(index(f[w]))
        fmap[w] = f[w]
        Z = F[w]
        images[w] = Z if isinstance(Z, ClosedSet) else ClosedSet.finite(Z)
        rows.append([index(y) for y in images[w].members])
    fi = np.array(fi, dtype=np.intp)
    k = max(map(len, rows))
    members = np.array([r + r[:1] * (k - len(r)) for r in rows], dtype=np.intp)
    # rows in index order, so argmin's first minimum is the lowest index
    ordered = np.sort(members, axis=1)
    to_members = space.matrix[fi[:, None], ordered]
    nearest = ordered[np.arange(len(labels)), to_members.argmin(axis=1)]
    inverse = np.full(len(labels), -1, dtype=np.intp)
    images_of_f, first = np.unique(fi, return_index=True)
    inverse[images_of_f] = first
    has_preimage = (inverse >= 0).tolist()
    misses = tuple(
        (w, labels[j]) for w, r in zip(labels, rows) for j in r if not has_preimage[j]
    )
    return ValidatedPair(
        space, MappingProxyType(fmap), MappingProxyType(images), misses,
        fi, members, inverse, nearest, to_members.min(axis=1),
        (members == fi[:, None]).any(axis=1),
    )


@dataclass(frozen=True)
class EdgeStructure:
    """Directed reflexive graph over a finite metric space.

    Either a metric ball (edge iff d(u, v) < radius, strict) or an
    explicit pair list.  Both are held as one read-only boolean
    ``adjacency`` matrix, indexed like ``space.labels`` and built once at
    construction with the diagonal set.
    """

    space: FiniteMetricSpace
    radius: float | None = None
    adjacency: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if (self.radius is None) == (self.adjacency is None):
            raise InputError("edge structure is either a ball or a pair list")
        if self.radius is not None:
            radius = check_real(self.radius, "ball radius")
            if radius < 0:
                raise InputError("ball radius must be nonnegative")
            object.__setattr__(self, "radius", radius)
            adjacency = self.space.matrix < radius
        else:
            adjacency = np.array(self.adjacency, dtype=bool)
            n = len(self.space)
            if adjacency.shape != (n, n):
                raise InputError(f"adjacency matrix must be {n}x{n}")
        np.fill_diagonal(adjacency, True)
        adjacency.flags.writeable = False
        object.__setattr__(self, "adjacency", adjacency)

    @classmethod
    def ball(cls, space: FiniteMetricSpace, radius: float) -> "EdgeStructure":
        return cls(space=space, radius=radius)

    @classmethod
    def from_pairs(
        cls, space: FiniteMetricSpace, pairs: Iterable[Sequence[str]]
    ) -> "EdgeStructure":
        n = len(space)
        index = space._index
        try:
            flat = [index[u] * n + index[v] for u, v in pairs]
        except KeyError as exc:
            raise InputError(f"unknown point label {exc.args[0]!r}") from None
        except (TypeError, ValueError):
            raise InputError("edges must be [u, v] pairs of point labels") from None
        adjacency = np.zeros(n * n, dtype=bool)
        adjacency[flat] = True
        return cls(space=space, adjacency=adjacency.reshape(n, n))

    def contains(self, u: str, v: str) -> bool:
        return bool(self.adjacency[self.space.index(u), self.space.index(v)])

    @property
    def mode(self) -> str:
        return "ball" if self.radius is not None else "list"


@dataclass(frozen=True)
class Gauge:
    """Piecewise-constant gauge k : [0, inf) -> [0, 1) with a certified sup.

    Intervals are left-closed/right-open: value ``values[i]`` applies on
    ``[breakpoints[i], breakpoints[i+1])`` and the last value extends to
    infinity. ``certified_sup`` is supplied by the user, must dominate
    every value and stay strictly below 1; it plays the role of the
    geometric rate in the convergence certificate.
    """

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]
    certified_sup: float

    def __post_init__(self):
        bp = tuple(check_real(b, "gauge breakpoint") for b in self.breakpoints)
        vals = tuple(check_real(v, "gauge value") for v in self.values)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)
        object.__setattr__(
            self, "certified_sup", check_real(self.certified_sup, "gauge sup")
        )
        if not bp or len(bp) != len(vals):
            raise InputError("gauge needs matching breakpoints and values")
        if bp[0] != 0.0:
            raise InputError("first gauge breakpoint must be 0")
        if any(b2 <= b1 for b1, b2 in zip(bp, bp[1:])):
            raise InputError("gauge breakpoints must be strictly ascending")
        if any(not (0.0 <= v < 1.0) for v in vals):
            raise InputError("gauge values must lie in [0, 1)")
        if not (0.0 <= self.certified_sup < 1.0):
            raise InputError("certified_sup must lie in [0, 1)")
        if self.certified_sup < max(vals):
            raise InputError("certified_sup must dominate every gauge value")

    @classmethod
    def constant(cls, value: float, sup: float | None = None) -> "Gauge":
        return cls((0.0,), (value,), value if sup is None else sup)

    @classmethod
    def piecewise(
        cls, breakpoints: Sequence[float], values: Sequence[float], sup: float
    ) -> "Gauge":
        return cls(tuple(breakpoints), tuple(values), sup)

    def __call__(self, t: float) -> float:
        if t < 0:
            raise InputError("gauge argument must be nonnegative")
        idx = bisect.bisect_right(self.breakpoints, t) - 1
        return self.values[idx]

    @property
    def form(self) -> str:
        return "constant" if len(self.values) == 1 else "piecewise-constant"


# ---------------------------------------------------------------------------
# Problem-file ingestion (JSON)
# ---------------------------------------------------------------------------

def space_from_dict(data: Mapping) -> FiniteMetricSpace:
    """Build a space from the ``points`` (+ ``distances``/coords) file section."""
    try:
        points = data["points"]
    except KeyError:
        raise InputError("problem file needs a 'points' array") from None
    if not isinstance(points, list) or not points:
        raise InputError("'points' must be a non-empty array")
    labels = []
    coords = []
    for entry in points:
        if not isinstance(entry, Mapping) or "label" not in entry:
            raise InputError("every point needs a 'label'")
        labels.append(str(entry["label"]))
        coords.append(entry.get("coord"))
    have_coords = all(c is not None for c in coords)
    have_matrix = "distances" in data and data["distances"] is not None
    if have_matrix and have_coords:
        raise InputError("give either 'distances' or per-point 'coord', not both")
    if have_matrix:
        return FiniteMetricSpace.from_matrix(labels, data["distances"])
    if have_coords:
        return FiniteMetricSpace.from_coords(
            labels, coords, norm=data.get("norm", "euclidean")
        )
    raise InputError("points need 'coord' entries or a 'distances' matrix")


def edges_from_dict(data: Mapping, space: FiniteMetricSpace) -> EdgeStructure:
    if not isinstance(data, Mapping) or "mode" not in data:
        raise InputError("'edges' must be an object with a 'mode'")
    mode = data["mode"]
    if mode == "ball":
        if "radius" not in data:
            raise InputError("ball edges need a 'radius'")
        return EdgeStructure.ball(space, data["radius"])
    if mode == "list":
        pairs = data.get("pairs")
        if not isinstance(pairs, list):
            raise InputError("list edges need a 'pairs' array")
        return EdgeStructure.from_pairs(space, pairs)
    raise InputError(f"unknown edge mode {mode!r}")


def gauge_from_dict(data: Mapping) -> Gauge:
    if not isinstance(data, Mapping) or "form" not in data:
        raise InputError("'gauge' must be an object with a 'form'")
    form = data["form"]
    if form == "constant":
        if "value" not in data:
            raise InputError("constant gauge needs a 'value'")
        return Gauge.constant(data["value"], data.get("sup"))
    if form == "piecewise":
        try:
            breakpoints, values = data["breakpoints"], data["values"]
            sup = data["sup"]
        except KeyError as exc:
            raise InputError(f"piecewise gauge needs {exc}") from None
        if not isinstance(breakpoints, list) or not isinstance(values, list):
            raise InputError("piecewise gauge breakpoints and values must be arrays")
        return Gauge.piecewise(breakpoints, values, sup)
    raise InputError(f"unknown gauge form {form!r}")
