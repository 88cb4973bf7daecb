"""Finite metric spaces, reflexive edge structures, gauges, and closed sets.

These are the primitives every solver in the package shares: a labeled
point set with a validated distance matrix, a directed reflexive graph
over it (explicit pairs or a metric ball), a gauge function
k : [0, inf) -> [0, 1) with a certified supremum strictly below 1,
non-void finite closed sets, the one validation path for a pair (f, F)
on a finite space, and :func:`within`, the one slack rule of every
inequality the package checks on floats.

All types are immutable after construction (a space's distance matrix is
read-only) and every operation is a pure function, so instances can be
shared freely across threads; ``validate_pair`` only remembers, weakly,
the pairs it made, so that a pair is checked once, by it alone.
"""

from __future__ import annotations

import bisect
import os
import threading
import weakref
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DomainError, InputError, brief, check_real

# The relative slack of :func:`within`; its docstring says why it suffices.
EPS = 1e-9
# The triangle check's blocking.  A thread takes the scaled rows in blocks
# of 32, and the k axis is cut into chunks of 32 for the bounds that prune
# it.  Each numpy call adds rows of another block to a block until the
# sums would fill 4 x 32 rows of n at full span, 1 MB at n = 1000, which
# stays in a 2 MB L2 cache; a shorter span takes more rows per call, since
# numpy releases the GIL for each call and taking it back can cost a thread
# switch.  Sums laid out as (rows, k, block) and reduced over the middle
# axis took twice as long at full span.  On a 2-core Xeon shared with other
# load, 500 random points of the plane, where nothing is pruned, take 45-70
# ms on two threads and 80 ms on one; perfbench's 500-rung geometric ladder,
# where 17% of the k are kept, takes 17-30 ms on two and 30 ms on one.
_TRIANGLE_BLOCK = 32
_TRIANGLE_ROWS = 4

_TINY = float(np.finfo(float).tiny)  # the smallest normal double
_NORM_ORDS = {"euclidean": 2, "manhattan": 1, "chebyshev": np.inf}
_PLAIN_NUMBERS = {float, int, np.float64, np.int64}


def _real_array(value, name: str) -> np.ndarray:
    """``value`` as a float array; InputError unless it reads as a
    rectangular array of numbers (a string or a bool is not a number)."""
    try:
        arr = np.asarray(value)
    except (TypeError, ValueError):
        raise InputError(f"{name} must be a rectangular array of numbers") from None
    # numpy reads bools among numbers as 1 and 0, integers beyond 64 bits as
    # objects; so the entries' types are read, from nested lists at C speed
    if isinstance(value, (np.ndarray, memoryview)):
        entries = arr.flat if arr.dtype.kind == "O" else ()
    else:
        entries = [value]
        for _ in range(arr.ndim):
            entries = chain.from_iterable(entries)
    if arr.dtype.kind == "O" or not _PLAIN_NUMBERS.issuperset(map(type, entries)):
        entries = np.asarray(value, dtype=object).flat
        arr = np.array([check_real(x, name) for x in entries]).reshape(arr.shape)
    if arr.dtype.kind not in "iuf":
        raise InputError(f"{name} must be a rectangular array of numbers")
    return arr.astype(float, copy=False)


def within(lhs, rhs, scale):
    """Whether lhs <= rhs + EPS * scale, elementwise on arrays: the one
    slack rule of every inequality the package checks on floats.

    ``scale`` is the size of the numbers compared, so the slack scales
    with their rounding error and multiplying every distance by a power
    of two changes no verdict.  On a finite space each compared number is
    a distance-matrix entry, or one product, sum or square root of
    entries, and the caller passes ``scale = rhs``.  Such a number is off
    from its exact value by a few units of 2^-53 (1.1e-16) of its size;
    EPS = 1e-9 exceeds that by a factor of about 10^7, which also covers
    data rounded once more on its way in (a decimal in a file, the
    difference of two coordinates), while a relative excess beyond 1e-9
    is reported.  Where the numbers are computed from an iterate, as in
    an operator step, their rounding scales with the iterate's size too,
    and the caller adds a bound on that size to ``scale``.
    """
    return lhs <= rhs + EPS * scale


def _norm_ord(norm: str):
    """The ``numpy.linalg.norm`` order of a named norm."""
    if not isinstance(norm, str) or norm not in _NORM_ORDS:
        raise InputError(f"unknown norm {brief(norm)}; expected one of {sorted(_NORM_ORDS)}")
    return _NORM_ORDS[norm]


def _norms(diffs: np.ndarray, norm: str) -> np.ndarray:
    """The named norm of every vector along the last axis of ``diffs``.

    No square underflows or overflows: a 1-D vector's norm is its
    modulus, and a euclidean norm is taken of the vector scaled by the
    power of two that brings its largest component into [0.5, 1), then
    scaled back.  Scaling by a power of two is exact, so every norm whose
    squares stay in the normal range has the bits of ``numpy.linalg.norm``
    (sqrt(fl(x^2)) = |x| in 1-D); the others are no longer 0 or inf.
    """
    ordv = _norm_ord(norm)
    if diffs.shape[-1] == 1:
        return np.abs(diffs[..., 0])
    if ordv != 2:
        return np.linalg.norm(diffs, ord=ordv, axis=-1)
    _, e = np.frexp(np.maximum.reduce(np.abs(diffs), axis=-1, initial=0.0))
    scaled = np.ldexp(diffs, -e[..., None])
    return np.ldexp(np.sqrt(np.add.reduce(scaled * scaled, axis=-1)), e)


def _triangle_workers(n: int) -> int:
    """Threads for the triangle scan of n points: one per CPU this process
    may run on, as long as their buffers, (2 + _TRIANGLE_ROWS) x
    _TRIANGLE_BLOCK x n doubles each, fit in the memory of the matrix."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has affinity masks
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, n // ((2 + _TRIANGLE_ROWS) * _TRIANGLE_BLOCK)))


def _check_triangle(labels: tuple[str, ...], m: np.ndarray) -> None:
    """Raise InputError unless d(i, j) <= (d(i, k) + d(k, j)) (1 + EPS).

    That is :func:`within` with scale = rhs, the factor 1 + EPS
    distributed over the two summands and folded into the scaled matrix
    g = d (1 + EPS), so that the O(n^3) scan is additions and minima only.
    The rows are taken in blocks of ``_TRIANGLE_BLOCK``, and each pair of
    blocks I <= J in turn: adding the row of g of each j in J to the rows
    of I gives g(i, k) + g(k, j) for every i in I and every k, and a
    minimum over k leaves the least bound on d(i, j).

    Most of those sums cannot break the inequality, and a bound says which
    ones may.  The k axis is cut into chunks of ``_TRIANGLE_BLOCK`` as
    well, and lo[i, c] is the least g(i, k) over the k of chunk c.  A k of
    chunk c breaks the inequality for a pair (i, j) of I x J only if
    lo[i, c] + min over J of lo[j, c] < max over J of d(i, j), so the scan
    of I x J adds and reduces only from the first chunk where that holds,
    for some i, to the last.  Pruning is exact: scaling by 1 + EPS and
    float addition are monotone, so lo[i, c] + lo[j, c] rounds to no more
    than any g(i, k) + g(k, j) of the chunk; a sum that overflows to inf
    prunes only a chunk whose own sums are inf.  Where nothing can be
    pruned the span is every k.

    The verdict is exactly that of comparing d(i, j) with every such sum.
    The matrix was checked to be symmetric bit for bit, so g[j, k] is
    g[k, j], the pair (j, i) gives the same sums as (i, j), and the pairs
    I <= J cover every pair; the minimum is one of the sums, unrounded.
    A block pair that breaks the inequality is scanned once more for the
    first k through which it does, and from then on the scan looks only
    at smaller k; the least k found is the first k overall, and one pass
    over the matrix then names its worst pair.  The row blocks are taken
    from one shared counter by :func:`_triangle_workers` threads, the
    caller's among them; numpy releases the GIL while it adds and reduces.
    """
    n = len(labels)
    scan = _TriangleScan(m)
    threads = [threading.Thread(target=scan.run)
               for _ in range(min(_triangle_workers(n), len(scan.near)) - 1)]
    for t in threads:
        t.start()
    scan.run()
    for t in threads:
        t.join()
    for exc in scan.errors:
        raise exc
    k = min(scan.found, default=n)
    if k < n:
        with np.errstate(over="ignore"):
            grown = m[k] * (1.0 + EPS)  # row k of g, which is its column k
            excess = np.add(grown[:, None], grown[None, :])
            np.subtract(m, excess, out=excess)
        i, j = np.unravel_index(np.argmax(excess), m.shape)
        raise InputError(
            f"triangle inequality fails: d({labels[i]},{labels[j]}) > "
            f"d({labels[i]},{labels[k]}) + d({labels[k]},{labels[j]})"
        )


class _TriangleScan:
    """The state that the threads of :func:`_check_triangle` share: the
    chunk bounds, the counter of row blocks, the first k of each block
    pair found to break the inequality, and any exception raised."""

    def __init__(self, m: np.ndarray):
        self.m = m
        starts = np.arange(0, len(m), _TRIANGLE_BLOCK)
        with np.errstate(over="ignore"):
            # lo[i, c]: the least g(i, k) over chunk c; near[b, c]: the least
            # lo[j, c] over row block b; far[i, b]: the largest d(i, j) over b
            self.lo = np.multiply(np.minimum.reduceat(m, starts, axis=1), 1.0 + EPS)
        self.near = np.minimum.reduceat(self.lo, starts, axis=0)
        self.far = np.maximum.reduceat(m, starts, axis=1)
        self.blocks = iter(range(len(starts)))
        self.lock = threading.Lock()  # for the counter
        self.found: list = []
        self.errors: list = []

    def run(self) -> None:
        """Scan row blocks until none is left; record an exception the scan
        raises, to be raised again in the caller's thread, and stop early
        once any thread has recorded one."""
        try:
            # overflow to inf only loosens a bound that holds anyway, so it
            # warns of nothing; np.errstate is thread-local, so each thread
            # sets it
            with np.errstate(over="ignore"):
                self._scan_blocks()
        except BaseException as exc:
            self.errors.append(exc)

    def _scan_blocks(self) -> None:
        """Scan the pairs I x J, J >= I, of each row block I taken from the
        counter, each over the k below any in ``found``, and add to
        ``found`` the first k through which a pair breaks the inequality.

        The thread scales the rows of I, and the span of each block of rows
        J, into its own buffers (so no scaled copy of the whole matrix is
        made).  Each numpy call adds as many rows of J to the rows of I as
        make ``_TRIANGLE_ROWS`` x ``_TRIANGLE_BLOCK`` rows of sums at full
        span, more where the span is short, and reduces them over k.
        """
        m = self.m
        n = len(m)
        size = min(n, _TRIANGLE_BLOCK)
        slab = np.empty((size, n))
        chunk = np.empty(size * n)
        sums = np.empty(_TRIANGLE_ROWS * size * n)
        least = np.empty((size, size))
        while not self.errors:
            with self.lock:
                b = next(self.blocks, None)
            if b is None:
                return
            i0 = b * _TRIANGLE_BLOCK
            rows = m[i0 : i0 + size]
            block = np.multiply(rows, 1.0 + EPS, out=slab[: len(rows)])
            lo = self.lo[i0 : i0 + len(rows)]
            reach = self.far[i0 : i0 + len(rows)].T  # reach[J, i]: far[i, J]
            # the bounds of as many blocks J at once as fit in the buffer
            group = max(1, len(sums) // lo.size)
            for g0 in range(b, len(reach), group):
                bound = sums[: min(group, len(reach) - g0) * lo.size].reshape(-1, *lo.shape)
                np.add(self.near[g0 : g0 + group, None, :], lo, out=bound)
                # keep[J, c]: whether chunk c may break the inequality for
                # some (i, j) of I x J
                keep = np.less(bound, reach[g0 : g0 + group, :, None]).any(axis=1)
                for jb, kept in enumerate(keep, start=g0):
                    if self.errors:
                        return
                    self._scan_pair(block, i0, jb * _TRIANGLE_BLOCK, np.flatnonzero(kept),
                                    chunk, sums, least)

    def _scan_pair(self, block, i0, j0, chunks, chunk, sums, least) -> None:
        """Scan the pairs of rows i0 + i (``block`` holds their rows of g)
        and j0 + r over the span of the kept ``chunks``; add to ``found``
        the first k through which one breaks the inequality."""
        m = self.m
        if not len(chunks):
            return
        k0 = int(chunks[0]) * _TRIANGLE_BLOCK
        k1 = min(int(chunks[-1] + 1) * _TRIANGLE_BLOCK, min(self.found, default=len(m)))
        if k0 >= k1:
            return
        cols = m[j0 : j0 + len(least)]
        grown = np.multiply(cols[:, k0:k1], 1.0 + EPS,
                            out=chunk[: len(cols) * (k1 - k0)].reshape(len(cols), -1))
        part = block[:, k0:k1]
        # best[r, i] bounds d(j0 + r, i0 + i), which is d(i0 + i, j0 + r)
        best = least[: len(cols), : len(block)]
        d = cols[:, i0 : i0 + len(block)]
        for r, out in self._sums(grown, part, sums):
            np.minimum.reduce(out, axis=2, out=best[r])
        if not np.greater(d, best).any():
            return
        hit = np.zeros(k1 - k0, dtype=bool)
        for r, out in self._sums(grown, part, sums):
            hit |= np.greater(d[r, :, None], out).any(axis=(0, 1))
        self.found.append(k0 + int(np.argmax(hit)))

    @staticmethod
    def _sums(grown: np.ndarray, block: np.ndarray, sums: np.ndarray):
        """(rows, out) for groups of rows of ``grown``, where out[r, i, k]
        is grown[r, k] + block[i, k] over those rows, in the buffer ``sums``."""
        per = max(1, len(sums) // block.size)
        for r0 in range(0, len(grown), per):
            few = grown[r0 : r0 + per]
            out = sums[: len(few) * block.size].reshape(len(few), *block.shape)
            np.add(block, few[:, None, :], out=out)
            yield slice(r0, r0 + len(few)), out


@dataclass(frozen=True)
class FiniteMetricSpace:
    """Labeled finite point set with a validated distance matrix.

    The matrix must be symmetric, zero on the diagonal, no smaller than
    the smallest normal double off it (a metric separates its points, and
    a subnormal distance leaves :func:`within` no slack), and satisfy the
    triangle inequality within the relative slack of
    :func:`within` (taken as given for spaces built by
    :meth:`from_coords`); violations raise :class:`InputError` at
    construction time.  The space's ``matrix`` is read-only, a copy where
    the caller passed an array of its own.  A :meth:`from_coords`
    space keeps its read-only ``coords`` (one row per label) and its
    ``norm``; both are None for a space given by its matrix.
    """

    labels: tuple[str, ...]
    matrix: np.ndarray
    _index: dict = field(init=False, repr=False, compare=False)
    coords: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    norm: str | None = field(default=None, init=False, compare=False)

    def __post_init__(self):
        self._validate(from_coords=False)

    def _validate(self, from_coords: bool) -> None:
        labels = tuple(str(s) for s in self.labels)
        object.__setattr__(self, "labels", labels)
        if len(set(labels)) != len(labels):
            raise InputError("point labels must be distinct")
        for label in labels:
            try:
                label.encode("utf-8")
            except UnicodeEncodeError:  # a lone surrogate, as a "\ud800" escape gives
                raise InputError(f"point label {brief(label)} is not valid Unicode text") from None
        if not labels:
            raise InputError("a metric space needs at least one point")
        m = _real_array(self.matrix, "distances")
        if not from_coords and (m is self.matrix or not m.flags.owndata):
            m = m.copy()  # the caller's array, which the caller could still change
        m.flags.writeable = False
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
        # a zero merges two points, and below the smallest normal double
        # rounding is no longer relative, so within has no slack left
        small = m < _TINY
        if np.count_nonzero(small) > n:
            np.fill_diagonal(small, False)
            i, j = np.argwhere(small)[0]
            d = float(m[i, j])
            why = (f"below the smallest normal double {_TINY!r}" if d
                   else "distinct points must be at a positive distance")
            raise InputError(f"d({labels[i]},{labels[j]}) = {d!r}: {why}")
        if not from_coords:
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
        O(n^3) check is skipped.  Every other check still runs.  The
        distances neither underflow nor overflow where the exact distance
        is a normal double (see :func:`_norms`).
        """
        pts = _real_array(coords, "coordinates")
        if pts.ndim == 1:
            pts = pts[:, None]
        if len(pts) != len(labels):
            raise InputError("one coordinate vector per label required")
        matrix = _norms(pts[:, None, :] - pts[None, :, :], norm)
        pts = pts.copy()
        pts.flags.writeable = False
        space = cls.__new__(cls)
        object.__setattr__(space, "labels", tuple(labels))
        object.__setattr__(space, "matrix", matrix)
        object.__setattr__(space, "coords", pts)
        object.__setattr__(space, "norm", norm)
        space._validate(from_coords=True)
        return space

    def __len__(self) -> int:
        return len(self.labels)

    def __contains__(self, label: str) -> bool:
        return label in self._index

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise InputError(f"unknown point label {brief(label)}") from None

    def distance(self, u: str, v: str) -> float:
        return float(self.matrix[self.index(u), self.index(v)])


@dataclass(frozen=True)
class ClosedSet:
    """A non-void closed subset of a finite metric space, as its labels.

    Members are converted to strings and deduplicated in first-seen order.
    A bare string (or bytes) is refused, not split into its characters.
    """

    members: tuple[str, ...]

    def __post_init__(self):
        if isinstance(self.members, (str, bytes)):
            raise InputError(f"a closed set takes labels, not the string {brief(self.members)}")
        members = tuple(dict.fromkeys(str(s) for s in self.members))
        if not members:
            raise DomainError("a closed set must be non-empty")
        object.__setattr__(self, "members", members)

    @classmethod
    def finite(cls, members: Iterable[str]) -> "ClosedSet":
        return cls(members)

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
    is the member of F(w) nearest f(w), ties to the lowest index, and
    ``gap[w]`` is D(f(w), F(w)).  Distinct labels sit at a positive
    distance, so f(w) lies in F(w) exactly when ``gap[w] == 0``.
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

    def __post_init__(self):
        for a in (self.fi, self.members, self.inverse, self.nearest, self.gap):
            a.flags.writeable = False

    @cached_property
    def tables(self) -> tuple[list, ...]:
        """``fi``, ``inverse``, ``nearest`` and ``gap`` as Python lists,
        built once per pair for scalar lookups."""
        return tuple(a.tolist() for a in (self.fi, self.inverse, self.nearest, self.gap))


# Every live pair validate_pair made, by the identities of its space and its
# own f and F.  A pair holds all three, so no key outlives its objects.
_PAIRS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def validate_pair(space: FiniteMetricSpace, f: Mapping, F: Mapping) -> ValidatedPair:
    """Check a pair (f, F) on ``space``: the one validation path for (f, F),
    and the only code that turns its labels into indices.

    f and F must be defined at every label and at nothing else, every f(w)
    and every member of F(w) must be a label of the space, and every F(w)
    must be a non-empty set (a collection of labels, or a ClosedSet, which
    is reused as it is).  The range condition is left to the caller, to
    enforce or to report from ``misses``.

    Called with the read-only ``f`` and ``F`` of a pair it made on the
    same space, as a problem's parts are, it returns that pair, which
    nothing can have changed; any other maps are validated anew.
    """
    pair = _PAIRS.get((id(space), id(f), id(F)))
    if pair is not None and pair.space is space and pair.f is f and pair.F is F:
        return pair
    for name, table in (("f", f), ("F", F)):
        ghost = next((w for w in table if w not in space._index), None)
        if ghost is not None:
            raise InputError(f"{name} is defined at {brief(ghost)}, which is no point label")
    labels = space.labels
    index = space.index
    fmap: dict[str, str] = {}
    images: dict[str, ClosedSet] = {}
    fi = []
    rows = []
    for w in labels:
        if w not in f:
            raise InputError(f"f is not defined at {brief(w)}")
        if w not in F:
            raise InputError(f"F is not defined at {brief(w)}")
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
    pair = ValidatedPair(
        space, MappingProxyType(fmap), MappingProxyType(images), misses,
        fi, members, inverse, nearest, to_members.min(axis=1),
    )
    _PAIRS[id(space), id(pair.f), id(pair.F)] = pair
    return pair


_PAIRS_ERROR = "edges must be [u, v] pairs of point labels"


def _edge_index(space: FiniteMetricSpace, pair) -> int:
    """The flat adjacency index of an edge [u, v], each label read through
    str()."""
    if len(pair) != 2 or any(isinstance(label, (list, dict)) for label in pair):
        raise InputError(_PAIRS_ERROR)
    u, v = (space.index(str(label)) for label in pair)
    return u * len(space) + v


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
        """The graph with an edge (u, v) for each pair [u, v] of labels, a
        list or a tuple.  A label that is no string, such as a number, is
        read through str(), as in every other section of a problem file;
        that second pass over the pairs runs only after the first misses."""
        pairs = pairs if isinstance(pairs, list) else list(pairs)
        if not {list, tuple}.issuperset(map(type, pairs)):
            raise InputError(_PAIRS_ERROR)
        n = len(space)
        index = space._index
        try:
            flat = [index[u] * n + index[v] for u, v in pairs]
        except (KeyError, TypeError, ValueError):
            flat = [_edge_index(space, pair) for pair in pairs]
        adjacency = np.zeros(n * n, dtype=bool)
        adjacency[np.fromiter(flat, np.intp, len(flat))] = True
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
