"""Granules and interval-set algebra.

The paper's unit of work is the *granule* — "distinct computational
granules of the same parallel computational phase".  PAX described
computations as "large, contiguous collections of granules" that are
"split apart as necessary to produce conveniently sized tasks for workers
and then merged back into single descriptions when the work was
completed".  That makes a half-open integer interval the natural
representation (:class:`GranuleRange`), and a sorted run of disjoint
intervals (:class:`GranuleSet`) the natural bookkeeping structure for
completed-granule tracking, enablement checks and merge-on-completion.

A set stores its intervals as one flat, strictly increasing tuple of plain
integers ``(s0, e0, s1, e1, ...)`` plus its granule count; all operations
keep that canonical form: ranges sorted, disjoint, non-adjacent and
non-empty.  :class:`GranuleSet` is a value type — every operation returns
a new set.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain, compress
from operator import gt
from typing import Iterable, Iterator, NamedTuple

import numpy as np

__all__ = ["GranuleRange", "GranuleSet", "GroupRuns"]


@dataclass(frozen=True, slots=True, order=True)
class GranuleRange:
    """A half-open range ``[start, stop)`` of granule indices."""

    start: int
    stop: int

    def __post_init__(self) -> None:
        if self.stop < self.start:
            raise ValueError(f"range stops before it starts: [{self.start}, {self.stop})")

    def __len__(self) -> int:
        return self.stop - self.start

    def __contains__(self, granule: int) -> bool:
        return self.start <= granule < self.stop

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.start, self.stop))

    @property
    def empty(self) -> bool:
        return self.stop == self.start

    def overlaps(self, other: "GranuleRange") -> bool:
        """True when the ranges share at least one granule."""
        return self.start < other.stop and other.start < self.stop

    def adjacent(self, other: "GranuleRange") -> bool:
        """True when the ranges abut exactly (mergeable without overlap)."""
        return self.stop == other.start or other.stop == self.start

    def intersection(self, other: "GranuleRange") -> "GranuleRange":
        """The common sub-range (possibly empty, anchored at overlap start)."""
        lo = max(self.start, other.start)
        hi = min(self.stop, other.stop)
        if hi < lo:
            return GranuleRange(lo, lo)
        return GranuleRange(lo, hi)

    def split_at(self, point: int) -> tuple["GranuleRange", "GranuleRange"]:
        """Split into ``[start, point)`` and ``[point, stop)``.

        ``point`` must lie inside ``[start, stop]``.
        """
        if not (self.start <= point <= self.stop):
            raise ValueError(f"split point {point} outside [{self.start}, {self.stop}]")
        return GranuleRange(self.start, point), GranuleRange(point, self.stop)

    def take(self, n: int) -> tuple["GranuleRange", "GranuleRange"]:
        """Split off the first ``n`` granules (clamped to the range size)."""
        n = max(0, min(n, len(self)))
        return self.split_at(self.start + n)

    def __repr__(self) -> str:
        return f"[{self.start},{self.stop})"


class GranuleSet:
    """An immutable set of granule indices stored as disjoint ranges.

    The ranges live in one strictly increasing tuple of plain-int
    boundaries ``(s0, e0, s1, e1, ...)`` next to the cached granule count,
    so ``len`` is O(1), membership is one binary search (an odd insertion
    point falls inside a range), and the cost of union, intersection and
    difference grows with the number of ranges, not of granules.
    :class:`GranuleRange` objects are built only when :attr:`ranges` is
    read.

    Examples
    --------
    >>> s = GranuleSet.from_ranges([(0, 5), (10, 12)])
    >>> len(s)
    7
    >>> 11 in s
    True
    >>> list(s.spans())
    [(0, 5), (10, 12)]
    >>> (s | GranuleSet.from_ranges([(5, 10)])).ranges
    ([0,12),)
    """

    __slots__ = ("_b", "_size")

    def __init__(self, ranges: Iterable[GranuleRange] = ()) -> None:
        starts: list[int] = []
        stops: list[int] = []
        for r in ranges:
            if r.stop > r.start:
                starts.append(r.start)
                stops.append(r.stop)
        self._b = _union_bounds(starts, stops)
        self._size = _width(self._b)

    # ------------------------------------------------------------------ builders
    @classmethod
    def from_runs(cls, starts: np.ndarray, stops: np.ndarray) -> "GranuleSet":
        """Build from numpy arrays of run starts and stops, as is.

        The runs ``[starts[k], stops[k])`` must already be what numpy finds
        in a mask or a sorted id array: ascending, non-empty and separated
        by gaps.  Nothing is merged.
        """
        (out,) = GroupRuns(np.array([0, len(starts)]), starts, stops).sets()
        return out

    @classmethod
    def from_sorted_ids(cls, ids) -> "GranuleSet":
        """Build from a sorted, duplicate-free integer array in one pass.

        ``ids`` is anything :func:`numpy.asarray` accepts (typically the
        output of :func:`numpy.unique`).  Consecutive runs collapse into
        single ranges in numpy, without a sort.
        """
        arr = np.asarray(ids, dtype=np.int64)
        if arr.size == 0:
            return cls.empty()
        breaks = np.flatnonzero(np.diff(arr) != 1)
        starts = arr[np.concatenate(([0], breaks + 1))]
        stops = arr[np.concatenate((breaks, [arr.size - 1]))] + 1
        return cls.from_runs(starts, stops)

    @classmethod
    def from_ranges(cls, pairs: Iterable[tuple[int, int]]) -> "GranuleSet":
        """Build from ``(start, stop)`` pairs (overlap/adjacency merged)."""
        starts: list[int] = []
        stops: list[int] = []
        for s, e in pairs:
            if e < s:
                raise ValueError(f"range stops before it starts: [{s}, {e})")
            if e > s:
                starts.append(s)
                stops.append(e)
        return _from_spans(starts, stops)

    @classmethod
    def from_ids(cls, ids: Iterable[int]) -> "GranuleSet":
        """Build from individual granule indices."""
        starts = list(ids)
        return _from_spans(starts, [i + 1 for i in starts])

    @classmethod
    def empty(cls) -> "GranuleSet":
        return _new((), 0)

    @classmethod
    def universe(cls, n: int) -> "GranuleSet":
        """The full granule set ``[0, n)`` of an ``n``-granule phase."""
        if n < 0:
            raise ValueError(f"range stops before it starts: [0, {n})")
        return _new((0, n), n) if n else _new((), 0)

    # ------------------------------------------------------------------ queries
    def spans(self) -> Iterator[tuple[int, int]]:
        """The ranges as ``(start, stop)`` pairs, in order."""
        it = iter(self._b)
        return zip(it, it)

    @property
    def ranges(self) -> tuple[GranuleRange, ...]:
        """The ranges as :class:`GranuleRange` objects, built on each read."""
        return tuple(map(GranuleRange, self._b[0::2], self._b[1::2]))

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return bool(self._b)

    def __contains__(self, granule: int) -> bool:
        return bisect_right(self._b, granule) % 2 == 1

    def __iter__(self) -> Iterator[int]:
        return chain.from_iterable(map(range, self._b[0::2], self._b[1::2]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GranuleSet):
            return NotImplemented
        return self._b == other._b

    def __hash__(self) -> int:
        return hash(self._b)

    def min(self) -> int:
        """Smallest granule index; raises on an empty set."""
        if not self._b:
            raise ValueError("empty granule set has no minimum")
        return self._b[0]

    def max(self) -> int:
        """Largest granule index; raises on an empty set."""
        if not self._b:
            raise ValueError("empty granule set has no maximum")
        return self._b[-1] - 1

    # ------------------------------------------------------------------ algebra
    def __or__(self, other: "GranuleSet") -> "GranuleSet":
        a, b = self._b, other._b
        if not a:
            return other
        if not b:
            return self
        if len(a) == len(b) == 2 and a[0] <= b[1] and b[0] <= a[1]:
            # two ranges that overlap or touch: 99.9% of the unions in an
            # identity rundown and 84% in a casper run, where skipping the
            # general sort-and-scan shows end to end (docs/PERFORMANCE.md)
            lo, hi = min(a[0], b[0]), max(a[1], b[1])
            return _new((lo, hi), hi - lo)
        return _from_spans([*a[0::2], *b[0::2]], [*a[1::2], *b[1::2]])

    @classmethod
    def union_all(cls, sets: Iterable["GranuleSet"]) -> "GranuleSet":
        """Union of many sets in one normalization pass.

        Folding with ``|`` costs O(k·n) boundary copies over k operands;
        this gathers every boundary once, and one sort of the starts and
        one of the stops (Timsort merges the already-sorted runs of the
        operands) feed a single gap scan.
        """
        flat = list(chain.from_iterable([s._b for s in sets]))
        return _from_spans(flat[0::2], flat[1::2])

    def __and__(self, other: "GranuleSet") -> "GranuleSet":
        a, b = self._b, other._b
        # intersection is symmetric: walk the operand with fewer ranges
        return _clip(a, b, 1) if len(a) <= len(b) else _clip(b, a, 1)

    def __sub__(self, other: "GranuleSet") -> "GranuleSet":
        a, b = self._b, other._b
        if not a or not b or b[-1] <= a[0] or a[-1] <= b[0]:
            return self
        if len(b) < len(a):
            # walk the fewer gaps of b instead: a - b is a & (not b), and
            # the gaps of b within a's extent are b padded by one outer
            # boundary on each side
            return _clip((min(a[0], b[0]) - 1, *b, max(a[-1], b[-1]) + 1), a, 1)
        return _clip(a, b, 0)

    def issubset(self, other: "GranuleSet") -> bool:
        """True when every granule of ``self`` is in ``other``."""
        return not (self - other)

    def isdisjoint(self, other: "GranuleSet") -> bool:
        """True when the sets share no granule."""
        return not (self & other)

    def complement(self, n: int) -> "GranuleSet":
        """Granules of ``[0, n)`` *not* in this set."""
        return GranuleSet.universe(n) - self

    # ------------------------------------------------------------------ misc
    def take(self, n: int) -> tuple["GranuleSet", "GranuleSet"]:
        """Split off the ``n`` smallest granules: ``(head, rest)``."""
        if n <= 0:
            return GranuleSet.empty(), self
        if n >= self._size:
            return self, GranuleSet.empty()
        b = self._b
        k, left = 0, n
        while left > b[k + 1] - b[k]:
            left -= b[k + 1] - b[k]
            k += 2
        cut = b[k] + left  # b[k] < cut <= b[k + 1]
        if cut == b[k + 1]:
            head, rest = b[: k + 2], b[k + 2 :]
        else:
            head, rest = b[: k + 1] + (cut,), (cut,) + b[k + 1 :]
        return _new(head, n), _new(rest, self._size - n)

    def __repr__(self) -> str:
        body = ",".join(["[%d,%d)"] * (len(self._b) // 2)) % self._b
        return f"GranuleSet({body})"


class GroupRuns(NamedTuple):
    """The granule sets of many groups as flat arrays (CSR).

    Group ``g`` owns the runs ``[starts[k], stops[k])`` for ``k`` in
    ``offsets[g]:offsets[g + 1]``; a group's runs are ascending, non-empty
    and separated by gaps, as for :meth:`GranuleSet.from_runs`.  Thousands
    of groups cost three arrays, not thousands of sets; :meth:`sets`
    builds the sets for the readers that want them.
    """

    offsets: np.ndarray
    starts: np.ndarray
    stops: np.ndarray

    @classmethod
    def chunks(cls, space: GranuleSet, size: int) -> "GroupRuns":
        """``space`` cut front to back into groups of ``size`` granules.

        The last group may be short.
        """
        b = np.array(space._b, dtype=np.int64)
        starts, lens = b[0::2], b[1::2] - b[0::2]
        first = np.cumsum(lens) - lens  # rank in ``space`` of each range's first granule
        n = space._size
        # a run starts at every range start and at every multiple of size,
        # counted in rank; a run never crosses either
        cuts = np.sort(np.concatenate((first, np.arange(0, n, size))))
        cuts = cuts[np.diff(cuts, prepend=-1) != 0]
        rng = np.searchsorted(first, cuts, side="right") - 1
        lo = starts[rng] + (cuts - first[rng])
        offsets = np.searchsorted(cuts // size, np.arange(-(-n // size) + 1))
        return cls(offsets, lo, lo + np.diff(cuts, append=n))

    @classmethod
    def from_sets(cls, sets: list[GranuleSet]) -> "GroupRuns":
        """One group per set, with every set's boundaries read in one pass."""
        bounds = [s._b for s in sets]
        n_bounds = np.fromiter(map(len, bounds), dtype=np.int64, count=len(bounds))
        flat = np.fromiter(chain.from_iterable(bounds), dtype=np.int64, count=int(n_bounds.sum()))
        offsets = np.concatenate(([0], np.cumsum(n_bounds // 2)))
        return cls(offsets, flat[0::2], flat[1::2])

    @property
    def n_groups(self) -> int:
        return len(self.offsets) - 1

    def expand(self) -> tuple[np.ndarray, np.ndarray]:
        """Every ``(granule, group)`` pair as two parallel arrays.

        Group by group, ascending within each group.
        """
        lens = self.stops - self.starts
        run_groups = np.repeat(np.arange(self.n_groups), np.diff(self.offsets))
        return _concat_ranges(self.starts, lens), np.repeat(run_groups, lens)

    def take(self, rows: np.ndarray) -> "GroupRuns":
        """The groups ``rows``, in that order."""
        first = self.offsets[rows]
        lens = self.offsets[rows + 1] - first
        runs = _concat_ranges(first, lens)
        offsets = np.concatenate(([0], np.cumsum(lens)))
        return GroupRuns(offsets, self.starts[runs], self.stops[runs])

    def union(self) -> GranuleSet:
        """Every granule of every group, as one set."""
        return _from_spans(self.starts.tolist(), self.stops.tolist())

    def sets(self) -> list[GranuleSet]:
        """One set per group, with every boundary converted to a Python int
        in one pass."""
        bounds = np.empty(2 * len(self.starts), dtype=np.int64)
        bounds[0::2] = self.starts
        bounds[1::2] = self.stops
        flat, edges = bounds.tolist(), (2 * self.offsets).tolist()
        groups = [tuple(flat[lo:hi]) for lo, hi in zip(edges, edges[1:])]
        return [_new(b, _width(b)) for b in groups]


def _concat_ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """``arange(starts[k], starts[k] + lens[k])`` for every ``k``, concatenated."""
    ends = np.cumsum(lens)
    return np.repeat(starts - (ends - lens), lens) + np.arange(int(lens.sum()))


def _new(bounds: tuple[int, ...], size: int) -> GranuleSet:
    """Wrap canonical ``bounds`` holding ``size`` granules, with no checks."""
    out = object.__new__(GranuleSet)
    out._b = bounds
    out._size = size
    return out


def _width(bounds: tuple[int, ...]) -> int:
    """Granules covered by canonical ``bounds``: the stops minus the starts."""
    return sum(bounds[1::2]) - sum(bounds[0::2])


def _union_bounds(starts: list[int], stops: list[int]) -> tuple[int, ...]:
    """Canonical boundaries of the union of the spans ``[starts[k], stops[k])``.

    Every span must be non-empty; both lists are sorted in place, each on
    its own.  That keeps the union: a point lies outside every span
    exactly when as many spans have stopped as have started at or before
    it, so after sorting a gap opens wherever ``starts[i + 1] >
    stops[i]``, and a span starting where another stops merges with it.
    The sorts, the gap test and the interleaving all run in C.
    """
    if not starts:
        return ()
    starts.sort()
    stops.sort()
    after = starts[1:]
    gap = list(map(gt, after, stops))
    inner = chain.from_iterable(zip(compress(stops, gap), compress(after, gap)))
    return (starts[0], *inner, stops[-1])


def _from_spans(starts: list[int], stops: list[int]) -> GranuleSet:
    b = _union_bounds(starts, stops)
    return _new(b, _width(b))


def _clip(a: tuple[int, ...], b: tuple[int, ...], keep: int) -> GranuleSet:
    """The parts of the ranges ``a`` inside (``keep=1``) or outside (``0``) ``b``.

    An insertion point into ``b`` is odd exactly when it falls inside one
    of its ranges, and each boundary of ``b`` strictly between a range's
    start and stop flips that, so every range of ``a`` costs two binary
    searches and one slice of ``b``.
    """
    out: list[int] = []
    it = iter(a)
    for s, e in zip(it, it):
        i = bisect_right(b, s)
        j = bisect_left(b, e, i)
        if i % 2 == keep:
            out.append(s)
        out += b[i:j]
        if j % 2 == keep:
            out.append(e)
    t = tuple(out)
    return _new(t, _width(t))
