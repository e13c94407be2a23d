"""Busy/idle interval recording and utilization timelines.

A :class:`Trace` stores one run in columns whose layout only this module
knows:

* log records as parallel lists of time, kind, subject and label, plus a
  sparse side table for the few records whose detail is more than one
  label string (``PHASE_START`` with its ``run``, ``TASK_RETRY``,
  ``PHASE_STALLED``, ...), and the positions of the computation-task
  records (:data:`TASK_EVENT_KINDS`) the sanitizer replays;
* closed busy intervals as per-resource rows ``(start, end, category,
  label)``.

Writing a record allocates nothing of its own (the time, kind, subject
and label objects are the caller's); closing an interval allocates one
row tuple.  Readers iterate rows: :meth:`Trace.json_record_rows`,
:meth:`Trace.task_rows` and :meth:`Trace.interval_rows`.  The object
views :attr:`Trace.records`, :meth:`Trace.records_of` and
:meth:`Trace.intervals` build one :class:`~repro.sim.events.LogRecord`
or :class:`Interval` per item read, for readers that want objects.

The metrics layer (:mod:`repro.metrics`) derives everything the paper
reports — processor utilization during rundown, idle loss,
computation-to-management ratio — from these intervals, so this module
is the single source of truth for "who was busy when".
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Iterator

from repro.sim.events import EventKind, LogRecord

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

__all__ = [
    "Interval",
    "TASK_EVENT_KINDS",
    "Trace",
    "TraceError",
    "utilization_timeline",
    "merge_intervals",
]

#: The record kinds that describe computation tasks (vs management work).
TASK_EVENT_KINDS = frozenset(
    (EventKind.TASK_START, EventKind.TASK_END, EventKind.TASK_LOST)
)


class TraceError(RuntimeError):
    """Interval bookkeeping misuse: double ``begin`` or unmatched ``end``.

    Subclasses :class:`RuntimeError` so pre-existing ``except
    RuntimeError`` callers (and tests) keep working.
    """


@dataclass(frozen=True, slots=True)
class Interval:
    """A half-open busy interval ``[start, end)`` on a named resource.

    ``category`` distinguishes productive computation (``"compute"``) from
    management (``"mgmt"``) and serial inter-phase actions (``"serial"``).
    """

    resource: str
    start: float
    end: float
    category: str = "compute"
    label: str = ""

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"interval ends before it starts: {self}")

    @property
    def duration(self) -> float:
        return self.end - self.start

    def overlaps(self, other: "Interval") -> bool:
        """True if the two intervals share any positive-length span."""
        return self.start < other.end and other.start < self.end


def merge_intervals(intervals: Iterable[tuple[float, float]]) -> list[tuple[float, float]]:
    """Merge possibly-overlapping ``(start, end)`` spans into a disjoint list."""
    spans = sorted((s, e) for s, e in intervals if e > s)
    merged: list[tuple[float, float]] = []
    for s, e in spans:
        if merged and s <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], e))
        else:
            merged.append((s, e))
    return merged


def _negative_time(time: float) -> ValueError:
    return ValueError(f"negative event time {time!r}")


class Trace:
    """Accumulates log records and busy intervals for one simulation run."""

    def __init__(self) -> None:
        # log records: entry i of each column belongs to record i
        self._times: list[float] = []
        self._kinds: list[EventKind] = []
        self._subjects: list[str] = []
        # the record's label when its whole detail is one ``label`` string;
        # otherwise None, and a non-empty detail is in ``_details``
        self._labels: list[str | None] = []
        self._details: dict[int, dict[str, Any]] = {}
        # positions of the TASK_EVENT_KINDS records, in arrival order
        self._task_pos: list[int] = []
        # closed intervals: resource -> rows (start, end, category, label)
        self._rows: dict[str, list[tuple[float, float, str, str]]] = {}
        self._open: dict[tuple[str, str], tuple[float, str]] = {}

    # ------------------------------------------------------------------ logging
    def log(self, time: float, kind: EventKind, subject: str, **detail: Any) -> None:
        """Append a log record."""
        self._append(time, kind, subject, detail)

    def _append(self, time: float, kind: EventKind, subject: str, detail: dict[str, Any]) -> None:
        """Append a record with any detail (copied if kept whole)."""
        if time < 0:
            raise _negative_time(time)
        pos = len(self._times)
        if kind in TASK_EVENT_KINDS:
            self._task_pos.append(pos)
        self._times.append(time)
        self._kinds.append(kind)
        self._subjects.append(subject)
        label = detail.get("label")
        if len(detail) == 1 and type(label) is str:
            self._labels.append(label)
        else:
            self._labels.append(None)
            if detail:
                self._details[pos] = dict(detail)

    def begin_logged(
        self, resource: str, time: float, category: str, label: str, kind: EventKind
    ) -> None:
        """:meth:`begin` plus ``log(time, kind, resource, label=label)``.

        The machine opens an interval and logs a record for every
        task/management start; fusing them halves the call overhead on
        the hottest trace operation.  Error cases defer to :meth:`begin`
        for its diagnostic message.
        """
        key = (resource, category)
        if key in self._open:
            self.begin(resource, time, category, label)  # raises with detail
        if time < 0:
            raise _negative_time(time)
        self._open[key] = (time, label)
        if kind in TASK_EVENT_KINDS:
            self._task_pos.append(len(self._times))
        self._times.append(time)
        self._kinds.append(kind)
        self._subjects.append(resource)
        self._labels.append(label)

    def end_logged(
        self, resource: str, time: float, category: str, label: str, kind: EventKind
    ) -> None:
        """:meth:`end` plus ``log(time, kind, resource, label=label)``.

        ``label`` is the *record* label; the interval keeps the label it
        was opened with, exactly as the unfused pair does.  Error cases
        defer to :meth:`end` for its diagnostic message.
        """
        opened = self._open.pop((resource, category), None)
        if opened is None:
            self.end(resource, time, category)  # raises with detail
        start, open_label = opened
        if time < start:
            Interval(resource, start, time, category, open_label)  # raises
        if time < 0:
            raise _negative_time(time)
        rows = self._rows.get(resource)
        if rows is None:
            rows = self._rows[resource] = []
        rows.append((start, time, category, open_label))
        if kind in TASK_EVENT_KINDS:
            self._task_pos.append(len(self._times))
        self._times.append(time)
        self._kinds.append(kind)
        self._subjects.append(resource)
        self._labels.append(label)

    def begin(self, resource: str, time: float, category: str = "compute", label: str = "") -> None:
        """Open a busy interval on ``resource``.

        Raises
        ------
        TraceError
            If an interval of the same category is already open on the
            resource — a resource cannot do two things of one kind at
            once.  The message names the open interval's start time and
            label so double-``begin`` bugs are locatable.
        """
        key = (resource, category)
        if key in self._open:
            since, open_label = self._open[key]
            detail = f" ({open_label!r})" if open_label else ""
            raise TraceError(
                f"begin({resource!r}, t={time}, {category!r}): resource already "
                f"busy with {category!r}{detail} since t={since}"
            )
        self._open[key] = (time, label)

    def end(self, resource: str, time: float, category: str = "compute") -> Interval:
        """Close the open interval on ``resource`` and record it.

        Raises
        ------
        TraceError
            If no ``category`` interval is open on the resource.  When
            the resource is busy with *other* categories the message
            lists them — the usual culprit is an ``end`` with the wrong
            category, not a missing ``begin``.
        """
        key = (resource, category)
        if key not in self._open:
            open_cats = sorted(c for r, c in self._open if r == resource)
            hint = (
                f"; open categories on this resource: {open_cats}"
                if open_cats
                else "; no interval of any category is open on this resource"
            )
            raise TraceError(
                f"end({resource!r}, t={time}, {category!r}): no open "
                f"{category!r} interval{hint}"
            )
        self.close(resource, time, category)
        return Interval(resource, *self._rows[resource][-1])

    def close(self, resource: str, time: float, category: str = "compute") -> None:
        """:meth:`end` without building the :class:`Interval` it returns,
        for the machine, which never reads it.  Error cases defer to
        :meth:`end` for its diagnostic message."""
        opened = self._open.pop((resource, category), None)
        if opened is None:
            self.end(resource, time, category)  # raises with detail
        start, label = opened
        if time < start:
            Interval(resource, start, time, category, label)  # raises
        self._rows.setdefault(resource, []).append((start, time, category, label))

    def add_interval(self, interval: Interval) -> None:
        """Record a pre-built interval (used by analytic reconstructions)."""
        self._rows.setdefault(interval.resource, []).append(
            (interval.start, interval.end, interval.category, interval.label)
        )

    @classmethod
    def from_rows(
        cls,
        records: Iterable[tuple[float, EventKind, str, dict[str, Any]]],
        intervals: Iterable[tuple[str, float, float, str, str]],
    ) -> "Trace":
        """A finished trace from ``(time, kind, subject, detail)`` records
        and ``(resource, start, end, category, label)`` intervals, with
        the checks :meth:`log` and :class:`Interval` make (``ValueError``
        on a negative time or an interval that ends before it starts).
        Detail dicts are copied; any other detail is turned into a dict
        first, so a malformed one raises as ``dict(detail)`` does."""
        trace = cls()
        for time, kind, subject, detail in records:
            if type(detail) is not dict:
                detail = dict(detail)
            trace._append(time, kind, subject, detail)
        rows = trace._rows
        for resource, start, end, category, label in intervals:
            if end < start:
                Interval(resource, start, end, category, label)  # raises
            rows.setdefault(resource, []).append((start, end, category, label))
        return trace

    # ------------------------------------------------------------------ rows
    def json_record_rows(self) -> Iterator[tuple[float, EventKind, str, dict[str, Any]]]:
        """``(time, kind, subject, detail)`` per log record, in arrival
        order, the form a saved or exported trace keeps: ``detail`` is a
        new dict of the record's detail entries whose values are JSON
        scalars (``str``, ``int``, ``float``, ``bool``, ``None``)."""
        details = self._details
        rows = zip(self._times, self._kinds, self._subjects, self._labels)
        for pos, (time, kind, subject, label) in enumerate(rows):
            if label is None:
                detail = {
                    k: v
                    for k, v in details.get(pos, _NO_DETAIL).items()
                    if isinstance(v, _JSON_SCALARS)
                }
            else:
                detail = {"label": label}
            yield time, kind, subject, detail

    def task_rows(self) -> Iterator[tuple[float, EventKind, str, str]]:
        """``(time, kind, subject, label)`` per computation-task record
        (:data:`TASK_EVENT_KINDS`), in arrival order; ``label`` is ``""``
        for a task record that carries none."""
        times, kinds, subjects, labels = self._times, self._kinds, self._subjects, self._labels
        for pos in self._task_pos:
            label = labels[pos]
            if label is None:
                label = self._details.get(pos, _NO_DETAIL).get("label", "")
            yield times[pos], kinds[pos], subjects[pos], label

    def interval_rows(
        self, resource: str | None = None, category: str | None = None
    ) -> Iterator[tuple[str, float, float, str, str]]:
        """``(resource, start, end, category, label)`` per closed interval,
        optionally filtered: resources in sorted order, then each
        resource's intervals in the order they closed."""
        names = self.resources() if resource is None else [resource]
        for name in names:
            for start, end, cat, label in self._rows.get(name, ()):
                if category is None or cat == category:
                    yield name, start, end, cat, label

    # ------------------------------------------------------------------ views
    @property
    def records(self) -> "RecordView":
        """Every log record, as a read-only sequence of
        :class:`~repro.sim.events.LogRecord` built per item read."""
        return RecordView(self)

    def _record(self, pos: int) -> LogRecord:
        label = self._labels[pos]
        if label is None:
            detail = dict(self._details.get(pos, _NO_DETAIL))
        else:
            detail = {"label": label}
        return LogRecord(self._times[pos], self._kinds[pos], self._subjects[pos], detail)

    def records_of(self, kind: EventKind) -> list[LogRecord]:
        """All log records of one kind, in arrival order."""
        return [self._record(pos) for pos, k in enumerate(self._kinds) if k is kind]

    def intervals(self, resource: str | None = None, category: str | None = None) -> Iterator[Interval]:
        """Iterate recorded intervals as :class:`Interval` objects, in
        :meth:`interval_rows` order, optionally filtered."""
        for row in self.interval_rows(resource, category):
            yield Interval(*row)

    # ------------------------------------------------------------------ queries
    def resources(self) -> list[str]:
        """Sorted list of resources that recorded at least one interval."""
        return sorted(self._rows)

    def busy_time(self, resource: str | None = None, category: str | None = None) -> float:
        """Total busy time, with overlap within a resource merged away."""
        if resource is None:
            return sum(self.busy_time(r, category) for r in self.resources())
        spans = [
            (start, end)
            for start, end, cat, _ in self._rows.get(resource, ())
            if category is None or cat == category
        ]
        return sum(e - s for s, e in merge_intervals(spans))

    def span(self) -> tuple[float, float]:
        """``(earliest start, latest end)`` over all intervals; (0, 0) if empty."""
        tables = self._rows.values()
        if not tables:
            return (0.0, 0.0)
        return (
            min(row[0] for rows in tables for row in rows),
            max(row[1] for rows in tables for row in rows),
        )

    def makespan(self) -> float:
        """Latest interval end (simulation finish time proxy)."""
        return self.span()[1]


#: The shared detail of every record logged without one: read, never changed.
_NO_DETAIL: dict[str, Any] = {}

#: The detail values a saved trace keeps; any other value is dropped.
_JSON_SCALARS = (str, int, float, bool, type(None))


class RecordView(Sequence):
    """A trace's log records as a read-only sequence.

    Length is O(1); indexing (negative indexes and slices included) and
    iteration build one :class:`~repro.sim.events.LogRecord` per item
    read.  Compares equal to a list or tuple of the same records.
    """

    __slots__ = ("_trace",)

    def __init__(self, trace: Trace) -> None:
        self._trace = trace

    def __len__(self) -> int:
        return len(self._trace._times)

    def __getitem__(self, index):
        n = len(self)
        if isinstance(index, slice):
            return [self._trace._record(i) for i in range(*index.indices(n))]
        i = index + n if index < 0 else index
        if not 0 <= i < n:
            raise IndexError("trace record index out of range")
        return self._trace._record(i)

    def __iter__(self) -> Iterator[LogRecord]:
        return map(self._trace._record, range(len(self)))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (RecordView, list, tuple)):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"<RecordView of {len(self)} trace records>"


def utilization_timeline(
    trace: Trace,
    n_processors: int,
    resources: Iterable[str] | None = None,
    category: str = "compute",
) -> tuple[np.ndarray, np.ndarray]:
    """Step function of the number of busy processors over time.

    Returns ``(times, busy_counts)`` where ``busy_counts[i]`` holds on
    ``[times[i], times[i+1])``.  ``n_processors`` only normalizes callers'
    utilization computations; it is returned data's ceiling, not enforced.

    Notes
    -----
    Built from interval endpoints with a sweep, so it is exact — no
    sampling grid.  This is the raw material for the paper's central
    quantity: how many processors are busy as a phase runs down.
    """
    # imported here so that reading a saved trace (`repro profile`,
    # `repro export-trace`) never loads numpy
    import numpy as np

    if resources is None:
        resources = trace.resources()
    deltas: list[tuple[float, int]] = []
    for r in resources:
        for _, start, end, _, _ in trace.interval_rows(r, category):
            if end > start:
                deltas.append((start, +1))
                deltas.append((end, -1))
    if not deltas:
        return np.array([0.0]), np.array([0])
    deltas.sort()
    times: list[float] = []
    counts: list[int] = []
    level = 0
    for t, d in deltas:
        if times and times[-1] == t:
            level += d
            counts[-1] = level
        else:
            level += d
            times.append(t)
            counts.append(level)
    return np.asarray(times, dtype=float), np.asarray(counts, dtype=int)
