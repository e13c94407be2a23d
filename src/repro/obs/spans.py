"""Span-based tracing and trace exporters (JSONL, Chrome trace-event).

A :class:`Span` is a named, categorized ``[start, end)`` occupation of a
resource — the same shape as a :class:`~repro.sim.trace.Interval`, plus
free-form ``args``.  :func:`spans_from_trace` converts a finished
simulation :class:`~repro.sim.trace.Trace` into spans, so simulated runs
(simulation seconds) and wall-clock threaded runs (perf-counter seconds)
export through one code path and one schema.

Two exporters:

``export_jsonl``
    One JSON object per line — easy to grep, stream, or load into pandas.

``chrome_trace_events`` / ``export_chrome_trace``
    The Chrome trace-event format understood by ``chrome://tracing`` and
    Perfetto (https://ui.perfetto.dev): complete events (``ph="X"``) with
    microsecond ``ts``/``dur``, one ``tid`` per resource, thread-name
    metadata records, and instant events (``ph="i"``) for point log
    records.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from repro.sim.trace import Trace

__all__ = [
    "Span",
    "SpanRecorder",
    "spans_from_trace",
    "iter_trace_spans",
    "granule_task_spans",
    "instants_from_trace",
    "chrome_trace_events",
    "chrome_trace_from_trace",
    "export_chrome_trace",
    "export_jsonl",
    "load_jsonl",
    "iter_spans_jsonl",
    "write_chrome_trace_streaming",
]

#: Seconds (simulation or wall-clock) to Chrome-trace microseconds.
_US = 1_000_000.0


@dataclass(frozen=True, slots=True)
class Span:
    """A named ``[start, end)`` occupation of a resource."""

    name: str
    resource: str
    start: float
    end: float
    category: str = "compute"
    args: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"span ends before it starts: {self}")

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "resource": self.resource,
            "start": self.start,
            "end": self.end,
            "category": self.category,
            "args": self.args,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Span":
        return cls(
            name=data["name"],
            resource=data["resource"],
            start=float(data["start"]),
            end=float(data["end"]),
            category=data.get("category", "compute"),
            args=dict(data.get("args", {})),
        )


class SpanRecorder:
    """Collects spans; thread-safe; optionally clock-driven.

    ``clock`` supplies the current time for the :meth:`span` context
    manager — ``sim.now`` for simulated runs, a perf-counter offset for
    wall-clock runs.  :meth:`add` always works regardless of clock.
    """

    def __init__(self, clock: Callable[[], float] | None = None) -> None:
        self.clock = clock
        self._spans: list[Span] = []
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._spans)

    def add(
        self,
        name: str,
        resource: str,
        start: float,
        end: float,
        category: str = "compute",
        **args: Any,
    ) -> Span:
        span = Span(name, resource, start, end, category, args)
        with self._lock:
            self._spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, resource: str, category: str = "compute", **args: Any) -> Iterator[None]:
        """Record the wrapped block as one span using the recorder's clock."""
        if self.clock is None:
            raise RuntimeError("SpanRecorder has no clock; pass explicit times to add()")
        start = self.clock()
        try:
            yield
        finally:
            self.add(name, resource, start, self.clock(), category, **args)

    def spans(self) -> list[Span]:
        """Snapshot of recorded spans in insertion order."""
        with self._lock:
            return list(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()


def spans_from_trace(trace: Trace) -> list[Span]:
    """Convert a simulation trace's busy intervals into spans.

    The interval label becomes the span name (falling back to the
    category), so executive job labels (``assign:P3``, ``complete:…``)
    survive into the exported view.
    """
    return list(iter_trace_spans(trace))


def iter_trace_spans(trace: Trace) -> Iterator[Span]:
    """Lazily yield :func:`spans_from_trace` spans one at a time.

    The streaming exporters take re-iterable sources; passing
    ``lambda: iter_trace_spans(trace)`` keeps peak memory at one span
    instead of one list per conversion.
    """
    for resource, start, end, category, label in trace.interval_rows():
        yield Span(label or category, resource, start, end, category)


def granule_task_spans(
    spans: Iterable[Span],
) -> Iterator[tuple[Span, str, int, tuple[tuple[int, int], ...]]]:
    """Yield computation-task spans with their parsed granule identity.

    Each result is ``(span, phase_name, run_gid, granule_ranges)`` for
    spans whose name carries the scheduler's task label (see
    :func:`repro.sim.events.format_task_label`); management, serial and
    other spans are skipped.  This is the obs-side feed for the trace
    sanitizer: exported span files round-trip the same granule facts the
    live trace carries.
    """
    from repro.sim.events import parse_task_label

    for span in spans:
        if span.category != "compute":
            continue
        parsed = parse_task_label(span.name)
        if parsed is None:
            continue
        phase, run, ranges = parsed
        yield span, phase, run, ranges


def instants_from_trace(trace: Trace) -> list[tuple[float, str, str, dict[str, Any]]]:
    """Point log records as ``(time, name, resource, args)`` instant tuples
    — the shape :func:`chrome_trace_events` and the streaming writer accept."""
    return [
        (time, kind.value, subject, detail)
        for time, kind, subject, detail in trace.json_record_rows()
    ]


def _resource_tids(
    spans: Iterable[Span], instants: list[tuple[float, str, str, dict[str, Any]]]
) -> dict[str, int]:
    """Stable tid for every span resource and instant subject: workers
    first, executives after.

    Worker names sort numerically (P2 before P10) so the Perfetto track
    order matches processor indices.
    """

    def sort_key(r: str) -> tuple[int, Any]:
        if r.startswith("P") and r[1:].isdigit():
            return (0, int(r[1:]))
        return (1, r)

    resources = {s.resource for s in spans}
    resources.update(subject for _, _, subject, _ in instants)
    return {r: i for i, r in enumerate(sorted(resources, key=sort_key))}


def chrome_trace_events(
    spans: Iterable[Span],
    instants: Iterable[tuple[float, str, str, dict[str, Any]]] = (),
    pid: int = 1,
) -> list[dict[str, Any]]:
    """Chrome trace-event records for ``spans`` (plus optional instants).

    ``instants`` are ``(time, name, subject, args)`` tuples rendered as
    instant events on the subject's track (a track of its own when the
    subject owns no spans).
    """
    span_list, instant_list = list(spans), list(instants)
    tids = _resource_tids(span_list, instant_list)
    return list(_chrome_events(span_list, instant_list, tids, pid))


def _chrome_events(
    spans: Iterable[Span],
    instants: list[tuple[float, str, str, dict[str, Any]]],
    tids: dict[str, int],
    pid: int,
) -> Iterator[dict[str, Any]]:
    """Thread-name metadata for every track of ``tids``, then one complete
    event per span, then one instant event per instant, one at a time."""
    for resource, tid in tids.items():  # built in tid order
        yield {
            "ph": "M",
            "name": "thread_name",
            "pid": pid,
            "tid": tid,
            "ts": 0,
            "args": {"name": resource},
        }
    for s in spans:
        yield {
            "ph": "X",
            "name": s.name,
            "cat": s.category,
            "pid": pid,
            "tid": tids[s.resource],
            "ts": s.start * _US,
            "dur": s.duration * _US,
            "args": dict(s.args),
        }
    for time, name, subject, args in instants:
        yield {
            "ph": "i",
            "s": "t",
            "name": name,
            "cat": "event",
            "pid": pid,
            "tid": tids[subject],
            "ts": time * _US,
            "args": dict(args),
        }


def chrome_trace_from_trace(trace: Trace) -> dict[str, Any]:
    """A complete Chrome trace document for a simulation trace.

    Busy intervals become complete events; log records become instant
    events on the subject's track.  The result loads directly in
    Perfetto / ``chrome://tracing``.
    """
    return {
        "traceEvents": chrome_trace_events(
            spans_from_trace(trace), instants_from_trace(trace)
        ),
        "displayTimeUnit": "ms",
    }


def export_chrome_trace(source: Trace | Iterable[Span], path: str | Path) -> None:
    """Write ``source`` (a trace or spans) as Chrome trace JSON."""
    if isinstance(source, Trace):
        doc = chrome_trace_from_trace(source)
    else:
        doc = {"traceEvents": chrome_trace_events(source), "displayTimeUnit": "ms"}
    Path(path).write_text(json.dumps(doc), encoding="utf-8")


def export_jsonl(spans: Iterable[Span], path: str | Path) -> None:
    """Write spans as JSON Lines (one span object per line)."""
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span.to_dict()))
            fh.write("\n")


def load_jsonl(path: str | Path) -> list[Span]:
    """Read spans written by :func:`export_jsonl`."""
    return list(iter_spans_jsonl(path))


def iter_spans_jsonl(path: str | Path) -> Iterator[Span]:
    """Stream spans from a JSONL file one at a time.

    The generator holds one line in memory at a time, so a multi-gigabyte
    grid trace can be filtered, re-exported or aggregated without the RSS
    spike :func:`load_jsonl` would incur.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield Span.from_dict(json.loads(line))


def write_chrome_trace_streaming(
    make_spans: Callable[[], Iterable[Span]],
    path: str | Path,
    instants: Iterable[tuple[float, str, str, dict[str, Any]]] = (),
) -> int:
    """Write a Chrome trace from a *re-iterable* span source; returns the
    event count.

    Two passes over ``make_spans()``: the first discovers the resource set
    (thread ids and name metadata must precede the events that use them),
    the second writes one trace event per iteration step.  Peak memory is
    one span plus the resource table — never the whole span list — which
    is what lets ``repro export-trace`` convert traces larger than RAM.
    """
    instant_list = list(instants)
    tids = _resource_tids(make_spans(), instant_list)
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"displayTimeUnit": "ms", "traceEvents": [')
        for event in _chrome_events(make_spans(), instant_list, tids, 1):
            fh.write((",\n" if count else "\n") + json.dumps(event))
            count += 1
        fh.write("\n]}" if count else "]}")
        fh.write("\n")
    return count
