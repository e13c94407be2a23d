"""Trace and result persistence (JSON).

Simulation runs are deterministic, but saving a run's trace lets the
benchmark harness (or a downstream user) analyse schedules without
re-simulating — diff two configurations' Gantt charts, feed utilization
timelines into external plotting, archive the EXPERIMENTS.md evidence.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.sim.events import EventKind
from repro.sim.trace import Trace

__all__ = [
    "trace_to_dict",
    "trace_from_dict",
    "save_trace",
    "load_trace",
    "run_facts",
    "result_summary",
    "save_result",
]


def trace_to_dict(trace: Trace) -> dict[str, Any]:
    """A JSON-serializable representation of a finished trace."""
    return {
        "records": [
            {
                "time": time,
                "kind": kind.value,
                "subject": subject,
                "detail": detail,
            }
            for time, kind, subject, detail in trace.json_record_rows()
        ],
        "intervals": [
            {
                "resource": resource,
                "start": start,
                "end": end,
                "category": category,
                "label": label,
            }
            for resource, start, end, category, label in trace.interval_rows()
        ],
    }


def trace_from_dict(data: dict[str, Any]) -> Trace:
    """Rebuild a :class:`Trace` saved by :func:`trace_to_dict`.

    Raises ``ValueError`` when ``data`` is not an object or its
    ``records`` or ``intervals`` not a list, and otherwise names the
    first record or interval that cannot be read: one that is not an
    object or lacks a field, a time or detail that does not convert, a
    subject or resource that is not a string, an unknown kind, a
    negative time or an interval that ends before it starts.
    """
    if not isinstance(data, dict):
        raise ValueError(f"saved trace is a {type(data).__name__}, not an object")
    records, intervals = data.get("records", []), data.get("intervals", [])
    for name, rows in (("records", records), ("intervals", intervals)):
        if not isinstance(rows, list):
            raise ValueError(f"saved trace {name} is a {type(rows).__name__}, not a list")
    # what Trace.from_rows is reading, for the error message: it takes
    # each row as it is made, so a failure belongs to the latest one
    at = ["record", 0]

    def record_rows():
        for at[1], r in enumerate(records):
            subject = r["subject"]
            if type(subject) is not str:
                raise TypeError(f"subject {subject!r} is not a string")
            yield float(r["time"]), EventKind(r["kind"]), subject, r.get("detail", {})

    def interval_rows():
        at[0] = "interval"
        for at[1], iv in enumerate(intervals):
            resource = iv["resource"]
            if type(resource) is not str:
                raise TypeError(f"resource {resource!r} is not a string")
            yield (
                resource,
                float(iv["start"]),
                float(iv["end"]),
                iv.get("category", "compute"),
                iv.get("label", ""),
            )

    try:
        return Trace.from_rows(record_rows(), interval_rows())
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        problem = f"no field {exc}" if isinstance(exc, KeyError) else str(exc)
        raise ValueError(f"saved trace {at[0]} {at[1]}: {problem}") from None


def save_trace(trace: Trace, path: str | Path) -> None:
    """Write the trace to ``path`` as JSON."""
    Path(path).write_text(json.dumps(trace_to_dict(trace)), encoding="utf-8")


def load_trace(path: str | Path) -> Trace:
    """Read a trace written by :func:`save_trace`."""
    return trace_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def run_facts(result) -> dict[str, Any]:
    """The totals and per-stream times of a
    :class:`~repro.executive.scheduler.RunResult`: the part of a run's
    summary that :func:`result_summary` and
    :func:`repro.sweep.runner.sweep_summary` share."""
    return {
        "makespan": result.makespan,
        "utilization": result.utilization,
        "compute_time": result.compute_time,
        "mgmt_time": result.mgmt_time,
        "serial_time": result.serial_time,
        "tasks_executed": result.tasks_executed,
        "granules_executed": result.granules_executed,
        "lateral_handoffs": result.lateral_handoffs,
        "streams": [
            {
                "stream": s.stream,
                "start_time": s.start_time,
                "complete_time": s.complete_time,
                "wall_clock": s.wall_clock,
            }
            for s in result.stream_stats
        ],
    }


def result_summary(result) -> dict[str, Any]:
    """A saved run's summary: :func:`run_facts` plus the machine and the
    per-phase times."""
    return {
        **run_facts(result),
        "n_workers": result.n_workers,
        "placement": result.placement.value,
        "phases": [
            {
                "stream": s.stream,
                "index": s.index,
                "name": s.name,
                "n_granules": s.n_granules,
                "init_time": s.init_time,
                "overlap_init_time": s.overlap_init_time,
                "first_task_start": s.first_task_start,
                "last_assign_time": s.last_assign_time,
                "complete_time": s.complete_time,
                "tasks": s.tasks,
                "overlapped": s.overlapped,
            }
            for s in result.phase_stats
        ],
    }


def save_result(result, path: str | Path, include_trace: bool = True) -> None:
    """Write a run's summary (and optionally its trace) to JSON."""
    payload: dict[str, Any] = {"summary": result_summary(result)}
    if include_trace:
        payload["trace"] = trace_to_dict(result.trace)
    Path(path).write_text(json.dumps(payload), encoding="utf-8")
