"""Profiling and attribution: idle waterfalls, critical paths, pool overhead.

The paper's argument is that rundown *idle time* dominates; the spans and
metrics layers record that time passed, but not what it was spent on.
This module closes that gap from two directions:

**Simulation side** — :func:`analyze_run` / :func:`analyze_saved` consume
a finished run (a live :class:`~repro.executive.scheduler.RunResult` or a
``repro simulate --save`` JSON file) and produce a
:class:`WaterfallReport`: per-processor busy time split by category
(compute / mgmt / serial) and idle time attributed, in priority order, to

* ``retry_backoff`` — waiting out a transient-failure backoff window
  (:class:`~repro.sim.events.EventKind.TASK_RETRY` records);
* ``stall_wait`` — the dead air before a barrier-watchdog stall detection
  (:class:`~repro.sim.events.EventKind.PHASE_STALLED` records);
* ``barrier_wait`` — idle inside the merged rundown windows, the paper's
  headline wasted capacity;
* ``startup_wait`` — before the resource's first recorded activity;
* ``idle`` — everything else.

plus a greedy backward **critical path**: the chain of intervals that ends
at the makespan, each step annotated with the wait that followed it.

**Host side** — :class:`PoolProfiler` threads through
:func:`repro.sweep.runner.run_pool_tasks` and attributes each pool task's
wall time (submit → result receipt) to worker ``warmup``,
``serialization`` (argument + result pickling, bytes and seconds),
``queue_wait`` and ``compute``, so a sweep whose parallel speedup
disappoints becomes a ranked list of overheads instead of a mystery.
Profiling rides in a result *envelope* unwrapped by the parent before the
canonical ``record`` callback runs — reports stay byte-identical with
profiling enabled or disabled.

Wall-clock stamps on both sides of the process boundary come from
:func:`time.perf_counter`, which reads ``CLOCK_MONOTONIC`` and is
therefore comparable across processes on the platforms we run on; all
derived durations are clipped at zero so a skewed clock degrades the
attribution, never corrupts it.
"""

from __future__ import annotations

import json
import os
import pickle
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Callable, Mapping, Sequence

from repro.sim.events import EventKind
from repro.sim.trace import Trace, merge_intervals

__all__ = [
    "BUSY_CATEGORIES",
    "IDLE_CATEGORIES",
    "ResourceWaterfall",
    "PhaseWaterfallRow",
    "CriticalPathStep",
    "WaterfallReport",
    "analyze_run",
    "analyze_saved",
    "build_waterfall",
    "ProfiledTask",
    "PoolProfile",
    "PoolProfiler",
    "ProfileReport",
    "effective_workers_from_events",
]

#: Busy-interval categories, as recorded by the simulator's trace.
BUSY_CATEGORIES = ("compute", "mgmt", "serial")
#: Idle attribution categories, in carve-out priority order.
IDLE_CATEGORIES = ("retry_backoff", "stall_wait", "barrier_wait", "startup_wait", "idle")

Spans = list[tuple[float, float]]


# ---------------------------------------------------------------- interval algebra
# Every span list below is disjoint and sorted, so each helper walks its
# two inputs once, side by side.
_START = itemgetter(0)
_END = itemgetter(1)


def _subtract(spans: Spans, cuts: Spans) -> Spans:
    """``spans`` minus ``cuts``."""
    out: Spans = []
    k = 0  # the first cut that ends after the current span starts
    for s, e in spans:
        while k < len(cuts) and cuts[k][1] <= s:
            k += 1
        lo = s
        for j in range(k, len(cuts)):
            cs, ce = cuts[j]
            if cs >= e:
                break
            if cs > lo:
                out.append((lo, cs))
            lo = max(lo, ce)
            if lo >= e:
                break
        if lo < e:
            out.append((lo, e))
    return out

def _intersect(spans: Spans, windows: Spans) -> Spans:
    """Pieces of ``spans`` inside ``windows``."""
    out: Spans = []
    k = 0  # the first window that ends after the current span starts
    for s, e in spans:
        while k < len(windows) and windows[k][1] <= s:
            k += 1
        for j in range(k, len(windows)):
            ws, we = windows[j]
            if ws >= e:
                break
            lo, hi = max(s, ws), min(e, we)
            if hi > lo:
                out.append((lo, hi))
    return out

def _total(spans: Spans) -> float:
    return sum(e - s for s, e in spans)

def _window_total(spans: Spans, start: float, end: float) -> float:
    """``_total(_intersect(spans, [(start, end)]))``, found by bisection:
    the same pieces, summed in the same order."""
    lo = bisect_right(spans, start, key=_END)
    hi = bisect_left(spans, end, lo, key=_START)
    return sum(min(e, end) - max(s, start) for s, e in spans[lo:hi])

def _merged_by_category(rows: Sequence[tuple[str, float, float, str, str]]) -> dict[str, Spans]:
    """One resource's interval rows, merged once per category (in order
    of first appearance)."""
    spans: dict[str, Spans] = {}
    for _, start, end, category, _ in rows:
        spans.setdefault(category, []).append((start, end))
    return {cat: merge_intervals(s) for cat, s in spans.items()}


# ---------------------------------------------------------------- waterfall rows
@dataclass(frozen=True, slots=True)
class ResourceWaterfall:
    """One resource's time, fully accounted: busy by category, idle by cause."""

    resource: str
    busy: dict[str, float]
    idle: dict[str, float]

    @property
    def busy_total(self) -> float:
        return sum(self.busy.values())

    @property
    def idle_total(self) -> float:
        return sum(self.idle.values())

    def to_dict(self) -> dict[str, Any]:
        return {"resource": self.resource, "busy": dict(self.busy), "idle": dict(self.idle)}


@dataclass(frozen=True, slots=True)
class PhaseWaterfallRow:
    """Per-phase-run attribution inside the phase's own ``[start, end)``."""

    phase: str
    start: float
    end: float
    compute: float
    mgmt: float
    serial: float
    idle: float
    #: Worker idle time inside this run's own rundown window.
    rundown_idle: float

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        return {
            "phase": self.phase,
            "start": self.start,
            "end": self.end,
            "compute": self.compute,
            "mgmt": self.mgmt,
            "serial": self.serial,
            "idle": self.idle,
            "rundown_idle": self.rundown_idle,
        }


@dataclass(frozen=True, slots=True)
class CriticalPathStep:
    """One interval on the backward critical chain; ``wait_after`` is the
    gap between this interval's end and the next chain step's start."""

    resource: str
    category: str
    label: str
    start: float
    end: float
    wait_after: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "resource": self.resource,
            "category": self.category,
            "label": self.label,
            "start": self.start,
            "end": self.end,
            "wait_after": self.wait_after,
        }


@dataclass
class WaterfallReport:
    """The per-processor, per-phase idle waterfall of one finished run."""

    makespan: float
    n_workers: int
    resources: list[ResourceWaterfall]
    phases: list[PhaseWaterfallRow]
    critical_path: list[CriticalPathStep]

    def totals(self) -> dict[str, dict[str, float]]:
        """Category sums across every resource row."""
        busy = {c: 0.0 for c in BUSY_CATEGORIES}
        idle = {c: 0.0 for c in IDLE_CATEGORIES}
        for row in self.resources:
            for c, v in row.busy.items():
                busy[c] = busy.get(c, 0.0) + v
            for c, v in row.idle.items():
                idle[c] = idle.get(c, 0.0) + v
        return {"busy": busy, "idle": idle}

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": "waterfall",
            "makespan": self.makespan,
            "n_workers": self.n_workers,
            "totals": self.totals(),
            "resources": [r.to_dict() for r in self.resources],
            "phases": [p.to_dict() for p in self.phases],
            "critical_path": [s.to_dict() for s in self.critical_path],
        }

    def render_text(self) -> str:
        lines: list[str] = []
        totals = self.totals()
        worker_seconds = self.makespan * max(1, self.n_workers)
        lines.append(
            f"run waterfall: makespan={self.makespan:.6g} n_workers={self.n_workers} "
            f"worker-seconds={worker_seconds:.6g}"
        )
        lines.append("  time by category (all resources):")
        for group in ("busy", "idle"):
            for cat, secs in totals[group].items():
                if secs <= 0:
                    continue
                share = secs / worker_seconds if worker_seconds else 0.0
                lines.append(f"    {group:<4} {cat:<13} {secs:>12.6g}  ({share:6.1%})")
        if self.phases:
            lines.append("  per-phase (within each run's own window):")
            lines.append(
                "    phase                duration      compute         idle  rundown_idle"
            )
            for p in self.phases:
                lines.append(
                    f"    {p.phase:<18} {p.duration:>10.6g} {p.compute:>12.6g} "
                    f"{p.idle:>12.6g} {p.rundown_idle:>13.6g}"
                )
        if self.critical_path:
            lines.append("  critical path (earliest first; wait = gap after the step):")
            for s in self.critical_path:
                label = s.label or s.category
                lines.append(
                    f"    [{s.start:>10.6g}, {s.end:>10.6g})  {s.resource:<10} "
                    f"{s.category:<7} wait={s.wait_after:<10.6g} {label}"
                )
        return "\n".join(lines)


# ---------------------------------------------------------------- analyzers
def _retry_backoff_windows(trace: Trace) -> Spans:
    """``[t, t + backoff)`` for every retry record that carries a backoff."""
    out: Spans = []
    for r in trace.records_of(EventKind.TASK_RETRY):
        backoff = float(r.detail.get("backoff", 0.0) or 0.0)
        if backoff > 0:
            out.append((r.time, r.time + backoff))
    return merge_intervals(out)

def _stall_windows(trace: Trace) -> Spans:
    """Dead air before each watchdog detection: last activity end → record."""
    stalls = trace.records_of(EventKind.PHASE_STALLED)
    if not stalls:
        return []
    ends = sorted(end for _, _, end, _, _ in trace.interval_rows())
    out: Spans = []
    for r in stalls:
        k = bisect_right(ends, r.time)
        last = ends[k - 1] if k else 0.0
        if r.time > last:
            out.append((last, r.time))
    return merge_intervals(out)

def _paired_phase_windows(trace: Trace) -> list[tuple[str, float, float]]:
    """Phase windows recovered from PHASE_START/PHASE_END record pairing."""
    open_runs: dict[str, list[float]] = {}
    out: list[tuple[str, float, float]] = []
    for time, kind, subject, _ in trace.json_record_rows():
        if kind is EventKind.PHASE_START:
            open_runs.setdefault(subject, []).append(time)
        elif kind is EventKind.PHASE_END and open_runs.get(subject):
            out.append((subject, open_runs[subject].pop(0), time))
    return out

def _critical_path(trace: Trace, makespan: float, limit: int = 64) -> list[CriticalPathStep]:
    """Greedy backward chain: from the makespan, repeatedly step to the
    interval that finished last at-or-before the current time, then jump
    to its start.  The chain's durations plus waits tile the makespan, so
    a long ``wait_after`` names exactly where the end-to-end time leaked."""
    eps = 1e-12
    # (resource, start, end, category, label) rows of positive length,
    # by end, then start, then resource
    rows = sorted(
        (row for row in trace.interval_rows() if row[2] > row[1]),
        key=lambda row: (row[2], row[1], row[0]),
    )
    end_of = itemgetter(2)
    steps: list[CriticalPathStep] = []
    t = makespan
    n = len(rows)  # rows[:n] are the intervals that end at or before t
    while len(steps) < limit and t > eps:
        n = bisect_right(rows, t + eps, 0, n, key=end_of)
        pick = next((rows[k] for k in range(n - 1, -1, -1) if rows[k][1] < t - eps), None)
        if pick is None:
            break
        resource, start, end, category, label = pick
        steps.append(
            CriticalPathStep(
                resource=resource,
                category=category,
                label=label,
                start=start,
                end=end,
                wait_after=max(0.0, t - end),
            )
        )
        t = start
    steps.reverse()
    return steps


def build_waterfall(
    trace: Trace,
    n_workers: int,
    rundown_windows: Sequence[tuple[float, float]] = (),
    phase_windows: Sequence[tuple[str, float, float]] | None = None,
    phase_rundowns: Mapping[str, tuple[float, float]] | None = None,
    makespan: float | None = None,
) -> WaterfallReport:
    """Attribute every resource's time over ``[0, makespan)``.

    ``rundown_windows`` are the run-level rundown intervals, merged here
    (idle inside them becomes ``barrier_wait``); ``phase_windows`` are
    ``(name, start, end)`` rows for the per-phase table (derived from
    PHASE_START/PHASE_END records when omitted); ``phase_rundowns`` maps a
    phase row's name to its own rundown window for the ``rundown_idle``
    column.
    """
    span = makespan if makespan is not None else trace.makespan()
    retry_w = _retry_backoff_windows(trace)
    stall_w = _stall_windows(trace)
    rundown_w = merge_intervals(rundown_windows)

    workers = [f"P{i}" for i in range(n_workers)]
    worker_set = set(workers)
    resources = workers + [r for r in trace.resources() if r not in worker_set]
    # resource -> category -> merged spans; the resource rows and the
    # phase rows below all read these lists
    merged: dict[str, dict[str, Spans]] = {}
    rows: list[ResourceWaterfall] = []
    for name in resources:
        intervals = list(trace.interval_rows(name))
        by_cat = merged[name] = _merged_by_category(intervals)
        busy = {cat: _total(by_cat.get(cat, [])) for cat in BUSY_CATEGORIES}
        for cat in by_cat:  # off-taxonomy categories still count as busy
            if cat not in busy:
                busy[cat] = 0.0
        gaps = [(0.0, span)] if span > 0 else []
        for spans in by_cat.values():
            gaps = _subtract(gaps, spans)
        first_start = min((start for _, start, _, _, _ in intervals), default=span)
        idle: dict[str, float] = {}
        for cat, windows in (
            ("retry_backoff", retry_w),
            ("stall_wait", stall_w),
            ("barrier_wait", rundown_w),
            ("startup_wait", [(0.0, first_start)] if first_start > 0 else []),
        ):
            pieces = _intersect(gaps, windows)
            idle[cat] = _total(pieces)
            gaps = _subtract(gaps, windows)
        idle["idle"] = _total(gaps)
        rows.append(ResourceWaterfall(resource=name, busy=busy, idle=idle))

    if phase_windows is None:
        phase_windows = _paired_phase_windows(trace)
    phase_rows: list[PhaseWaterfallRow] = []
    for name, start, end in phase_windows:
        if end <= start:
            continue
        cat_busy = {c: 0.0 for c in BUSY_CATEGORIES}
        worker_busy_in_window = 0.0
        for res in resources:
            by_cat = merged[res]
            for cat in BUSY_CATEGORIES:
                seconds = _window_total(by_cat.get(cat, []), start, end)
                cat_busy[cat] += seconds
                if cat == "compute" and res in worker_set:
                    worker_busy_in_window += seconds
        idle = max(0.0, n_workers * (end - start) - worker_busy_in_window)
        rundown_idle = 0.0
        rd = (phase_rundowns or {}).get(name)
        if rd is not None and rd[1] > rd[0]:
            rd_busy = 0.0
            for res in workers:
                rd_busy += _window_total(merged[res].get("compute", []), rd[0], rd[1])
            rundown_idle = max(0.0, n_workers * (rd[1] - rd[0]) - rd_busy)
        phase_rows.append(
            PhaseWaterfallRow(
                phase=name,
                start=start,
                end=end,
                compute=cat_busy["compute"],
                mgmt=cat_busy["mgmt"],
                serial=cat_busy["serial"],
                idle=idle,
                rundown_idle=rundown_idle,
            )
        )

    return WaterfallReport(
        makespan=span,
        n_workers=n_workers,
        resources=rows,
        phases=phase_rows,
        critical_path=_critical_path(trace, span),
    )


def analyze_run(result: Any) -> WaterfallReport:
    """Waterfall of a live :class:`~repro.executive.scheduler.RunResult`."""
    phase_windows: list[tuple[str, float, float]] = []
    phase_rundowns: dict[str, tuple[float, float]] = {}
    rundown: Spans = []  # every run's window; build_waterfall merges them
    for s in result.phase_stats:
        window = s.rundown_window
        if window is not None:
            rundown.append(window)
        start = s.init_time if s.init_time is not None else s.first_task_start
        if start is None or s.complete_time is None:
            continue
        phase_windows.append((s.name, start, s.complete_time))
        if window is not None:
            phase_rundowns[s.name] = window
    return build_waterfall(
        result.trace,
        result.n_workers,
        rundown_windows=rundown,
        phase_windows=phase_windows,
        phase_rundowns=phase_rundowns,
        makespan=result.makespan,
    )


def analyze_saved(data: Mapping[str, Any]) -> WaterfallReport:
    """Waterfall of a saved run (``repro simulate --save`` JSON).

    Accepts either the full ``{"summary": ..., "trace": ...}`` document or
    a bare trace dict; with only a trace, phase windows are recovered from
    PHASE_START/PHASE_END records and rundown windows are unavailable
    (their idle lands in ``idle``), so prefer the full document.
    """
    from repro.sim.persist import trace_from_dict

    if not isinstance(data, Mapping):
        raise ValueError(f"saved run is a {type(data).__name__}, not an object")
    if "trace" in data or "summary" in data:
        trace = trace_from_dict(data.get("trace", {}))
        summary = data.get("summary", {})
    else:
        trace = trace_from_dict(dict(data))
        summary = {}
    resources = trace.resources()
    inferred = sum(1 for r in resources if r.startswith("P") and r[1:].isdigit())
    n_workers = int(summary.get("n_workers", inferred or len(resources) or 1))
    phase_windows: list[tuple[str, float, float]] | None = None
    phase_rundowns: dict[str, tuple[float, float]] = {}
    rundown: Spans = []
    if summary.get("phases"):
        phase_windows = []
        for p in summary["phases"]:
            start = p.get("init_time")
            if start is None:
                start = p.get("first_task_start")
            if start is None or p.get("complete_time") is None:
                continue
            phase_windows.append((p["name"], float(start), float(p["complete_time"])))
            la, ct = p.get("last_assign_time"), p.get("complete_time")
            if la is not None and ct is not None and ct > la:
                rundown.append((float(la), float(ct)))
                phase_rundowns[p["name"]] = (float(la), float(ct))
    return build_waterfall(
        trace,
        n_workers,
        rundown_windows=rundown,
        phase_windows=phase_windows,
        phase_rundowns=phase_rundowns,
        makespan=float(summary["makespan"]) if "makespan" in summary else None,
    )


# ---------------------------------------------------------------- pool profiling
#: Attribution categories the pool profiler reports; ``compute`` is the
#: useful one, the rest are overheads ranked by :meth:`PoolProfile.overheads`.
POOL_CATEGORIES = ("compute", "queue_wait", "serialization", "warmup")

_WORKER_INIT_WALL: float | None = None
_WORKER_INIT_PID: int | None = None


def _profile_worker_init() -> None:
    """Pool initializer: stamp when this worker process became ready."""
    global _WORKER_INIT_WALL, _WORKER_INIT_PID
    _WORKER_INIT_WALL = time.perf_counter()
    _WORKER_INIT_PID = os.getpid()


def _profiled_call(fn: Callable[..., Any], *args: Any) -> dict[str, Any]:
    """Worker-side task wrapper: run ``fn`` and wrap its result in a
    profile envelope.

    Also drains the process-local :func:`~repro.obs.metrics.worker_registry`
    — exactly once per completed task — so worker-side counters
    (``faults.*``, shm reattach counts) reach the parent instead of dying
    with the process.  Module-level, hence picklable, hence submittable.
    """
    from repro.obs.metrics import flush_counters, worker_registry

    pid = os.getpid()
    start = time.perf_counter()
    result = fn(*args)
    end = time.perf_counter()
    t0 = time.perf_counter()
    payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
    result_ser = time.perf_counter() - t0
    init_wall = _WORKER_INIT_WALL if _WORKER_INIT_PID == pid else None
    return {
        "__profile__": {
            "pid": pid,
            "worker_init_wall": init_wall if init_wall is not None else start,
            "start_wall": start,
            "end_wall": end,
            "compute_seconds": end - start,
            "result_bytes": len(payload),
            "result_ser_seconds": result_ser,
            "metrics": flush_counters(worker_registry()),
        },
        "result": result,
    }


@dataclass(frozen=True, slots=True)
class ProfiledTask:
    """One pool task's measured timeline and its wall-time attribution."""

    key: Any
    pid: int
    submit_wall: float
    start_wall: float
    end_wall: float
    recv_wall: float
    args_bytes: int
    args_ser_seconds: float
    result_bytes: int
    result_ser_seconds: float
    compute_seconds: float
    worker_init_wall: float
    first_on_worker: bool

    @property
    def wall_seconds(self) -> float:
        """Submit → result receipt, as the parent experienced it."""
        return max(0.0, self.recv_wall - self.submit_wall)

    def attribution(self) -> dict[str, float]:
        """Wall time split across :data:`POOL_CATEGORIES` (clipped ≥ 0).

        ``warmup`` is the slice of the pre-start gap spent waiting for the
        worker process itself to come up — carved out of the *first* task
        each worker ran, so process-start cost is counted once, not per
        task.  ``queue_wait`` is the rest of the pre-start gap net of the
        argument-serialization estimate; ``serialization`` sums argument
        and result pickling; ``compute`` is the worker-measured call
        duration.
        """
        pre = max(0.0, self.start_wall - self.submit_wall)
        warmup = 0.0
        if self.first_on_worker:
            warmup = min(pre, max(0.0, self.worker_init_wall - self.submit_wall))
        serialization = self.args_ser_seconds + self.result_ser_seconds
        queue_wait = max(0.0, pre - warmup - self.args_ser_seconds)
        return {
            "compute": self.compute_seconds,
            "queue_wait": queue_wait,
            "serialization": serialization,
            "warmup": warmup,
        }

    def to_dict(self) -> dict[str, Any]:
        return {
            "key": self.key if isinstance(self.key, (int, str)) else repr(self.key),
            "pid": self.pid,
            "wall_seconds": self.wall_seconds,
            "attribution": self.attribution(),
            "args_bytes": self.args_bytes,
            "result_bytes": self.result_bytes,
        }


@dataclass
class PoolProfile:
    """Aggregated pool-overhead attribution for one driver invocation."""

    what: str
    pool_workers: int
    elapsed_seconds: float
    tasks: list[ProfiledTask] = field(default_factory=list)

    def totals(self) -> dict[str, float]:
        out = {c: 0.0 for c in POOL_CATEGORIES}
        for t in self.tasks:
            for c, v in t.attribution().items():
                out[c] += v
        return out

    @property
    def wall_total(self) -> float:
        """Σ per-task wall time (task-seconds, not driver elapsed)."""
        return sum(t.wall_seconds for t in self.tasks)

    @property
    def coverage(self) -> float:
        """Fraction of measured wall time the categories account for."""
        wall = self.wall_total
        return min(1.0, sum(self.totals().values()) / wall) if wall > 0 else 1.0

    def overheads(self) -> list[tuple[str, float, float]]:
        """Non-compute categories as ``(name, seconds, share-of-wall)``,
        largest first — the ranked answer to "where did the speedup go"."""
        wall = self.wall_total
        rows = [
            (c, v, (v / wall if wall > 0 else 0.0))
            for c, v in self.totals().items()
            if c != "compute"
        ]
        rows.sort(key=lambda r: (-r[1], r[0]))
        return rows

    @property
    def worker_processes(self) -> int:
        return len({t.pid for t in self.tasks})

    def effective_workers(self) -> float:
        """Observed average concurrency over the tasks' compute spans.

        Σ(worker-measured task durations) / (last end − first start):
        the number of workers that were *actually* computing at once, as
        opposed to the configured pool width.  On a time-shared single
        core this still reads ≈ pool width (the kernel interleaves the
        workers), which is exactly the point — it measures dispatch
        overlap, not hardware parallelism; speedup measures the hardware.
        """
        spans = [
            (t.start_wall, t.end_wall) for t in self.tasks if t.end_wall > t.start_wall
        ]
        if not spans:
            return 1.0
        window = max(e for _, e in spans) - min(s for s, _ in spans)
        busy = sum(e - s for s, e in spans)
        return busy / window if window > 0 else float(len(spans))

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": "pool-profile",
            "what": self.what,
            "pool_workers": self.pool_workers,
            "effective_workers": self.effective_workers(),
            "worker_processes": self.worker_processes,
            "elapsed_seconds": self.elapsed_seconds,
            "task_count": len(self.tasks),
            "wall_total_seconds": self.wall_total,
            "coverage": self.coverage,
            "totals": self.totals(),
            "overheads": [
                {"category": c, "seconds": s, "share": f} for c, s, f in self.overheads()
            ],
            "args_bytes_total": sum(t.args_bytes for t in self.tasks),
            "result_bytes_total": sum(t.result_bytes for t in self.tasks),
            "tasks": [t.to_dict() for t in self.tasks],
        }

    def render_text(self) -> str:
        totals = self.totals()
        wall = self.wall_total
        lines = [
            f"pool profile: {len(self.tasks)} {self.what}s, "
            f"{self.pool_workers} pool workers ({self.worker_processes} processes seen), "
            f"elapsed={self.elapsed_seconds:.3f}s",
            f"  task wall time: {wall:.3f}s total, attribution coverage {self.coverage:.1%}",
        ]
        for cat in POOL_CATEGORIES:
            secs = totals[cat]
            share = secs / wall if wall > 0 else 0.0
            lines.append(f"    {cat:<13} {secs:>10.3f}s  ({share:6.1%})")
        lines.append(
            f"  serialized bytes: args={sum(t.args_bytes for t in self.tasks)} "
            f"results={sum(t.result_bytes for t in self.tasks)}"
        )
        ranked = self.overheads()
        if ranked:
            top = ", ".join(f"{c}={s:.3f}s" for c, s, _ in ranked)
            lines.append(f"  overheads (largest first): {top}")
        return "\n".join(lines)


def effective_workers_from_events(events: Sequence[Any]) -> float:
    """Observed concurrency from :class:`~repro.obs.events.PoolTaskCompleted`
    span overlap.

    Each event carries its unit's slice ``[started, finished)`` of the
    pool task's worker-measured busy span; the average concurrency is
    Σ(slice durations) / (overall window).  Events without a measured
    span (``started`` or ``finished`` negative — resumed units, old
    publishers) are skipped; with no measured span at all the answer is
    the serial 1.0.  This is the sweep-scaling benchmark's
    ``effective_workers``: derived from what actually overlapped, not
    from speedup or the configured pool width.
    """
    spans = [
        (float(e.started), float(e.finished))
        for e in events
        if getattr(e, "started", -1.0) >= 0 and e.finished > e.started
    ]
    if not spans:
        return 1.0
    window = max(e for _, e in spans) - min(s for s, _ in spans)
    busy = sum(e - s for s, e in spans)
    return busy / window if window > 0 else float(len(spans))


class PoolProfiler:
    """Parent-side pool-overhead collector for :func:`run_pool_tasks`.

    ``wrap`` stamps the submission and measures the argument pickle;
    ``record_result`` unwraps the worker's envelope, merges its flushed
    counters into :attr:`metrics`, and returns the undisturbed inner
    result — the driver's ``record`` callback never sees the envelope, so
    canonical reports are byte-identical with profiling on or off.
    """

    def __init__(self, metrics: Any | None = None) -> None:
        from repro.obs.metrics import MetricsRegistry

        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tasks: list[ProfiledTask] = []
        #: submissions whose envelope never came back before the same key
        #: was submitted again — the profiler's view of crash/hang salvage
        #: (each preempted or killed dispatch re-wraps its key)
        self.abandoned_submissions = 0
        self._t0 = time.perf_counter()
        self._pending: dict[Any, dict[str, Any]] = {}
        self._seen_pids: set[int] = set()
        self._own_pid = os.getpid()

    def wrap(
        self, key: Any, fn: Callable[..., Any], args: tuple[Any, ...]
    ) -> tuple[Callable[..., Any], tuple[Any, ...]]:
        """Route ``(fn, args)`` through :func:`_profiled_call`, stamping
        submission time and the argument-serialization cost."""
        t0 = time.perf_counter()
        try:
            nbytes = len(pickle.dumps((fn, args), protocol=pickle.HIGHEST_PROTOCOL))
            ser = time.perf_counter() - t0
        except Exception:
            # inline mode may carry process-local payloads (e.g. attached
            # shared-memory stores) that never cross a process boundary
            nbytes, ser = 0, 0.0
        if key in self._pending:
            # the previous dispatch of this key never returned an envelope —
            # its worker crashed or was preempted by the supervisor and the
            # salvage driver is resubmitting
            self.abandoned_submissions += 1
            self.metrics.counter(
                "pool.abandoned_submissions_total",
                "Profiled submissions preempted or lost before returning",
            ).inc()
        self._pending[key] = {
            "submit_wall": time.perf_counter(),
            "args_bytes": nbytes,
            "args_ser_seconds": ser,
        }
        return _profiled_call, (fn, *args)

    def record_result(self, key: Any, envelope: Any) -> Any:
        """Unwrap a worker envelope; returns the task's actual result."""
        if not (isinstance(envelope, dict) and "__profile__" in envelope):
            return envelope  # unprofiled submission (e.g. pre-wrap salvage)
        prof = envelope["__profile__"]
        pending = self._pending.pop(key, None)
        recv = time.perf_counter()
        if pending is not None:
            pid = int(prof["pid"])
            first = pid not in self._seen_pids and pid != self._own_pid
            self._seen_pids.add(pid)
            self.tasks.append(
                ProfiledTask(
                    key=key,
                    pid=pid,
                    submit_wall=pending["submit_wall"],
                    start_wall=float(prof["start_wall"]),
                    end_wall=float(prof["end_wall"]),
                    recv_wall=recv,
                    args_bytes=pending["args_bytes"],
                    args_ser_seconds=pending["args_ser_seconds"],
                    result_bytes=int(prof["result_bytes"]),
                    result_ser_seconds=float(prof["result_ser_seconds"]),
                    compute_seconds=float(prof["compute_seconds"]),
                    worker_init_wall=float(prof["worker_init_wall"]),
                    first_on_worker=first,
                )
            )
        from repro.obs.metrics import merge_counters

        merge_counters(self.metrics, prof.get("metrics", {}))
        return envelope["result"]

    def profile(self, what: str = "task", pool_workers: int = 1) -> PoolProfile:
        """Freeze the collected tasks into a :class:`PoolProfile`."""
        return PoolProfile(
            what=what,
            pool_workers=pool_workers,
            elapsed_seconds=time.perf_counter() - self._t0,
            tasks=list(self.tasks),
        )


# ---------------------------------------------------------------- profile report
@dataclass
class ProfileReport:
    """The combined profiling artifact ``repro sweep --profile`` writes."""

    pool: PoolProfile | None = None
    waterfall: WaterfallReport | None = None
    meta: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"kind": "profile-report", "meta": dict(self.meta)}
        if self.pool is not None:
            out["pool"] = self.pool.to_dict()
        if self.waterfall is not None:
            out["waterfall"] = self.waterfall.to_dict()
        return out

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def render_text(self) -> str:
        parts = []
        if self.pool is not None:
            parts.append(self.pool.render_text())
        if self.waterfall is not None:
            parts.append(self.waterfall.render_text())
        return "\n\n".join(parts) if parts else "profile report: empty"
