"""Rundown-window accounting.

A phase's *rundown* is the interval from the moment its last task is
assigned (no more current-phase work to hand out) to the moment its last
task completes.  In a strict-barrier system every processor that finishes
early in this window sits idle — "712 processors with nothing to do while
the final 288 computations are carried out".  With phase overlap the
window is filled by enabled successor-phase tasks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.executive.scheduler import RunResult
from repro.metrics.utilization import idle_processor_time, utilization_between
from repro.sim.trace import merge_intervals

__all__ = [
    "RundownReport",
    "rundown_report",
    "rundown_reports",
    "total_rundown_idle",
    "merged_rundown_windows",
    "rundown_idle_by_processor",
]


@dataclass(frozen=True, slots=True)
class RundownReport:
    """Rundown measurements for one phase run."""

    phase: str
    run_index: int
    window_start: float
    window_end: float
    #: Mean compute utilization inside the window (all phases' tasks count).
    utilization: float
    #: Processor-time wasted inside the window.
    idle_time: float

    @property
    def duration(self) -> float:
        return self.window_end - self.window_start


def rundown_report(result: RunResult, run_index: int) -> RundownReport | None:
    """Rundown report for one phase run; ``None`` if it had no window.

    A run whose last assignment coincides with its completion (e.g. a
    single-task phase finishing instantly) yields a zero-width window and
    returns ``None``.
    """
    stats = result.phase_stats[run_index]
    window = stats.rundown_window
    if window is None or window[1] <= window[0]:
        return None
    t0, t1 = window
    return RundownReport(
        phase=stats.name,
        run_index=run_index,
        window_start=t0,
        window_end=t1,
        utilization=utilization_between(result.trace, result.n_workers, t0, t1),
        idle_time=idle_processor_time(result.trace, result.n_workers, t0, t1),
    )


def rundown_reports(result: RunResult) -> list[RundownReport]:
    """Rundown reports for every phase run that had a rundown window."""
    out = []
    for i in range(len(result.phase_stats)):
        r = rundown_report(result, i)
        if r is not None:
            out.append(r)
    return out


def merged_rundown_windows(result: RunResult) -> list[tuple[float, float]]:
    """The run's rundown windows, merged into disjoint intervals.

    Overlapping windows (a successor's rundown can begin inside its
    predecessor's) are merged so downstream accounting does not double
    count the shared stretch.
    """
    return merge_intervals(
        (r.window_start, r.window_end) for r in rundown_reports(result)
    )


def total_rundown_idle(result: RunResult) -> float:
    """Processor-time wasted across all rundown windows (merged)."""
    return sum(
        idle_processor_time(result.trace, result.n_workers, s, e)
        for s, e in merged_rundown_windows(result)
    )


def rundown_idle_by_processor(result: RunResult) -> dict[str, float]:
    """Idle time inside the merged rundown windows, attributed per worker.

    For each worker ``P0 … P{n-1}`` this is the merged-window time minus
    its compute time clipped to those windows.  Management work on a
    shared executive host counts as idle, matching
    :func:`~repro.metrics.utilization.idle_processor_time` — the paper's
    concern is *productive* computation.  The values sum to
    :func:`total_rundown_idle` (up to float rounding).
    """
    windows = merged_rundown_windows(result)
    total_window = sum(e - s for s, e in windows)
    out: dict[str, float] = {}
    for i in range(result.n_workers):
        name = f"P{i}"
        busy = 0.0
        for t0, t1 in windows:
            clipped = [
                (max(start, t0), min(end, t1))
                for _, start, end, _, _ in result.trace.interval_rows(name, "compute")
                if start < t1 and end > t0
            ]
            busy += sum(e - s for s, e in merge_intervals(clipped))
        out[name] = max(0.0, total_window - busy)
    return out
