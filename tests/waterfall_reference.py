"""Reference idle waterfall: the straightforward per-phase re-merge.

:func:`repro.obs.profile.build_waterfall` merges each resource's
intervals once per category and sums every phase and rundown window by
bisecting into those lists.  This module keeps the plain version it
replaced, which re-merges every resource's intervals for every phase
row, scans every cut for every span, and re-filters the critical path's
candidate list on each step; :func:`reference_analyze_run` takes the
rundown windows from the metrics layer's rundown reports.
``tests/test_profile.py`` checks that both produce byte-identical
reports.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from repro.metrics.rundown import merged_rundown_windows
from repro.obs.profile import (
    BUSY_CATEGORIES,
    CriticalPathStep,
    PhaseWaterfallRow,
    ResourceWaterfall,
    Spans,
    WaterfallReport,
    _paired_phase_windows,
    _retry_backoff_windows,
    _stall_windows,
)
from repro.sim.trace import Trace, merge_intervals


def _subtract(spans: Spans, cuts: Spans) -> Spans:
    out: Spans = []
    for s, e in spans:
        lo = s
        for cs, ce in cuts:
            if ce <= lo or cs >= e:
                continue
            if cs > lo:
                out.append((lo, cs))
            lo = max(lo, ce)
            if lo >= e:
                break
        if lo < e:
            out.append((lo, e))
    return out


def _intersect(spans: Spans, windows: Spans) -> Spans:
    out: Spans = []
    for s, e in spans:
        for ws, we in windows:
            lo, hi = max(s, ws), min(e, we)
            if hi > lo:
                out.append((lo, hi))
    return out


def _total(spans: Spans) -> float:
    return sum(e - s for s, e in spans)


def _critical_path(trace: Trace, makespan: float, limit: int = 64) -> list[CriticalPathStep]:
    eps = 1e-12
    ivs = sorted(
        (iv for iv in trace.intervals() if iv.duration > 0),
        key=lambda iv: (iv.end, iv.start, iv.resource),
    )
    steps: list[CriticalPathStep] = []
    t = makespan
    while ivs and len(steps) < limit and t > eps:
        pick = None
        for iv in reversed(ivs):
            if iv.end <= t + eps and iv.start < t - eps:
                pick = iv
                break
        if pick is None:
            break
        steps.append(
            CriticalPathStep(
                resource=pick.resource,
                category=pick.category,
                label=pick.label,
                start=pick.start,
                end=pick.end,
                wait_after=max(0.0, t - pick.end),
            )
        )
        t = pick.start
        ivs = [iv for iv in ivs if iv.end <= t + eps]
    steps.reverse()
    return steps


def reference_build_waterfall(
    trace: Trace,
    n_workers: int,
    rundown_windows: Sequence[tuple[float, float]] = (),
    phase_windows: Sequence[tuple[str, float, float]] | None = None,
    phase_rundowns: Mapping[str, tuple[float, float]] | None = None,
    makespan: float | None = None,
) -> WaterfallReport:
    """Same signature and result as :func:`repro.obs.profile.build_waterfall`."""
    span = makespan if makespan is not None else trace.makespan()
    retry_w = _retry_backoff_windows(trace)
    stall_w = _stall_windows(trace)
    rundown_w = merge_intervals(rundown_windows)

    workers = [f"P{i}" for i in range(n_workers)]
    others = [r for r in trace.resources() if r not in set(workers)]
    rows: list[ResourceWaterfall] = []
    for name in workers + others:
        ivs = list(trace.intervals(name))
        busy = {
            cat: _total(merge_intervals((iv.start, iv.end) for iv in ivs if iv.category == cat))
            for cat in BUSY_CATEGORIES
        }
        for iv in ivs:
            if iv.category not in busy:
                busy[iv.category] = busy.get(iv.category, 0.0)
        busy_merged = merge_intervals((iv.start, iv.end) for iv in ivs)
        gaps = _subtract([(0.0, span)], busy_merged) if span > 0 else []
        first_start = min((iv.start for iv in ivs), default=span)
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
        window = [(start, end)]
        cat_busy = {c: 0.0 for c in BUSY_CATEGORIES}
        worker_busy_in_window = 0.0
        for res in workers + others:
            ivs = list(trace.intervals(res))
            for cat in BUSY_CATEGORIES:
                merged = merge_intervals(
                    (iv.start, iv.end) for iv in ivs if iv.category == cat
                )
                cat_busy[cat] += _total(_intersect(merged, window))
            if res in set(workers):
                worker_busy_in_window += _total(
                    _intersect(
                        merge_intervals(
                            (iv.start, iv.end) for iv in ivs if iv.category == "compute"
                        ),
                        window,
                    )
                )
        idle = max(0.0, n_workers * (end - start) - worker_busy_in_window)
        rundown_idle = 0.0
        rd = (phase_rundowns or {}).get(name)
        if rd is not None and rd[1] > rd[0]:
            rd_window = [rd]
            rd_busy = 0.0
            for res in workers:
                rd_busy += _total(
                    _intersect(
                        merge_intervals(
                            (iv.start, iv.end)
                            for iv in trace.intervals(res)
                            if iv.category == "compute"
                        ),
                        rd_window,
                    )
                )
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


def reference_analyze_run(result: Any) -> WaterfallReport:
    """Same result as :func:`repro.obs.profile.analyze_run`."""
    phase_windows: list[tuple[str, float, float]] = []
    phase_rundowns: dict[str, tuple[float, float]] = {}
    for s in result.phase_stats:
        start = s.init_time if s.init_time is not None else s.first_task_start
        if start is None or s.complete_time is None:
            continue
        phase_windows.append((s.name, start, s.complete_time))
        window = s.rundown_window
        if window is not None:
            phase_rundowns[s.name] = window
    return reference_build_waterfall(
        result.trace,
        result.n_workers,
        rundown_windows=merged_rundown_windows(result),
        phase_windows=phase_windows,
        phase_rundowns=phase_rundowns,
        makespan=result.makespan,
    )
