"""Processor-utilization measures over simulation traces.

The paper's central quantity is how many processors are doing productive
computation at any instant, especially while a phase runs down.  All
functions here operate on the exact interval data recorded by
:class:`~repro.sim.trace.Trace` — no sampling error.
"""

from __future__ import annotations

import numpy as np

from repro.sim.trace import Trace, merge_intervals, utilization_timeline

__all__ = [
    "mean_utilization",
    "utilization_between",
    "idle_processor_time",
    "busy_counts_at",
]


def _worker_resources(trace: Trace) -> list[str]:
    return [r for r in trace.resources() if r.startswith("P")]


def mean_utilization(trace: Trace, n_workers: int) -> float:
    """Mean fraction of worker capacity spent computing over the whole run."""
    span = trace.makespan()
    if span <= 0:
        return 0.0
    compute = sum(trace.busy_time(r, "compute") for r in _worker_resources(trace))
    return compute / (n_workers * span)


def utilization_between(trace: Trace, n_workers: int, t0: float, t1: float) -> float:
    """Mean compute utilization inside the window ``[t0, t1)``.

    This is the quantity that exposes rundown: a strict-barrier run shows
    a deep utilization dip in each phase's final window, an overlapped
    run does not.
    """
    if t1 <= t0:
        raise ValueError(f"empty or inverted window [{t0}, {t1})")
    busy = 0.0
    for r in _worker_resources(trace):
        spans = [
            (max(start, t0), min(end, t1))
            for _, start, end, _, _ in trace.interval_rows(r, "compute")
            if start < t1 and end > t0
        ]
        busy += sum(e - s for s, e in merge_intervals(spans))
    return busy / (n_workers * (t1 - t0))


def idle_processor_time(trace: Trace, n_workers: int, t0: float | None = None, t1: float | None = None) -> float:
    """Total processor-time NOT spent computing in the window.

    Management time on a shared executive host counts as idle here —
    deliberately: the paper's utilization concern is *productive*
    computation ("the waste of computing resources").
    """
    if t0 is None:
        t0 = 0.0
    if t1 is None:
        t1 = trace.makespan()
    if t1 <= t0:
        return 0.0
    return n_workers * (t1 - t0) * (1.0 - utilization_between(trace, n_workers, t0, t1))


def busy_counts_at(trace: Trace, times: np.ndarray) -> np.ndarray:
    """Number of computing processors at each query time.

    Query times exactly at an interval boundary report the state just
    after the boundary (right-continuous step function).
    """
    ts, counts = utilization_timeline(trace, n_processors=0)
    times = np.asarray(times, dtype=float)
    idx = np.searchsorted(ts, times, side="right") - 1
    out = np.zeros(len(times), dtype=int)
    valid = idx >= 0
    out[valid] = counts[idx[valid]]
    return out
