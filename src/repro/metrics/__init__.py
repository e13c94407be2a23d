"""Measurement layer: utilization, rundown accounting, text reports.

Everything here is a pure function of a finished
:class:`~repro.executive.scheduler.RunResult` (or its
:class:`~repro.sim.trace.Trace`) — no simulation state is mutated.
"""

from repro._lazy import lazy_exports

_EXPORTS, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        ".gantt": ("render_gantt",),
        ".ascii_plot": ("bar_chart", "line_plot"),
        ".utilization": (
            "mean_utilization",
            "utilization_between",
            "idle_processor_time",
            "busy_counts_at",
        ),
        ".rundown": (
            "RundownReport",
            "rundown_report",
            "rundown_reports",
            "total_rundown_idle",
            "merged_rundown_windows",
            "rundown_idle_by_processor",
        ),
        ".report": ("format_table", "census_table", "comparison_table"),
    },
)

__all__ = list(_EXPORTS)
