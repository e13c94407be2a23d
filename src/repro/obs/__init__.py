"""Observability: event bus, metrics registry, span tracing, exporters.

The paper's argument is a *measurement* argument — where does processor
time go while a phase runs down?  This package is the measurement
substrate the rest of the repository reports through:

* :mod:`repro.obs.events` — a structured, typed **event bus** fed by the
  threaded runtime (phase start/end, granule dispatch/complete/retry,
  worker idle/busy transitions) and by sweeps and grids (pool progress,
  hangs, degradation);
* :mod:`repro.obs.metrics` — a **metrics registry** of labelled
  counters, gauges and histograms with snapshot/reset semantics
  (``rundown.idle_seconds{processor}``, ``overlap.admitted_total``,
  ``scheduler.task_granules`` …);
* :mod:`repro.obs.spans` — **span-based tracing** with JSONL and Chrome
  trace-event (``chrome://tracing`` / Perfetto) exporters, unified with
  :class:`~repro.sim.trace.Trace` so simulated and wall-clock runs
  produce the same schema;
* :mod:`repro.obs.telemetry` — the :class:`Telemetry` bundle that wires
  the three together for the threaded runtime, and
  :func:`record_run_metrics`, which derives a simulated run's metrics
  from its finished trace.

The simulator publishes nothing while it runs and imports nothing from
this package.  See docs/OBSERVABILITY.md.
"""

from repro._lazy import lazy_exports

_EXPORTS, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        ".events": (
            "ObsEvent",
            "PhaseStarted",
            "PhaseEnded",
            "GranuleDispatched",
            "GranuleCompleted",
            "WorkerIdle",
            "WorkerBusy",
            "GranuleRetried",
            "PoolTaskCompleted",
            "PoolTaskHung",
            "PoolDegraded",
            "EventBus",
        ),
        ".metrics": (
            "Counter",
            "Gauge",
            "Histogram",
            "MetricsRegistry",
            "render_snapshot",
            "worker_registry",
            "flush_counters",
            "merge_counters",
        ),
        ".export": ("prometheus_text", "append_snapshot_jsonl"),
        ".profile": (
            "PoolProfile",
            "PoolProfiler",
            "ProfileReport",
            "WaterfallReport",
            "analyze_run",
            "analyze_saved",
            "effective_workers_from_events",
        ),
        ".progress": ("ProgressReporter", "format_progress", "format_stall", "format_degraded"),
        ".spans": (
            "Span",
            "SpanRecorder",
            "spans_from_trace",
            "iter_trace_spans",
            "instants_from_trace",
            "chrome_trace_events",
            "chrome_trace_from_trace",
            "export_chrome_trace",
            "export_jsonl",
            "load_jsonl",
            "iter_spans_jsonl",
            "write_chrome_trace_streaming",
        ),
        ".telemetry": (
            "Telemetry",
            "install_default_metrics",
            "record_run_metrics",
            "record_rundown_metrics",
            "record_sweep_metrics",
            "record_grid_metrics",
        ),
    },
)

__all__ = list(_EXPORTS)
