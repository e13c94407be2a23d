"""The :class:`Telemetry` bundle and the run metrics.

``Telemetry`` groups the three observability primitives — event bus,
metrics registry, span recorder — into the one object the threaded
runtime accepts.  By default it installs the standard subscriptions that
turn bus events into registry updates, so an instrumented threaded run
yields a ready-to-print metrics snapshot.

The simulator publishes nothing while it runs.  :func:`record_run_metrics`
derives the same counters and histograms from a finished
:class:`~repro.executive.scheduler.RunResult`: its trace rows and the
counts the result keeps.  :func:`record_rundown_metrics` adds the paper's
headline measurements (per-processor rundown idle time, run summary
gauges), which are exact interval computations over the trace.  Both
metric paths create their metrics from one table, :data:`RUN_METRICS`.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, NamedTuple

from repro.obs.events import (
    EventBus,
    GranuleCompleted,
    GranuleDispatched,
    GranuleRetried,
    PhaseEnded,
    PhaseStarted,
    Subscription,
    WorkerBusy,
    WorkerIdle,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanRecorder
from repro.sim.events import EventKind, parse_granule_ranges, parse_task_label

if TYPE_CHECKING:  # pragma: no cover
    from repro.executive.scheduler import RunResult
    from repro.sweep.grid import GridReport
    from repro.sweep.runner import SweepReport

__all__ = [
    "RUN_METRICS",
    "MetricDef",
    "Telemetry",
    "install_default_metrics",
    "record_run_metrics",
    "record_rundown_metrics",
    "record_sweep_metrics",
    "record_grid_metrics",
]


class MetricDef(NamedTuple):
    """What a metric name means: its kind, help text, label names and,
    for a histogram, its bucket bounds."""

    kind: str
    help: str
    labels: tuple[str, ...] = ()
    buckets: tuple[float, ...] | None = None


def _counter(help: str, *labels: str) -> MetricDef:
    return MetricDef("counter", help, labels)


#: Every counter and histogram a run yields, by name.  The live
#: subscriptions of :func:`install_default_metrics` and the post-run
#: derivation of :func:`record_run_metrics` both create their metrics
#: from here.  Names are stable API — docs/OBSERVABILITY.md lists them.
RUN_METRICS: dict[str, MetricDef] = {
    "scheduler.tasks_dispatched_total": _counter("task chunks handed to workers", "phase"),
    "scheduler.granules_dispatched_total": _counter("granules handed out", "phase"),
    "scheduler.task_granules": MetricDef(
        "histogram",
        "granules per dispatched task",
        buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512),
    ),
    "scheduler.tasks_completed_total": _counter("task chunks finished", "phase"),
    "scheduler.granules_completed_total": _counter("granules finished", "phase"),
    "scheduler.splits_total": _counter("description splits performed", "kind"),
    "scheduler.elevated_descriptions_total": _counter(
        "enabling granules split out and priority-elevated", "phase"
    ),
    "overlap.admitted_total": _counter("phase overlaps admitted", "mapping_kind"),
    "overlap.rejected_total": _counter("phase overlaps declined", "reason"),
    "worker.idle_transitions_total": _counter("worker busy→idle transitions", "processor"),
    "worker.busy_transitions_total": _counter(
        "worker idle→busy transitions", "processor", "activity"
    ),
    "phase.started_total": _counter("phase runs initiated", "phase"),
    "phase.ended_total": _counter("phase runs completed", "phase"),
    "executive.actions_total": _counter("management jobs finished", "action"),
    "executive.busy_seconds": _counter("executive server busy time", "server"),
    "faults.processor_crashes_total": _counter("worker processors lost", "processor"),
    "faults.retries_total": _counter("task retries performed", "phase", "reason"),
    "faults.phase_stalls_total": _counter(
        "barrier-watchdog stall detections", "phase", "action"
    ),
    "sim.events_processed_total": _counter("discrete events executed"),
}


def _register(registry: MetricsRegistry, name: str):
    """The metric ``name`` in ``registry``, created from :data:`RUN_METRICS`."""
    d = RUN_METRICS[name]
    if d.kind == "histogram":
        return registry.histogram(name, d.help, buckets=d.buckets)
    return registry.counter(name, d.help)


class Telemetry:
    """Event bus + metrics registry + span recorder, wired together.

    Parameters
    ----------
    bus:
        The event bus, or ``None`` for a fresh :class:`EventBus`.
    metrics, spans:
        Pre-existing registry/recorder to share, or ``None`` for fresh.
    wire_metrics:
        Install the default event→metric subscriptions (see
        :func:`install_default_metrics`).
    """

    def __init__(
        self,
        bus: EventBus | None = None,
        metrics: MetricsRegistry | None = None,
        spans: SpanRecorder | None = None,
        wire_metrics: bool = True,
    ) -> None:
        self.bus = bus if bus is not None else EventBus()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.spans = spans if spans is not None else SpanRecorder()
        self.subscriptions: list[Subscription] = []
        if wire_metrics:
            self.subscriptions = install_default_metrics(self)

    def reset(self) -> None:
        """Clear metric series and recorded spans (subscriptions persist)."""
        self.metrics.reset()
        self.spans.clear()


def install_default_metrics(telemetry: Telemetry) -> list[Subscription]:
    """Subscribe the standard metric updates to the telemetry's bus.

    Covers the events the threaded runtime publishes; returns the
    subscriptions so callers can detach them.
    """
    m = telemetry.metrics
    dispatched = _register(m, "scheduler.tasks_dispatched_total")
    dispatched_granules = _register(m, "scheduler.granules_dispatched_total")
    task_size = _register(m, "scheduler.task_granules")
    completed = _register(m, "scheduler.tasks_completed_total")
    completed_granules = _register(m, "scheduler.granules_completed_total")
    idle_trans = _register(m, "worker.idle_transitions_total")
    busy_trans = _register(m, "worker.busy_transitions_total")
    phases_started = _register(m, "phase.started_total")
    phases_ended = _register(m, "phase.ended_total")
    retries = _register(m, "faults.retries_total")

    bus = telemetry.bus
    return [
        bus.subscribe(
            GranuleDispatched,
            lambda e: (
                dispatched.inc(phase=e.phase),
                dispatched_granules.inc(e.n_granules, phase=e.phase),
                task_size.observe(e.n_granules),
            ),
        ),
        bus.subscribe(
            GranuleCompleted,
            lambda e: (
                completed.inc(phase=e.phase),
                completed_granules.inc(e.n_granules, phase=e.phase),
            ),
        ),
        bus.subscribe(WorkerIdle, lambda e: idle_trans.inc(processor=e.processor)),
        bus.subscribe(
            WorkerBusy, lambda e: busy_trans.inc(processor=e.processor, activity=e.activity)
        ),
        bus.subscribe(PhaseStarted, lambda e: phases_started.inc(phase=e.phase)),
        bus.subscribe(PhaseEnded, lambda e: phases_ended.inc(phase=e.phase)),
        bus.subscribe(
            GranuleRetried, lambda e: retries.inc(phase=e.phase, reason=e.reason)
        ),
    ]


def _task_phase_and_size(label: str) -> tuple[str, int]:
    task = parse_task_label(label)
    if task is None:
        raise ValueError(f"not a task label: {label!r}")
    phase, _run, ranges = task
    return phase, sum(hi - lo for lo, hi in ranges)


def _action_of(label: str) -> str:
    """Management job labels are ``action:detail``; bucket by the action."""
    return label.split(":", 1)[0] if label else "unlabelled"


def record_run_metrics(result: "RunResult", registry: MetricsRegistry) -> None:
    """Add a finished simulated run's counters and histograms to ``registry``.

    Registers every metric of :data:`RUN_METRICS` and derives its series
    after the run:

    * the task records give dispatches (``TASK_START``), finished
      attempts (``TASK_END``) and tasks lost to a crash (``TASK_LOST``,
      each reassigned once by the watchdog), with their granule counts;
    * the closed intervals give each worker's busy transitions (one per
      interval, by category) and idle transitions (the same, less the
      tasks its crash lost), and each executive server's jobs and busy
      time;
    * the ``TASK_RETRY``, ``PROCESSOR_FAILED`` and ``PHASE_STALLED``
      records give the fault counts; a transiently failed attempt
      completes nothing;
    * ``result`` gives the phase runs, the admission verdicts, the split
      and elevation counts and the number of events executed.

    Counters add, so recording several runs into one registry sums them.
    """
    for name in RUN_METRICS:
        _register(registry, name)
    task_size = registry.get("scheduler.task_granules")
    # label values -> amount, per counter
    counts = {name: Counter() for name, d in RUN_METRICS.items() if d.kind == "counter"}
    dispatched = counts["scheduler.tasks_dispatched_total"]
    dispatched_granules = counts["scheduler.granules_dispatched_total"]
    retries = counts["faults.retries_total"]
    ended, ended_granules, failed, failed_granules = Counter(), Counter(), Counter(), Counter()
    lost_on = Counter()

    trace = result.trace
    tasks: dict[str, tuple[str, int]] = {}
    for _time, kind, subject, label in trace.task_rows():
        task = tasks.get(label)
        if task is None:
            task = tasks[label] = _task_phase_and_size(label)
        phase, n = task
        if kind is EventKind.TASK_START:
            dispatched[phase,] += 1
            dispatched_granules[phase,] += n
            task_size.observe(n)
        elif kind is EventKind.TASK_END:
            ended[phase,] += 1
            ended_granules[phase,] += n
        else:
            retries[phase, "crash"] += 1
            lost_on[subject,] += 1
    for rec in trace.records_of(EventKind.TASK_RETRY):
        retries[rec.subject, rec.detail["reason"]] += 1
        failed[rec.subject,] += 1
        ranges = parse_granule_ranges(rec.detail["granules"])
        failed_granules[rec.subject,] += sum(hi - lo for lo, hi in ranges)
    # Counter subtraction keeps only positive counts, as a live counter
    # that was never incremented has no series
    counts["scheduler.tasks_completed_total"] = ended - failed
    counts["scheduler.granules_completed_total"] = ended_granules - failed_granules
    for rec in trace.records_of(EventKind.PROCESSOR_FAILED):
        counts["faults.processor_crashes_total"][rec.subject,] += 1
    for rec in trace.records_of(EventKind.PHASE_STALLED):
        counts["faults.phase_stalls_total"][rec.subject, rec.detail["action"]] += 1

    workers = {f"P{i}" for i in range(result.n_workers)}
    busy, idle = counts["worker.busy_transitions_total"], Counter()
    actions = counts["executive.actions_total"]
    busy_seconds = counts["executive.busy_seconds"]
    for resource, start, end, category, label in trace.interval_rows():
        if resource in workers:
            busy[resource, category] += 1
            idle[resource,] += 1
        else:
            actions[_action_of(label),] += 1
            busy_seconds[resource,] += end - start
    counts["worker.idle_transitions_total"] = idle - lost_on

    for d in result.admission_decisions:
        if d.admitted:
            counts["overlap.admitted_total"][d.mapping_kind or "unknown",] += 1
        else:
            counts["overlap.rejected_total"][d.reason,] += 1
    splits = counts["scheduler.splits_total"]
    elevated = counts["scheduler.elevated_descriptions_total"]
    for s in result.phase_stats:
        counts["phase.started_total"][s.name,] += 1
        if s.complete_time is not None:
            counts["phase.ended_total"][s.name,] += 1
        if s.demand_splits:
            splits["demand",] += s.demand_splits
        if s.elevated:
            splits["elevation",] += s.elevated
            elevated[s.name,] += s.elevated
    counts["sim.events_processed_total"][()] = result.events_processed

    for name, series in counts.items():
        counter, labels = registry.get(name), RUN_METRICS[name].labels
        for key, amount in series.items():
            counter.inc(amount, **dict(zip(labels, key)))


def record_rundown_metrics(result: "RunResult", registry: MetricsRegistry) -> None:
    """Load a finished run's rundown attribution into ``registry``.

    Sets (gauges, so re-recording is idempotent):

    * ``rundown.idle_seconds{processor}`` — processor-time not computing
      inside the merged rundown windows (the paper's wasted final-wave
      capacity, attributed per processor);
    * ``rundown.window_seconds`` — total merged rundown window length;
    * ``run.makespan`` / ``run.utilization`` / ``run.compute_seconds`` /
      ``run.mgmt_seconds`` — whole-run summary gauges.
    """
    # imported here: it loads the executive and numpy, which the threaded
    # runtime and the sweep code that import this module do not need
    from repro.metrics.rundown import merged_rundown_windows, rundown_idle_by_processor

    idle = rundown_idle_by_processor(result)
    idle_gauge = registry.gauge(
        "rundown.idle_seconds", "idle processor-time inside rundown windows"
    )
    for processor, seconds in idle.items():
        idle_gauge.set(seconds, processor=processor)
    windows = merged_rundown_windows(result)
    registry.gauge("rundown.window_seconds", "merged rundown window length").set(
        sum(e - s for s, e in windows)
    )
    registry.gauge("run.makespan", "simulation finish time").set(result.makespan)
    registry.gauge("run.utilization", "mean worker compute utilization").set(
        result.utilization
    )
    registry.gauge("run.compute_seconds", "total productive compute time").set(
        result.compute_time
    )
    registry.gauge("run.mgmt_seconds", "total executive busy time").set(result.mgmt_time)


def record_sweep_metrics(report: "SweepReport", registry: MetricsRegistry) -> None:
    """Load a sweep report into ``registry`` with per-replication labels.

    Every series carries a ``replication`` label (stream-level series add
    ``stream``) so ``repro stats --sweep`` — or any snapshot consumer —
    can aggregate across a whole replication fan the same way it reads a
    single run.  Gauges throughout: re-recording a report is idempotent.

    * ``sweep.utilization{replication}`` / ``sweep.makespan{replication}``
      — per-replication headline results;
    * ``sweep.tasks{replication}`` / ``sweep.granules{replication}`` —
      work executed per replication;
    * ``sweep.mgmt_seconds{replication}`` — executive overhead;
    * ``sweep.stream_wall_clock{replication, stream}`` — per-job-stream
      elapsed time (the paper's batch-environment stretch quantity);
    * ``sweep.overlaps_admitted{replication}`` — admitted phase overlaps.
    """
    util = registry.gauge("sweep.utilization", "per-replication worker utilization")
    span = registry.gauge("sweep.makespan", "per-replication simulation finish time")
    tasks = registry.gauge("sweep.tasks", "per-replication task count")
    granules = registry.gauge("sweep.granules", "per-replication granule count")
    mgmt = registry.gauge("sweep.mgmt_seconds", "per-replication executive busy time")
    wall = registry.gauge(
        "sweep.stream_wall_clock", "per-stream elapsed time within a replication"
    )
    admitted = registry.gauge(
        "sweep.overlaps_admitted", "per-replication admitted phase overlaps"
    )
    for rep in report.replications:
        r = str(rep["replication"])
        util.set(rep["utilization"], replication=r)
        span.set(rep["makespan"], replication=r)
        tasks.set(rep["tasks_executed"], replication=r)
        granules.set(rep["granules_executed"], replication=r)
        mgmt.set(rep["mgmt_time"], replication=r)
        admitted.set(
            sum(1 for a in rep["admissions"] if a["admitted"]), replication=r
        )
        for s in rep["streams"]:
            wall.set(s["wall_clock"], replication=r, stream=str(s["stream"]))


def record_grid_metrics(report: "GridReport", registry: MetricsRegistry) -> None:
    """Load a grid report into ``registry`` with per-axis labels.

    The grid analogue of :func:`record_sweep_metrics`: every series
    carries one label *per grid axis* (``sim_workers="4"``,
    ``overlap="True"``, …) plus ``replication``, so snapshot consumers
    can slice results along any swept dimension without re-parsing the
    report.  Gauges throughout — re-recording is idempotent.

    * ``grid.utilization{axes..., replication}`` / ``grid.makespan{...}``
      — per-cell headline results;
    * ``grid.tasks{...}`` / ``grid.granules{...}`` — work executed;
    * ``grid.mgmt_seconds{...}`` — executive overhead per cell;
    * ``grid.overlaps_admitted{...}`` — admitted phase overlaps.
    """
    util = registry.gauge("grid.utilization", "per-cell worker utilization")
    span = registry.gauge("grid.makespan", "per-cell simulation finish time")
    tasks = registry.gauge("grid.tasks", "per-cell task count")
    granules = registry.gauge("grid.granules", "per-cell granule count")
    mgmt = registry.gauge("grid.mgmt_seconds", "per-cell executive busy time")
    admitted = registry.gauge(
        "grid.overlaps_admitted", "per-cell admitted phase overlaps"
    )
    for cell in report.cells:
        labels = {k: str(v) for k, v in cell["point"].items()}
        labels["replication"] = str(cell["replication"])
        util.set(cell["utilization"], **labels)
        span.set(cell["makespan"], **labels)
        tasks.set(cell["tasks_executed"], **labels)
        granules.set(cell["granules_executed"], **labels)
        mgmt.set(cell["mgmt_time"], **labels)
        admitted.set(sum(1 for a in cell["admissions"] if a["admitted"]), **labels)
