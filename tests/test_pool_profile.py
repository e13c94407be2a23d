"""Tests for pool-overhead profiling and live progress streaming.

Two load-bearing properties:

* **Byte-identity** — a sweep/grid's canonical JSON report is identical
  with profiling enabled or disabled; the profiler observes through a
  result envelope the driver unwraps before the record callback runs.
* **Exactly-once counters** — worker-side counter deltas flush once per
  task and merge associatively into the parent registry.
"""

from __future__ import annotations

import io

import pytest

from repro.obs import (
    EventBus,
    MetricsRegistry,
    PoolProfiler,
    PoolTaskCompleted,
    ProfileReport,
    ProgressReporter,
    flush_counters,
    format_progress,
    merge_counters,
    worker_registry,
)
from repro.sweep import GridSpec, SweepSpec, WarmPool, parse_axis, run_grid, run_sweep

SPEC = SweepSpec("identity", replications=3, seed=7, sim_workers=4)


class TestSweepByteIdentity:
    def test_profiled_pool_sweep_matches_plain_inline(self):
        plain = run_sweep(SPEC, workers=1)
        profiler = PoolProfiler()
        # a private pool: the process-wide one may have been widened by an
        # earlier test, and the width bound below is about this sweep alone
        pool = WarmPool()
        try:
            profiled = run_sweep(
                SPEC, workers=2, profiler=profiler, batch_size=1, pool=pool
            )
        finally:
            pool.shutdown()
        assert profiled.report.to_json() == plain.report.to_json()
        profile = profiler.profile("replication", profiled.pool_workers)
        assert len(profile.tasks) == SPEC.replications
        assert 0.0 < profile.coverage <= 1.0
        assert 1 <= profile.worker_processes <= 2

    def test_profiled_grid_matches_plain_inline(self):
        grid = GridSpec(
            base=SweepSpec("identity", replications=2, seed=5, sim_workers=4),
            axes=(parse_axis("sim_workers=4,8"),),
        )
        plain = run_grid(grid, workers=1)
        profiler = PoolProfiler()
        profiled = run_grid(grid, workers=2, profiler=profiler)
        assert profiled.report.to_json() == plain.report.to_json()
        assert profiler.profile().tasks, "grid chunks should be profiled"

    def test_inline_profiled_sweep_matches_too(self):
        plain = run_sweep(SPEC, workers=1)
        profiler = PoolProfiler()
        profiled = run_sweep(SPEC, workers=1, profiler=profiler)
        assert profiled.report.to_json() == plain.report.to_json()
        profile = profiler.profile()
        assert len(profile.tasks) == SPEC.replications
        # inline tasks run in this very process: no warmup to attribute
        assert profile.totals()["warmup"] == 0.0


class TestPoolProfile:
    def test_attribution_covers_categories_and_renders(self):
        profiler = PoolProfiler()
        outcome = run_sweep(SPEC, workers=2, profiler=profiler, batch_size=1)
        profile = profiler.profile("replication", outcome.pool_workers)
        totals = profile.totals()
        assert set(totals) == {"compute", "queue_wait", "serialization", "warmup"}
        assert totals["compute"] > 0.0
        assert sum(totals.values()) <= profile.wall_total + 1e-6
        text = profile.render_text()
        assert "attribution coverage" in text and "overheads" in text
        doc = ProfileReport(pool=profile, meta={"n": 1}).to_dict()
        assert doc["kind"] == "profile-report"
        assert doc["pool"]["task_count"] == SPEC.replications

    def test_overheads_ranked_largest_first(self):
        profiler = PoolProfiler()
        run_sweep(SPEC, workers=2, profiler=profiler)
        ranked = profiler.profile().overheads()
        assert [c for c, _, _ in ranked] != []
        seconds = [s for _, s, _ in ranked]
        assert seconds == sorted(seconds, reverse=True)
        assert "compute" not in {c for c, _, _ in ranked}

    def test_unprofiled_result_passes_through(self):
        profiler = PoolProfiler()
        assert profiler.record_result(0, {"plain": "result"}) == {"plain": "result"}
        assert profiler.record_result(1, 42) == 42
        assert profiler.profile().tasks == []


class TestWorkerCounters:
    def test_flush_drains_exactly_once(self):
        registry = MetricsRegistry()
        registry.counter("faults.injected_total", "test").inc(3, kind="transient")
        first = flush_counters(registry)
        assert first == {
            "faults.injected_total": [[[["kind", "transient"]], 3.0]]
        }
        assert flush_counters(registry) == {}  # second flush: nothing left

    def test_merge_is_associative(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("x").inc(2, p="0")
        b.counter("x").inc(5, p="0")
        b.counter("y").inc(1)
        fa, fb = flush_counters(a), flush_counters(b)
        left, right = MetricsRegistry(), MetricsRegistry()
        merge_counters(left, fa)
        merge_counters(left, fb)
        merge_counters(right, fb)
        merge_counters(right, fa)
        assert left.snapshot() == right.snapshot()
        assert left.counter("x").series() == {(("p", "0"),): 7.0}

    def test_gauges_stay_process_local(self):
        registry = MetricsRegistry()
        registry.gauge("queue.depth").set(4)
        registry.counter("done").inc()
        flushed = flush_counters(registry)
        assert set(flushed) == {"done"}

    def test_worker_registry_is_process_global(self):
        assert worker_registry() is worker_registry()

    def test_pool_sweep_merges_worker_counters_into_parent(self):
        profiler = PoolProfiler()
        run_sweep(SPEC, workers=2, profiler=profiler)
        snapshot = profiler.metrics.snapshot()
        # instrumented workers count each finished run into the registry
        assert "worker.runs_total" in snapshot
        runs = snapshot["worker.runs_total"]["series"]
        assert sum(runs.values()) == SPEC.replications  # merged exactly once
        assert snapshot["worker.granules_total"]["series"][""] > 0


class TestProgress:
    def test_format_progress_line(self):
        line = format_progress(PoolTaskCompleted(2.0, "replication", 6, 16))
        assert line.startswith("[sweep] 6/16 replications (37.5%)")
        assert "3.00/s" in line and "ETA" in line

    def test_final_line_reports_completion(self):
        line = format_progress(PoolTaskCompleted(4.0, "cell", 8, 8))
        assert "done in 4.0s" in line and "ETA" not in line

    def test_rate_limit_by_event_time_and_final_always_emits(self):
        stream = io.StringIO()
        reporter = ProgressReporter(stream, min_interval=1.0)
        bus = EventBus()
        reporter.subscribe(bus)
        for i, t in enumerate([0.1, 0.2, 0.3, 1.5, 1.6], start=1):
            bus.publish(PoolTaskCompleted(t, "replication", i, 5))
        reporter.close()
        lines = stream.getvalue().splitlines()
        # 0.1 emits, 0.2/0.3 suppressed, 1.5 emits, 1.6 is final so it emits
        assert len(lines) == 3 == reporter.lines_emitted
        assert lines[-1].startswith("[sweep] 5/5")

    def test_close_detaches_from_bus(self):
        stream = io.StringIO()
        reporter = ProgressReporter(stream, min_interval=0.0)
        bus = EventBus()
        reporter.subscribe(bus)
        reporter.close()
        bus.publish(PoolTaskCompleted(1.0, "replication", 1, 1))
        assert stream.getvalue() == ""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_run_sweep_publishes_completion_events(self, workers):
        bus = EventBus()
        got: list[PoolTaskCompleted] = []
        bus.subscribe(PoolTaskCompleted, got.append)
        run_sweep(SPEC, workers=workers, bus=bus)
        assert [e.done for e in got] == [1, 2, 3]
        assert all(e.total == 3 and e.what == "replication" for e in got)
        assert [e.time for e in got] == sorted(e.time for e in got)

    def test_run_grid_publishes_cell_events(self):
        grid = GridSpec(
            base=SweepSpec("identity", replications=2, seed=5, sim_workers=4),
            axes=(parse_axis("sim_workers=4,8"),),
        )
        bus = EventBus()
        got: list[PoolTaskCompleted] = []
        bus.subscribe(PoolTaskCompleted, got.append)
        run_grid(grid, workers=1, bus=bus)
        assert got and got[-1].done == got[-1].total
        assert all(e.what == "cell" for e in got)
