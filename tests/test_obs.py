"""Tests for the observability subsystem (repro.obs)."""

from __future__ import annotations

import json

import pytest

from repro.core.mapping import IdentityMapping, NullMapping
from repro.core.overlap import (
    REASON_ADMITTED,
    REASON_BARRIER_POLICY,
    REASON_NULL_MAPPING,
    REASON_SERIAL_ACTION,
    REASON_UNSAFE,
    OverlapConfig,
    OverlapPolicy,
    admission_decision,
)
from repro.executive import run_program
from repro.obs import (
    EventBus,
    MetricsRegistry,
    ObsEvent,
    PhaseEnded,
    PhaseStarted,
    Span,
    SpanRecorder,
    Telemetry,
    WorkerIdle,
    chrome_trace_events,
    chrome_trace_from_trace,
    export_chrome_trace,
    export_jsonl,
    record_run_metrics,
    record_rundown_metrics,
    render_snapshot,
    spans_from_trace,
)
from repro.obs.spans import load_jsonl
from repro.sim.trace import Interval, Trace
from tests.conftest import two_phase_program


class TestEventBus:
    def test_delivers_to_type_subscribers(self):
        bus = EventBus()
        got = []
        bus.subscribe(PhaseStarted, got.append)
        bus.publish(PhaseStarted(1.0, "A", 0))
        bus.publish(PhaseEnded(2.0, "A", 0))  # filtered out
        assert [e.phase for e in got] == ["A"]

    def test_none_subscribes_to_everything(self):
        bus = EventBus()
        got = []
        bus.subscribe(None, got.append)
        bus.publish(PhaseStarted(1.0, "A", 0))
        bus.publish(WorkerIdle(1.5, "P3"))
        assert len(got) == 2

    def test_global_subscription_order(self):
        """Handlers fire in subscription order, regardless of filter type."""
        bus = EventBus()
        order = []
        bus.subscribe(None, lambda e: order.append("all-first"))
        bus.subscribe(PhaseStarted, lambda e: order.append("typed"))
        bus.subscribe(None, lambda e: order.append("all-last"))
        bus.publish(PhaseStarted(0.0, "A", 0))
        assert order == ["all-first", "typed", "all-last"]

    def test_unsubscribe(self):
        bus = EventBus()
        got = []
        sub = bus.subscribe(PhaseStarted, got.append)
        bus.publish(PhaseStarted(0.0, "A", 0))
        sub.unsubscribe()
        bus.publish(PhaseStarted(1.0, "B", 1))
        assert [e.phase for e in got] == ["A"]
        assert len(bus) == 0

    def test_events_published_counts(self):
        bus = EventBus()
        bus.publish(PhaseStarted(0.0, "A", 0))
        bus.publish(PhaseEnded(1.0, "A", 0))
        assert bus.events_published == 2

    def test_rejects_non_event_subscription(self):
        with pytest.raises(TypeError):
            EventBus().subscribe(int, lambda e: None)

    def test_handler_may_subscribe_during_publish(self):
        bus = EventBus()
        got = []

        def first(e):
            bus.subscribe(None, got.append)

        bus.subscribe(PhaseStarted, first)
        bus.publish(PhaseStarted(0.0, "A", 0))  # new sub sees later events only
        assert got == []
        bus.publish(PhaseEnded(1.0, "A", 0))
        assert len(got) == 1

    def test_event_is_frozen(self):
        e = WorkerIdle(1.0, "P0")
        with pytest.raises(Exception):
            e.time = 2.0  # type: ignore[misc]
        assert isinstance(e, ObsEvent)


class TestMetrics:
    def test_counter_labels_are_independent_series(self):
        m = MetricsRegistry()
        c = m.counter("tasks_total")
        c.inc(phase="A")
        c.inc(2, phase="B")
        assert c.value(phase="A") == 1
        assert c.value(phase="B") == 2
        assert c.total() == 3

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_gauge_moves_both_ways(self):
        g = MetricsRegistry().gauge("depth")
        g.set(5)
        g.dec(2)
        g.inc(1)
        assert g.value() == 4

    def test_histogram_stats_and_buckets(self):
        h = MetricsRegistry().histogram("sizes", buckets=(1, 10, 100))
        for v in (0.5, 5, 50, 500):
            h.observe(v)
        stats = h.stats()
        assert stats["count"] == 4
        assert stats["min"] == 0.5 and stats["max"] == 500
        snap = h.snapshot()["series"][""]
        assert snap["buckets"] == {"le=1": 1, "le=10": 1, "le=100": 1, "le=+Inf": 1}

    def test_registry_get_or_create_and_type_conflict(self):
        m = MetricsRegistry()
        assert m.counter("x") is m.counter("x")
        with pytest.raises(TypeError):
            m.gauge("x")

    def test_snapshot_is_decoupled(self):
        m = MetricsRegistry()
        c = m.counter("x")
        c.inc()
        snap = m.snapshot()
        c.inc(10)
        assert snap["x"]["series"][""] == 1

    def test_reset_clears_series_keeps_registrations(self):
        m = MetricsRegistry()
        c = m.counter("x")
        c.inc(labels="y")
        m.reset()
        assert c.total() == 0
        c.inc()  # the cached handle still works after reset
        assert m.get("x") is c and c.total() == 1

    def test_render_snapshot_lines(self):
        m = MetricsRegistry()
        m.counter("hits").inc(3, route="a")
        m.gauge("empty")
        text = render_snapshot(m.snapshot())
        assert 'hits{route="a"}  3' in text
        assert "empty  (no samples)" in text


class TestSpans:
    def test_span_rejects_inverted(self):
        with pytest.raises(ValueError):
            Span("x", "P0", 2.0, 1.0)

    def test_recorder_context_manager_uses_clock(self):
        t = [0.0]
        rec = SpanRecorder(clock=lambda: t[0])
        with rec.span("work", "P0", phase="A"):
            t[0] = 2.5
        (span,) = rec.spans()
        assert (span.start, span.end) == (0.0, 2.5)
        assert span.args == {"phase": "A"}

    def test_context_manager_without_clock_raises(self):
        rec = SpanRecorder()
        with pytest.raises(RuntimeError):
            with rec.span("x", "P0"):
                pass

    def test_spans_from_trace_uses_labels(self):
        tr = Trace()
        tr.add_interval(Interval("P0", 0.0, 1.0, "compute", "taskA"))
        tr.add_interval(Interval("EXEC", 1.0, 2.0, "mgmt"))
        spans = {s.resource: s for s in spans_from_trace(tr)}
        assert spans["P0"].name == "taskA"  # label wins
        assert spans["EXEC"].name == "mgmt"  # falls back to category
        assert spans["EXEC"].category == "mgmt"

    def test_chrome_events_have_required_fields(self):
        spans = [Span("a", "P0", 0.0, 1.0), Span("b", "P1", 0.5, 2.0)]
        events = chrome_trace_events(spans, instants=[(1.0, "note", "P0", {})])
        for e in events:
            assert {"ph", "ts", "pid", "tid"} <= set(e)
        assert {e["ph"] for e in events} == {"M", "X", "i"}
        x = [e for e in events if e["ph"] == "X"]
        assert x[0]["ts"] == 0.0 and x[0]["dur"] == pytest.approx(1_000_000.0)

    def test_tids_sort_workers_numerically(self):
        spans = [Span("s", r, 0.0, 1.0) for r in ("P10", "P2", "EXEC")]
        events = chrome_trace_events(spans)
        names = {
            e["args"]["name"]: e["tid"] for e in events if e["ph"] == "M"
        }
        assert names["P2"] < names["P10"] < names["EXEC"]

    def test_export_chrome_trace_roundtrip(self, tmp_path):
        path = tmp_path / "trace.json"
        export_chrome_trace([Span("a", "P0", 0.0, 1.0)], path)
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        assert any(e["ph"] == "X" for e in doc["traceEvents"])

    def test_jsonl_roundtrip(self, tmp_path):
        spans = [Span("a", "P0", 0.0, 1.0, "compute", {"k": 1}), Span("b", "P1", 1.0, 2.0)]
        path = tmp_path / "spans.jsonl"
        export_jsonl(spans, path)
        assert load_jsonl(path) == spans


class TestAdmissionDecision:
    def test_reason_precedence(self):
        d = admission_decision("A", "B", OverlapPolicy.NONE, serial_barrier=True)
        assert d.reason == REASON_BARRIER_POLICY  # policy checked first
        d = admission_decision("A", "B", OverlapPolicy.NEXT_PHASE, serial_barrier=True)
        assert d.reason == REASON_SERIAL_ACTION
        d = admission_decision("A", "B", OverlapPolicy.NEXT_PHASE, mapping_kind=NullMapping().kind)
        assert d.reason == REASON_NULL_MAPPING
        d = admission_decision("A", "B", OverlapPolicy.NEXT_PHASE, safe=False)
        assert d.reason == REASON_UNSAFE

    def test_admitted(self):
        d = admission_decision(
            "A", "B", OverlapPolicy.NEXT_PHASE, mapping_kind=IdentityMapping().kind
        )
        assert d.admitted and d.reason == REASON_ADMITTED
        assert d.mapping_kind == "identity"


class TestTelemetryIntegration:
    def run(self, mapping=None, config=None, telemetry=None):
        """Run the two-phase program; record its metrics into ``telemetry``."""
        program = two_phase_program(mapping or IdentityMapping(), n=32)
        result = run_program(program, 4, config=config or OverlapConfig())
        if telemetry is not None:
            record_run_metrics(result, telemetry.metrics)
        return result

    def test_overlap_run_counts_admission(self):
        t = Telemetry()
        result = self.run(telemetry=t)
        admitted = t.metrics.get("overlap.admitted_total")
        assert admitted.value(mapping_kind="identity") == 1
        (d,) = result.admission_decisions
        assert d.admitted and (d.predecessor, d.successor) == ("A", "B")

    def test_barrier_run_counts_rejection(self):
        t = Telemetry()
        result = self.run(config=OverlapConfig.barrier(), telemetry=t)
        rejected = t.metrics.get("overlap.rejected_total")
        assert rejected.value(reason=REASON_BARRIER_POLICY) == 1
        (d,) = result.admission_decisions
        assert not d.admitted and d.reason == REASON_BARRIER_POLICY

    def test_null_mapping_rejection_reason(self):
        t = Telemetry()
        result = self.run(mapping=NullMapping(), telemetry=t)
        (d,) = result.admission_decisions
        assert d.reason == REASON_NULL_MAPPING
        assert t.metrics.get("overlap.rejected_total").value(reason=REASON_NULL_MAPPING) == 1

    def test_dispatch_and_completion_balance(self):
        t = Telemetry()
        self.run(telemetry=t)
        m = t.metrics
        assert (
            m.get("scheduler.granules_dispatched_total").total()
            == m.get("scheduler.granules_completed_total").total()
            == 64
        )
        assert m.get("phase.started_total").total() == 2
        assert m.get("phase.ended_total").total() == 2
        assert m.get("sim.events_processed_total").total() > 0

    def test_record_rundown_metrics_gauges(self):
        t = Telemetry()
        result = self.run(telemetry=t)
        record_rundown_metrics(result, t.metrics)
        idle = t.metrics.get("rundown.idle_seconds")
        series = idle.series()
        assert len(series) == result.n_workers
        assert t.metrics.get("run.makespan").value() == result.makespan
        from repro.metrics import total_rundown_idle

        assert sum(series.values()) == pytest.approx(total_rundown_idle(result))

    def test_chrome_trace_from_run(self):
        result = self.run()
        doc = chrome_trace_from_trace(result.trace)
        for e in doc["traceEvents"]:
            assert {"ph", "ts", "pid", "tid"} <= set(e)
        x_events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(x_events) == sum(1 for _ in result.trace.intervals())

    def test_reset_clears_state(self):
        t = Telemetry()
        self.run(telemetry=t)
        t.spans.add("x", "P0", 0.0, 1.0)
        t.reset()
        assert t.spans.spans() == []
        assert t.metrics.get("scheduler.granules_dispatched_total").total() == 0


class TestMetricDefinitions:
    def test_series_carry_the_defined_labels(self):
        """The live subscriptions and the post-run derivation label every
        series with the label names :data:`RUN_METRICS` defines."""
        from repro.obs.telemetry import RUN_METRICS
        from repro.runtime.threaded import run_fragment_threaded
        from repro.workloads.fragments import identity_fragment
        from tests.golden.record import load_cases, run_case

        live = Telemetry()
        run_fragment_threaded(identity_fragment(16), n_workers=2, telemetry=live)
        derived = MetricsRegistry()
        cases = load_cases()
        for case_id in ("faults/identity-11", "indirect/casper-elevate"):
            record_run_metrics(run_case(cases[case_id]["spec"]), derived)
        seen = set()
        for registry in (live.metrics, derived):
            for name, definition in RUN_METRICS.items():
                metric = registry.get(name)
                if metric is None:
                    continue
                assert metric.help == definition.help
                for key in metric.series():
                    assert [k for k, _ in key] == sorted(definition.labels), name
                    seen.add(name)
        assert seen == set(RUN_METRICS)


class TestThreadedTelemetry:
    def test_threaded_run_records_spans_and_metrics(self):
        from repro.runtime.threaded import run_fragment_threaded
        from repro.workloads.fragments import identity_fragment

        t = Telemetry()
        produced, expected = run_fragment_threaded(
            identity_fragment(16), n_workers=2, telemetry=t
        )
        import numpy as np

        for k in expected:
            assert np.allclose(produced[k], expected[k])
        compute = [s for s in t.spans.spans() if s.category == "compute"]
        assert len(compute) == 32  # 16 granules x 2 phases
        assert {s.resource for s in compute} <= {"W0", "W1"}
        assert t.metrics.get("phase.ended_total").total() == 2
        assert t.metrics.get("scheduler.granules_completed_total").total() == 32
