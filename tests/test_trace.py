"""Tests for trace interval recording and utilization timelines."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.executive.scheduler import run_program
from repro.faults import FaultPlan, ProcessorCrash
from repro.lint import sanitize_result, sanitize_saved
from repro.obs import (
    MetricsRegistry,
    analyze_run,
    analyze_saved,
    export_jsonl,
    instants_from_trace,
    iter_trace_spans,
    record_run_metrics,
    write_chrome_trace_streaming,
)
from repro.sim.events import EventKind, LogRecord
from repro.sim.machine import ExecutivePlacement
from repro.sim.persist import result_summary, trace_from_dict, trace_to_dict
from repro.sim.trace import Interval, Trace, TraceError, merge_intervals, utilization_timeline
from repro.sweep.runner import build_workload


class TestInterval:
    def test_duration(self):
        assert Interval("P0", 1.0, 3.5).duration == 2.5

    def test_inverted_rejected(self):
        with pytest.raises(ValueError):
            Interval("P0", 3.0, 1.0)

    def test_overlaps(self):
        a = Interval("P0", 0.0, 2.0)
        assert a.overlaps(Interval("P0", 1.0, 3.0))
        assert not a.overlaps(Interval("P0", 2.0, 3.0))


class TestLogRecord:
    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            LogRecord(-1.0, EventKind.NOTE, "x")


class TestMergeIntervals:
    def test_merges_overlap_and_adjacency(self):
        got = merge_intervals([(0, 2), (1, 3), (3, 4), (10, 11)])
        assert got == [(0, 4), (10, 11)]

    def test_drops_empty(self):
        assert merge_intervals([(1, 1), (2, 2)]) == []

    def test_empty_input(self):
        assert merge_intervals([]) == []

    def test_touching_endpoints_merge(self):
        # [0,1) and [1,2) share only the boundary point; they still merge
        # into one span (half-open intervals leave no gap between them)
        assert merge_intervals([(0, 1), (1, 2)]) == [(0, 2)]

    def test_nested_interval_absorbed(self):
        assert merge_intervals([(0, 10), (2, 5)]) == [(0, 10)]
        assert merge_intervals([(2, 5), (0, 10)]) == [(0, 10)]

    def test_duplicate_intervals(self):
        assert merge_intervals([(1, 3), (1, 3)]) == [(1, 3)]

    def test_unsorted_input(self):
        assert merge_intervals([(5, 6), (0, 1), (0.5, 2)]) == [(0, 2), (5, 6)]


class TestTrace:
    def test_begin_end_records_interval(self):
        tr = Trace()
        tr.begin("P0", 1.0, "compute", "taskA")
        iv = tr.end("P0", 4.0, "compute")
        assert iv.duration == 3.0
        assert tr.busy_time("P0", "compute") == 3.0

    def test_double_begin_rejected(self):
        tr = Trace()
        tr.begin("P0", 0.0)
        with pytest.raises(RuntimeError):
            tr.begin("P0", 1.0)

    def test_end_without_begin_rejected(self):
        with pytest.raises(RuntimeError):
            Trace().end("P0", 1.0)

    def test_trace_error_is_runtime_error(self):
        assert issubclass(TraceError, RuntimeError)

    def test_double_begin_message_names_open_interval(self):
        tr = Trace()
        tr.begin("P0", 2.5, "compute", "taskA")
        with pytest.raises(TraceError, match=r"since t=2\.5") as exc:
            tr.begin("P0", 3.0, "compute")
        assert "taskA" in str(exc.value)

    def test_end_wrong_category_lists_open_categories(self):
        tr = Trace()
        tr.begin("EXEC", 0.0, "mgmt")
        with pytest.raises(TraceError, match="open categories") as exc:
            tr.end("EXEC", 1.0, "compute")
        assert "mgmt" in str(exc.value)

    def test_end_with_nothing_open_says_so(self):
        with pytest.raises(TraceError, match="no interval of any category"):
            Trace().end("P0", 1.0)

    def test_categories_independent(self):
        tr = Trace()
        tr.begin("P0", 0.0, "compute")
        tr.begin("P0", 0.0, "mgmt")  # same resource, different category: fine
        tr.end("P0", 1.0, "compute")
        tr.end("P0", 2.0, "mgmt")
        assert tr.busy_time("P0", "compute") == 1.0
        assert tr.busy_time("P0", "mgmt") == 2.0
        # merged across categories
        assert tr.busy_time("P0") == 2.0

    def test_span_and_makespan(self):
        tr = Trace()
        tr.add_interval(Interval("P0", 1.0, 2.0))
        tr.add_interval(Interval("P1", 0.5, 5.0))
        assert tr.span() == (0.5, 5.0)
        assert tr.makespan() == 5.0

    def test_empty_trace(self):
        tr = Trace()
        assert tr.span() == (0.0, 0.0)
        assert tr.busy_time() == 0.0
        assert tr.resources() == []

    def test_records_of(self):
        tr = Trace()
        tr.log(1.0, EventKind.PHASE_START, "a")
        tr.log(2.0, EventKind.TASK_START, "P0")
        tr.log(3.0, EventKind.PHASE_START, "b")
        assert [r.subject for r in tr.records_of(EventKind.PHASE_START)] == ["a", "b"]


class TestUtilizationTimeline:
    def test_simple_step_function(self):
        tr = Trace()
        tr.add_interval(Interval("P0", 0.0, 2.0))
        tr.add_interval(Interval("P1", 1.0, 3.0))
        times, counts = utilization_timeline(tr, 2)
        assert list(times) == [0.0, 1.0, 2.0, 3.0]
        assert list(counts) == [1, 2, 1, 0]

    def test_empty(self):
        times, counts = utilization_timeline(Trace(), 4)
        assert list(counts) == [0]

    def test_coincident_boundaries(self):
        tr = Trace()
        tr.add_interval(Interval("P0", 0.0, 1.0))
        tr.add_interval(Interval("P1", 1.0, 2.0))
        times, counts = utilization_timeline(tr, 2)
        # at t=1 the -1 and +1 cancel: still one busy processor
        assert list(times) == [0.0, 1.0, 2.0]
        assert list(counts) == [1, 1, 0]

    def test_category_filter(self):
        tr = Trace()
        tr.add_interval(Interval("P0", 0.0, 1.0, "compute"))
        tr.add_interval(Interval("P0", 1.0, 5.0, "mgmt"))
        _, counts = utilization_timeline(tr, 1, category="compute")
        assert max(counts) == 1
        _, counts = utilization_timeline(tr, 1, category="mgmt")
        assert max(counts) == 1


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 4),
            st.floats(0, 100, allow_nan=False),
            st.floats(0, 50, allow_nan=False),
        ),
        max_size=30,
    )
)
def test_timeline_integral_equals_busy_time(raw):
    """The integral of the busy-count step function equals total busy time."""
    tr = Trace()
    for proc, start, dur in raw:
        tr.add_interval(Interval(f"P{proc}", start, start + dur))
    times, counts = utilization_timeline(tr, 5)
    if len(times) > 1:
        integral = float(np.sum(counts[:-1] * np.diff(times)))
    else:
        integral = 0.0
    total = sum(tr.busy_time(r) for r in tr.resources())
    # busy_time merges per-resource overlap; the timeline counts overlapping
    # intervals on one resource multiple times, so compare against raw sums
    raw_total = sum(d for _, _, d in raw)
    assert integral == pytest.approx(raw_total, rel=1e-9, abs=1e-9)
    assert total <= raw_total + 1e-9


# ---------------------------------------------------------------- columns
TASK = "a#0:GranuleSet([0,4))"
LOST = "a#0:GranuleSet([4,8))"
#: a detail value JSON cannot hold: kept by the trace, dropped when saved
OPAQUE = object()


def every_kind_trace() -> Trace:
    """Every record kind, written through every writer of :class:`Trace`."""
    tr = Trace()
    tr.log(0.0, EventKind.PHASE_START, "a", run=0)
    tr.begin_logged("EXEC", 0.0, "mgmt", "assign:P0", EventKind.MGMT_START)
    tr.end_logged("EXEC", 0.5, "mgmt", "assign:P0", EventKind.MGMT_END)
    tr.begin_logged("P0", 0.5, "compute", TASK, EventKind.TASK_START)
    tr.end_logged("P0", 2.0, "compute", TASK, EventKind.TASK_END)
    tr.begin_logged("P1", 0.5, "compute", LOST, EventKind.TASK_START)
    tr.end("P1", 1.0, "compute")
    tr.log(1.0, EventKind.TASK_LOST, "P1", label=LOST)
    tr.log(1.0, EventKind.PROCESSOR_FAILED, "P1", label=LOST)
    tr.log(
        1.0, EventKind.TASK_RETRY, "a",
        granules="GranuleSet([4,8))", attempt=1, reason="transient", backoff=0.5,
    )
    tr.log(1.5, EventKind.WORKER_IDLE, "P0")
    tr.log(1.6, EventKind.WORKER_RESUME, "P0", label="")
    tr.log(2.0, EventKind.PHASE_END, "a", run=0)
    tr.begin("EXEC", 2.0, "serial", "serial:s")
    tr.end("EXEC", 2.5, "serial")
    tr.log(2.5, EventKind.SERIAL_ACTION, "s")
    tr.log(
        3.0, EventKind.PHASE_STALLED, "b",
        missing=4, granules="GranuleSet([0,4))", action="reassign",
    )
    tr.log(3.5, EventKind.NOTE, "x", label="note", payload=OPAQUE)
    tr.log(3.5, EventKind.NOTE, "y", payload=OPAQUE)
    return tr


#: The records a trace of objects held for :func:`every_kind_trace`.
EVERY_KIND_RECORDS = [
    LogRecord(0.0, EventKind.PHASE_START, "a", {"run": 0}),
    LogRecord(0.0, EventKind.MGMT_START, "EXEC", {"label": "assign:P0"}),
    LogRecord(0.5, EventKind.MGMT_END, "EXEC", {"label": "assign:P0"}),
    LogRecord(0.5, EventKind.TASK_START, "P0", {"label": TASK}),
    LogRecord(2.0, EventKind.TASK_END, "P0", {"label": TASK}),
    LogRecord(0.5, EventKind.TASK_START, "P1", {"label": LOST}),
    LogRecord(1.0, EventKind.TASK_LOST, "P1", {"label": LOST}),
    LogRecord(1.0, EventKind.PROCESSOR_FAILED, "P1", {"label": LOST}),
    LogRecord(
        1.0, EventKind.TASK_RETRY, "a",
        {"granules": "GranuleSet([4,8))", "attempt": 1, "reason": "transient", "backoff": 0.5},
    ),
    LogRecord(1.5, EventKind.WORKER_IDLE, "P0", {}),
    LogRecord(1.6, EventKind.WORKER_RESUME, "P0", {"label": ""}),
    LogRecord(2.0, EventKind.PHASE_END, "a", {"run": 0}),
    LogRecord(2.5, EventKind.SERIAL_ACTION, "s", {}),
    LogRecord(
        3.0, EventKind.PHASE_STALLED, "b",
        {"missing": 4, "granules": "GranuleSet([0,4))", "action": "reassign"},
    ),
    LogRecord(3.5, EventKind.NOTE, "x", {"label": "note", "payload": OPAQUE}),
    LogRecord(3.5, EventKind.NOTE, "y", {"payload": OPAQUE}),
]


class TestRecordView:
    def test_covers_every_kind(self):
        assert {r.kind for r in every_kind_trace().records} == set(EventKind)

    def test_equals_the_records_objects(self):
        records = every_kind_trace().records
        assert records == EVERY_KIND_RECORDS
        assert records == tuple(EVERY_KIND_RECORDS)
        assert records != EVERY_KIND_RECORDS[:-1]
        assert list(records) == EVERY_KIND_RECORDS
        assert Trace().records == []

    def test_len(self):
        assert len(every_kind_trace().records) == len(EVERY_KIND_RECORDS)
        assert len(Trace().records) == 0

    def test_indexing(self):
        records = every_kind_trace().records
        for i in range(-len(EVERY_KIND_RECORDS), len(EVERY_KIND_RECORDS)):
            assert records[i] == EVERY_KIND_RECORDS[i]
        assert records[2:5] == EVERY_KIND_RECORDS[2:5]
        assert records[::-3] == EVERY_KIND_RECORDS[::-3]
        for bad in (len(EVERY_KIND_RECORDS), -len(EVERY_KIND_RECORDS) - 1):
            with pytest.raises(IndexError):
                records[bad]

    def test_read_only_copies(self):
        """A record read from the view cannot change the trace."""
        tr = every_kind_trace()
        tr.records[0].detail["run"] = 99
        tr.records[3].detail["label"] = "changed"
        assert tr.records == EVERY_KIND_RECORDS

    @pytest.mark.parametrize("kind", list(EventKind), ids=lambda k: k.value)
    def test_records_of(self, kind):
        want = [r for r in EVERY_KIND_RECORDS if r.kind is kind]
        assert want, "every kind has a record"
        assert every_kind_trace().records_of(kind) == want

    def test_intervals_sorted_by_resource_then_closing_order(self):
        assert list(every_kind_trace().intervals()) == [
            Interval("EXEC", 0.0, 0.5, "mgmt", "assign:P0"),
            Interval("EXEC", 2.0, 2.5, "serial", "serial:s"),
            Interval("P0", 0.5, 2.0, "compute", TASK),
            Interval("P1", 0.5, 1.0, "compute", LOST),
        ]

    def test_dict_round_trip(self):
        data = trace_to_dict(every_kind_trace())
        assert trace_to_dict(trace_from_dict(trace_to_dict(trace_from_dict(data)))) == data
        saved = {(r["subject"], r["kind"]): r["detail"] for r in data["records"]}
        assert saved["x", "note"] == {"label": "note"}
        assert saved["y", "note"] == {}

    def test_logged_writers_check_times(self):
        tr = Trace()
        with pytest.raises(ValueError, match="negative event time"):
            tr.begin_logged("P0", -1.0, "compute", TASK, EventKind.TASK_START)
        with pytest.raises(ValueError, match="negative event time"):
            tr.log(-0.5, EventKind.NOTE, "x")
        tr.begin_logged("P0", 2.0, "compute", TASK, EventKind.TASK_START)
        with pytest.raises(ValueError, match="ends before it starts"):
            tr.end_logged("P0", 1.0, "compute", TASK, EventKind.TASK_END)
        with pytest.raises(TraceError, match="no open 'compute' interval"):
            tr.end_logged("P1", 1.0, "compute", TASK, EventKind.TASK_END)

    def test_loaded_detail_keys_are_free(self):
        """A saved detail may use any key, even a name of a ``log`` argument."""
        record = {"time": 1.0, "kind": "note", "subject": "x", "detail": {"time": 2.0, "kind": "k"}}
        data = {"records": [record], "intervals": []}
        trace = trace_from_dict(data)
        assert trace_to_dict(trace) == data
        assert trace.records[0].detail == {"time": 2.0, "kind": "k"}

    def test_loaded_trace_checks_times(self):
        data = trace_to_dict(every_kind_trace())
        data["intervals"][0]["end"] = -1.0
        with pytest.raises(ValueError, match="ends before it starts"):
            trace_from_dict(data)
        data = trace_to_dict(every_kind_trace())
        data["records"][0]["time"] = -1.0
        with pytest.raises(ValueError, match="negative event time"):
            trace_from_dict(data)


@pytest.fixture
def built(monkeypatch):
    """Counts of :class:`LogRecord` and :class:`Interval` constructions."""
    counts = {"records": 0, "intervals": 0}
    record_init, interval_init = LogRecord.__post_init__, Interval.__post_init__

    def counting_record(self):
        counts["records"] += 1
        record_init(self)

    def counting_interval(self):
        counts["intervals"] += 1
        interval_init(self)

    monkeypatch.setattr(LogRecord, "__post_init__", counting_record)
    monkeypatch.setattr(Interval, "__post_init__", counting_interval)
    LogRecord(0.0, EventKind.NOTE, "x")
    Interval("P0", 0.0, 1.0)
    assert counts == {"records": 1, "intervals": 1}, "patch inactive"
    counts.update(records=0, intervals=0)
    return counts


@pytest.mark.parametrize("placement", list(ExecutivePlacement))
@pytest.mark.parametrize(
    "workload, params",
    [
        ("identity", {"n": 256}),
        ("reverse-indirect", {"n": 256, "fan_in": 2}),
        ("casper", {"granule_scale": 0.1}),
    ],
)
def test_simulation_builds_no_records_or_intervals(built, workload, params, placement):
    """A fault-free run writes columns; objects exist only for readers."""
    result = run_program(build_workload(workload, params), 4, seed=0, placement=placement)
    assert len(result.trace.records) > 0 and result.compute_time > 0
    assert built == {"records": 0, "intervals": 0}


def test_crash_builds_no_records_or_intervals(built):
    """A crashed processor's task interval is closed as a row too."""
    plan = FaultPlan(seed=7, faults=(ProcessorCrash(1, 5.0),))
    result = run_program(build_workload("casper", {"granule_scale": 0.1}), 4, seed=0, faults=plan)
    lost = [kind for _, kind, _, _ in result.trace.task_rows() if kind is EventKind.TASK_LOST]
    assert lost == [EventKind.TASK_LOST]
    assert built == {"records": 0, "intervals": 0}


def test_row_readers_build_no_records_or_intervals(built, tmp_path):
    """Saving, loading, sanitizing, exporting, profiling and deriving the
    metrics of a run read rows only."""
    program = build_workload("casper", {"granule_scale": 0.1})
    result = run_program(program, 4, seed=0)
    data = {"summary": result_summary(result), "trace": trace_to_dict(result.trace)}
    trace = trace_from_dict(data["trace"])
    assert sanitize_result(result, program).ok
    assert sanitize_saved(data, program).ok
    events = write_chrome_trace_streaming(
        lambda: iter_trace_spans(trace), tmp_path / "t.json", instants_from_trace(trace)
    )
    export_jsonl(iter_trace_spans(trace), tmp_path / "t.jsonl")
    assert events > len(data["trace"]["records"]) + len(data["trace"]["intervals"])
    assert analyze_saved(data).to_dict() == analyze_run(result).to_dict()
    metrics = MetricsRegistry()
    record_run_metrics(result, metrics)
    assert metrics.get("phase.ended_total").total() == len(result.phase_stats)
    assert built == {"records": 0, "intervals": 0}
