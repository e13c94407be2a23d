"""Tests for the rundown profiler's waterfall side (repro.obs.profile).

The invariant under test: every processor's time over ``[0, makespan)``
is *fully* accounted — busy categories plus idle attributions sum to the
makespan, per resource, with no gaps and no double counting.
"""

from __future__ import annotations

import json

import pytest

import repro.obs.profile as profile_module
from repro.core.mapping import IdentityMapping
from repro.faults import FaultPlan, ProcessorCrash, RecoveryPolicy, TransientGranuleError
from repro.obs import ProfileReport, WaterfallReport, analyze_run, analyze_saved
from repro.obs.profile import IDLE_CATEGORIES, build_waterfall
from repro.sim.events import EventKind
from repro.sim.persist import result_summary, trace_to_dict
from repro.sim.trace import Interval, Trace
from repro.executive import ExecutiveSimulation, run_program
from repro.workloads import build_workload, workload_names
from tests.conftest import two_phase_program
from tests.waterfall_reference import reference_analyze_run, reference_build_waterfall

APPROX = pytest.approx


def synthetic_trace() -> Trace:
    """Two workers over [0, 10): P0 busy 1..4 and 6..9, P1 busy 2..8."""
    t = Trace()
    t.add_interval(Interval("P0", 1.0, 4.0, "compute", "a"))
    t.add_interval(Interval("P0", 6.0, 9.0, "compute", "b"))
    t.add_interval(Interval("P1", 2.0, 8.0, "compute", "c"))
    t.add_interval(Interval("EXEC", 0.0, 1.0, "mgmt", "init"))
    return t


def saved_document(result) -> dict:
    """``result`` as ``repro simulate --save`` writes and reads it."""
    doc = {"summary": result_summary(result), "trace": trace_to_dict(result.trace)}
    return json.loads(json.dumps(doc))


def assert_fully_accounted(report: WaterfallReport) -> None:
    for row in report.resources:
        assert row.busy_total + row.idle_total == APPROX(report.makespan), row.resource


class TestBuildWaterfall:
    def test_full_accounting_synthetic(self):
        report = build_waterfall(synthetic_trace(), n_workers=2, makespan=10.0)
        assert_fully_accounted(report)
        p0 = next(r for r in report.resources if r.resource == "P0")
        assert p0.busy["compute"] == APPROX(6.0)
        assert p0.idle["startup_wait"] == APPROX(1.0)
        # the 4..6 gap and the 9..10 tail are unattributed idle
        assert p0.idle["idle"] == APPROX(3.0)

    def test_barrier_wait_carved_from_rundown_windows(self):
        report = build_waterfall(
            synthetic_trace(), n_workers=2, rundown_windows=[(8.0, 10.0)], makespan=10.0
        )
        assert_fully_accounted(report)
        p1 = next(r for r in report.resources if r.resource == "P1")
        # P1 idles 8..10, exactly the rundown window
        assert p1.idle["barrier_wait"] == APPROX(2.0)
        p0 = next(r for r in report.resources if r.resource == "P0")
        # P0 is busy until 9, so only 9..10 of its idle falls in the window
        assert p0.idle["barrier_wait"] == APPROX(1.0)

    def test_retry_backoff_takes_priority_over_barrier(self):
        t = synthetic_trace()
        t.log(4.0, EventKind.TASK_RETRY, "P0", backoff=2.0)
        report = build_waterfall(
            t, n_workers=2, rundown_windows=[(4.0, 6.0)], makespan=10.0
        )
        assert_fully_accounted(report)
        p0 = next(r for r in report.resources if r.resource == "P0")
        # the 4..6 gap is retry backoff, not barrier_wait, despite both applying
        assert p0.idle["retry_backoff"] == APPROX(2.0)
        assert p0.idle["barrier_wait"] == APPROX(0.0)

    def test_stall_wait_before_watchdog_record(self):
        t = synthetic_trace()
        t.log(9.5, EventKind.PHASE_STALLED, "A")
        report = build_waterfall(t, n_workers=2, makespan=10.0)
        assert_fully_accounted(report)
        # dead air = last interval end (9.0) .. detection (9.5) on every idle resource
        p1 = next(r for r in report.resources if r.resource == "P1")
        assert p1.idle["stall_wait"] == APPROX(0.5)

    def test_phase_rows_from_records(self):
        t = synthetic_trace()
        t.log(0.0, EventKind.PHASE_START, "A")
        t.log(9.0, EventKind.PHASE_END, "A")
        report = build_waterfall(t, n_workers=2, makespan=10.0)
        assert [p.phase for p in report.phases] == ["A"]
        row = report.phases[0]
        assert row.duration == APPROX(9.0)
        assert row.compute == APPROX(12.0)  # 6 (P0) + 6 (P1)
        assert row.idle == APPROX(2 * 9.0 - 12.0)

    def test_render_and_dict_smoke(self):
        report = build_waterfall(synthetic_trace(), n_workers=2, makespan=10.0)
        text = report.render_text()
        assert "run waterfall" in text and "compute" in text
        doc = report.to_dict()
        assert doc["kind"] == "waterfall"
        assert set(doc["totals"]["idle"]) == set(IDLE_CATEGORIES)
        json.dumps(doc)  # JSON-able throughout


class TestCriticalPath:
    def test_chain_tiles_the_makespan(self):
        report = build_waterfall(synthetic_trace(), n_workers=2, makespan=10.0)
        path = report.critical_path
        assert path, "expected a non-empty critical path"
        # chronological, and durations + waits account for the full makespan
        covered = sum(s.end - s.start + s.wait_after for s in path)
        assert covered + path[0].start == APPROX(10.0)
        for early, late in zip(path, path[1:]):
            assert early.end <= late.start + 1e-9

    def test_wait_names_the_gap(self):
        report = build_waterfall(synthetic_trace(), n_workers=2, makespan=10.0)
        # last step is P0's b interval ending at 9, followed by 1s of wait
        last = report.critical_path[-1]
        assert last.resource == "P0"
        assert last.wait_after == APPROX(1.0)


class TestAnalyzeRun:
    def run_faulted(self):
        program = two_phase_program(IdentityMapping(), n=32)
        sim = ExecutiveSimulation(
            program,
            4,
            seed=11,
            faults=FaultPlan(seed=3, faults=(TransientGranuleError(0.2),)),
            recovery=RecoveryPolicy(max_retries=8),
        )
        return sim.run()

    def test_faulted_run_attributes_backoff(self):
        result = self.run_faulted()
        report = analyze_run(result)
        assert_fully_accounted(report)
        totals = report.totals()
        assert totals["idle"]["retry_backoff"] > 0.0
        assert report.n_workers == 4
        assert report.phases, "expected per-phase rows from phase stats"

    def test_saved_document_matches_live_analysis(self):
        result = self.run_faulted()
        live = analyze_run(result)
        saved = analyze_saved(saved_document(result))
        assert saved.makespan == APPROX(live.makespan)
        assert saved.n_workers == live.n_workers
        live_totals, saved_totals = live.totals(), saved.totals()
        for group in ("busy", "idle"):
            for cat, value in live_totals[group].items():
                assert saved_totals[group][cat] == APPROX(value, abs=1e-6), (group, cat)

    def test_bare_trace_still_analyzes(self):
        result = self.run_faulted()
        report = analyze_saved(trace_to_dict(result.trace))
        assert_fully_accounted(report)
        assert report.n_workers == 4  # inferred from P* resources


def report_json(waterfall: WaterfallReport) -> str:
    return ProfileReport(waterfall=waterfall).to_json()


class TestMatchesReference:
    """The waterfall merges each resource's intervals once; the reference
    in ``tests/waterfall_reference.py`` re-merges them for every phase
    row.  Their reports must be the same bytes."""

    def assert_matches_reference(self, result, monkeypatch) -> dict:
        doc = saved_document(result)
        live, saved = report_json(analyze_run(result)), report_json(analyze_saved(doc))
        with monkeypatch.context() as m:
            m.setattr(profile_module, "build_waterfall", reference_build_waterfall)
            reference_saved = report_json(analyze_saved(doc))
        assert live == report_json(reference_analyze_run(result))
        assert saved == reference_saved
        return json.loads(saved)["waterfall"]

    @pytest.mark.parametrize("workload", workload_names())
    def test_workloads(self, workload, monkeypatch):
        result = run_program(build_workload(workload), 8, seed=0)
        waterfall = self.assert_matches_reference(result, monkeypatch)
        assert waterfall["phases"] and waterfall["critical_path"]

    def test_retry_and_stall_windows(self, monkeypatch):
        result = run_program(
            build_workload("casper"),
            8,
            seed=0,
            faults=FaultPlan(
                seed=1, faults=(TransientGranuleError(0.1), ProcessorCrash(2, 10.0))
            ),
            recovery=RecoveryPolicy(max_retries=8, watchdog_timeout=5.0),
        )
        idle = self.assert_matches_reference(result, monkeypatch)["totals"]["idle"]
        assert idle["retry_backoff"] > 0 and idle["stall_wait"] > 0

    def test_merges_each_resource_category_once(self, monkeypatch):
        result = run_program(build_workload("casper"), 8, seed=0)
        doc = saved_document(result)
        calls = []
        merge = profile_module.merge_intervals

        def counting(spans):
            calls.append(1)
            return merge(spans)

        monkeypatch.setattr(profile_module, "merge_intervals", counting)
        analyze_saved(doc)
        pairs = {(iv.resource, iv.category) for iv in result.trace.intervals()}
        # plus the run-level windows: retry backoff, stall and rundown
        assert len(calls) <= len(pairs) + 3
