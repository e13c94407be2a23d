"""Tests for the trace-replay rundown sanitizer (``repro.lint.sanitizer``)."""

from __future__ import annotations

import json
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.classifier import (
    classification_of,
    classify_pair,
    enables_no_more_than,
)
from repro.executive import TaskSizer
from repro.executive.scheduler import run_program
from repro.lang import compile_program
from repro.lint import sanitizer
from repro.lint import (
    AdmissionGuard,
    CrossCheckError,
    lint_source,
    sanitize_result,
    sanitize_saved,
    tasks_from_spans,
    tasks_from_trace,
)
from repro.obs import spans_from_trace
from repro.sim.events import format_task_label, parse_task_label
from repro.sim.persist import save_result

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

CLEAN = (
    "DEFINE PHASE load GRANULES=16 COST=1 READS [ IN(I) ] WRITES [ X(I) ]\n"
    "DEFINE PHASE smooth GRANULES=16 COST=1 READS [ X(I-1) X(I) X(I+1) ] WRITES [ Y(I) ]\n"
    "DISPATCH load ENABLE [ smooth/MAPPING=SEAM(-1,0,1) ]\n"
    "DISPATCH smooth\n"
)
RACY = (
    "DEFINE PHASE relax GRANULES=20 COST=1 READS [ F(I) ] WRITES [ U(I) ]\n"
    "DEFINE PHASE copy GRANULES=20 COST=1 READS [ U(I-1) U(I) U(I+1) ] WRITES [ V(I) ]\n"
    "DISPATCH relax ENABLE [ copy/MAPPING=UNIVERSAL ]\n"
    "DISPATCH copy\n"
)


def run_cli(*argv: str) -> tuple[int, str]:
    out = StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestTaskLabels:
    def test_label_round_trips(self):
        from repro.core.granule import GranuleSet

        granules = GranuleSet.from_ranges([(0, 4), (6, 9)])
        label = format_task_label("smooth", 3, granules)
        assert parse_task_label(label) == ("smooth", 3, ((0, 4), (6, 9)))

    def test_non_task_labels_rejected(self):
        for label in ("init:load", "complete:smooth", "assign:P3", "", "x#y:z"):
            assert parse_task_label(label) is None


class TestTaskExtraction:
    def test_trace_yields_every_executed_task(self):
        program = compile_program(CLEAN)
        result = run_program(program, 4, seed=0)
        tasks, notes = tasks_from_trace(result.trace)
        assert notes == []
        assert len(tasks) == result.tasks_executed
        assert {t.phase for t in tasks} == {"load", "smooth"}
        assert sum(t.n_granules for t in tasks) == 32
        # sorted by start time, deterministic tie-break
        assert all(a.start <= b.start for a, b in zip(tasks, tasks[1:]))

    def test_spans_agree_with_trace(self):
        program = compile_program(CLEAN)
        result = run_program(program, 4, seed=0)
        from_trace, _ = tasks_from_trace(result.trace)
        from_spans, _ = tasks_from_spans(spans_from_trace(result.trace))
        assert len(from_spans) == len(from_trace)
        assert {(t.phase, t.ranges, t.start, t.end) for t in from_spans} == {
            (t.phase, t.ranges, t.start, t.end) for t in from_trace
        }


class TestCleanRuns:
    def test_clean_program_sanitizes_ok(self):
        program = compile_program(CLEAN)
        result = run_program(program, 4, seed=0)
        report = sanitize_result(result, program)
        assert report.ok, report.render_text()
        assert report.n_tasks == result.tasks_executed
        assert report.n_pairs == 1
        assert "OK" in report.render_text()

    @pytest.mark.parametrize(
        "example,extra",
        [
            ("pipeline.pax", ()),
            ("checkerboard.pax", ()),
            ("gather_scatter.pax", ()),
            ("branch_loop.pax", ("--set", "MODE=0")),
        ],
    )
    def test_clean_examples_zero_findings(self, example, extra):
        code, text = run_cli(
            "compile", str(EXAMPLES / example), "--run", "--sanitize", *extra
        )
        assert code == 0, text
        assert "sanitizer: OK" in text

    def test_sanitize_flag_does_not_change_saved_bytes(self, tmp_path):
        program = compile_program(CLEAN)
        result = run_program(program, 4, seed=0)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_result(result, a)
        sanitize_result(result, program)  # must be read-only on the result
        save_result(result, b)
        assert a.read_bytes() == b.read_bytes()


class TestInjectedRace:
    def test_sanitizer_catches_overpermissive_mapping(self):
        assert {d.rule_id for d in lint_source(RACY)} == {"RDN001"}
        program = compile_program(RACY)
        result = run_program(program, 8, seed=0)
        report = sanitize_result(result, program)
        assert not report.ok
        kinds = {f.kind for f in report.findings}
        assert kinds & {"race", "latent-race"}
        assert all(f.pred == "relax" and f.succ == "copy" for f in report.findings)

    def test_admission_guard_agrees(self):
        program = compile_program(RACY)
        with pytest.raises(CrossCheckError):
            run_program(program, 8, seed=0, admission_guard=AdmissionGuard(program))


def _fake_saved_run(succ_start: float) -> dict:
    """A two-phase IDENTITY run where the successor starts at ``succ_start``.

    The predecessor's single task covers granules [0,4) over [0, 10).
    """
    def rec(time, kind, subject, label):
        return {"time": time, "kind": kind, "subject": subject,
                "detail": {"label": label}}

    p = "p#0:GranuleSet([0,4))"
    q = "q#1:GranuleSet([0,4))"
    return {
        "summary": {
            "phases": [
                {"stream": 0, "index": 0, "name": "p"},
                {"stream": 0, "index": 1, "name": "q"},
            ]
        },
        "trace": {
            "records": [
                rec(0.0, "task_start", "P0", p),
                rec(10.0, "task_end", "P0", p),
                rec(succ_start, "task_start", "P1", q),
                rec(succ_start + 5.0, "task_end", "P1", q),
            ],
            "intervals": [],
        },
    }


ORDERED = (
    "DEFINE PHASE p GRANULES=4 READS [ A(I) ] WRITES [ B(I) ]\n"
    "DEFINE PHASE q GRANULES=4 READS [ B(I) ] WRITES [ C(I) ]\n"
    "DISPATCH p ENABLE [ q/MAPPING=IDENTITY ]\n"
    "DISPATCH q\n"
)


def _many_task_saved_run(n_tasks: int, early: set[int]) -> dict:
    """``p`` then ``q`` of ``ORDERED``, ``n_tasks`` one-granule tasks each;
    the ``q`` tasks in ``early`` start before their ``p`` granule ends."""

    def rec(time, kind, subject, label):
        return {"time": time, "kind": kind, "subject": subject,
                "detail": {"label": label}}

    records = []
    for g in range(n_tasks):
        p = f"p#0:GranuleSet([{g},{g + 1}))"
        q = f"q#1:GranuleSet([{g},{g + 1}))"
        start = 5.0 if g in early else 10.0 + g
        records += [
            rec(0.0, "task_start", f"P{g}", p),
            rec(10.0 + g, "task_end", f"P{g}", p),
            rec(start, "task_start", f"P{g}", q),
            rec(start + 1.0, "task_end", f"P{g}", q),
        ]
    source = ORDERED.replace("GRANULES=4", f"GRANULES={n_tasks}")
    phases = [
        {"stream": 0, "index": 0, "name": "p"},
        {"stream": 0, "index": 1, "name": "q"},
    ]
    return source, {"summary": {"phases": phases}, "trace": {"records": records, "intervals": []}}


def _walk_only(monkeypatch) -> None:
    """Check every covered pair with the per-task segment walk."""
    monkeypatch.setattr(sanitizer, "_vectorized_covered", lambda *args: None)


class TestCoveredPairPaths:
    """The broadcast and the per-task walk give one report."""

    @pytest.mark.parametrize("n_tasks", [3, 40])
    @pytest.mark.parametrize("early", [set(), {1}, {0, 2}])
    def test_saved_runs(self, monkeypatch, n_tasks, early):
        source, data = _many_task_saved_run(n_tasks, early)
        program = compile_program(source)
        broadcast = sanitize_saved(data, program).to_dict()
        _walk_only(monkeypatch)
        assert sanitize_saved(data, program).to_dict() == broadcast
        assert broadcast["ok"] == (not early)

    @pytest.mark.parametrize("source", [CLEAN, RACY, ORDERED])
    @pytest.mark.parametrize("workers", [2, 8])
    def test_simulated_runs(self, monkeypatch, source, workers):
        program = compile_program(source)
        result = run_program(program, workers, seed=0, sizer=TaskSizer(8.0))
        broadcast = sanitize_result(result, program).to_dict()
        _walk_only(monkeypatch)
        assert sanitize_result(result, program).to_dict() == broadcast


class TestSavedRuns:
    def test_order_violation_detected(self):
        # q starts at t=5 < the declared-required completion at t=10:
        # the executive broke its own IDENTITY interlock
        program = compile_program(ORDERED)
        report = sanitize_saved(_fake_saved_run(succ_start=5.0), program)
        assert not report.ok
        assert [f.kind for f in report.findings] == ["order-violation"]
        assert report.findings[0].severity == "error"
        assert "incomplete when a successor task started" in report.findings[0].message

    def test_properly_ordered_saved_run_is_ok(self):
        program = compile_program(ORDERED)
        report = sanitize_saved(_fake_saved_run(succ_start=10.0), program)
        assert report.ok, report.render_text()

    def test_schedule_mismatch_detected(self):
        other = compile_program(
            "DEFINE PHASE x GRANULES=4\nDEFINE PHASE y GRANULES=4\n"
            "DISPATCH x\nDISPATCH y\n"
        )
        report = sanitize_saved(_fake_saved_run(succ_start=10.0), other)
        assert [f.kind for f in report.findings] == ["schedule-mismatch"]

    def test_missing_trace_raises(self):
        program = compile_program(ORDERED)
        with pytest.raises(ValueError, match="no trace"):
            sanitize_saved({"summary": {"phases": []}}, program)

    def test_saved_round_trip_matches_live(self, tmp_path):
        program = compile_program(RACY)
        result = run_program(program, 8, seed=0)
        path = tmp_path / "run.json"
        save_result(result, path)
        live = sanitize_result(result, program)
        saved = sanitize_saved(json.loads(path.read_text()), program)
        assert [f.to_dict() for f in saved.findings] == [
            f.to_dict() for f in live.findings
        ]

    def test_check_run_cli(self, tmp_path):
        src = tmp_path / "racy.pax"
        src.write_text(RACY)
        run_json = tmp_path / "run.json"
        code, _ = run_cli("compile", str(src), "--run", "--save", str(run_json))
        assert code == 0
        code, text = run_cli("lint", "--check-run", str(run_json), str(src))
        assert code == 1
        assert "RDN001" in text  # static verdict printed first
        assert "sanitizer:" in text and "finding(s)" in text

    def test_check_run_requires_single_source(self, tmp_path):
        code, _ = run_cli("lint", "--check-run", "run.json", "a.pax", "b.pax")
        assert code == 2


_DECLARED = ["UNIVERSAL", "IDENTITY", "NULL", "SEAM(0)", "SEAM(-1,0,1)", "SEAM(1)"]


def _two_phase_source(n: int, stencil: frozenset[int], shared: bool, decl: str) -> str:
    array = "U" if shared else "R"
    reads = " ".join(
        f"{array}(I{o:+d})" if o else f"{array}(I)" for o in sorted(stencil)
    )
    return (
        f"DEFINE PHASE p GRANULES={n} COST=1.0 READS [ F(I) ] WRITES [ U(I) ]\n"
        f"DEFINE PHASE q GRANULES={n} COST=1.0 READS [ {reads} ] WRITES [ V(I) ]\n"
        f"DISPATCH p ENABLE [ q/MAPPING={decl} ]\n"
        f"DISPATCH q\n"
    )


class TestDifferential:
    """Sanitizer verdicts agree with ``classify_pair`` on random programs."""

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=4, max_value=20),
        stencil=st.frozensets(
            st.integers(min_value=-2, max_value=2), min_size=1, max_size=3
        ),
        shared=st.booleans(),
        decl=st.sampled_from(_DECLARED),
        workers=st.sampled_from([2, 4, 8]),
    )
    def test_safe_declarations_sanitize_clean(self, n, stencil, shared, decl, workers):
        src = _two_phase_source(n, stencil, shared, decl)
        program = compile_program(src)
        declared = classification_of(program.mapping_between("p", "q"), "p", "q")
        inferred = classify_pair(program.phases["p"], program.phases["q"])
        safe = enables_no_more_than(declared, inferred)

        result = run_program(program, workers, seed=0)
        report = sanitize_result(result, program)

        if safe:
            # a sound declaration can never produce a sanitizer finding
            assert report.ok, f"{src}\n{report.render_text()}"
        else:
            # the static analyzer must already flag what the sanitizer could
            assert "RDN001" in {d.rule_id for d in lint_source(src)}
        # ...and any dynamic race implies the static race verdict
        if any(f.kind in ("race", "latent-race") for f in report.findings):
            assert not safe
