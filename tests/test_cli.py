"""Tests for the command-line interface."""

from __future__ import annotations

import io
from pathlib import Path

import pytest

from repro.cli import main


def run_cli(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestLeftover:
    def test_paper_numbers(self):
        code, text = run_cli("leftover", "524288", "1000")
        assert code == 0
        assert "524" in text and "288" in text and "712" in text

    def test_exact_division(self):
        code, text = run_cli("leftover", "100", "10")
        assert code == 0
        assert "idle processors final wave : 0" in text


class TestCensus:
    def test_prints_paper_table(self):
        code, text = run_cli("census")
        assert code == 0
        assert "identity" in text and "551" in text
        assert "68%" in text


class TestSimulate:
    @pytest.mark.parametrize("workload", ["identity", "universal", "checkerboard", "particles"])
    def test_workloads_run(self, workload):
        code, text = run_cli("simulate", workload, "--workers", "4")
        assert code == 0
        assert "makespan" in text and "utilization" in text

    def test_barrier_flag(self):
        _, overlap_text = run_cli("simulate", "identity", "--workers", "4")
        _, barrier_text = run_cli("simulate", "identity", "--workers", "4", "--barrier")
        assert "barrier" in barrier_text
        assert "overlap" in overlap_text

    def test_gantt_output(self):
        code, text = run_cli("simulate", "identity", "--workers", "2", "--gantt",
                             "--gantt-width", "40")
        assert code == 0
        assert "P0" in text and "|" in text

    def test_extensions_flags(self):
        code, text = run_cli(
            "simulate", "identity", "--workers", "4",
            "--middle-managers", "2", "--lateral-handoff",
        )
        assert code == 0
        assert "lateral hand-offs" in text

    def test_shared_executive(self):
        code, _ = run_cli("simulate", "identity", "--workers", "4", "--shared-executive")
        assert code == 0

    def test_lateral_handoff_run_sanitizes_clean(self):
        code, text = run_cli("simulate", "casper", "--lateral-handoff", "--sanitize")
        assert code == 0, text
        assert "lateral hand-offs" in text
        assert " error " not in text and "does not match any scheduled phase run" not in text
        assert "sanitizer: OK" in text


class TestStats:
    @pytest.mark.parametrize("workload", ["identity", "universal"])
    def test_prints_attribution_and_snapshot(self, workload):
        code, text = run_cli("stats", workload, "--workers", "4")
        assert code == 0
        assert "overlap admissions" in text
        assert "rundown idle attribution" in text
        for p in range(4):
            assert f"rundown.idle_seconds{{processor=\"P{p}\"}}" in text
        assert "overlap.admitted_total" in text
        assert "scheduler.tasks_dispatched_total" in text

    def test_barrier_shows_rejections(self):
        code, text = run_cli("stats", "identity", "--workers", "4", "--barrier")
        assert code == 0
        assert "rejected: barrier_policy" in text

    def test_save_writes_run(self, tmp_path):
        path = tmp_path / "run.json"
        code, _ = run_cli("stats", "identity", "--workers", "2", "--save", str(path))
        assert code == 0 and path.exists()


class TestExportTrace:
    def _saved_run(self, tmp_path):
        path = tmp_path / "run.json"
        code, _ = run_cli("simulate", "identity", "--workers", "2", "--save", str(path))
        assert code == 0
        return path

    def test_chrome_roundtrip(self, tmp_path):
        import json

        src = self._saved_run(tmp_path)
        out = tmp_path / "out.trace.json"
        code, text = run_cli("export-trace", str(src), "-o", str(out))
        assert code == 0 and out.exists()
        doc = json.loads(out.read_text())
        events = doc["traceEvents"]
        assert events
        for e in events:
            assert {"ph", "ts", "pid", "tid"} <= set(e)
        assert any(e["ph"] == "X" for e in events)

    def test_default_output_path(self, tmp_path):
        src = self._saved_run(tmp_path)
        code, text = run_cli("export-trace", str(src))
        assert code == 0
        assert (tmp_path / "run.trace.json").exists()

    def test_jsonl_format(self, tmp_path):
        from repro.obs.spans import load_jsonl

        src = self._saved_run(tmp_path)
        out = tmp_path / "spans.jsonl"
        code, _ = run_cli("export-trace", str(src), "--format", "jsonl", "-o", str(out))
        assert code == 0
        spans = load_jsonl(out)
        assert spans and all(s.end >= s.start for s in spans)

    def test_missing_file(self):
        code, _ = run_cli("export-trace", "/nonexistent.json")
        assert code == 2

    @pytest.mark.parametrize("command", ["export-trace", "profile"])
    def test_non_dict_detail(self, tmp_path, capsys, command):
        import json

        src = self._saved_run(tmp_path)
        data = json.loads(src.read_text())
        data["trace"]["records"][0]["detail"] = "x"
        src.write_text(json.dumps(data))
        code, _ = run_cli(command, str(src))
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        # a list of pairs loads, as dict() reads it
        data["trace"]["records"][0]["detail"] = []
        src.write_text(json.dumps(data))
        assert run_cli(command, str(src))[0] == 0


class TestCompile:
    SOURCE = (
        "DEFINE PHASE a GRANULES=16\n"
        "DEFINE PHASE b GRANULES=16\n"
        "DISPATCH a ENABLE [b/MAPPING=IDENTITY]\n"
        "DISPATCH b\n"
    )

    def test_compile_prints_schedule_and_links(self, tmp_path):
        f = tmp_path / "prog.pax"
        f.write_text(self.SOURCE)
        code, text = run_cli("compile", str(f))
        assert code == 0
        assert "schedule : ['a', 'b']" in text
        assert "a -> b" in text and "identity" in text

    def test_compile_run_defaults_declared_map_generators(self):
        # a program with a MAP but no registered generator must simulate
        # with a synthesized random map, not crash
        code, text = run_cli("compile", "examples/gather_scatter.pax", "--run")
        assert code == 0
        assert "random default generators for ['IMAP']" in text
        assert "makespan" in text

    def test_compile_and_run(self, tmp_path):
        f = tmp_path / "prog.pax"
        f.write_text(self.SOURCE)
        code, text = run_cli("compile", str(f), "--run", "--workers", "4")
        assert code == 0
        assert "makespan" in text

    def test_verification_failure_exit_code(self, tmp_path):
        f = tmp_path / "bad.pax"
        f.write_text(
            "DEFINE PHASE a GRANULES=4\nDEFINE PHASE b GRANULES=4\nDEFINE PHASE c GRANULES=4\n"
            "DISPATCH a ENABLE [b/MAPPING=IDENTITY]\nDISPATCH c\n"
        )
        code, _ = run_cli("compile", str(f))
        assert code == 1

    def test_missing_file(self):
        code, _ = run_cli("compile", "/nonexistent/file.pax")
        assert code == 2

    def test_env_bindings(self, tmp_path):
        f = tmp_path / "branch.pax"
        f.write_text(
            "DEFINE PHASE m GRANULES=8\nDEFINE PHASE x GRANULES=8\nDEFINE PHASE y GRANULES=8\n"
            "DISPATCH m ENABLE/BRANCHINDEPENDENT [x/MAPPING=IDENTITY y/MAPPING=UNIVERSAL]\n"
            "IF (K .EQ. 0) THEN GOTO other\nDISPATCH x\nGOTO end\nother:\nDISPATCH y\nend:\n"
        )
        code, text = run_cli("compile", str(f), "--set", "K=0")
        assert code == 0 and "'y'" in text
        code, text = run_cli("compile", str(f), "--set", "K=1")
        assert code == 0 and "'x'" in text

    def test_bad_binding(self, tmp_path):
        f = tmp_path / "p.pax"
        f.write_text(self.SOURCE)
        code, _ = run_cli("compile", str(f), "--set", "K=abc")
        assert code == 2


class TestGanttCommand:
    def test_save_and_render(self, tmp_path):
        path = tmp_path / "run.json"
        code, text = run_cli("simulate", "identity", "--workers", "2", "--save", str(path))
        assert code == 0 and path.exists()
        code, chart = run_cli("gantt", str(path), "--width", "40")
        assert code == 0
        assert "P0" in chart and "|" in chart

    def test_window_options(self, tmp_path):
        path = tmp_path / "run.json"
        run_cli("simulate", "identity", "--workers", "2", "--save", str(path))
        code, chart = run_cli("gantt", str(path), "--width", "30", "--from", "0", "--to", "5")
        assert code == 0

    def test_missing_file(self):
        code, _ = run_cli("gantt", "/nonexistent.json")
        assert code == 2

    def test_bare_trace_accepted(self, tmp_path):
        from repro.core.mapping import IdentityMapping
        from repro.core.overlap import OverlapConfig
        from repro.executive import run_program
        from repro.sim.persist import save_trace
        from tests.conftest import two_phase_program

        r = run_program(two_phase_program(IdentityMapping(), n=16), 2, config=OverlapConfig())
        path = tmp_path / "trace.json"
        save_trace(r.trace, path)
        code, chart = run_cli("gantt", str(path), "--width", "30")
        assert code == 0 and "EXEC" in chart


class TestProfileCommand:
    def _saved_run(self, tmp_path):
        path = tmp_path / "run.json"
        code, _ = run_cli("simulate", "identity", "--workers", "2", "--save", str(path))
        assert code == 0
        return path

    def test_text_waterfall(self, tmp_path):
        code, text = run_cli("profile", str(self._saved_run(tmp_path)))
        assert code == 0
        assert "run waterfall" in text and "critical path" in text
        assert "barrier_wait" in text or "idle" in text

    def test_json_output_and_save(self, tmp_path):
        import json

        out = tmp_path / "wf.json"
        code, text = run_cli(
            "profile", str(self._saved_run(tmp_path)), "--json", "-o", str(out)
        )
        assert code == 0 and out.exists()
        doc = json.loads(out.read_text())
        assert doc["kind"] == "waterfall"
        assert doc["resources"] and doc["critical_path"]
        assert json.loads(text.split("saved waterfall report")[0]) == doc

    def test_missing_file(self):
        code, _ = run_cli("profile", "/nonexistent.json")
        assert code == 2


class TestSweepSupervisionFlags:
    ARGS = ("sweep", "identity", "--replications", "2", "--seed", "7",
            "--sim-workers", "4")

    def test_hang_flag_recovers_byte_identical(self, tmp_path):
        clean, chaotic = tmp_path / "clean.json", tmp_path / "chaos.json"
        assert run_cli(*self.ARGS, "-o", str(clean))[0] == 0
        code, text = run_cli(
            *self.ARGS, "--workers", "2", "--hang-replication", "1",
            "--task-timeout", "1", "-o", str(chaotic),
        )
        assert code == 0
        assert clean.read_bytes() == chaotic.read_bytes()
        assert "hangs        : " in text and "preempted" in text

    def test_slow_flag_parses_and_stays_identical(self, tmp_path):
        clean, slowed = tmp_path / "clean.json", tmp_path / "slow.json"
        assert run_cli(*self.ARGS, "-o", str(clean))[0] == 0
        code, _ = run_cli(
            *self.ARGS, "--workers", "2", "--slow-replication", "0:0.2",
            "-o", str(slowed),
        )
        assert code == 0
        assert clean.read_bytes() == slowed.read_bytes()

    def test_malformed_slow_spec_rejected(self, capsys):
        code, _ = run_cli(*self.ARGS, "--slow-replication", "nope")
        assert code == 2
        assert "R:SECONDS" in capsys.readouterr().err

    def test_chaos_seed_env_var_drives_the_harness(self, tmp_path, monkeypatch):
        clean, chaotic = tmp_path / "clean.json", tmp_path / "chaos.json"
        monkeypatch.delenv("REPRO_CHAOS_SEED", raising=False)
        assert run_cli(*self.ARGS, "-o", str(clean))[0] == 0
        monkeypatch.setenv("REPRO_CHAOS_SEED", "1")
        code, _ = run_cli(
            *self.ARGS, "--workers", "2", "--task-timeout", "2",
            "--heartbeat-timeout", "3", "-o", str(chaotic),
        )
        assert code == 0
        assert clean.read_bytes() == chaotic.read_bytes()

    def test_supervise_flag_alone_changes_nothing(self, tmp_path):
        clean, supervised = tmp_path / "clean.json", tmp_path / "sup.json"
        assert run_cli(*self.ARGS, "-o", str(clean))[0] == 0
        code, _ = run_cli(
            *self.ARGS, "--workers", "2", "--supervise", "-o", str(supervised)
        )
        assert code == 0
        assert clean.read_bytes() == supervised.read_bytes()


class TestSweepProfileFlag:
    def test_profile_report_written_alongside_output(self, tmp_path):
        import json

        out = tmp_path / "sweep.json"
        code, text = run_cli(
            "sweep", "identity", "--replications", "2", "--seed", "7",
            "--sim-workers", "4", "--profile", "-o", str(out),
        )
        assert code == 0
        assert "pool profile" in text and "attribution coverage" in text
        profile_path = tmp_path / "sweep.profile.json"
        assert profile_path.exists()
        doc = json.loads(profile_path.read_text())
        assert doc["kind"] == "profile-report"
        assert doc["pool"]["task_count"] == 2
        assert doc["meta"]["workload"] == "identity"

    def test_explicit_profile_path(self, tmp_path):
        target = tmp_path / "my.profile.json"
        code, _ = run_cli(
            "sweep", "identity", "--replications", "2", "--seed", "7",
            "--sim-workers", "4", "--profile", str(target),
        )
        assert code == 0 and target.exists()

    def test_report_bytes_unchanged_by_profiling(self, tmp_path):
        plain, profiled = tmp_path / "plain.json", tmp_path / "prof.json"
        args = ("sweep", "identity", "--replications", "2", "--seed", "7",
                "--sim-workers", "4")
        assert run_cli(*args, "-o", str(plain))[0] == 0
        assert run_cli(*args, "-o", str(profiled), "--profile")[0] == 0
        assert plain.read_bytes() == profiled.read_bytes()

    def test_grid_profile(self, tmp_path):
        import json

        target = tmp_path / "grid.profile.json"
        code, text = run_cli(
            "sweep", "identity", "--replications", "1", "--seed", "7",
            "--sim-workers", "4", "--grid", "sim_workers=4,8",
            "--profile", str(target),
        )
        assert code == 0 and target.exists()
        doc = json.loads(target.read_text())
        assert doc["meta"]["command"] == "sweep --grid"
        assert doc["pool"]["what"] == "cell"


class TestExportTraceStreaming:
    def _spans_jsonl(self, tmp_path):
        run = tmp_path / "run.json"
        assert run_cli("simulate", "identity", "--workers", "2", "--save", str(run))[0] == 0
        jsonl = tmp_path / "run.spans.jsonl"
        assert run_cli("export-trace", str(run), "--format", "jsonl", "-o", str(jsonl))[0] == 0
        return run, jsonl

    def test_jsonl_input_to_chrome(self, tmp_path):
        import json

        _, jsonl = self._spans_jsonl(tmp_path)
        out = tmp_path / "from_jsonl.trace.json"
        code, text = run_cli("export-trace", str(jsonl), "-o", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert any(e["ph"] == "X" for e in doc["traceEvents"])

    def test_jsonl_input_round_trips(self, tmp_path):
        _, jsonl = self._spans_jsonl(tmp_path)
        out = tmp_path / "copy.spans.jsonl"
        code, _ = run_cli("export-trace", str(jsonl), "--format", "jsonl", "-o", str(out))
        assert code == 0
        assert out.read_text() == jsonl.read_text()

    def test_streaming_chrome_matches_legacy_document_shape(self, tmp_path):
        import json

        run, _ = self._spans_jsonl(tmp_path)
        out = tmp_path / "run.trace.json"
        code, text = run_cli("export-trace", str(run), "-o", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["displayTimeUnit"] == "ms"
        assert f"wrote {len(doc['traceEvents'])} chrome events" in text


class TestStatsExports:
    def test_prom_and_jsonl_exports(self, tmp_path):
        import json

        prom = tmp_path / "metrics.prom"
        jsonl = tmp_path / "metrics.jsonl"
        code, text = run_cli(
            "stats", "identity", "--workers", "4",
            "--prom", str(prom), "--metrics-jsonl", str(jsonl),
        )
        assert code == 0
        assert "wrote Prometheus metrics" in text
        prom_text = prom.read_text()
        assert "# TYPE" in prom_text and "rundown_idle_seconds" in prom_text
        line = json.loads(jsonl.read_text().splitlines()[0])
        assert line["meta"]["source"] == "identity"
        assert "rundown.idle_seconds" in line["metrics"]


class TestStatsSweepMalformed:
    """``stats --sweep`` reads sweep and grid reports through one reader:
    a malformed report is an ``error:`` line and exit 2, never a
    traceback or a half-printed table."""

    @staticmethod
    def _sweep_report(tmp_path):
        import json

        path = tmp_path / "sweep.json"
        code, _ = run_cli(
            "sweep", "identity", "--replications", "2", "--sim-workers", "4",
            "-o", str(path),
        )
        assert code == 0
        return path, json.loads(path.read_text())

    def _stats(self, capsys, path):
        code, text = run_cli("stats", "--sweep", str(path))
        return code, text, capsys.readouterr().err

    def test_json_list(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        code, text, err = self._stats(capsys, path)
        assert code == 2 and text == ""
        assert err.startswith("error: ") and "not a sweep or grid report" in err

    def test_sweep_replication_without_makespan(self, tmp_path, capsys):
        import json

        path, doc = self._sweep_report(tmp_path)
        del doc["replications"][1]["makespan"]
        path.write_text(json.dumps(doc))
        code, text, err = self._stats(capsys, path)
        assert code == 2 and text == ""
        assert err == "error: 'makespan'\n"

    def test_grid_cell_without_utilization(self, tmp_path, capsys):
        import json

        path = tmp_path / "grid.json"
        code, _ = run_cli(
            "sweep", "identity", "--grid", "sim_workers=2,4", "--replications", "1",
            "-o", str(path),
        )
        assert code == 0
        doc = json.loads(path.read_text())
        del doc["cells"][1]["utilization"]
        path.write_text(json.dumps(doc))
        code, text, err = self._stats(capsys, path)
        assert code == 2 and text == ""
        assert err == "error: 'utilization'\n"


_PIPELINE = Path(__file__).resolve().parents[1] / "examples" / "pipeline.pax"

#: Ways to break a saved run: each edits the document in place or
#: returns the document to save instead.
_MALFORMED_RUNS = {
    "detail-number": lambda doc: doc["trace"]["records"][3].update(detail=5),
    "time-list": lambda doc: doc["trace"]["records"][3].update(time=[1]),
    "interval-start-list": lambda doc: doc["trace"]["intervals"][3].update(start=[1]),
    "interval-resource-number": lambda doc: doc["trace"]["intervals"][3].update(resource=5),
    "subject-number": lambda doc: doc["trace"]["records"][3].update(subject=5),
    "records-object": lambda doc: doc["trace"].update(records={"0": {}}),
    "trace-list": lambda doc: doc.update(trace=[]),
    "unknown-kind": lambda doc: doc["trace"]["records"][3].update(kind="no_such_kind"),
    "run-list": lambda doc: [doc],
}

#: Every command that reads a saved run, with the run's path as ``{}``.
_RUN_READERS = {
    "export-trace": ["export-trace", "{}", "-o", "{}.out"],
    "profile": ["profile", "{}"],
    "gantt": ["gantt", "{}"],
    "lint-check-run": ["lint", "--check-run", "{}", str(_PIPELINE)],
}


class TestMalformedSavedRun:
    """Every reader of a saved run loads it through ``trace_from_dict``:
    a malformed run is an ``error:`` line and exit 2, never a traceback."""

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        import json

        path = tmp_path_factory.mktemp("saved") / "run.json"
        code, _ = run_cli("compile", str(_PIPELINE), "--run", "--save", str(path))
        assert code == 0
        return json.loads(path.read_text())

    @pytest.mark.parametrize("breakage", sorted(_MALFORMED_RUNS))
    @pytest.mark.parametrize("command", sorted(_RUN_READERS))
    def test_exits_2_with_an_error_line(self, saved, command, breakage, tmp_path, capsys):
        import copy
        import json

        doc = copy.deepcopy(saved)
        doc = _MALFORMED_RUNS[breakage](doc) or doc
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        argv = [arg.replace("{}", str(path)) for arg in _RUN_READERS[command]]
        code, text = run_cli(*argv)
        err = capsys.readouterr().err
        assert code == 2, text
        assert err.startswith("error: ") and "saved" in err
