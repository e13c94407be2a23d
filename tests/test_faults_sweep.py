"""Crash-safe sweeps: worker kills, pool rebuilds, resumable manifests.

The acceptance property: a sweep whose host workers are killed and
resubmitted, or which is interrupted and resumed from its manifest, must
produce a report *byte-identical* to a fault-free serial sweep of the
same spec — derived seeds make recovery invisible in the output.
"""

from __future__ import annotations

import io
import json
import re
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.cli import main
from repro.faults import FaultInjector, FaultPlan, SweepWorkerHang, SweepWorkerKill, SweepWorkerSlow
from repro.faults.plan import chaos_plan
from repro.sweep import SweepSpec, run_sweep

SPEC = SweepSpec("identity", replications=4, seed=11, sim_workers=4)


def reference_json() -> str:
    """Fault-free serial report — the byte-identity baseline."""
    return run_sweep(SPEC, workers=1).report.to_json()


def run_cli(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestWorkerKills:
    def test_inline_kill_is_byte_identical(self):
        plan = FaultPlan(faults=(SweepWorkerKill(2),))
        outcome = run_sweep(SPEC, workers=1, fault_plan=plan)
        assert outcome.report.to_json() == reference_json()
        assert outcome.worker_restarts == 1

    def test_pool_kill_is_byte_identical(self):
        plan = FaultPlan(faults=(SweepWorkerKill(1),))
        outcome = run_sweep(SPEC, workers=2, fault_plan=plan)
        assert outcome.report.to_json() == reference_json()
        assert outcome.worker_restarts >= 1

    def test_multiple_kills_still_recover(self):
        plan = FaultPlan(faults=(SweepWorkerKill(0), SweepWorkerKill(3)))
        outcome = run_sweep(SPEC, workers=2, fault_plan=plan, max_restarts=4)
        assert outcome.report.to_json() == reference_json()

    def test_submit_racing_a_broken_pool_restarts(self, monkeypatch):
        # a worker death can close the executor's call queue while a
        # submit is spawning a replacement worker, which raises OSError
        real = ProcessPoolExecutor.submit
        calls = []

        def submit(self, fn, *args, **kwargs):
            calls.append(fn)
            if len(calls) == 2:
                raise OSError("handle is closed")
            return real(self, fn, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", submit)
        outcome = run_sweep(SPEC, workers=2, batch_size=1)
        assert outcome.report.to_json() == reference_json()
        assert outcome.worker_restarts == 1

    def test_restart_cap_escalates(self):
        plan = FaultPlan(faults=(SweepWorkerKill(1),))
        with pytest.raises(RuntimeError, match="max_restarts"):
            run_sweep(SPEC, workers=2, fault_plan=plan, max_restarts=0)

    def test_faults_on_one_unit_merge_instead_of_replacing(self):
        # a fault declared next to a chaos plan that draws the same unit
        # (chaos seed 1 slows unit 1 by 0.257 s and hangs unit 3 once):
        # every field keeps its largest value
        plan = FaultPlan(
            faults=(SweepWorkerSlow(1, 5.0), SweepWorkerHang(3, attempts=10))
            + chaos_plan(1, 4).faults
        )
        injector = FaultInjector(plan)
        assert injector.slows_replication(1) == 5.0
        for attempt in range(1, 10):
            assert injector.hangs_replication(3, attempt) is not None
        assert injector.hangs_replication(3, 10) is None
        assert injector.hangs_replication(3, 0).freeze_heartbeat


class TestManifest:
    def test_manifest_journal_and_resume(self, tmp_path):
        manifest = tmp_path / "sweep.jsonl"
        reference = reference_json()

        # full run journals every replication
        first = run_sweep(SPEC, workers=1, manifest_path=manifest)
        lines = manifest.read_text().splitlines()
        assert len(lines) == 1 + SPEC.replications  # header + one per replication
        header = json.loads(lines[0])
        assert header["kind"] == "sweep-manifest"
        assert header["spec"] == SPEC.to_dict()

        # truncate to simulate an interrupted sweep: keep 2 replications
        manifest.write_text("\n".join(lines[:3]) + "\n")
        progressed = []
        resumed = run_sweep(
            SPEC,
            workers=1,
            manifest_path=manifest,
            resume=True,
            progress=lambda done, total: progressed.append(done),
        )
        assert resumed.resumed == 2
        assert progressed == [3, 4]  # only the missing replications ran
        assert resumed.report.to_json() == reference == first.report.to_json()
        # after resume the journal is complete again
        assert len(manifest.read_text().splitlines()) == 1 + SPEC.replications

    def test_resume_tolerates_torn_tail(self, tmp_path):
        manifest = tmp_path / "sweep.jsonl"
        run_sweep(SPEC, workers=1, manifest_path=manifest)
        text = manifest.read_text()
        manifest.write_text(text[: len(text) - 40])  # tear the last record
        resumed = run_sweep(SPEC, workers=1, manifest_path=manifest, resume=True)
        assert resumed.report.to_json() == reference_json()
        # the first resume journaled the torn replication again; a second
        # resume must find every replication, not stop at the old tear
        again = run_sweep(SPEC, workers=1, manifest_path=manifest, resume=True)
        assert again.resumed == SPEC.replications
        assert again.report.to_json() == reference_json()

    def test_resume_refuses_foreign_spec(self, tmp_path):
        manifest = tmp_path / "sweep.jsonl"
        other = SweepSpec("identity", replications=2, seed=99, sim_workers=4)
        run_sweep(other, workers=1, manifest_path=manifest)
        with pytest.raises(ValueError, match="spec"):
            run_sweep(SPEC, workers=1, manifest_path=manifest, resume=True)

    def test_resume_of_complete_manifest_runs_nothing(self, tmp_path):
        manifest = tmp_path / "sweep.jsonl"
        run_sweep(SPEC, workers=1, manifest_path=manifest)
        progressed = []
        resumed = run_sweep(
            SPEC,
            workers=1,
            manifest_path=manifest,
            resume=True,
            progress=lambda done, total: progressed.append(done),
        )
        assert progressed == []
        assert resumed.resumed == SPEC.replications
        assert resumed.report.to_json() == reference_json()


class TestSweepCLI:
    def test_kill_replication_flag(self, tmp_path):
        out_file = tmp_path / "report.json"
        code, out = run_cli(
            "sweep", "identity", "--replications", "3", "--seed", "5",
            "--sim-workers", "4", "--kill-replication", "1",
            "-o", str(out_file),
        )
        assert code == 0
        assert "restarts     : 1" in out
        ref = run_sweep(
            SweepSpec("identity", replications=3, seed=5, sim_workers=4), workers=1
        ).report.to_json()
        assert out_file.read_text() == ref

    def test_manifest_resume_flags(self, tmp_path):
        manifest = tmp_path / "m.jsonl"
        code, _ = run_cli(
            "sweep", "identity", "--replications", "3", "--sim-workers", "4",
            "--manifest", str(manifest),
        )
        assert code == 0
        code, out = run_cli(
            "sweep", "identity", "--replications", "3", "--sim-workers", "4",
            "--manifest", str(manifest), "--resume",
        )
        assert code == 0
        assert "resumed      : 3" in out

    def test_resume_requires_manifest(self):
        code, _ = run_cli("sweep", "identity", "--resume")
        assert code == 2

    @pytest.mark.parametrize(
        "unit, extra",
        [
            pytest.param("replication", ["--replications", "6"], id="sweep"),
            pytest.param("cell", ["--grid", "sim_workers=2,4", "--replications", "3"], id="grid"),
        ],
    )
    def test_spent_restart_budget_names_the_missing_units(self, unit, extra, tmp_path, capsys):
        # batches of three: the kill takes down the task holding units 3-5,
        # and the error must name those units, not the task's batch index
        manifest = tmp_path / "m.jsonl"
        code, _ = run_cli(
            "sweep", "identity", "--workers", "2", "--batch-size", "3",
            "--kill-replication", "4", "--max-restarts", "0",
            "--manifest", str(manifest), *extra,
        )
        assert code == 1
        named = re.search(rf"{unit}s \[([\d, ]*)\] not completed", capsys.readouterr().err)
        assert named is not None
        landed = {json.loads(line)[unit] for line in manifest.read_text().splitlines()[1:]}
        missing = [int(u) for u in named.group(1).split(", ")]
        assert missing == sorted(set(range(6)) - landed)
        assert {3, 4, 5} <= set(missing)
