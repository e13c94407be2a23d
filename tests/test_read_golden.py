"""Golden read-side digests: what the profiler and exporters read back.

Each case saves a run with ``repro simulate --save`` and compares the
sha256 of ``repro profile --json`` and of both ``repro export-trace``
formats with ``tests/golden/read_digests.json``.  The simulation digests
pin the saved trace; these pin every reader of it, so a change to how
the trace is stored cannot move what a user reads from a ``RUN.json``.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.cli import main
from tests.golden.reads import OUTPUTS, load_cases, read_digests

CASES = load_cases()


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_reads_match_golden(case_id, tmp_path):
    entry = CASES[case_id]
    got = read_digests(entry["simulate"], tmp_path)
    changed = [name for name in OUTPUTS if got[name] != entry["digests"][name]]
    assert changed == [], (
        f"golden read case {case_id} changed {changed} (see tests/golden/README.md)"
    )


def test_fault_case_records_every_fault_kind(tmp_path):
    """The crash-and-transient case is the one that reads fault records."""
    run = tmp_path / "RUN.json"
    argv = ["simulate", *CASES["casper-w16-s3-crash-transient"]["simulate"], "--save", str(run)]
    assert main(argv, out=io.StringIO()) == 0
    data = json.loads(run.read_text(encoding="utf-8"))
    kinds = {r["kind"] for r in data["trace"]["records"]}
    assert {"task_lost", "processor_failed", "task_retry", "phase_stalled"} <= kinds
