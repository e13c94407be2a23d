"""Golden sweep and grid reports: the bytes a version of the code writes.

The byte-identity tests in ``test_sweep.py`` and ``test_grid.py`` compare
serial with pooled runs of the same code.  These pin the report and
manifest bytes themselves (``tests/golden/sweep_digests.json``), and
resume manifests an earlier version tore mid-write (``tests/golden/torn``),
so a change to the drivers cannot move a report without moving a digest.
"""

from __future__ import annotations

import shutil

import pytest

from tests.golden.sweeps import load_cases, run_case, sha256, sorted_manifest, torn_path

CASES = load_cases()
TORN = [case_id for case_id, entry in CASES.items() if entry.get("manifest")]
#: every case inline, and the shared-map grid once more on two pool
#: workers, where each worker builds the composite maps of the cells it runs
RUNS = [pytest.param(case_id, 1, id=case_id) for case_id in sorted(CASES)] + [
    pytest.param("grid/composite-maps", 2, id="grid/composite-maps-workers2")
]


@pytest.mark.parametrize("case_id, workers", RUNS)
def test_inline_report_matches_golden(case_id, workers):
    entry = CASES[case_id]
    outcome = run_case(entry, workers=workers)
    assert sha256(outcome.report.to_json()) == entry["digest"], (
        f"golden sweep case {case_id} changed (see tests/golden/README.md)"
    )


@pytest.mark.parametrize("case_id", TORN)
def test_manifest_matches_golden(case_id, tmp_path):
    entry = CASES[case_id]
    path = tmp_path / "manifest.jsonl"
    run_case(entry, workers=1, manifest_path=path)
    assert sha256(path.read_bytes()) == entry["manifest"]


@pytest.mark.parametrize("case_id", TORN)
def test_torn_manifest_resumes_to_golden(case_id, tmp_path):
    """A sweep resumes inline and a grid on two workers; both must land
    on the recorded report, and journal exactly the recorded records."""
    entry = CASES[case_id]
    path = tmp_path / "manifest.jsonl"
    shutil.copyfile(torn_path(case_id), path)
    sweep = entry["kind"] == "sweep"
    outcome = run_case(entry, workers=1 if sweep else 2, manifest_path=path, resume=True)
    assert outcome.resumed == entry["torn_after"]
    assert sha256(outcome.report.to_json()) == entry["digest"]
    text = path.read_text(encoding="utf-8")
    if not sweep:
        text = sorted_manifest(text, "cell")
    assert sha256(text) == entry["manifest"]
