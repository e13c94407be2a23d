"""Record the golden sweep and grid digests in ``sweep_digests.json``.

Each case is one inline ``run_sweep`` or ``run_grid`` call, stored as
plain JSON (the spec's ``to_dict`` form), with the sha256 of its
canonical report.  Cases marked ``manifest`` also pin the sha256 of the
JSONL manifest an inline run journals, and own a torn copy of that
manifest under ``torn/``: the header and the first few records, then
half of the next record with no newline, as a driver killed mid-write
leaves it.  ``tests/test_sweep_golden.py`` re-runs every case, and
resumes every torn manifest, against the recorded digests.

Usage, from the repository root::

    PYTHONPATH=src python -m tests.golden.sweeps            # re-record all
    PYTHONPATH=src python -m tests.golden.sweeps --check    # compare only

Re-recording also rewrites the torn manifests, so they then come from
the recording version of the code.  See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path
from typing import Any

from repro.sweep import GridSpec, SweepSpec, materialize_maps, run_grid, run_sweep

DIGESTS_PATH = Path(__file__).with_name("sweep_digests.json")
TORN_DIR = Path(__file__).with_name("torn")


def load_cases(path: Path = DIGESTS_PATH) -> dict[str, dict[str, Any]]:
    """Case id -> ``{"kind", "spec", "digest", ...}``."""
    return json.loads(path.read_text(encoding="utf-8"))["cases"]


def sha256(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def torn_path(case_id: str) -> Path:
    return TORN_DIR / (case_id.replace("/", "-") + ".jsonl")


def run_case(entry: dict[str, Any], **kwargs: Any):
    """Run one case; ``kwargs`` go to ``run_sweep`` / ``run_grid``."""
    if entry["kind"] == "sweep":
        return run_sweep(SweepSpec.from_dict(entry["spec"]), **kwargs)
    grid = GridSpec.from_dict(entry["spec"])
    shared = materialize_maps(grid) if entry.get("share_maps") else None
    return run_grid(grid, shared_maps=shared, **kwargs)


def sorted_manifest(text: str, key: str) -> str:
    """The manifest with its records in unit order, as an inline run
    writes them; a pooled or resumed run journals them in landing order."""
    header, *records = text.splitlines(keepends=True)
    return header + "".join(sorted(records, key=lambda line: json.loads(line)[key]))


def record_case(case_id: str, entry: dict[str, Any]) -> dict[str, str]:
    """``{"digest": ..., "manifest": ...}`` of one inline run; writes the
    case's torn manifest when it pins one."""
    if not entry.get("manifest"):
        return {"digest": sha256(run_case(entry, workers=1).report.to_json())}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "manifest.jsonl"
        report = run_case(entry, workers=1, manifest_path=path).report
        data = path.read_bytes()
    lines = data.splitlines(keepends=True)
    keep = entry["torn_after"]
    torn = b"".join(lines[: 1 + keep]) + lines[1 + keep][: len(lines[1 + keep]) // 2]
    TORN_DIR.mkdir(exist_ok=True)
    torn_path(case_id).write_bytes(torn)
    return {"digest": sha256(report.to_json()), "manifest": sha256(data)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare, write nothing")
    args = parser.parse_args(argv)

    doc = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
    changed = []
    for case_id, entry in sorted(doc["cases"].items()):
        if args.check:
            new = {"digest": sha256(run_case(entry, workers=1).report.to_json())}
        else:
            new = record_case(case_id, entry)
        if any(entry.get(k) != v for k, v in new.items()):
            changed.append(case_id)
            print(f"changed: {case_id}")
            entry.update(new)
    if args.check:
        print(f"{len(changed)} of {len(doc['cases'])} digest(s) differ")
        return 1 if changed else 0
    DIGESTS_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(doc['cases'])} case(s), {len(changed)} changed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
