"""Record the golden metric digests in ``metric_digests.json``.

Each case of ``sim_digests.json`` is run again, its metrics are derived
with :func:`~repro.obs.telemetry.record_run_metrics` (what ``repro
stats`` prints), and the snapshot is hashed: every counter and histogram
series, with its help text, as canonical JSON (sorted keys, every float
rounded to 9 significant digits).  The simulation digests pin the run;
these pin the metrics read from it.  ``tests/test_metric_golden.py``
runs the check.

The digests were first recorded from live telemetry, which the
simulator published while it ran, without its two queue-depth series;
the metrics derived from the finished trace match them.

Usage, from the repository root::

    PYTHONPATH=src python -m tests.golden.metrics            # re-record all
    PYTHONPATH=src python -m tests.golden.metrics --check    # compare only

See ``README.md`` beside this file for when re-recording is legitimate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Any

from repro.obs import MetricsRegistry, record_run_metrics
from tests.golden.record import load_cases, run_case

DIGESTS_PATH = Path(__file__).with_name("metric_digests.json")


def metric_snapshot(spec: dict[str, Any]) -> dict[str, Any]:
    """The metrics snapshot of the run ``spec`` describes."""
    registry = MetricsRegistry()
    record_run_metrics(run_case(spec), registry)
    return registry.snapshot()


def _rounded(value: Any) -> Any:
    if isinstance(value, float):
        return float(f"{value:.9g}")
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    return value


def digest(snapshot: dict[str, Any]) -> str:
    text = json.dumps(_rounded(snapshot), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare, write nothing")
    args = parser.parse_args(argv)

    recorded = (
        json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))["cases"]
        if DIGESTS_PATH.exists()
        else {}
    )
    new = {}
    changed = []
    for case_id, entry in sorted(load_cases().items()):
        new[case_id] = digest(metric_snapshot(entry["spec"]))
        if recorded.get(case_id) != new[case_id]:
            changed.append(case_id)
            print(f"changed: {case_id}")
    if args.check:
        print(f"{len(changed)} of {len(new)} digest(s) differ")
        return 1 if changed else 0
    DIGESTS_PATH.write_text(
        json.dumps({"cases": new}, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"recorded {len(new)} digest(s), {len(changed)} changed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
