"""Golden metric digests: what ``repro stats`` reports for each golden run.

Runs every case of ``tests/golden/sim_digests.json`` again and compares
the sha256 of its metrics snapshot with ``tests/golden/metric_digests.json``
(see ``tests/golden/metrics.py``), so a change to how the metrics are
collected cannot move a counter or a histogram without moving a digest.
"""

from __future__ import annotations

from tests.golden.metrics import main


def test_metric_snapshots_match_golden(capsys):
    rc = main(["--check"])
    out = capsys.readouterr().out
    assert rc == 0, f"metric digests changed (see tests/golden/README.md):\n{out}"
