"""Grid-sweep engine benchmark — determinism gates.

Two sections of ``BENCH_grid.json``:

* ``grid_sweep`` — a small grid executed at pool sizes {1, 2, 4} and once
  more under an interrupt-and-``--resume`` cycle; every report must be
  **byte-identical** to the serial reference (hard assertion, the
  engine's acceptance criterion), with wall-clock cells/second reported
  for context (not gated — host-dependent).
* ``shm_transfer`` — written by :mod:`benchmarks.test_shm_transfer`.

``BENCH_QUICK=1`` shrinks the workload for CI.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.sweep import (
    GridAxis,
    GridSpec,
    SweepSpec,
    materialize_maps,
    run_grid,
)

QUICK = os.environ.get("BENCH_QUICK", "") not in ("", "0")

#: Workload size per cell.
N = 64 if QUICK else 256
POOL_SIZES = (1, 2, 4)


def _grid() -> GridSpec:
    base = SweepSpec(
        "reverse-indirect",
        replications=2,
        seed=7,
        sim_workers=4,
        params={"n": N, "fan_in": 2},
    )
    return GridSpec(
        base=base,
        axes=(
            GridAxis("sim_workers", (2, 4)),
            GridAxis("overlap", (True, False)),
        ),
    )


def bench_grid_sweep(tmp_dir: Path) -> dict:
    grid = _grid()
    maps = materialize_maps(grid)
    timings: dict[str, float] = {}
    reports: dict[str, str] = {}
    for workers in POOL_SIZES:
        t0 = time.perf_counter()
        outcome = run_grid(grid, workers=workers, shared_maps=maps)
        timings[str(workers)] = time.perf_counter() - t0
        reports[str(workers)] = outcome.report.to_json()

    reference = reports["1"]
    for workers, text in reports.items():
        assert text == reference, f"pool size {workers} changed the report bytes"

    # interrupt-and-resume: journal a full run, drop the tail, resume
    manifest = tmp_dir / "grid-bench.jsonl"
    run_grid(grid, workers=1, shared_maps=maps, manifest_path=manifest)
    lines = manifest.read_text().splitlines(keepends=True)
    manifest.write_text("".join(lines[: 1 + grid.n_cells // 2]))
    resumed = run_grid(
        grid, workers=1, shared_maps=maps, manifest_path=manifest, resume=True
    )
    assert resumed.report.to_json() == reference, "resume changed the report bytes"
    assert resumed.resumed == grid.n_cells // 2

    return {
        "cells": grid.n_cells,
        "byte_identical_pool_sizes": list(POOL_SIZES),
        "byte_identical_resume": True,
        "resumed_cells": resumed.resumed,
        "seconds_by_pool_size": timings,
        "cells_per_second_serial": grid.n_cells / timings["1"],
    }


def write_report(sections: dict, path: str | Path = "BENCH_grid.json") -> None:
    """Merge sections into the shared grid bench report."""
    path = Path(path)
    report = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    report["quick"] = QUICK
    report.update(sections)
    path.write_text(json.dumps(report, indent=2, sort_keys=True), encoding="utf-8")


def test_grid_sweep(tmp_path):
    sweep = bench_grid_sweep(tmp_path)
    write_report({"grid_sweep": sweep})
    print(json.dumps({"grid_sweep": sweep}, indent=2))


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        out = {"grid_sweep": bench_grid_sweep(Path(d))}
    write_report(out)
    print(json.dumps(out, indent=2, sort_keys=True))
