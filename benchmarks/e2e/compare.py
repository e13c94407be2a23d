"""Compare two sets of end-to-end benchmark runs against the bounds in
BENCHMARK.json.

    python3 benchmarks/e2e/compare.py --base A1.json A2.json A3.json --new B1.json B2.json B3.json
    python3 benchmarks/e2e/compare.py --base benchmarks/e2e/baseline-seed.json:A \\
        --new benchmarks/e2e/baseline-seed.json:B

Each input is a file written by ``run.py --out`` (one full run), or
``FILE:SET`` naming one set of runs in a baseline file such as
``baseline-seed.json``.  Runs are paired in the order given.

For every (workload, end-to-end metric) it prints each side's median and
quartiles and a verdict:

* ``unresolved`` -- the quartile spread of either side, as a share of its
  median, exceeds the metric's bound (unless every new run reads better,
  or every one reads worse, than every base run);
* ``worse`` -- the new median is worse than the base median by more than
  the bound;
* ``better`` -- the new side wins at least 9 of 10 pairs (ties count for
  neither) and the medians differ by more than the base's quartile spread;
* ``unchanged`` -- otherwise.

Counts of the traced pass (per-layer metrics with unit ``count``) are
listed when they differ between runs of the same seed.  The exit code is 1
on any ``worse`` verdict or any rise in the failed-op fraction.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
WIN_SHARE = 0.9


def load(spec: str) -> list[dict]:
    """The runs named by ``FILE`` or ``FILE:SET``."""
    path, _, name = spec.partition(":")
    doc = json.loads(Path(path).read_text())
    return doc["sets"][name] if name else [doc]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    """The verdict for one (workload, metric) pair; see the module docstring."""
    sign = 1.0 if better == "higher" else -1.0
    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    spread = max((bq3 - bq1) / abs(bmed), (nq3 - nq1) / abs(nmed))
    all_better = min(sign * v for v in new) > max(sign * v for v in base)
    all_worse = max(sign * v for v in new) < min(sign * v for v in base)
    if spread > bound:
        return "better" if all_better else "worse" if all_worse else "unresolved"
    change = sign * (nmed - bmed) / abs(bmed)
    if change < -bound:
        return "worse"
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * n > sign * b)
    if change > 0 and wins >= WIN_SHARE * len(pairs) and abs(nmed - bmed) > bq3 - bq1:
        return "better"
    return "unchanged"


def _by_workload(runs: list[dict], trace: bool) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for doc in runs:
        for rec in doc["runs"]:
            if rec["trace"] == trace:
                out.setdefault(rec["workload"], []).append(rec)
    return out


def failed_frac(runs: list[dict], workload: str) -> float:
    recs = [r for doc in runs for r in doc["runs"] if r["workload"] == workload]
    attempted = sum(r["attempted"] for r in recs)
    return sum(r["failed"] for r in recs) / attempted if attempted else 0.0


def compare(base: list[dict], new: list[dict], bench: dict) -> tuple[list[dict], list[str]]:
    """Rows of the verdict table, and the workloads whose failed-op fraction rose."""
    rows = []
    b_recs, n_recs = _by_workload(base, False), _by_workload(new, False)
    for workload in b_recs:
        for m in bench["end_to_end"]:
            bv = [r["metrics"][m["name"]]["value"] for r in b_recs[workload] if m["name"] in r["metrics"]]
            nv = [r["metrics"][m["name"]]["value"] for r in n_recs.get(workload, []) if m["name"] in r["metrics"]]
            if not bv or not nv:
                continue
            rows.append({
                "workload": workload,
                "metric": m["name"],
                "unit": m["unit"],
                "bound": m["bound"],
                "base": quartiles(bv),
                "new": quartiles(nv),
                "verdict": verdict(bv, nv, m["better"], m["bound"]),
            })
    rose = [w for w in b_recs if failed_frac(new, w) > failed_frac(base, w)]
    return rows, rose


def count_mismatches(runs: list[dict], bench: dict) -> list[str]:
    """Per-layer counts that differ between traced runs of the same seed."""
    counts = [m["name"] for m in bench["per_layer"] if m["unit"] == "count"]
    seen: dict[tuple, set] = {}
    for rec in (r for doc in runs for r in doc["runs"] if r["trace"]):
        for name in counts:
            if name in rec["metrics"]:
                seen.setdefault((rec["workload"], rec["seed"], name), set()).add(rec["metrics"][name]["value"])
    return [f"{w} seed={s} {name}: {sorted(v)}" for (w, s, name), v in sorted(seen.items()) if len(v) > 1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Compare two sets of benchmark runs")
    parser.add_argument("--base", nargs="+", required=True, metavar="FILE[:SET]")
    parser.add_argument("--new", nargs="+", required=True, metavar="FILE[:SET]")
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args(argv)

    bench = json.loads(Path(args.benchmark).read_text())
    base = [run for spec in args.base for run in load(spec)]
    new = [run for spec in args.new for run in load(spec)]
    rows, rose = compare(base, new, bench)
    print(f"base: {len(base)} runs   new: {len(new)} runs")
    print(f"{'workload':<18} {'metric':<15} {'base median [q1, q3]':>34} {'new median [q1, q3]':>34} "
          f"{'change':>8}  verdict (bound)")
    for r in rows:
        b, n = r["base"], r["new"]
        change = (n[1] - b[1]) / b[1]
        print(f"{r['workload']:<18} {r['metric']:<15} "
              f"{b[1]:>12.5g} [{b[0]:.5g}, {b[2]:.5g}] {n[1]:>12.5g} [{n[0]:.5g}, {n[2]:.5g}] "
              f"{change:>+8.2%}  {r['verdict']} ({r['bound']:.0%})")
    for w in rose:
        print(f"FAILED-OP FRACTION ROSE on {w}: {failed_frac(base, w):.3g} -> {failed_frac(new, w):.3g}")
    mismatched = count_mismatches(base + new, bench)
    print("per-layer counts: " + ("identical across runs of each seed" if not mismatched else "DIFFER"))
    for line in mismatched:
        print(f"   {line}")
    return 1 if rose or any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
