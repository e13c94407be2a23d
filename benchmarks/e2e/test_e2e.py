"""Self-test of the end-to-end benchmark: quick mode end to end, the golden
label renumbering, and the verdicts of compare.py.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from compare import compare, main as compare_main, verdict  # noqa: E402
from e2e_ops import renumber_succ_splits  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _shm_segments() -> set[str]:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("repro-map-")}
    except OSError:
        return set()


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "quick.json"
    before = _shm_segments()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    return proc, (json.loads(out.read_text()) if out.exists() else None), before, _shm_segments()


def test_quick_run_passes_every_check(quick):
    proc, doc, _, _ = quick
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert {(r["workload"], r["trace"]) for r in doc["runs"]} == {
        (w["name"], t) for w in BENCH["workloads"] for t in (False, True)
    }
    for rec in doc["runs"]:
        assert rec["attempted"] >= 1 and rec["failed"] == 0, rec["problems"]


def test_every_benchmark_metric_is_reported_with_its_unit(quick):
    _, doc, _, _ = quick
    for rec in doc["runs"]:
        wanted = BENCH["per_layer"] if rec["trace"] else BENCH["end_to_end"]
        assert {k: v["unit"] for k, v in rec["metrics"].items()} == {
            m["name"]: m["unit"] for m in wanted
        }
        if not rec["trace"]:
            assert all(v["value"] > 0 for v in rec["metrics"].values()), rec["metrics"]


def test_pool_shut_down_and_no_shm_segment_leaked(quick):
    # the param-grid process checks its own pool workers are gone on close
    # and exits non-zero otherwise; here, nothing may remain in /dev/shm
    proc, _, before, after = quick
    assert proc.returncode == 0
    assert after - before == set()


def test_single_workload_mode_prints_one_json_result_last():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "rundown-dispatch",
         "--seed", "7", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0


def test_refuses_to_run_without_the_source_tree(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    dst = tmp_path / "benchmarks" / "e2e"
    dst.mkdir(parents=True)
    for f in HERE.glob("*.py"):
        (dst / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "rundown-dispatch",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode not in (0, None)
    assert '"metrics"' not in proc.stdout


def test_succ_split_labels_are_renumbered_in_order_of_first_appearance():
    text = (
        '{"a":"succ-split:B:17","b":"succ-split:A:9","c":"succ-split:B:17",'
        '"d":"succ-split:B:3","e":"assign:B:17"}'
    )
    assert renumber_succ_splits(text) == (
        '{"a":"succ-split:B:1","b":"succ-split:A:2","c":"succ-split:B:1",'
        '"d":"succ-split:B:3","e":"assign:B:17"}'
    )
    # the same trace after a different number of earlier runs
    shifted = (
        '{"a":"succ-split:B:41","b":"succ-split:A:33","c":"succ-split:B:41",'
        '"d":"succ-split:B:27","e":"assign:B:17"}'
    )
    assert renumber_succ_splits(shifted) == renumber_succ_splits(text)
    # a different label order is a different trace
    swapped = text.replace("succ-split:B:17", "succ-split:X:0").replace(
        "succ-split:A:9", "succ-split:B:17").replace("succ-split:X:0", "succ-split:A:9")
    assert renumber_succ_splits(swapped) != renumber_succ_splits(text)


BASE = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]


@pytest.mark.parametrize(
    ("new", "better", "expected"),
    [
        ([v * 1.02 for v in BASE], "lower", "unchanged"),
        ([v * 1.20 for v in BASE], "lower", "worse"),
        ([v * 0.80 for v in BASE], "lower", "better"),
        ([v * 1.20 for v in BASE], "higher", "better"),
        ([v * 0.80 for v in BASE], "higher", "worse"),
        ([0.7, 1.3, 0.8, 1.2, 1.0, 0.75, 1.25, 0.9, 1.1, 1.0], "lower", "unresolved"),
        # wide spread, but every new run beats every base run
        ([0.5, 0.6, 0.7, 0.8, 0.9, 0.55, 0.65, 0.75, 0.85, 0.95], "lower", "better"),
        # medians 1% apart, inside the bound, and the new side wins only
        # half the pairs: no claim
        ([v * (1.03 if i % 2 else 0.99) for i, v in enumerate(BASE)], "higher", "unchanged"),
    ],
)
def test_compare_verdicts(new, better, expected):
    assert verdict(BASE, new, better, 0.1) == expected


def _doc(latency: float, failed: int = 0) -> dict:
    metrics = {m["name"]: {"value": latency, "unit": m["unit"]} for m in BENCH["end_to_end"]}
    return {"runs": [{"workload": "w", "seed": 0, "trace": False, "attempted": 10,
                      "failed": failed, "metrics": metrics}]}


def test_compare_flags_a_rise_in_failed_ops_and_exits_nonzero(tmp_path):
    base = [_doc(1.0 + i / 100) for i in range(5)]
    same = [_doc(1.0 + i / 100) for i in range(5)]
    rows, rose = compare(base, same, BENCH)
    assert rose == [] and {r["verdict"] for r in rows} == {"unchanged"}
    _, rose = compare(base, same[:-1] + [_doc(1.04, failed=1)], BENCH)
    assert rose == ["w"]

    paths = []
    for name, docs in (("a", base), ("b", [_doc(2.0 + i / 100) for i in range(5)])):
        for i, d in enumerate(docs):
            p = tmp_path / f"{name}{i}.json"
            p.write_text(json.dumps(d))
            paths.append(str(p))
    assert compare_main(["--base", *paths[:5], "--new", *paths[:5]]) == 0
    assert compare_main(["--base", *paths[:5], "--new", *paths[5:]]) == 1
