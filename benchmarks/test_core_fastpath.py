"""Core fast-path microbenchmarks — the repo's perf trajectory anchor.

Measures the four hot paths this PR optimized and emits ``BENCH_core.json``
so CI can hold the line (see ``benchmarks/check_bench_regression.py`` and
docs/PERFORMANCE.md):

* ``enablement_notify`` — indirect-mapping completion processing through
  the inverted predecessor→group index, against the full-counter-scan
  reference (``tests/enablement_reference.py``), at the paper-sized worst
  case n_pred = n_succ = 10 000, group_size = 1;
* ``composite_build`` — vectorized composite-map generation against the
  generic per-group ``required_for`` loop;
* ``granule_algebra`` — ``union_all`` bulk union against a repeated-``|``
  fold, plus two-pointer ``|`` merge throughput;
* ``event_queue`` — push/pop/cancel throughput with tombstone compaction;
* ``sweep_scaling`` — `repro.sweep` replication fan, serial vs 4 host
  workers, with efficiency normalized by *available* cores (a 1-core CI
  runner cannot exhibit real speedup; normalizing keeps the metric
  meaningful everywhere);
* ``simulate_throughput`` — end-to-end events/s of one full simulation on
  a dispatch-heavy configuration (the ``bench/simulate-throughput`` golden
  case, whose digest the run must reproduce);
  ``check_bench_regression.py`` holds it above the committed baseline
  divided by 1.3.

``BENCH_QUICK=1`` shrinks problem sizes for CI. Run directly
(``python benchmarks/test_core_fastpath.py``) or via pytest; either path
writes ``BENCH_core.json`` to the working directory.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.core.enablement import CompositeGranuleMap, EnablementEngine
from repro.core.granule import GranuleSet
from repro.core.mapping import EnablementMapping, ReverseIndirectMapping
from repro.sim.engine import EventQueue
from repro.sweep import SweepSpec, run_sweep

QUICK = os.environ.get("BENCH_QUICK", "") not in ("", "0")

#: n_pred = n_succ for the enablement benches.  NOT shrunk in quick mode:
#: 10 000 × group_size 1 is the acceptance-criteria configuration, and the
#: speedup ratio only grows with n — shrinking would loosen the gate.
N_NOTIFY = 10_000
N_ALGEBRA = 1_000 if QUICK else 5_000
N_EVENTS = 20_000 if QUICK else 100_000
SWEEP_REPS = 2 if QUICK else 4


def _time(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


# ------------------------------------------------------------------ enablement
def bench_enablement_notify() -> dict:
    """Completion-processing throughput, indexed vs full scan."""
    n = N_NOTIFY
    maps = {"M": np.random.default_rng(1).permutation(n)}
    mapping = ReverseIndirectMapping("M", fan_in=1)
    chunk = 50
    chunks = [GranuleSet.from_ranges([(i, min(i + chunk, n))]) for i in range(0, n, chunk)]

    from tests.enablement_reference import ScanEngine

    engines = {
        "indexed": EnablementEngine(mapping, n, n, maps, group_size=1),
        "scan": ScanEngine(mapping, n, n, maps, group_size=1),
    }
    times = {}
    for name, engine in engines.items():
        times[name] = _time(lambda e=engine: [e.notify(c) for c in chunks])
    assert engines["indexed"].enabled == engines["scan"].enabled
    speedup = times["scan"] / times["indexed"]
    return {
        "n_pred": n,
        "n_succ": n,
        "group_size": 1,
        "granules_per_second": n / times["indexed"],
        "granules_per_second_scan": n / times["scan"],
        "speedup_vs_scan": speedup,
    }


def bench_composite_build() -> dict:
    """Composite-map generation: vectorized vs generic per-group loop."""
    n = N_NOTIFY
    maps = {"M": np.random.default_rng(2).integers(0, n, size=(2, n))}
    mapping = ReverseIndirectMapping("M", fan_in=2)
    t_fast = _time(lambda: CompositeGranuleMap.build(mapping, n, n, maps, group_size=1))

    class _Generic(ReverseIndirectMapping):
        # re-expose the base-class per-group loop as the reference
        required_for_many = EnablementMapping.required_for_many

    generic = _Generic("M", fan_in=2)
    t_slow = _time(lambda: CompositeGranuleMap.build(generic, n, n, maps, group_size=1))
    return {
        "n": n,
        "groups_per_second": n / t_fast,
        "groups_per_second_generic": n / t_slow,
        "speedup_vs_generic": t_slow / t_fast,
    }


# ------------------------------------------------------------------ granules
def bench_granule_algebra() -> dict:
    """Bulk union and two-pointer merge throughput."""
    k = N_ALGEBRA
    singles = [GranuleSet.from_ranges([(3 * i, 3 * i + 2)]) for i in range(k)]

    t_bulk = _time(lambda: GranuleSet.union_all(singles))

    def fold():
        acc = GranuleSet.empty()
        for s in singles:
            acc = acc | s
        return acc

    t_fold = _time(fold)
    assert GranuleSet.union_all(singles) == fold()

    a = GranuleSet.from_ranges([(4 * i, 4 * i + 2) for i in range(k)])
    b = GranuleSet.from_ranges([(4 * i + 2, 4 * i + 4) for i in range(k)])
    rounds = 20
    t_or = _time(lambda: [a | b for _ in range(rounds)])
    return {
        "sets": k,
        "union_all_sets_per_second": k / t_bulk,
        "fold_sets_per_second": k / t_fold,
        "union_all_speedup_vs_fold": t_fold / t_bulk,
        "or_ranges_per_second": rounds * 2 * k / t_or,
    }


# ------------------------------------------------------------------ events
def bench_event_queue() -> dict:
    """Push/pop/cancel throughput with a 50% cancellation load."""
    n = N_EVENTS
    rng = np.random.default_rng(3)
    times = rng.random(n) * 1000.0
    cancel_mask = rng.random(n) < 0.5

    def run():
        q = EventQueue()
        handles = []
        for i in range(n):
            handles.append(q.push(float(times[i]), lambda: None))
            if cancel_mask[i] and handles:
                handles.pop(len(handles) // 2).cancel()
            if i % 16 == 0:
                len(q)  # the O(1) len the scheduler polls
        drained = 0
        while q.pop() is not None:
            drained += 1
        return drained

    t = _time(run)
    return {"events": n, "events_per_second": n / t}


# ------------------------------------------------------------------ sweep
def bench_sweep_scaling() -> dict:
    """Replication-fan scaling on the CASPER workload.

    Four runs of the same spec: serial reference, a **cold** throwaway
    pool (pays worker spawn on the measured path), the **warm**
    persistent pool in steady state (prewarmed and cost-calibrated by an
    untimed run — what a parameter study actually experiences from its
    second sweep on), and a profiled warm run that attributes pool
    overhead and measures *observed* concurrency from task-span overlap.

    The headline ``speedup`` is serial/warm.  Efficiency divides it by
    ``available_cores = min(pool, cpu cores)`` because a pool cannot
    outrun the machine it runs on — a 1-core CI runner cannot exhibit
    real speedup, and ``check_bench_regression.py`` scales its floor by
    the same core count.
    """
    from repro.obs import EventBus, PoolProfiler, PoolTaskCompleted, effective_workers_from_events

    pool = 4
    # streams=2 doubles per-replication work so pool startup amortizes;
    # too-small fans would measure fork overhead, not scaling
    spec = SweepSpec(
        "casper", replications=SWEEP_REPS * pool, seed=0, sim_workers=8, streams=2
    )
    serial = run_sweep(spec, workers=1)

    cold = run_sweep(spec, workers=pool, pool="cold")
    assert serial.report.to_json() == cold.report.to_json()

    # untimed prewarm: spawns the warm pool's workers and calibrates the
    # cost model, so the timed run below sees the steady state
    run_sweep(spec, workers=pool)
    warm = run_sweep(spec, workers=pool)
    assert serial.report.to_json() == warm.report.to_json()
    assert warm.pool_reused, "second warm run must reuse the pool"

    profiler = PoolProfiler()
    bus = EventBus()
    events: list[PoolTaskCompleted] = []
    bus.subscribe(PoolTaskCompleted, events.append)
    profiled = run_sweep(spec, workers=pool, profiler=profiler, bus=bus)
    assert serial.report.to_json() == profiled.report.to_json()
    profile = profiler.profile("replication", pool)
    warmup_seconds = profile.totals()["warmup"]

    available = min(pool, os.cpu_count() or 1)
    speedup = serial.elapsed_seconds / warm.elapsed_seconds
    return {
        "replications": spec.replications,
        "pool_workers": pool,
        "available_cores": available,
        "serial_seconds": serial.elapsed_seconds,
        "cold_seconds": cold.elapsed_seconds,
        "parallel_seconds": warm.elapsed_seconds,
        "speedup": speedup,
        "cold_speedup": serial.elapsed_seconds / cold.elapsed_seconds,
        "parallel_efficiency": speedup / available,
        "batch_size": warm.chunk_size,
        "pool_reused": warm.pool_reused,
        "effective_workers": effective_workers_from_events(events),
        "warmup_seconds_on_reused_pool": warmup_seconds,
    }


# ------------------------------------------------------------------ simulation
def bench_simulate_throughput() -> dict:
    """End-to-end simulation events/s on the benchmark golden case.

    Dispatch-heavy configuration: many small tasks on a mid-size machine,
    so per-event executive dispatch — not granule algebra — dominates.
    The timing is the min of N runs: noise on a shared host is strictly
    additive, so the minimum approaches the true cost.  The run must
    reproduce the case's recorded digest — a speed-up that changes the
    trace is a bug, not a speed-up.
    """
    from repro.executive.scheduler import run_program
    from repro.sweep.runner import build_workload
    from tests.golden.record import digest, load_cases, run_kwargs

    case = load_cases()["bench/simulate-throughput"]
    spec = case["spec"]
    program = build_workload(spec["workload"], spec["params"])
    kwargs = run_kwargs(spec)

    def run_once():
        return run_program(program, spec["workers"], **kwargs)

    result = run_once()  # untimed warmup, also the digest check
    assert digest(result) == case["digest"], "simulate_throughput left its golden digest"
    reps = 3 if QUICK else 7
    best = min(_time(run_once) for _ in range(reps))
    events = len(result.trace.records)
    return {
        "workers": spec["workers"],
        "tasks_per_processor": kwargs["sizer"].tasks_per_processor,
        "n_granules": spec["params"]["n"],
        "events": events,
        "events_per_second": events / best,
    }


# ------------------------------------------------------------------ driver
BENCHES = {
    "enablement_notify": bench_enablement_notify,
    "composite_build": bench_composite_build,
    "granule_algebra": bench_granule_algebra,
    "event_queue": bench_event_queue,
    "sweep_scaling": bench_sweep_scaling,
    "simulate_throughput": bench_simulate_throughput,
}


def run_all() -> dict:
    results = {"quick": QUICK}
    for name, fn in BENCHES.items():
        results[name] = fn()
    return results


def write_report(results: dict, path: str | Path = "BENCH_core.json") -> None:
    Path(path).write_text(json.dumps(results, indent=2, sort_keys=True), encoding="utf-8")


# pytest entry point — also emits the report so `pytest benchmarks/` covers CI
def test_core_fastpath():
    results = run_all()
    write_report(results)
    assert results["enablement_notify"]["speedup_vs_scan"] >= 5.0
    assert results["composite_build"]["speedup_vs_generic"] >= 1.5
    assert results["granule_algebra"]["union_all_speedup_vs_fold"] >= 2.0
    assert results["event_queue"]["events_per_second"] > 10_000
    assert results["sweep_scaling"]["parallel_efficiency"] >= 0.5
    assert results["sweep_scaling"]["pool_reused"]
    # a reused warm pool has no spawn/import cost left to attribute
    assert results["sweep_scaling"]["warmup_seconds_on_reused_pool"] < 0.1
    assert results["sweep_scaling"]["effective_workers"] >= 1.0
    print(json.dumps(results, indent=2, sort_keys=True))


if __name__ == "__main__":
    import sys

    # the enablement and simulate benches read references in tests/
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    out = run_all()
    write_report(out)
    print(json.dumps(out, indent=2, sort_keys=True))
