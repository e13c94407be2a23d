"""The sweep runner: process-pool replication fans with deterministic output.

A replication fan is a grid with one empty point, so :func:`run_sweep`
and :func:`~repro.sweep.grid.run_grid` are thin wrappers: each derives
its units (an id, a summary label, a point and a master seed) and hands
them to the one driver here, which owns the manifest, the chaos
verdicts, supervision, the shared-map store, batching and the pool.

Design constraints, in order:

1. **Determinism.**  A report must not depend on how the work was
   scheduled.  Unit seeds are derived (never drawn), summaries are
   keyed by unit index, and serialization is canonical
   (sorted keys, fixed separators, no host timing inside the report).
2. **Picklability.**  Phase programs hold closures (cost models, map
   generators), so programs never cross the process boundary — the worker
   rebuilds its program from ``(workload name, params, seed)``.
3. **Low ceremony.**  ``run_sweep(SweepSpec("casper", replications=8),
   workers=4)`` is the whole API for the common case.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
import zlib
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence

from repro.obs.events import EventBus, PoolTaskCompleted
from repro.sweep.pool import WarmPool, _drop_executor, _worker_init, cost_model, warm_pool
from repro.sweep.supervise import (
    SupervisionPolicy,
    Supervisor,
    degradation_ladder,
)
from repro.workloads.registry import build_workload, workload_names

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

    from repro.faults import FaultInjector, FaultPlan
    from repro.obs.profile import PoolProfiler
    from repro.sweep.grid import GridReport

__all__ = [
    "SweepSpec",
    "SweepReport",
    "SweepOutcome",
    "SweepWorkerDied",
    "run_sweep",
    "run_replication",
    "run_pool_tasks",
    "replication_seed",
    "map_configs",
    "workload_names",
]


# ---------------------------------------------------------------------- spec
@dataclass(frozen=True)
class SweepSpec:
    """What to sweep: a workload, a configuration, a replication count.

    Attributes
    ----------
    workload:
        Registry name (see :func:`workload_names`).
    replications:
        Number of independent replications; replication ``i`` runs with
        master seed :func:`replication_seed` ``(seed, i)``.
    seed:
        The sweep-level seed every replication seed is derived from.
    sim_workers:
        Simulated worker-processor count inside each run.
    streams:
        Independent job streams per replication (the paper's batch
        environment); each stream is a fresh build of the workload.
    barrier:
        Strict phase barriers instead of next-phase overlap.
    tasks_per_processor:
        Task-sizing policy knob (see :class:`~repro.executive.TaskSizer`).
    params:
        Extra keyword arguments for the workload factory.
    """

    workload: str
    replications: int = 1
    seed: int = 0
    sim_workers: int = 8
    streams: int = 1
    barrier: bool = False
    tasks_per_processor: float = 2.0
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise ValueError(f"replications must be >= 1, got {self.replications}")
        if self.streams < 1:
            raise ValueError(f"streams must be >= 1, got {self.streams}")
        if self.workload not in workload_names():
            raise ValueError(
                f"unknown workload {self.workload!r}; expected one of {workload_names()}"
            )

    def to_dict(self) -> dict[str, Any]:
        return {
            "workload": self.workload,
            "replications": self.replications,
            "seed": self.seed,
            "sim_workers": self.sim_workers,
            "streams": self.streams,
            "barrier": self.barrier,
            "tasks_per_processor": self.tasks_per_processor,
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SweepSpec":
        return cls(
            workload=data["workload"],
            replications=int(data.get("replications", 1)),
            seed=int(data.get("seed", 0)),
            sim_workers=int(data.get("sim_workers", 8)),
            streams=int(data.get("streams", 1)),
            barrier=bool(data.get("barrier", False)),
            tasks_per_processor=float(data.get("tasks_per_processor", 2.0)),
            params=dict(data.get("params", {})),
        )


def replication_seed(sweep_seed: int, replication: int) -> int:
    """The master seed of replication ``replication``.

    Same stable keying as :meth:`repro.sim.rng.RngStreams.child` — a pure
    function of ``(sweep_seed, replication)``, so replication seeds never
    depend on execution order, process identity, or wall clock.
    """
    key = zlib.crc32(f"sweep-replication:{replication}".encode("utf-8"))
    return (sweep_seed * 0x9E3779B1 + key) % (2**63)


# ---------------------------------------------------------------------- worker
#: grid-point keys that override :class:`SweepSpec` fields
SPEC_AXES = frozenset({"workload", "sim_workers", "streams", "tasks_per_processor", "barrier"})
#: grid-point keys that override :class:`~repro.core.overlap.OverlapConfig`
CONFIG_AXES = frozenset({"overlap", "split", "target_fraction", "group_size", "elevate"})
#: grid-point keys that drive fault injection
FAULT_AXES = frozenset({"fault_seed", "transient_p"})


class _SharedMapGenerator:
    """Map 'generator' that ignores the RNG and returns the shared array."""

    def __init__(self, store: Mapping[str, "np.ndarray"], name: str) -> None:
        self._store = store
        self._name = name

    def __call__(self, rng: "np.random.Generator") -> "np.ndarray":
        return self._store[self._name]


def _run_unit(
    base_data: dict[str, Any],
    point: Mapping[str, Any],
    seed: int,
    shared: Mapping[str, "np.ndarray"] | None = None,
    instrument: bool = False,
) -> dict[str, Any]:
    """Run the base spec at ``point`` under master ``seed``; returns its
    :func:`sweep_summary`.

    The one per-unit runner: a replication is the empty point under its
    replication seed, a grid cell its point under the cell seed.  Point
    keys resolve in the namespaces :data:`SPEC_AXES`,
    :data:`CONFIG_AXES` and :data:`FAULT_AXES`; any other key is a
    workload-factory parameter.  ``shared`` maps replace the workload's
    own map draws, and each run builds its composite maps from them.
    """
    from repro.core.overlap import OverlapConfig, OverlapPolicy, SplitStrategy
    from repro.executive import TaskSizer, run_program

    spec = SweepSpec.from_dict(base_data)
    workload = str(point.get("workload", spec.workload))
    sim_workers = int(point.get("sim_workers", spec.sim_workers))
    streams = int(point.get("streams", spec.streams))
    tasks_per_processor = float(point.get("tasks_per_processor", spec.tasks_per_processor))
    barrier = bool(point.get("barrier", spec.barrier))
    if "overlap" in point:
        barrier = not bool(point["overlap"])

    params = dict(spec.params)
    params.update(
        {
            k: v
            for k, v in point.items()
            if k not in SPEC_AXES and k not in CONFIG_AXES and k not in FAULT_AXES
        }
    )

    config_kwargs: dict[str, Any] = {
        "policy": OverlapPolicy.NONE if barrier else OverlapPolicy.NEXT_PHASE,
    }
    if "split" in point:
        config_kwargs["split_strategy"] = SplitStrategy(str(point["split"]))
    if "target_fraction" in point:
        config_kwargs["target_fraction"] = float(point["target_fraction"])
    if "group_size" in point:
        config_kwargs["composite_group_size"] = int(point["group_size"])
    if "elevate" in point:
        config_kwargs["elevate_enabling_granules"] = bool(point["elevate"])
    config = OverlapConfig(**config_kwargs)

    faults = None
    transient_p = float(point.get("transient_p", 0.0))
    if transient_p > 0.0:
        from repro.faults import FaultPlan, TransientGranuleError

        faults = FaultPlan(
            seed=int(point.get("fault_seed", 0)),
            faults=(TransientGranuleError(transient_p),),
        )

    programs = [build_workload(workload, params) for _ in range(streams)]
    if shared:
        for program in programs:
            for name in shared:
                if name in program.map_generators:
                    program.map_generators[name] = _SharedMapGenerator(shared, name)
    result = run_program(
        programs if streams > 1 else programs[0],
        sim_workers,
        config=config,
        sizer=TaskSizer(tasks_per_processor),
        seed=seed,
        faults=faults,
    )
    if instrument:
        count_run_into_worker_registry(result, workload)
    return sweep_summary(result)


def run_replication(
    spec_data: dict[str, Any], replication: int, instrument: bool = False
) -> dict[str, Any]:
    """Execute one replication; returns its JSON-able summary.

    The summary is exactly what a sweep's pool worker files for this
    replication.  Everything it needs arrives as plain data; the phase
    program is rebuilt locally.

    ``instrument=True`` (the ``--profile`` path) counts the finished
    run into the process-local :func:`~repro.obs.metrics.worker_registry`
    (via :func:`count_run_into_worker_registry`), so the profiler's
    envelope can carry ``faults.*`` and the other worker-side counters
    back to the parent.  Instrumentation observes, never steers — the
    returned summary is identical either way.
    """
    seed = replication_seed(SweepSpec.from_dict(spec_data).seed, replication)
    summary = _run_unit(spec_data, {}, seed, instrument=instrument)
    return {"replication": replication, "seed": seed, **summary}


def count_run_into_worker_registry(result: Any, workload: str) -> None:
    """Accumulate a finished run's totals into the worker registry.

    Post-run counter increments instead of live per-event telemetry: the
    whole accounting is a handful of ``inc`` calls, so a profiled sweep
    stays within single-digit percent of an unprofiled one (gated by
    ``benchmarks/test_profile_overhead.py``).  Only counters flush into
    the profiler envelope, so everything here is a monotonic total.
    """
    from repro.obs.metrics import worker_registry

    registry = worker_registry()
    registry.counter("worker.runs_total", "simulations finished in this process").inc(
        workload=workload
    )
    registry.counter("worker.granules_total", "granules executed").inc(
        result.granules_executed
    )
    registry.counter("worker.compute_seconds_total", "productive compute time").inc(
        result.compute_time
    )
    registry.counter("worker.mgmt_seconds_total", "executive busy time").inc(
        result.mgmt_time
    )
    faults = registry.counter("faults.recovered_total", "recoveries by kind")
    for kind, count in (
        ("retry", result.retries),
        ("reassignment", result.reassignments),
        ("processor_failure", result.processor_failures),
        ("stall", result.stalls),
    ):
        if count:
            faults.inc(count, kind=kind)


def sweep_summary(result) -> dict[str, Any]:
    """The JSON-able per-run summary every replication and grid cell
    stores in its report: :func:`repro.sim.persist.run_facts` plus the
    overlap admission decisions."""
    from repro.sim.persist import run_facts

    return {
        **run_facts(result),
        "admissions": [
            {
                "predecessor": d.predecessor,
                "successor": d.successor,
                "admitted": d.admitted,
                "reason": d.reason,
                "mapping_kind": d.mapping_kind,
            }
            for d in result.admission_decisions
        ],
    }


# ---------------------------------------------------------------------- report
@dataclass
class SweepReport:
    """The canonical, order-independent record of a finished sweep."""

    spec: dict[str, Any]
    replications: list[dict[str, Any]]

    def to_json(self) -> str:
        """Canonical serialization: identical bytes for identical sweeps.

        Host timing and pool configuration are deliberately absent — they
        would differ between a serial and a parallel execution of the
        same spec.
        """
        payload = {"spec": self.spec, "replications": self.replications}
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "SweepReport":
        data = json.loads(text)
        return cls(spec=data["spec"], replications=data["replications"])

    def aggregate(self) -> dict[str, Any]:
        """Cross-replication summary statistics."""
        return _aggregate(self.replications)


def _aggregate(runs: list[dict[str, Any]]) -> dict[str, Any]:
    """Summary statistics over run summaries: a sweep's replications, or
    the cells at one grid point (``{}`` for no runs)."""
    if not runs:
        return {}
    utils = [r["utilization"] for r in runs]
    spans = [r["makespan"] for r in runs]
    walls = [s["wall_clock"] for r in runs for s in r["streams"]]
    admitted = sum(1 for r in runs for a in r["admissions"] if a["admitted"])
    considered = sum(len(r["admissions"]) for r in runs)
    return {
        "replications": len(runs),
        "utilization_mean": sum(utils) / len(utils),
        "utilization_min": min(utils),
        "utilization_max": max(utils),
        "makespan_mean": sum(spans) / len(spans),
        "makespan_min": min(spans),
        "makespan_max": max(spans),
        "stream_wall_clock_mean": sum(walls) / len(walls) if walls else 0.0,
        "overlaps_admitted": admitted,
        "overlaps_considered": considered,
        "tasks_total": sum(r["tasks_executed"] for r in runs),
        "granules_total": sum(r["granules_executed"] for r in runs),
    }


@dataclass
class SweepOutcome:
    """A finished sweep or grid: the canonical report plus host-side facts.

    ``chunk_size`` / ``shared_map_bytes`` / ``pool_reused`` /
    ``pool_generation`` are diagnostic host facts (how dispatch actually
    ran), recorded here — never in the canonical report, whose bytes
    must not depend on them.
    """

    report: "SweepReport | GridReport"
    elapsed_seconds: float
    pool_workers: int
    resumed: int = 0
    worker_restarts: int = 0
    #: bytes of read-only map data shared by every unit (0 = none shared)
    shared_map_bytes: int = 0
    #: units per dispatched pool task in the main batched phase
    chunk_size: int = 1
    #: True when the run used an already-live warm pool
    pool_reused: bool = False
    #: warm-pool executor build count after the run (0 = no pool used)
    pool_generation: int = 0
    #: supervisor stats (hangs detected, preemptions, ladder transitions,
    #: final rung) when the run was supervised; None otherwise
    supervision: dict[str, Any] | None = None


# ---------------------------------------------------------------------- faults
class SweepWorkerDied(RuntimeError):
    """Inline-mode stand-in for a killed pool worker (same recovery path)."""


class _PoolExhausted(RuntimeError):
    """A pool died more often than ``max_restarts`` allows; the message
    names the ``missing`` keys, each a ``what``, that did not complete."""

    def __init__(self, what: str, restarts: int, max_restarts: int, missing: list[Any]) -> None:
        super().__init__(
            f"{what} pool died {restarts} times (max_restarts={max_restarts}); "
            f"{what}s {missing} not completed"
        )
        self.restarts = restarts
        self.max_restarts = max_restarts


def _apply_chaos(chaos: dict[str, Any] | None, what: str) -> None:
    """Execute one task's injected misbehavior (worker side).

    ``chaos`` is the host-computed verdict for this attempt (see
    :func:`_chaos_verdict`) —
    ``{"slow": seconds, "kill": True, "hang": {"freeze": bool}}`` in any
    combination (all optional; ``None`` means behave).  Order matters:

    * ``slow`` sleeps *before* the batch stamps ``t_start``, so an
      injected slowdown can blow a deadline without ever polluting the
      cost model's compute-seconds EWMA;
    * ``kill`` is a hard ``os._exit`` in a pool child (the process dies
      without cleanup, exactly like an OOM kill or a segfault, and the
      parent sees :class:`BrokenProcessPool`), :class:`SweepWorkerDied`
      inline;
    * ``hang`` never returns in a pool child (the supervisor must
      preempt it); ``freeze`` first stops the liveness beat, simulating
      a process so wedged its watchdog thread is dead too — that is the
      variant only the heartbeat probe can distinguish from honest work.
      Inline it raises :class:`SweepWorkerDied`, because a single process
      cannot supervise its own hang; the retry path covers it.
    """
    if not chaos:
        return
    slow = chaos.get("slow", 0.0)
    if slow:
        time.sleep(slow)
    if chaos.get("kill"):
        if multiprocessing.parent_process() is not None:
            os._exit(17)
        raise SweepWorkerDied(f"injected kill of {what}")
    hang = chaos.get("hang")
    if hang is not None:
        if multiprocessing.parent_process() is not None:
            if hang.get("freeze"):
                from repro.sweep.supervise import suspend_heartbeat

                suspend_heartbeat()
            while True:  # pragma: no cover - only ever exits via SIGKILL
                time.sleep(3600)
        raise SweepWorkerDied(f"injected hang of {what}")


def _chaos_injector(fault_plan: "FaultPlan | None") -> "FaultInjector | None":
    """The injector for ``fault_plan``'s pool-worker faults, or ``None``
    when it declares none (the drivers then skip every verdict)."""
    if fault_plan is None or not (
        fault_plan.sweep_kills or fault_plan.sweep_hangs or fault_plan.sweep_slows
    ):
        return None
    from repro.faults import FaultInjector

    return FaultInjector(fault_plan)


def _chaos_verdict(
    injector: "FaultInjector | None", units: Sequence[int], attempt: int
) -> dict[str, Any] | None:
    """One pool task's injected-misbehavior verdict for this attempt.

    ``units`` are the task's replication indices (or grid cell ids) — the
    index space every ``SweepWorker*`` fault names.  The task sleeps for
    the longest slowdown among its units, dies if any unit's kill is
    armed, and otherwise hangs on its first armed hang.  The resubmitted
    attempt draws its own verdict: a kill or hang fires while ``attempt``
    is below its ``attempts``, a slowdown on the first attempt only.
    """
    if injector is None:
        return None
    chaos: dict[str, Any] = {}
    slow = max((injector.slows_replication(u, attempt) for u in units), default=0.0)
    if slow:
        chaos["slow"] = slow
    if any(injector.kills_replication(u, attempt) for u in units):
        chaos["kill"] = True
    else:
        for u in units:
            hang = injector.hangs_replication(u, attempt)
            if hang is not None:
                chaos["hang"] = {"freeze": hang.freeze_heartbeat}
                break
    return chaos or None


def _run_batch(
    base_data: dict[str, Any],
    units: Sequence[tuple[int, dict[str, Any], dict[str, Any], int]],
    maps_payload: Mapping[str, Any] | None,
    attach: bool,
    chaos: dict[str, Any] | None,
    instrument: bool = False,
) -> dict[str, Any]:
    """Run a batch of ``(id, label, point, seed)`` units as one pool task.

    The one worker entry.  Each summary is the unit's label, its seed and
    its :func:`_run_unit` summary, so report bytes are independent of the
    batch size.  One submission pickle and one result envelope amortize
    dispatch over the whole batch; the envelope's ``t_start``/``t_end``
    (:func:`time.perf_counter`, comparable across processes) and
    ``compute_seconds`` feed the host-side cost model and the
    concurrency-overlap accounting — host facts, never report content.

    ``maps_payload`` is either shared-store descriptors (``attach=True``,
    the zero-copy path) or the concrete arrays themselves (inline mode,
    or a pool run with shm disabled).  The attachment is memoized per
    worker process, so a worker pays the segment-open cost once per run,
    not once per batch.  ``chaos`` is this attempt's injected-misbehavior
    verdict, computed on the host from the fault plan (see
    :func:`_apply_chaos`).
    """
    _apply_chaos(chaos, f"batch of units {[u[0] for u in units]}")
    shared = maps_payload
    if attach:
        from repro.sweep.shm import SharedMapStore

        shared = SharedMapStore.attach(maps_payload, cached=True)
    t0 = time.perf_counter()
    out = [
        {**label, "seed": seed, **_run_unit(base_data, point, seed, shared, instrument)}
        for _, label, point, seed in units
    ]
    t1 = time.perf_counter()
    return {"batch": out, "compute_seconds": t1 - t0, "t_start": t0, "t_end": t1}


def _batch_lander(
    unit: str,
    summaries: dict[int, dict[str, Any]],
    total: int,
    t0: float,
    ckey: str,
    manifest: IO[str] | None,
    progress: Callable[[int, int], None] | None,
    bus: EventBus | None,
) -> Callable[[Any, dict[str, Any]], None]:
    """The ``record`` callback the driver hands :func:`run_pool_tasks`.

    It lands one pool task's batch envelope: folds the measured compute
    into the cost model under ``ckey``, files each summary in
    ``summaries`` by its ``unit`` field (``"replication"`` or ``"cell"``),
    journals it to ``manifest``, reports ``progress(done, total)``, and
    publishes a :class:`~repro.obs.events.PoolTaskCompleted` carrying the
    unit's share of the task's measured busy span.
    """
    model = cost_model()

    def record(_task: Any, envelope: dict[str, Any]) -> None:
        results = envelope["batch"]
        model.observe(ckey, float(envelope["compute_seconds"]), len(results))
        # a batch's units run back to back on one worker, so an even split
        # of its busy span is the right first-order picture for overlap math
        s = float(envelope["t_start"]) - t0
        e = float(envelope["t_end"]) - t0
        k = len(results)
        for j, summary in enumerate(results):
            summaries[int(summary[unit])] = summary
            done = len(summaries)
            if manifest is not None:
                manifest.write(json.dumps(summary, sort_keys=True, separators=(",", ":")) + "\n")
                manifest.flush()
            if progress is not None:
                progress(done, total)
            if bus is not None:
                bus.publish(
                    PoolTaskCompleted(
                        time.perf_counter() - t0,
                        unit,
                        done,
                        total,
                        s + (e - s) * j / k,
                        s + (e - s) * (j + 1) / k,
                    )
                )

    return record


def _cost_key(spec_data: dict[str, Any]) -> str:
    """Cost-model identity of a sweep or grid spec: everything that shapes
    its units' work, nothing that only counts or seeds them (a grid's
    ``base`` spec obeys the same rule)."""

    def shape(d: dict[str, Any]) -> dict[str, Any]:
        return {
            k: shape(v) if k == "base" else v
            for k, v in d.items()
            if k not in ("replications", "seed")
        }

    return json.dumps(shape(spec_data), sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------- manifest
def _open_manifest(
    path: str | Path | None,
    spec_data: dict[str, Any],
    resume: bool,
    kind: str,
    key: str,
) -> tuple[dict[int, dict[str, Any]], IO[str] | None]:
    """Open the JSONL journal at ``path``: ``(journaled, append handle)``.

    Without a ``path`` nothing is journaled: ``({}, None)``.  A fresh
    (non-resume) run rewrites the file behind a header naming ``kind``
    and the spec.  On resume, ``journaled`` holds every completed task
    summary already in the file, keyed by its ``key`` field; a manifest
    written for a different spec is refused, because resuming someone
    else's sweep would silently mix incompatible results.  Sweeps write
    ``sweep-manifest`` files keyed by ``replication``, grids
    ``grid-manifest`` files keyed by ``cell``.

    A record counts only once its newline is on disk.  A torn tail (the
    previous process died mid-write) is ignored *and cut off* before
    appending: left in place, it would fuse with the next entry and every
    later resume would stop reading there.  A file without a complete
    header is rewritten from scratch.
    """
    if path is None:
        return {}, None
    path = Path(path)
    journaled: dict[int, dict[str, Any]] = {}
    if resume and path.exists():
        header_seen = False
        with path.open("rb+") as fh:
            end = 0  # offset just past the last record that counts
            for line in fh:
                try:
                    entry = json.loads(line) if line.endswith(b"\n") else None
                except json.JSONDecodeError:
                    entry = None
                if entry is None:
                    break  # torn tail write from a crashed run; everything before it counts
                if not header_seen:
                    header_seen = True
                    if entry.get("kind") != kind:
                        raise ValueError(f"{path} is not a {kind}")
                    if entry.get("spec") != spec_data:
                        raise ValueError(
                            f"manifest {path} was written for a different sweep spec; "
                            f"refusing to resume (delete it to start over)"
                        )
                else:
                    journaled[int(entry[key])] = entry
                end += len(line)
            fh.truncate(end)
        if header_seen:
            return journaled, path.open("a", encoding="utf-8")
    fh = path.open("w", encoding="utf-8")
    fh.write(
        json.dumps(
            {"kind": kind, "spec": spec_data},
            sort_keys=True,
            separators=(",", ":"),
        )
        + "\n"
    )
    fh.flush()
    return journaled, fh


# ---------------------------------------------------------------------- pool driver
def run_pool_tasks(
    keys: Sequence[Any],
    call: Callable[[Any, int], tuple[Callable[..., Any], tuple[Any, ...]]],
    record: Callable[[Any, Any], None],
    workers: int = 1,
    max_restarts: int = 2,
    what: str = "task",
    profiler: "PoolProfiler | None" = None,
    pool: "WarmPool | str" = "warm",
    supervisor: Supervisor | None = None,
) -> int:
    """Run every task in ``keys`` with crash-salvage; returns pool restarts.

    The one pool-management loop the sweep and grid driver and
    :func:`map_configs` run on.  ``call(key, attempt)`` returns the
    ``(module-level function, picklable args)`` pair to execute for
    ``key``; ``record(key, result)`` is invoked exactly once per key, in
    completion order.

    ``workers=1`` runs inline — no pool, no fork — which doubles as the
    reference execution for the byte-identical-report guarantee.

    Pooled dispatch walks rungs of the degradation ladder (see
    :func:`~repro.sweep.supervise.degradation_ladder`), each running the
    same windowed loop: at most the rung's width of tasks in flight, wait
    for one to finish, record it, top the window up.  The ``warm`` rung
    runs on ``pool`` — the process-wide
    :class:`~repro.sweep.pool.WarmPool` for ``"warm"``, or the given
    instance — whose workers persist across driver calls and which may be
    wider than the rung (it never shrinks); the window is what honours the
    requested concurrency.  ``cold`` and ``narrow`` rungs (``pool="cold"``
    starts at ``cold``) build a throwaway executor with the pool's worker
    initializer, join it when the rung finishes, and drop it without
    waiting after a break.

    Crash-salvage is the same on every rung: a dead child (injected kill,
    real OOM/segfault, supervisor preemption) breaks the executor; the
    loop records every future that finished before the break, rebuilds the
    pool, and resubmits the missing keys with ``attempt`` incremented.
    Inline kills surface as :class:`SweepWorkerDied` and retry through the
    same accounting.

    Unsupervised dispatch (``supervisor=None``) is a one-rung ladder with
    a blocking ``wait`` and a budget of ``max_restarts`` rebuilds, after
    which it raises.  A ``supervisor`` adds only what hangs need: ``wait``
    wakes every
    :attr:`~repro.sweep.supervise.SupervisionPolicy.poll_interval` to probe
    deadlines and worker heartbeats (a detected hang preempts the workers
    into the salvage path, so reports stay byte-identical under hangs for
    the same reason they do under kills), and a rung whose budget runs out
    steps down the ladder (``warm → cold → narrow → serial``) instead of
    raising; the serial rung runs inline and always completes.

    With ``profiler`` set, every submission is routed through the
    profiling envelope (see :class:`~repro.obs.profile.PoolProfiler`);
    the envelope is unwrapped *before* ``record`` runs, so downstream
    accounting — and the canonical report bytes — are untouched.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if max_restarts < 0:
        raise ValueError(f"max_restarts must be >= 0, got {max_restarts}")
    attempts = {k: 0 for k in keys}
    done: set[Any] = set()
    restarts = 0

    def prepare(key: Any) -> tuple[Callable[..., Any], tuple[Any, ...]]:
        fn, args = call(key, attempts[key])
        if profiler is not None:
            fn, args = profiler.wrap(key, fn, args)
        return fn, args

    def note(key: Any, result: Any) -> None:
        if profiler is not None:
            result = profiler.record_result(key, result)
        done.add(key)
        record(key, result)

    def run_inline(subset: Sequence[Any]) -> None:
        nonlocal restarts
        for key in subset:
            while True:
                try:
                    fn, args = prepare(key)
                    note(key, fn(*args))
                    break
                except SweepWorkerDied:
                    attempts[key] += 1
                    restarts += 1

    if workers == 1:
        run_inline(keys)
        return restarts

    warm = pool if isinstance(pool, WarmPool) else (warm_pool() if pool == "warm" else None)
    start = "warm" if warm is not None else "cold"
    if supervisor is None:
        rungs, budget, poll, beat = [(start, workers)], max_restarts, None, ()
    else:
        if supervisor.heartbeat_dir is None and warm is not None:
            supervisor.heartbeat_dir = warm.heartbeat_dir
        start = supervisor.rung or start
        if warm is None and start == "warm":
            start = "cold"
        rungs = degradation_ladder(start, workers)
        budget = supervisor.rung_budget(max_restarts)
        poll = supervisor.policy.poll_interval
        beat = (supervisor.heartbeat_dir, supervisor.policy.heartbeat_interval)

    for rung_idx, (rung, width) in enumerate(rungs):
        pending = [k for k in keys if k not in done]
        if not pending:
            break
        if supervisor is not None:
            supervisor.begin(what, rung)
        if rung == "serial":
            run_inline(pending)
            break
        rung_restarts = 0
        while pending:
            futs: dict[Any, Any] = {}
            own: ProcessPoolExecutor | None = None
            try:
                if rung == "warm":
                    executor = warm.executor(width)
                else:
                    own = executor = ProcessPoolExecutor(
                        max_workers=min(width, len(pending)),
                        initializer=_worker_init,
                        initargs=beat,
                    )
                waiting: set[Any] = set()
                idx = 0
                while idx < len(pending) or waiting:
                    while idx < len(pending) and len(waiting) < width:
                        key = pending[idx]
                        fn, args = prepare(key)
                        try:
                            fut = executor.submit(fn, *args)
                        except OSError as exc:
                            # a submit racing the executor's own teardown
                            # after a worker death: CPython 3.11 marks the
                            # pool broken without the submit lock, so the
                            # submit can reach the closed call queue instead
                            raise BrokenProcessPool(str(exc)) from exc
                        futs[fut] = key
                        waiting.add(fut)
                        if supervisor is not None:
                            supervisor.track(fut, key)
                        if own is None:
                            warm.tasks_dispatched += 1
                        idx += 1
                    finished, waiting = wait(
                        waiting, timeout=poll, return_when=FIRST_COMPLETED
                    )
                    for fut in finished:
                        if supervisor is not None:
                            supervisor.untrack(fut)
                        note(futs[fut], fut.result())
                    if waiting and supervisor is not None:
                        supervisor.check(executor)
                if own is not None:
                    own.shutdown(wait=True)
            except BrokenProcessPool:
                # A dead child takes the whole executor down.  Results that
                # finished before the break are still inside their futures —
                # salvage them before resubmitting the rest.
                for fut, key in futs.items():
                    if key in done or not fut.done():
                        continue
                    try:
                        note(key, fut.result())
                    except BrokenProcessPool:
                        pass
                restarts += 1
                rung_restarts += 1
                if own is None:
                    warm.rebuild()
                if supervisor is not None:
                    supervisor.clear_inflight()
                for key in pending:
                    if key not in done:
                        attempts[key] += 1
                if rung_restarts > budget:
                    if (
                        supervisor is None
                        or not supervisor.policy.degrade
                        or rung_idx == len(rungs) - 1
                    ):
                        missing = [k for k in keys if k not in done]
                        raise _PoolExhausted(what, restarts, max_restarts, missing) from None
                    supervisor.degrade(rung, rungs[rung_idx + 1][0], restarts)
                    break
            finally:
                if own is not None:  # a no-op after the clean join above
                    _drop_executor(own)
            pending = [k for k in keys if k not in done]
    if supervisor is not None:
        supervisor.reap_shm()
    return restarts


# ---------------------------------------------------------------------- driver
def _run_units(
    spec_data: dict[str, Any],
    base_data: dict[str, Any],
    units: list[tuple[int, dict[str, Any], dict[str, Any], int]],
    unit: str,
    kind: str,
    what: str,
    report_type: Callable[[dict[str, Any], list[dict[str, Any]]], Any],
    *,
    workers: int,
    progress: Callable[[int, int], None] | None,
    fault_plan: "FaultPlan | None",
    manifest_path: str | Path | None,
    resume: bool,
    max_restarts: int,
    profiler: "PoolProfiler | None",
    bus: EventBus | None,
    size: int | None,
    pool: "WarmPool | str",
    supervision: "SupervisionPolicy | bool | None",
    shared_maps: Mapping[str, "np.ndarray"] | None = None,
    use_shm: bool = True,
) -> SweepOutcome:
    """Run ``units`` of the spec ``base_data``: the one sweep and grid driver.

    Each unit is ``(id, label, point, seed)``: the id keys its summary and
    its fault-plan entries, and the summary is ``label`` plus ``seed``
    plus the run at ``point`` under ``seed``.  ``unit`` is the label
    field holding the id (``"replication"`` or ``"cell"``), ``kind`` the
    manifest kind, and ``what`` names a pool task in errors and
    supervision events.  ``spec_data`` is what the report, the manifest
    header and the cost-model key describe; the report is
    ``report_type(spec_data, summaries in id order)``.

    Batch policy: an explicit ``size`` wins; an inline run takes one unit
    per task; otherwise the cost model picks the size, after a
    calibration pass of one single-unit task per worker when it has not
    seen this spec.  ``shared_maps`` go to every unit — through one
    :class:`~repro.sweep.shm.SharedMapStore` on a pool with ``use_shm``,
    unlinked however the run ends, and as the arrays themselves
    otherwise.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if max_restarts < 0:
        raise ValueError(f"max_restarts must be >= 0, got {max_restarts}")
    if size is not None and size < 1:
        raise ValueError(f"batch size must be >= 1, got {size}")
    injector = _chaos_injector(fault_plan)
    t0 = time.perf_counter()
    summaries, manifest = _open_manifest(manifest_path, spec_data, resume, kind, unit)
    resumed = len(summaries)
    model = cost_model()
    ckey = _cost_key(spec_data)
    record = _batch_lander(unit, summaries, len(units), t0, ckey, manifest, progress, bus)
    warm = pool if isinstance(pool, WarmPool) else (warm_pool() if pool == "warm" else None)
    pool_reused = bool(warm is not None and warm.active and workers > 1)
    supervisor: Supervisor | None = None
    if supervision:
        policy = supervision if isinstance(supervision, SupervisionPolicy) else None
        supervisor = Supervisor(
            policy,
            estimate=lambda: model.estimate(ckey),
            bus=bus,
            metrics=profiler.metrics if profiler is not None else None,
            what=unit,
            t0=t0,
        )
    payload: Mapping[str, Any] | None = None
    attach = False
    store = None
    shared_bytes = restarts = 0

    def run_batches(batches: list[list[Any]]) -> int:
        if supervisor is not None:
            supervisor.items_of = lambda bi: len(batches[bi])

        def call(bi: int, attempt: int):
            batch = batches[bi]
            chaos = _chaos_verdict(injector, [u[0] for u in batch], attempt)
            return _run_batch, (base_data, batch, payload, attach, chaos, profiler is not None)

        return run_pool_tasks(
            list(range(len(batches))),
            call,
            record,
            workers=workers,
            max_restarts=max_restarts,
            what=what,
            profiler=profiler,
            pool=pool,
            supervisor=supervisor,
        )

    pending = [u for u in units if u[0] not in summaries]
    try:
        if shared_maps:
            import numpy as np

            shared_bytes = sum(np.asarray(a).nbytes for a in shared_maps.values())
            payload = shared_maps
            if workers > 1 and use_shm:
                from repro.sweep.shm import SharedMapStore

                # zero-copy path: descriptors only, O(1) pickle bytes per task
                store = SharedMapStore.create(shared_maps)
                payload, attach = store.descriptors(), True
        if size is None and workers == 1:
            size = 1  # inline runs land (and journal) one unit at a time
        elif size is None:
            size = model.pick_batch_size(ckey, len(pending), workers)
            if size is None and len(pending) > workers:
                # calibration: one single-unit task per worker — times the
                # spec *and* spins the pool up in parallel
                restarts += run_batches([[u] for u in pending[:workers]])
                pending = pending[workers:]
                size = model.pick_batch_size(ckey, len(pending), workers)
            size = size or 1
        restarts += run_batches([pending[i : i + size] for i in range(0, len(pending), size)])
    except _PoolExhausted as exc:
        # the pool's keys are batch indices: name the units instead
        missing = [u[0] for u in units if u[0] not in summaries]
        raise _PoolExhausted(unit, exc.restarts, exc.max_restarts, missing) from None
    finally:
        if manifest is not None:
            manifest.close()
        if store is not None:
            store.unlink()
    return SweepOutcome(
        report=report_type(spec_data, [summaries[i] for i in sorted(summaries)]),
        elapsed_seconds=time.perf_counter() - t0,
        pool_workers=workers,
        resumed=resumed,
        worker_restarts=restarts,
        shared_map_bytes=shared_bytes,
        chunk_size=size,
        pool_reused=pool_reused,
        pool_generation=warm.generation if warm is not None else 0,
        supervision=supervisor.stats() if supervisor is not None else None,
    )


def run_sweep(
    spec: SweepSpec,
    workers: int = 1,
    progress: Callable[[int, int], None] | None = None,
    fault_plan: "FaultPlan | None" = None,
    manifest_path: str | Path | None = None,
    resume: bool = False,
    max_restarts: int = 2,
    profiler: "PoolProfiler | None" = None,
    bus: EventBus | None = None,
    batch_size: int | None = None,
    pool: "WarmPool | str" = "warm",
    supervision: "SupervisionPolicy | bool | None" = None,
) -> SweepOutcome:
    """Run every replication of ``spec``; ``workers`` host processes.

    ``workers=1`` runs inline (no pool, no fork) — useful both as the
    low-overhead default and as the reference for the byte-identical
    serial-vs-parallel guarantee.  ``progress(done, total)`` is invoked
    after each replication lands.

    Dispatch: replications are shipped to the pool in *batches* — one
    pickle out, one envelope back — so tiny simulations still amortize
    submission overhead.  ``batch_size=None`` (default) adapts: if the
    process-wide :class:`~repro.sweep.pool.CostModel` already knows this
    workload's per-replication cost (an earlier sweep, or this sweep's
    calibration pass of one single-replication task per worker), the size
    targets ~100–500 ms of compute per task.  An explicit ``batch_size``
    pins it.  ``pool`` selects the warm/cold pool discipline (see
    :func:`run_pool_tasks`).  Neither knob changes report bytes — the
    byte-identity tests sweep across both.

    Crash safety: a dead pool worker (injected via ``fault_plan``'s
    :class:`~repro.faults.SweepWorkerKill`, or a real OOM/segfault) breaks
    the pool; the runner salvages every already-finished future, rebuilds
    the pool, and resubmits the missing batches with their original
    derived seeds — up to ``max_restarts`` pool rebuilds per dispatch
    phase.  With ``manifest_path`` set, each completed replication is
    journaled as one JSON line (flushed immediately); ``resume=True``
    loads the journal and skips finished replications, so an interrupted
    sweep continues where it stopped.  Neither recovery path changes a
    single byte of the final report relative to a fault-free serial run.

    Observability: ``profiler`` attributes each pool task's wall time
    (and makes the workers run instrumented, so worker-side counters flow
    back through its registry); ``bus`` receives one
    :class:`~repro.obs.events.PoolTaskCompleted` per landed replication,
    carrying its slice of the pool task's measured busy span — the feed
    both :class:`~repro.obs.progress.ProgressReporter` and
    :func:`~repro.obs.profile.effective_workers_from_events` consume.
    Neither changes the report bytes.

    Supervision: ``supervision=True`` (default policy) or a
    :class:`~repro.sweep.supervise.SupervisionPolicy` arms the pool
    supervisor — per-task deadlines derived from this workload's
    cost-model estimate, worker heartbeat probes, hang preemption through
    the salvage path, and the warm→cold→narrow→serial degradation ladder
    (see :mod:`repro.sweep.supervise`).  Hang/slowdown faults from
    ``fault_plan`` (:class:`~repro.faults.SweepWorkerHang`,
    :class:`~repro.faults.SweepWorkerSlow`) are honoured whether or not
    supervision is armed — an unsupervised hang simply blocks, which is
    the gap supervision exists to close.  Supervision never changes
    report bytes either; its facts land on
    :attr:`SweepOutcome.supervision`.
    """
    spec_data = spec.to_dict()
    units = [
        (r, {"replication": r}, {}, replication_seed(spec.seed, r))
        for r in range(spec.replications)
    ]
    return _run_units(
        spec_data,
        spec_data,
        units,
        "replication",
        "sweep-manifest",
        "replication",
        SweepReport,
        workers=workers,
        progress=progress,
        fault_plan=fault_plan,
        manifest_path=manifest_path,
        resume=resume,
        max_restarts=max_restarts,
        profiler=profiler,
        bus=bus,
        size=batch_size,
        pool=pool,
        supervision=supervision,
    )


def map_configs(
    fn: Callable[[Any], Any],
    configs: Sequence[Any] | Iterable[Any],
    workers: int = 1,
    max_restarts: int = 2,
    profiler: "PoolProfiler | None" = None,
    pool: "WarmPool | str" = "warm",
    supervisor: Supervisor | None = None,
) -> list[Any]:
    """Order-preserving (optionally parallel) map for figure drivers.

    Routed through :func:`run_pool_tasks`, so figure drivers inherit the
    warm pool, crash-salvage (a config whose worker dies is re-executed —
    ``fn`` must therefore be deterministic, which figure drivers already
    require for reproducibility), and optional profiling, instead of the
    bare executor this helper originally wrapped.

    ``fn`` must be a module-level callable and each config must be
    picklable when ``workers > 1``; with ``workers=1`` any callable works.
    Results come back in config order regardless of completion order, so
    a driver's output is independent of the pool size.
    """
    items = list(configs)
    if workers <= 1 or len(items) <= 1:
        return [fn(c) for c in items]
    results: dict[int, Any] = {}
    run_pool_tasks(
        list(range(len(items))),
        lambda i, attempt: (fn, (items[i],)),
        lambda i, result: results.__setitem__(i, result),
        workers=workers,
        max_restarts=max_restarts,
        what="config",
        profiler=profiler,
        pool=pool,
        supervisor=supervisor,
    )
    return [results[i] for i in range(len(items))]
