"""Parameter-grid sweeps over workload and control-strategy axes.

The paper's rundown studies (T1–T3, F1–F8) are parameter studies —
varying processor counts, task-sizing policies, split strategies, overlap
on/off, mapping classes, fault seeds.  :mod:`repro.sweep.runner` gives a
replication *fan*; this module generalizes it to a full grid:

* :class:`GridAxis` / :class:`GridSpec` — cartesian products over named
  axes, or an explicit point list, on top of a base :class:`SweepSpec`;
* deterministic per-cell seeds derived with the replication-seed scheme,
  so a cell's result is a pure function of ``(spec, point, replication)``
  — never of scheduling, chunking, pool size, or resume;
* chunked dispatch over the shared :func:`~repro.sweep.runner.run_pool_tasks`
  pool driver (same crash salvage, same JSONL manifest + ``--resume``);
* the zero-copy data plane: pass ``shared_maps`` and the big read-only
  selection-map arrays travel to workers as
  :class:`~repro.sweep.shm.SharedMapStore` descriptors — O(1) pickle
  bytes per task instead of O(map size);
* the incremental composite-map rebuild: every worker process keeps one
  :class:`~repro.core.enablement.CompositeMapCache`, so adjacent grid
  points that differ only in target set (the ``target_fraction`` axis)
  rebuild only the target-dependent suffix of the composite granule map.

Axis names resolve in three namespaces, in order: sweep-spec fields
(``workload``, ``sim_workers``, ``streams``, ``tasks_per_processor``,
``barrier``), control-strategy fields (``overlap``, ``split``,
``target_fraction``, ``group_size``, ``elevate``), fault fields
(``fault_seed``, ``transient_p``); anything else is a workload-factory
parameter (``n``, ``fan_in``, ``grid_side``, …).
"""

from __future__ import annotations

import itertools
import json
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping

import numpy as np

from repro.obs.events import EventBus
from repro.sweep.pool import WarmPool, cost_model, warm_pool
from repro.sweep.runner import (
    SweepSpec,
    build_workload,
    replication_seed,
    result_summary,
    run_pool_tasks,
    _apply_chaos,
    _batch_lander,
    _chaos_injector,
    _chaos_verdict,
    _open_manifest,
)
from repro.sweep.shm import SharedMapStore
from repro.sweep.supervise import SupervisionPolicy, Supervisor

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults import FaultPlan
    from repro.obs.profile import PoolProfiler

__all__ = [
    "GridAxis",
    "GridSpec",
    "GridReport",
    "GridOutcome",
    "run_grid",
    "run_grid_cell",
    "grid_point_seed",
    "grid_cell_seed",
    "grid_map_seed",
    "materialize_maps",
    "parse_axis",
]

#: grid-point keys that override :class:`SweepSpec` fields
SPEC_AXES = frozenset({"workload", "sim_workers", "streams", "tasks_per_processor", "barrier"})
#: grid-point keys that override :class:`~repro.core.overlap.OverlapConfig`
CONFIG_AXES = frozenset({"overlap", "split", "target_fraction", "group_size", "elevate"})
#: grid-point keys that drive fault injection
FAULT_AXES = frozenset({"fault_seed", "transient_p"})
#: base-spec fields that must not be grid axes (they shape the cell space
#: itself, or the seed derivation, and varying them would be ambiguous)
RESERVED_AXES = frozenset({"replications", "seed", "params"})

_GRID_MANIFEST_KIND = "grid-manifest"


# ---------------------------------------------------------------------- spec
@dataclass(frozen=True)
class GridAxis:
    """One named axis: the values a single parameter sweeps through."""

    name: str
    values: tuple[Any, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("axis name must be non-empty")
        if not self.name.isidentifier():
            raise ValueError(
                f"axis name {self.name!r} is not a valid parameter name"
            )
        if self.name in RESERVED_AXES:
            raise ValueError(
                f"{self.name!r} cannot be a grid axis; set it on the base spec"
            )
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ValueError(f"axis {self.name!r} needs at least one value")
        if len(set(map(repr, self.values))) != len(self.values):
            raise ValueError(f"axis {self.name!r} has duplicate values")


def parse_axis(token: str) -> GridAxis:
    """``AXIS=v1,v2,...`` — CLI syntax; values parsed as JSON when possible."""
    name, sep, raw = token.partition("=")
    if not sep or not name or not raw:
        raise ValueError(f"--grid expects AXIS=v1,v2,..., got {token!r}")

    def coerce(v: str) -> Any:
        try:
            return json.loads(v)
        except ValueError:
            return v  # bare strings stay strings

    return GridAxis(name, tuple(coerce(v) for v in raw.split(",")))


@dataclass(frozen=True)
class GridSpec:
    """A base sweep spec plus the axes (or explicit points) to vary.

    ``base.replications`` replications run at *every* grid point; the
    base's other fields are each point's defaults.  ``explicit`` (a tuple
    of point dicts, built via :meth:`from_points`) bypasses the cartesian
    product for irregular studies.
    """

    base: SweepSpec
    axes: tuple[GridAxis, ...] = ()
    explicit: tuple[tuple[tuple[str, Any], ...], ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "axes", tuple(self.axes))
        names = [a.name for a in self.axes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate axis names in {names}")
        if self.explicit is not None and self.axes:
            raise ValueError("give axes or an explicit point list, not both")
        if self.explicit is None and not self.axes:
            raise ValueError("a grid needs at least one axis (or explicit points)")
        if self.explicit is not None and not self.explicit:
            raise ValueError("explicit point list must be non-empty")

    @classmethod
    def from_points(cls, base: SweepSpec, points: Iterable[Mapping[str, Any]]) -> "GridSpec":
        """Explicit-list grid: each mapping is one point's overrides."""
        frozen = tuple(tuple(sorted(dict(p).items())) for p in points)
        for p in frozen:
            for name, _ in p:
                if name in RESERVED_AXES:
                    raise ValueError(
                        f"{name!r} cannot vary per point; set it on the base spec"
                    )
        return cls(base=base, explicit=frozen)

    def points(self) -> list[dict[str, Any]]:
        """Every grid point in canonical order (last axis fastest)."""
        if self.explicit is not None:
            return [dict(p) for p in self.explicit]
        return [
            dict(zip((a.name for a in self.axes), combo))
            for combo in itertools.product(*(a.values for a in self.axes))
        ]

    @property
    def n_points(self) -> int:
        if self.explicit is not None:
            return len(self.explicit)
        n = 1
        for a in self.axes:
            n *= len(a.values)
        return n

    @property
    def n_cells(self) -> int:
        """Total simulations: points × replications."""
        return self.n_points * self.base.replications

    def to_dict(self) -> dict[str, Any]:
        return {
            "base": self.base.to_dict(),
            "axes": [{"name": a.name, "values": list(a.values)} for a in self.axes],
            "points": (
                None if self.explicit is None else [dict(p) for p in self.explicit]
            ),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "GridSpec":
        base = SweepSpec.from_dict(data["base"])
        points = data.get("points")
        if points is not None:
            return cls.from_points(base, points)
        axes = tuple(
            GridAxis(a["name"], tuple(a["values"])) for a in data.get("axes", [])
        )
        return cls(base=base, axes=axes)


# ---------------------------------------------------------------------- seeds
def grid_point_seed(sweep_seed: int, point: Mapping[str, Any]) -> int:
    """Seed of a grid point: pure function of ``(sweep seed, point)``.

    Keyed on the point's canonical JSON, never its position — inserting an
    axis value re-seeds only the new points, exactly as adding
    replications extends (not perturbs) a replication fan.
    """
    key = json.dumps(dict(point), sort_keys=True, separators=(",", ":"))
    crc = zlib.crc32(f"grid-point:{key}".encode("utf-8"))
    return (sweep_seed * 0x9E3779B1 + crc) % (2**63)


def grid_cell_seed(sweep_seed: int, point: Mapping[str, Any], replication: int) -> int:
    """Master seed of one cell — the existing replication-seed scheme
    applied under the point seed."""
    return replication_seed(grid_point_seed(sweep_seed, point), replication)


def grid_map_seed(sweep_seed: int, name: str) -> int:
    """Seed for materializing shared map ``name`` once per grid."""
    crc = zlib.crc32(f"grid-map:{name}".encode("utf-8"))
    return (sweep_seed * 0x9E3779B1 + crc) % (2**63)


def materialize_maps(grid: GridSpec) -> dict[str, np.ndarray]:
    """Generate every selection map the base workload declares, once.

    This is the driver-side half of the zero-copy plane: the maps a
    normal run would generate inside each simulation are drawn here a
    single time (seeded by :func:`grid_map_seed`) and then shared with
    every cell.  Only meaningful when no axis changes the map shapes
    (the mapping's shape validation will refuse a mismatch loudly).
    """
    program = build_workload(grid.base.workload, grid.base.params)
    return {
        name: np.asarray(gen(np.random.default_rng(grid_map_seed(grid.base.seed, name))))
        for name, gen in sorted(program.map_generators.items())
    }


# ---------------------------------------------------------------------- worker
class _SharedMapGenerator:
    """Map 'generator' that ignores the RNG and returns the shared array."""

    def __init__(self, store: Mapping[str, np.ndarray], name: str) -> None:
        self._store = store
        self._name = name

    def __call__(self, rng: np.random.Generator) -> np.ndarray:
        return self._store[self._name]


#: one composite-map cache per worker process: adjacent grid points that
#: share mapping/maps/group-size rebuild only the target-dependent suffix
_CELL_CACHE = None


def _cell_cache():
    global _CELL_CACHE
    if _CELL_CACHE is None:
        from repro.core.enablement import CompositeMapCache

        _CELL_CACHE = CompositeMapCache()
    return _CELL_CACHE


def run_grid_cell(
    base_data: dict[str, Any],
    point: Mapping[str, Any],
    replication: int,
    shared: Mapping[str, np.ndarray] | None = None,
    instrument: bool = False,
) -> dict[str, Any]:
    """Execute one grid cell; returns its JSON-able summary.

    Everything arrives as plain data (plus an optional attached map
    store); the phase program is rebuilt locally, exactly like
    :func:`~repro.sweep.runner.run_replication`.  ``instrument=True``
    mirrors its profile path: the finished run is counted into the
    process-local worker registry, without changing the returned summary.
    """
    from repro.core.overlap import OverlapConfig, OverlapPolicy, SplitStrategy
    from repro.executive import TaskSizer, run_program

    spec = SweepSpec.from_dict(base_data)
    point = dict(point)
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

    seed = grid_cell_seed(spec.seed, point, replication)
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
        composite_cache=_cell_cache(),
    )
    if instrument:
        from repro.sweep.runner import count_run_into_worker_registry

        count_run_into_worker_registry(result, workload)
    return {"point": point, "replication": replication, "seed": seed, **result_summary(result)}


def _grid_chunk(
    base_data: dict[str, Any],
    chunk: list[tuple[int, dict[str, Any], int]],
    maps_payload: Mapping[str, Any] | None,
    attach: bool,
    chaos: dict[str, Any] | None,
    instrument: bool = False,
) -> dict[str, Any]:
    """Run a chunk of ``(cell id, point, replication)`` cells.

    ``maps_payload`` is either shared-store descriptors (``attach=True``,
    the zero-copy path) or the concrete arrays themselves (inline mode,
    or a pool run with shm disabled).  Chunking amortizes both the
    submission pickle and the shared-store attachment; the attachment is
    memoized per worker process, so a worker pays the segment-open cost
    once per grid, not once per chunk.

    ``chaos`` is this attempt's injected-misbehavior verdict over the
    chunk's cell ids (see :func:`~repro.sweep.runner._chaos_verdict`) —
    kill, hang (with or without a frozen heartbeat), or slowdown.

    Returns a batch envelope (like ``runner._pool_entry_batch``): the
    per-cell summaries plus the chunk's measured compute span, which
    feeds the host-side cost model and concurrency accounting without
    touching the canonical report.
    """
    _apply_chaos(chaos, f"grid chunk with cells {[c[0] for c in chunk]}")
    shared: Mapping[str, np.ndarray] | None
    if maps_payload is None:
        shared = None
    elif attach:
        shared = SharedMapStore.attach(maps_payload, cached=True)
    else:
        shared = maps_payload
    t0 = time.perf_counter()
    out = [
        {
            "cell": cell_id,
            **run_grid_cell(base_data, point, rep, shared=shared, instrument=instrument),
        }
        for cell_id, point, rep in chunk
    ]
    t1 = time.perf_counter()
    return {"batch": out, "compute_seconds": t1 - t0, "t_start": t0, "t_end": t1}


# ---------------------------------------------------------------------- report
@dataclass
class GridReport:
    """The canonical, order-independent record of a finished grid sweep.

    ``cells`` are sorted by ``(point index, replication)``; each carries
    its full point dict, so a report is self-describing without the spec.
    """

    spec: dict[str, Any]
    cells: list[dict[str, Any]]

    def to_json(self) -> str:
        """Canonical serialization: identical bytes for identical grids."""
        payload = {"spec": self.spec, "cells": self.cells}
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "GridReport":
        data = json.loads(text)
        return cls(spec=data["spec"], cells=data["cells"])

    def points(self) -> list[dict[str, Any]]:
        """Distinct points in cell order (deduplicated, order-preserving)."""
        seen: list[dict[str, Any]] = []
        for cell in self.cells:
            if cell["point"] not in seen:
                seen.append(cell["point"])
        return seen

    def cells_at(self, point: Mapping[str, Any]) -> list[dict[str, Any]]:
        point = dict(point)
        return [c for c in self.cells if c["point"] == point]

    def aggregate_by_point(self) -> list[dict[str, Any]]:
        """Per-point cross-replication summaries (axis values included)."""
        from repro.sweep.runner import SweepReport

        out = []
        for point in self.points():
            agg = SweepReport(spec={}, replications=self.cells_at(point)).aggregate()
            out.append({"point": point, **agg})
        return out


@dataclass
class GridOutcome:
    """A finished grid sweep: canonical report plus host-side facts."""

    report: GridReport
    elapsed_seconds: float
    pool_workers: int
    resumed: int = 0
    worker_restarts: int = 0
    #: bytes of read-only map data placed in shared memory (0 = inline)
    shared_map_bytes: int = 0
    #: cells per dispatched pool task (diagnostic; never in the report)
    chunk_size: int = 1
    #: True when the grid ran on an already-live warm pool
    pool_reused: bool = False
    #: warm-pool executor build count after the run (0 = no pool used)
    pool_generation: int = 0
    #: supervisor stats (hangs detected, preemptions, ladder transitions,
    #: final rung) when the grid ran supervised; None otherwise
    supervision: dict[str, Any] | None = None


# ---------------------------------------------------------------------- driver
def run_grid(
    grid: GridSpec,
    workers: int = 1,
    shared_maps: Mapping[str, np.ndarray] | None = None,
    use_shm: bool = True,
    chunk_size: int | None = None,
    progress: Callable[[int, int], None] | None = None,
    manifest_path: str | Path | None = None,
    resume: bool = False,
    max_restarts: int = 2,
    fault_plan: "FaultPlan | None" = None,
    profiler: "PoolProfiler | None" = None,
    bus: EventBus | None = None,
    pool: "WarmPool | str" = "warm",
    supervision: "SupervisionPolicy | bool | None" = None,
) -> GridOutcome:
    """Run every cell of ``grid``; ``workers`` host processes.

    ``shared_maps`` are concrete read-only selection maps shared by every
    cell (see :func:`materialize_maps`).  With a pool and ``use_shm`` they
    ride the zero-copy plane: one :class:`~repro.sweep.shm.SharedMapStore`
    per grid, descriptor-only task payloads, guaranteed unlink on exit —
    including the crash-salvage path (the ``finally`` below runs after
    pool rebuilds and after ``max_restarts`` is exhausted).  Without a
    pool (or with ``use_shm=False``) the same arrays are used in-process
    or pickled inline; the report is byte-identical either way.

    Determinism, manifest and resume semantics are exactly those of
    :func:`~repro.sweep.runner.run_sweep`, with cells in place of
    replications: the canonical JSON report does not depend on pool size,
    chunking, worker death, or how often the sweep was interrupted and
    resumed.

    ``profiler`` / ``bus`` mirror :func:`~repro.sweep.runner.run_sweep`:
    per-chunk overhead attribution plus worker-counter merge, and one
    :class:`~repro.obs.events.PoolTaskCompleted` per landed cell.  The
    report bytes do not depend on either.

    ``fault_plan`` and ``supervision`` are those of
    :func:`~repro.sweep.runner.run_sweep`, with the cell id as the unit
    every :class:`~repro.faults.SweepWorkerKill`,
    :class:`~repro.faults.SweepWorkerHang` and
    :class:`~repro.faults.SweepWorkerSlow` names: a chunk dies, hangs
    (freezing its heartbeat if asked) or sleeps when one of its cells is
    armed on that attempt.  Supervision is required for a hung chunk to
    be preempted rather than block the grid; its facts land on
    :attr:`GridOutcome.supervision`.  None of these change report bytes.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if chunk_size is not None and chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    spec_data = grid.to_dict()
    base_data = spec_data["base"]
    points = grid.points()
    reps = grid.base.replications
    cells: list[tuple[int, dict[str, Any], int]] = [
        (pi * reps + r, point, r)
        for pi, point in enumerate(points)
        for r in range(reps)
    ]
    total = len(cells)
    injector = _chaos_injector(fault_plan)

    t0 = time.perf_counter()
    summaries, manifest = _open_manifest(
        manifest_path, spec_data, resume, kind=_GRID_MANIFEST_KIND, key="cell"
    )
    resumed = len(summaries)

    pending = [c for c in cells if c[0] not in summaries]
    model = cost_model()
    ckey = "grid:" + json.dumps(
        {k: v for k, v in spec_data.items() if k != "base"}
        | {"base": {k: v for k, v in base_data.items() if k not in ("replications", "seed")}},
        sort_keys=True,
        separators=(",", ":"),
    )
    if chunk_size is None:
        if workers == 1:
            chunk_size = 1  # inline runs flush the manifest per cell
        else:
            # cost-model chunking: target ~100-500 ms of compute per task
            # when the per-cell cost is known (a previous grid in this
            # process), else the keep-everyone-busy heuristic
            chunk_size = model.pick_batch_size(ckey, len(pending), workers) or max(
                1, -(-len(pending) // (workers * 4))
            )
    chunks = [pending[i : i + chunk_size] for i in range(0, len(pending), chunk_size)]

    store: SharedMapStore | None = None
    descriptors = None
    local_shared: Mapping[str, np.ndarray] | None = None
    shared_bytes = 0
    restarts = 0
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
            what="cell",
            t0=t0,
        )
        supervisor.items_of = lambda ci: len(chunks[ci])

    record = _batch_lander("cell", summaries, total, t0, ckey, manifest, progress, bus)

    try:
        if shared_maps:
            shared_bytes = sum(np.asarray(a).nbytes for a in shared_maps.values())
            if workers > 1 and use_shm:
                store = SharedMapStore.create(shared_maps)
                descriptors = store.descriptors()
            else:
                local_shared = shared_maps

        def call(chunk_id: int, attempt: int):
            chunk = chunks[chunk_id]
            chaos = _chaos_verdict(injector, [cid for cid, _, _ in chunk], attempt)
            if store is not None:
                # zero-copy path: descriptors only, O(1) pickle bytes
                payload, attach = descriptors, True
            else:
                # inline mode uses the arrays directly (no pickle at
                # all); a pool with shm disabled pickles them per chunk
                payload, attach = local_shared, False
            return (
                _grid_chunk,
                (base_data, chunk, payload, attach, chaos, profiler is not None),
            )

        restarts = run_pool_tasks(
            list(range(len(chunks))),
            call,
            record,
            workers=workers,
            max_restarts=max_restarts,
            what="grid chunk",
            profiler=profiler,
            pool=pool,
            supervisor=supervisor,
        )
    finally:
        if manifest is not None:
            manifest.close()
        if store is not None:
            store.unlink()

    elapsed = time.perf_counter() - t0
    report = GridReport(
        spec=spec_data, cells=[summaries[i] for i in sorted(summaries)]
    )
    return GridOutcome(
        report=report,
        elapsed_seconds=elapsed,
        pool_workers=workers,
        resumed=resumed,
        worker_restarts=restarts,
        shared_map_bytes=shared_bytes,
        chunk_size=chunk_size,
        pool_reused=pool_reused,
        pool_generation=warm.generation if warm is not None else 0,
        supervision=supervisor.stats() if supervisor is not None else None,
    )
