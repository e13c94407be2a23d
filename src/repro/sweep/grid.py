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
* dispatch through the sweep's own driver (:mod:`repro.sweep.runner`): a
  replication fan is a grid with one empty point, so grids share its
  batching, crash salvage, supervision, and JSONL manifest + ``--resume``;
* the zero-copy data plane: pass ``shared_maps`` and the big read-only
  selection-map arrays travel to workers as
  :class:`~repro.sweep.shm.SharedMapStore` descriptors — O(1) pickle
  bytes per task instead of O(map size).  Every cell builds its own
  composite granule maps from those arrays, exactly as a single run
  does, so a cell's result never depends on which cells ran before it
  in the same worker.

Axis names resolve in three namespaces (``SPEC_AXES``, ``CONFIG_AXES``
and ``FAULT_AXES`` in :mod:`repro.sweep.runner`), in order: sweep-spec fields
(``workload``, ``sim_workers``, ``streams``, ``tasks_per_processor``,
``barrier``), control-strategy fields (``overlap``, ``split``,
``target_fraction``, ``group_size``, ``elevate``), fault fields
(``fault_seed``, ``transient_p``); anything else is a workload-factory
parameter (``n``, ``fan_in``, ``grid_side``, …).
"""

from __future__ import annotations

import itertools
import json
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping

import numpy as np

from repro.obs.events import EventBus
from repro.sweep.pool import WarmPool
from repro.sweep.runner import (
    SweepOutcome,
    SweepSpec,
    build_workload,
    replication_seed,
    _aggregate,
    _run_unit,
    _run_units,
)
from repro.sweep.supervise import SupervisionPolicy

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults import FaultPlan
    from repro.obs.profile import PoolProfiler

__all__ = [
    "GridAxis",
    "GridSpec",
    "GridReport",
    "run_grid",
    "run_grid_cell",
    "grid_point_seed",
    "grid_cell_seed",
    "grid_map_seed",
    "materialize_maps",
    "parse_axis",
]

#: base-spec fields that must not be grid axes (they shape the cell space
#: itself, or the seed derivation, and varying them would be ambiguous)
RESERVED_AXES = frozenset({"replications", "seed", "params"})


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
    crc = zlib.crc32(f"grid-point:{_point_key(point)}".encode("utf-8"))
    return (sweep_seed * 0x9E3779B1 + crc) % (2**63)


def _point_key(point: Mapping[str, Any]) -> str:
    """A point's canonical JSON: its identity for seeds and grouping, so
    ``{"barrier": 0}`` and ``{"barrier": false}`` stay two points."""
    return json.dumps(dict(point), sort_keys=True, separators=(",", ":"))


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
    point = dict(point)
    seed = grid_cell_seed(SweepSpec.from_dict(base_data).seed, point, replication)
    summary = _run_unit(base_data, point, seed, shared, instrument)
    return {"point": point, "replication": replication, "seed": seed, **summary}


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
        return [cells[0]["point"] for cells in self._by_point().values()]

    def cells_at(self, point: Mapping[str, Any]) -> list[dict[str, Any]]:
        return self._by_point().get(_point_key(point), [])

    def aggregate_by_point(self) -> list[dict[str, Any]]:
        """Per-point cross-replication summaries (axis values included)."""
        return [
            {"point": cells[0]["point"], **_aggregate(cells)}
            for cells in self._by_point().values()
        ]

    def _by_point(self) -> dict[str, list[dict[str, Any]]]:
        """Cells grouped by their point's canonical JSON, in one pass."""
        groups: dict[str, list[dict[str, Any]]] = {}
        for cell in self.cells:
            groups.setdefault(_point_key(cell["point"]), []).append(cell)
        return groups


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
) -> SweepOutcome:
    """Run every cell of ``grid``; ``workers`` host processes.

    ``shared_maps`` are concrete read-only selection maps shared by every
    cell (see :func:`materialize_maps`).  With a pool and ``use_shm`` they
    ride the zero-copy plane: one :class:`~repro.sweep.shm.SharedMapStore`
    per grid, descriptor-only task payloads, guaranteed unlink on exit —
    including the crash-salvage path (the driver unlinks it after pool
    rebuilds and after ``max_restarts`` is exhausted).  Without a
    pool (or with ``use_shm=False``) the same arrays are used in-process
    or pickled inline; the report is byte-identical either way.

    Determinism, manifest and resume semantics are exactly those of
    :func:`~repro.sweep.runner.run_sweep`, with cells in place of
    replications: the canonical JSON report does not depend on pool size,
    chunking, worker death, or how often the sweep was interrupted and
    resumed.  ``chunk_size`` is ``run_sweep``'s ``batch_size``: cells per
    pool task, picked by the cost model when ``None``.

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
    :attr:`~repro.sweep.runner.SweepOutcome.supervision`.  None of these
    change report bytes.
    """
    spec_data = grid.to_dict()
    reps = grid.base.replications
    cells = ((p, r) for p in grid.points() for r in range(reps))
    units = [
        (c, {"cell": c, "point": p, "replication": r}, p, grid_cell_seed(grid.base.seed, p, r))
        for c, (p, r) in enumerate(cells)
    ]
    return _run_units(
        spec_data,
        spec_data["base"],
        units,
        "cell",
        "grid-manifest",
        "grid chunk",
        GridReport,
        workers=workers,
        progress=progress,
        fault_plan=fault_plan,
        manifest_path=manifest_path,
        resume=resume,
        max_restarts=max_restarts,
        profiler=profiler,
        bus=bus,
        size=chunk_size,
        pool=pool,
        supervision=supervision,
        shared_maps=shared_maps,
        use_shm=use_shm,
    )
