"""Parallel parameter sweeps and replication fans over the simulator.

One simulated execution is a pure function of ``(workload, configuration,
seed)`` — which makes replication fans and parameter sweeps embarrassingly
parallel.  This package runs them across a :class:`~concurrent.futures.
ProcessPoolExecutor` while keeping the report *bit-for-bit deterministic*:

* every replication derives its own master seed from the sweep seed with
  the same stable keying :class:`~repro.sim.rng.RngStreams` uses, so
  adding replications never perturbs existing ones;
* replication summaries are ordered by replication index, not completion
  order, and serialized canonically — a serial run and a 4-worker run of
  the same spec produce byte-identical JSON.

A replication fan is a grid with one empty point: sweeps and grids run
on one driver, with one worker entry, one per-unit runner, one batch
policy and one outcome type.

Entry points
------------
:func:`run_sweep`
    Execute a :class:`SweepSpec`; returns the :class:`SweepOutcome`
    (canonical report + host-timing facts kept out of the report).
:func:`run_grid`
    Execute a :class:`GridSpec` — a cartesian product (or explicit list)
    of parameter points, each replicated — with the same determinism,
    crash-salvage, and resume guarantees, optionally over the
    :class:`SharedMapStore` zero-copy map plane; returns a
    :class:`SweepOutcome` holding a :class:`GridReport`.
:func:`map_configs`
    Order-preserving parallel map for figure drivers and ad-hoc sweeps.
``repro sweep``
    The CLI front-end (see ``python -m repro sweep --help``).

All three entry points dispatch through one process-wide **warm pool**
(:func:`warm_pool`) by default: worker processes are spawned once and
reused across sweeps, grids and maps, with tasks **batched** adaptively
from a calibrated per-item cost model (:func:`cost_model`).  Pass
``pool="cold"`` for a throwaway per-call pool, or call
:func:`shutdown_warm_pool` to tear the shared workers down explicitly
(an ``atexit`` hook does it otherwise).  Neither pooling nor batching
can change report bytes.

``supervision=`` arms the pool **supervisor**
(:mod:`repro.sweep.supervise`): per-task deadlines from the cost model,
worker heartbeat probes, preemptive kill-and-rebuild of hung workers
through the crash-salvage path, and a retry-budget circuit breaker that
degrades warm → cold → narrow → serial instead of failing.  A
shared-memory janitor (:func:`audit_shm_segments` /
:func:`reap_leaked_segments`) reaps segments leaked by preempted or
killed drivers.  Supervision cannot change report bytes either — the
chaos harness (``repro.faults.chaos_plan``) proves it.

See docs/PERFORMANCE.md for usage and the scaling benchmark, and
docs/RESILIENCE.md for the degradation ladder and deadline knobs.
"""

from repro._lazy import lazy_exports

_EXPORTS, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        ".runner": (
            "SweepSpec",
            "SweepReport",
            "SweepOutcome",
            "SweepWorkerDied",
            "run_sweep",
            "run_replication",
            "run_pool_tasks",
            "replication_seed",
            "sweep_summary",
            "map_configs",
        ),
        "repro.workloads.registry": ("build_workload", "workload_names"),
        ".grid": (
            "GridAxis",
            "GridSpec",
            "GridReport",
            "run_grid",
            "run_grid_cell",
            "grid_point_seed",
            "grid_cell_seed",
            "materialize_maps",
            "parse_axis",
        ),
        ".shm": ("SharedMapStore", "audit_shm_segments", "reap_leaked_segments"),
        ".pool": ("WarmPool", "CostModel", "warm_pool", "cost_model", "shutdown_warm_pool"),
        ".supervise": ("SupervisionPolicy", "Supervisor", "DEGRADATION_LADDER"),
    },
)

__all__ = list(_EXPORTS)
