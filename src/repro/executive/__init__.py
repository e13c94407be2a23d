"""The PAX-style dynamic managerial executive.

PAX (Parallel, Asynchronous Executive, NASA TP-2179) is the substrate the
paper's control strategies live in: a serial executive that assigns work
to workers on demand, processes completions, and keeps the waiting
computation queue "in a known order".  This package rebuilds the pieces
the paper describes:

* :mod:`repro.executive.costs` — the executive's per-action time charges;
* :mod:`repro.executive.descriptions` — computation descriptions as
  "large, contiguous collections of granules" with split and merge;
* :mod:`repro.executive.queues` — the waiting computation queue and the
  per-description conflict queue (a double circularly-linked list);
* :mod:`repro.executive.splitting` — task sizing and the three successor
  description split strategies;
* :mod:`repro.executive.scheduler` — the event-driven executive that runs
  a :class:`~repro.core.phase.PhaseProgram` on a simulated
  :class:`~repro.sim.machine.Machine` under an
  :class:`~repro.core.overlap.OverlapConfig`.
"""

from repro._lazy import lazy_exports

_EXPORTS, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        ".costs": ("ExecutiveCosts",),
        ".extensions": ("Extensions",),
        ".descriptions": ("ComputationDescription", "DescriptionState"),
        ".queues": ("ConflictQueue", "WaitingComputationQueue"),
        ".splitting": ("TaskSizer",),
        ".scheduler": (
            "ExecutiveSimulation",
            "PhaseRunStats",
            "RunResult",
            "StreamStats",
            "run_program",
        ),
    },
)

__all__ = list(_EXPORTS)
