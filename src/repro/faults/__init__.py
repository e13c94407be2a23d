"""Fault tolerance for parallel computation rundown.

The paper's premise is that processors idle while a phase drains; a
*failed* processor is the pathological rundown — its orphaned granules
stall the barrier forever.  This package makes rundown correct under
failure:

* :class:`FaultPlan` — deterministic, seed-driven failure injection
  (processor crashes, stragglers, transient granule errors, thread and
  sweep-worker kills, sweep-worker hangs and slowdowns, plus the
  :func:`chaos_plan` randomized-mix generator the chaos harness uses);
* :class:`RecoveryPolicy` — retry caps, exponential backoff, barrier
  watchdog tuning;
* :class:`FaultInjector` — the order-independent oracle the executive,
  machine and threaded runtime query at their fault points;
* :class:`RundownFailureReport` / :class:`PhaseAbortError` — structured
  escalation when recovery is impossible.

See docs/RESILIENCE.md for the fault model and tuning guidance.
"""

from repro._lazy import lazy_exports

_EXPORTS, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        ".plan": (
            "FaultPlan",
            "RecoveryPolicy",
            "ProcessorCrash",
            "StragglerSlowdown",
            "TransientGranuleError",
            "WorkerThreadKill",
            "SweepWorkerKill",
            "SweepWorkerHang",
            "SweepWorkerSlow",
            "chaos_plan",
        ),
        ".injector": ("FaultInjector",),
        ".report": ("RundownFailureReport", "PhaseAbortError"),
    },
)

__all__ = list(_EXPORTS)
