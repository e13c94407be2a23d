"""Closed-form models of rundown behaviour.

These reproduce the paper's back-of-envelope quantities exactly (the
1024²-grid / 1000-processor example, the two-tasks-per-processor rule,
the management-cycle feasibility condition) and give the simulator
independent cross-checks.
"""

from repro._lazy import lazy_exports

_EXPORTS, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        ".models": (
            "LeftoverWave",
            "leftover_wave",
            "checkerboard_phase_computations",
            "barrier_makespan_uniform",
            "overlap_makespan_uniform",
            "rundown_idle_uniform",
            "min_tasks_per_processor",
            "management_cycle_feasible",
            "executive_bound_makespan",
            "exponential_wave_idle",
        ),
    },
)

__all__ = list(_EXPORTS)
