"""The fault injector: deterministic queries over a :class:`FaultPlan`.

The injector answers the questions the executive, the machine and the
threaded runtime ask at their fault points — "does this task fail?",
"how slow is this processor right now?" — with answers that are pure
functions of ``(plan seed, query key)``.  No draw depends on scheduling
order or wall clock, so the same plan produces the same failures under
any interleaving; that property is what keeps fault-injected sweeps
byte-identical on resubmission.
"""

from __future__ import annotations

from dataclasses import fields, replace

from repro.faults.plan import FaultPlan
from repro.sim.rng import RngStreams

__all__ = ["FaultInjector"]


class FaultInjector:
    """Stateless-by-construction fault oracle for one plan."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._rng = RngStreams(plan.seed)
        self._transients = plan.transients
        self._stragglers = plan.stragglers
        self._kills = {k.worker: k for k in plan.thread_kills}
        self._sweep_kills = _by_unit(plan.sweep_kills)
        self._sweep_hangs = _by_unit(plan.sweep_hangs)
        self._sweep_slows = _by_unit(plan.sweep_slows)
        #: Hot-path guards: callers skip per-task queries entirely when the
        #: plan carries no fault of the relevant kind, keeping an armed-but-
        #: empty plan within the fault-overhead benchmark's budget.
        self.has_stragglers = bool(self._stragglers)
        self.has_transients = bool(self._transients)

    # ------------------------------------------------------------------ sim side
    def slowdown(self, processor: int, time: float) -> float:
        """Multiplicative service-time factor for ``processor`` at ``time``."""
        factor = 1.0
        for s in self._stragglers:
            if s.processor == processor and time >= s.from_time:
                factor *= s.factor
        return factor

    def task_fails(self, phase: str, run: int, lo: int, hi: int, attempt: int) -> bool:
        """Does the task over granules ``[lo, hi)`` fail on this attempt?

        Keyed by ``(run, granule range, attempt)``: replaying the same
        attempt re-draws the same verdict, and each retry gets a fresh
        independent draw.
        """
        p = 0.0
        for t in self._transients:
            if t.phase is None or t.phase == phase:
                p = max(p, t.probability)
        if p <= 0.0:
            return False
        draw = self._rng.fresh(f"transient:{run}:{lo}:{hi}:{attempt}").random()
        return bool(draw < p)

    # ------------------------------------------------------------------ threaded side
    def thread_kill_after(self, worker: int) -> int | None:
        """Granule count after which threaded worker ``worker`` dies, or None."""
        kill = self._kills.get(worker)
        return kill.after_granules if kill is not None else None

    def granule_fails(self, phase: str, granule: int, attempt: int) -> bool:
        """Threaded-runtime transient verdict for one granule attempt."""
        return self.task_fails(phase, -1, granule, granule + 1, attempt)

    # ------------------------------------------------------------------ sweep side
    def kills_replication(self, replication: int, attempt: int = 0) -> bool:
        """Is the pool worker running ``replication`` scheduled to die?"""
        kill = self._sweep_kills.get(replication)
        return kill is not None and attempt < kill.attempts

    def hangs_replication(self, replication: int, attempt: int = 0):
        """The :class:`~repro.faults.SweepWorkerHang` scheduled for this
        replication attempt, or ``None``."""
        hang = self._sweep_hangs.get(replication)
        return hang if hang is not None and attempt < hang.attempts else None

    def slows_replication(self, replication: int, attempt: int = 0) -> float:
        """Injected delay in seconds for this replication attempt (0 = none)."""
        slow = self._sweep_slows.get(replication)
        return slow.delay_seconds if slow is not None and attempt == 0 else 0.0


def _by_unit(faults) -> dict:
    """Sweep faults of one kind keyed by the unit they target.

    Several faults on one unit (a CLI fault flag on a unit the chaos plan
    also draws, say) merge instead of the last one winning: every field
    takes the largest value, which means the most attempts, the longest
    delay, and ``freeze_heartbeat`` if any of them sets it.
    """
    merged: dict = {}
    for fault in faults:
        prev = merged.get(fault.replication)
        if prev is not None:
            fault = replace(fault, **{
                f.name: max(getattr(prev, f.name), getattr(fault, f.name))
                for f in fields(fault)
                if f.name != "replication"
            })
        merged[fault.replication] = fault
    return merged
