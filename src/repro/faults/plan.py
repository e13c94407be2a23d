"""Deterministic, seed-driven fault plans.

A :class:`FaultPlan` declares *what goes wrong* in a run: processors that
crash at known simulation times, stragglers that slow down, granule tasks
that fail transiently with some probability, worker threads that die
mid-phase, and sweep pool workers that are killed outright.  The plan is
pure data — picklable, serializable, and seeded — so the same plan
injected twice produces the same failures, and a report produced under
injection can be byte-compared against a fault-free reference.

Recovery knobs live in :class:`RecoveryPolicy`: how many times a granule
is retried, how retry backoff grows, and how the barrier watchdog detects
and escalates stalls.  Injection (the plan) and recovery (the policy) are
deliberately separate objects: production runs carry a policy and no plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "ProcessorCrash",
    "StragglerSlowdown",
    "TransientGranuleError",
    "WorkerThreadKill",
    "SweepWorkerKill",
    "SweepWorkerHang",
    "SweepWorkerSlow",
    "FaultPlan",
    "RecoveryPolicy",
    "chaos_plan",
]


@dataclass(frozen=True, slots=True)
class ProcessorCrash:
    """Simulated worker processor ``processor`` dies at time ``at_time``.

    The processor's in-flight task (if any) is lost — its granules are
    *not* credited — and the processor never accepts work again.  Consumed
    by :class:`~repro.sim.machine.Machine` via the executive scheduler.
    """

    processor: int
    at_time: float

    def __post_init__(self) -> None:
        if self.processor < 0:
            raise ValueError(f"processor index must be >= 0, got {self.processor}")
        if self.at_time < 0:
            raise ValueError(f"crash time must be >= 0, got {self.at_time}")


@dataclass(frozen=True, slots=True)
class StragglerSlowdown:
    """Tasks on ``processor`` take ``factor``× as long from ``from_time`` on."""

    processor: int
    factor: float
    from_time: float = 0.0

    def __post_init__(self) -> None:
        if self.factor < 1.0:
            raise ValueError(f"slowdown factor must be >= 1, got {self.factor}")
        if self.processor < 0:
            raise ValueError(f"processor index must be >= 0, got {self.processor}")


@dataclass(frozen=True, slots=True)
class TransientGranuleError:
    """A task over matching granules fails with probability ``probability``.

    The failure is drawn deterministically from the plan seed keyed by
    ``(phase run, granule range, attempt)`` — independent of scheduling
    order, so parallel and serial executions fail identically.  ``phase``
    of ``None`` matches every phase.  Failed work is retried with capped
    exponential backoff (see :class:`RecoveryPolicy`).
    """

    probability: float
    phase: str | None = None

    def __post_init__(self) -> None:
        if not (0.0 <= self.probability <= 1.0):
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")


@dataclass(frozen=True, slots=True)
class WorkerThreadKill:
    """Threaded-runtime worker ``worker`` dies after ``after_granules`` kernels.

    The death is cooperative (the worker requeues its current granule and
    exits) — modelling a thread lost mid-phase without corrupting shared
    arrays.  Consumed by :class:`~repro.runtime.threaded.ThreadedExecutor`.
    """

    worker: int
    after_granules: int = 0

    def __post_init__(self) -> None:
        if self.worker < 0:
            raise ValueError(f"worker index must be >= 0, got {self.worker}")
        if self.after_granules < 0:
            raise ValueError(f"after_granules must be >= 0, got {self.after_granules}")


@dataclass(frozen=True, slots=True)
class SweepWorkerKill:
    """The pool worker running replication ``replication`` is killed.

    The kill fires while ``attempt < attempts`` (default: first attempt
    only): the sweep runner resubmits the replication with the same
    derived seed, so the final report is byte-identical to a fault-free
    sweep.  ``attempts > 1`` models a salvage storm — the same unit keeps
    taking its worker down across consecutive pool rebuilds.  Consumed by
    :func:`repro.sweep.run_sweep` and :func:`repro.sweep.run_grid` (where
    ``replication`` is a cell id).
    """

    replication: int
    attempts: int = 1

    def __post_init__(self) -> None:
        if self.replication < 0:
            raise ValueError(f"replication index must be >= 0, got {self.replication}")
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")


@dataclass(frozen=True, slots=True)
class SweepWorkerHang:
    """The pool worker running replication ``replication`` hangs forever.

    Unlike :class:`SweepWorkerKill` the worker does not die — it stops
    making progress, which only a supervision deadline (or, with
    ``freeze_heartbeat=True``, a stale-heartbeat probe) can detect.  The
    hang fires while ``attempt < attempts``; the preempted-and-resubmitted
    attempt completes normally with the same derived seed, keeping the
    report byte-identical.  Inline (``workers=1``) the hang degrades to a
    :class:`~repro.sweep.runner.SweepWorkerDied` retry, since a process
    cannot usefully hang itself.  Consumed by :func:`repro.sweep.run_sweep`
    and :func:`repro.sweep.run_grid` (where ``replication`` is a cell id).
    """

    replication: int
    attempts: int = 1
    #: also stop the worker's heartbeat thread — models a frozen process
    #: (C-level block, livelocked interpreter) rather than a slow task, so
    #: the stale-heartbeat probe fires before the task deadline does
    freeze_heartbeat: bool = False

    def __post_init__(self) -> None:
        if self.replication < 0:
            raise ValueError(f"replication index must be >= 0, got {self.replication}")
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")


@dataclass(frozen=True, slots=True)
class SweepWorkerSlow:
    """The pool worker running replication ``replication`` is slowed.

    A deterministic ``delay_seconds`` sleep before the unit's compute, on
    the first attempt only.  A slowdown inside the task deadline completes
    normally; one past the deadline is preempted and resubmitted (the
    retry is not slowed), so the report stays byte-identical either way.
    The sleep happens *outside* the batch envelope's compute-span stamp,
    so an injected slowdown never pollutes the cost-model EWMA.
    """

    replication: int
    delay_seconds: float = 0.5

    def __post_init__(self) -> None:
        if self.replication < 0:
            raise ValueError(f"replication index must be >= 0, got {self.replication}")
        if not (self.delay_seconds > 0 and math.isfinite(self.delay_seconds)):
            raise ValueError(
                f"delay_seconds must be positive and finite, got {self.delay_seconds}"
            )


_FAULT_TYPES = {
    "processor_crash": ProcessorCrash,
    "straggler": StragglerSlowdown,
    "transient": TransientGranuleError,
    "thread_kill": WorkerThreadKill,
    "sweep_kill": SweepWorkerKill,
    "sweep_hang": SweepWorkerHang,
    "sweep_slow": SweepWorkerSlow,
}
_TYPE_NAMES = {cls: name for name, cls in _FAULT_TYPES.items()}


@dataclass(frozen=True)
class FaultPlan:
    """A seeded collection of fault declarations.

    An empty plan (``FaultPlan()``) arms the fault machinery — watchdogs,
    retry accounting — without injecting anything; the fault-overhead
    benchmark uses it to price the armed-but-silent path.
    """

    seed: int = 0
    faults: tuple[Any, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        faults = tuple(self.faults)
        for f in faults:
            if type(f) not in _TYPE_NAMES:
                raise TypeError(f"unknown fault spec {f!r}")
        object.__setattr__(self, "faults", faults)

    # ------------------------------------------------------------------ views
    def _of(self, cls: type) -> tuple[Any, ...]:
        return tuple(f for f in self.faults if isinstance(f, cls))

    @property
    def crashes(self) -> tuple[ProcessorCrash, ...]:
        return self._of(ProcessorCrash)

    @property
    def stragglers(self) -> tuple[StragglerSlowdown, ...]:
        return self._of(StragglerSlowdown)

    @property
    def transients(self) -> tuple[TransientGranuleError, ...]:
        return self._of(TransientGranuleError)

    @property
    def thread_kills(self) -> tuple[WorkerThreadKill, ...]:
        return self._of(WorkerThreadKill)

    @property
    def sweep_kills(self) -> tuple[SweepWorkerKill, ...]:
        return self._of(SweepWorkerKill)

    @property
    def sweep_hangs(self) -> tuple[SweepWorkerHang, ...]:
        return self._of(SweepWorkerHang)

    @property
    def sweep_slows(self) -> tuple[SweepWorkerSlow, ...]:
        return self._of(SweepWorkerSlow)

    # ------------------------------------------------------------------ serde
    def to_dict(self) -> dict[str, Any]:
        """Plain-data form (JSON-able, crosses process boundaries)."""
        out = []
        for f in self.faults:
            entry = {"kind": _TYPE_NAMES[type(f)]}
            entry.update(
                {s: getattr(f, s) for s in type(f).__dataclass_fields__}  # type: ignore[attr-defined]
            )
            out.append(entry)
        return {"seed": self.seed, "faults": out}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FaultPlan":
        faults = []
        for entry in data.get("faults", []):
            entry = dict(entry)
            kind = entry.pop("kind")
            try:
                fault_cls = _FAULT_TYPES[kind]
            except KeyError:
                raise ValueError(f"unknown fault kind {kind!r}") from None
            faults.append(fault_cls(**entry))
        return cls(seed=int(data.get("seed", 0)), faults=tuple(faults))


def chaos_plan(
    seed: int,
    units: int,
    hang_p: float = 0.15,
    kill_p: float = 0.15,
    slow_p: float = 0.20,
) -> FaultPlan:
    """A deterministic randomized mix of sweep-worker faults.

    The chaos harness's plan generator: for each pool unit (replication
    index, grid cell id) one uniform draw — keyed on ``(seed, unit)`` with
    the same :class:`~repro.sim.rng.RngStreams` scheme every other
    injection point uses — decides hang / kill / slowdown / nothing.  The
    same ``(seed, units)`` always yields the same plan, independent of
    call order or host, which is what lets CI byte-compare a chaos run
    against its fault-free reference (the ``REPRO_CHAOS_SEED`` matrix).
    """
    if units < 0:
        raise ValueError(f"units must be >= 0, got {units}")
    if min(hang_p, kill_p, slow_p) < 0 or hang_p + kill_p + slow_p > 1.0:
        raise ValueError(
            f"fault probabilities must be >= 0 and sum to <= 1, got "
            f"{hang_p}, {kill_p}, {slow_p}"
        )
    from repro.sim.rng import RngStreams

    rng = RngStreams(seed)
    faults: list[Any] = []
    for unit in range(units):
        u = rng.fresh(f"chaos:{unit}").random()
        if u < hang_p:
            # half the hangs also freeze the heartbeat, exercising the
            # stale-probe detection path alongside the deadline path
            faults.append(SweepWorkerHang(unit, freeze_heartbeat=bool(u < hang_p / 2)))
        elif u < hang_p + kill_p:
            faults.append(SweepWorkerKill(unit))
        elif u < hang_p + kill_p + slow_p:
            faults.append(SweepWorkerSlow(unit, delay_seconds=round(0.1 + 0.4 * u, 3)))
    return FaultPlan(seed=seed, faults=tuple(faults))


@dataclass(frozen=True, slots=True)
class RecoveryPolicy:
    """How the executive recovers from injected (or real) failures.

    Attributes
    ----------
    max_retries:
        Transient failures per task before the phase is aborted with a
        :class:`~repro.faults.report.RundownFailureReport`.
    backoff_base, backoff_cap:
        Retry ``k`` (1-based) is requeued after
        ``min(backoff_base * 2**(k-1), backoff_cap)`` sim-seconds.
    watchdog_timeout:
        Barrier-watchdog period in sim-seconds; the watchdog fires only
        when a phase is incomplete *and* nothing in the system can still
        make progress (no in-flight tasks, no queued management, no
        pending retries), so the period tunes detection latency, not
        false-positive risk.  ``None`` disables the watchdog.
    max_reassignments:
        Stall-driven orphan reassignments before the watchdog escalates
        to a phase abort.
    """

    max_retries: int = 3
    backoff_base: float = 0.5
    backoff_cap: float = 8.0
    watchdog_timeout: float | None = 10.0
    max_reassignments: int = 8

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base < 0 or self.backoff_cap < self.backoff_base:
            raise ValueError(
                f"need 0 <= backoff_base <= backoff_cap, got "
                f"{self.backoff_base}, {self.backoff_cap}"
            )
        if self.watchdog_timeout is not None and not (
            self.watchdog_timeout > 0 and math.isfinite(self.watchdog_timeout)
        ):
            raise ValueError(f"watchdog_timeout must be positive, got {self.watchdog_timeout}")
        if self.max_reassignments < 0:
            raise ValueError(f"max_reassignments must be >= 0, got {self.max_reassignments}")

    def backoff(self, attempt: int) -> float:
        """Delay before retry ``attempt`` (1-based) is requeued."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        return min(self.backoff_base * (2.0 ** (attempt - 1)), self.backoff_cap)
