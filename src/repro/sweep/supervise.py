"""Supervised pool execution: deadlines, heartbeats, and the degradation ladder.

The warm persistent pool turned the sweep engine into a long-lived
stateful system whose only failure model was a *crashed* worker
(:class:`~concurrent.futures.process.BrokenProcessPool` salvage).  A
worker that hangs, livelocks, or silently slows stalls
:func:`~repro.sweep.runner.run_pool_tasks` forever — the host-side
analogue of the in-sim barrier stall the PR 4 watchdog already detects.
This module closes that gap with three cooperating mechanisms:

**Per-task deadlines.**  Every dispatched pool task gets a deadline
derived from the :class:`~repro.sweep.pool.CostModel` EWMA — roughly
``deadline_factor ×`` the expected compute of the batch, clamped to a
``[deadline_floor, deadline_ceiling]`` band — or pinned by an explicit
``task_timeout`` (the CLI's ``--task-timeout``).  A task past its
deadline is *hung by definition*: the supervisor preempts the pool's
worker processes, which breaks the executor into the existing salvage
driver, and the missing units are resubmitted with their original
derived seeds.  Reports therefore stay byte-identical under hangs for
exactly the reason they stay byte-identical under crashes.

**Worker heartbeats.**  :class:`~repro.sweep.pool.WarmPool` workers run a
daemon thread that stamps a per-PID file every ``heartbeat_interval``
seconds.  A stale stamp means the *process* is frozen (C-level block,
livelocked interpreter) — detectable well before a generous task
deadline expires.  The probe is a few ``stat`` calls per poll; workers
pay one tiny write per interval.

**The degradation ladder.**  Recovery itself can misbehave — a poisoned
warm pool can eat every rebuild.  A retry-budget circuit breaker counts
pool rebuilds (crash salvages and hang preemptions alike) per rung and,
when a rung's budget is exhausted, steps down the ladder::

    warm pool → cold pool → windowed narrow pool → in-process serial

Every transition is published as a typed
:class:`~repro.obs.events.PoolDegraded` event and counted in the
``pool.*`` metrics namespace; hang preemptions publish
:class:`~repro.obs.events.PoolTaskHung` and count into ``faults.*``.
The final rung runs inline and cannot hang on a pool, so a supervised
dispatch always terminates with a complete, byte-identical report —
bounded wall-clock is the acceptance bar the chaos harness enforces.

Supervision is opt-in (``supervision=`` on :func:`~repro.sweep.run_sweep`
/ :func:`~repro.sweep.run_grid`, or ``--supervise``/``--task-timeout`` on
the CLI) and adds no second dispatch loop.  ``run_pool_tasks`` has one
windowed loop over ladder rungs; unsupervised it walks a single rung with
a blocking ``wait`` and raises once ``max_restarts`` is spent.  A
:class:`Supervisor` adds only the poll timeout, the
:meth:`~Supervisor.track` / :meth:`~Supervisor.untrack` /
:meth:`~Supervisor.check` hooks and the lower rungs.
"""

from __future__ import annotations

import math
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.obs.events import EventBus, PoolDegraded, PoolTaskHung
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "SupervisionPolicy",
    "Supervisor",
    "DEGRADATION_LADDER",
    "degradation_ladder",
    "start_heartbeat",
    "suspend_heartbeat",
    "stale_heartbeats",
]

#: The full ladder, widest discipline first.  ``narrow`` is a cold pool at
#: half the requested width (hang storms often correlate with memory or
#: scheduler pressure — narrowing sheds it); ``serial`` is the in-process
#: reference execution, which cannot lose a worker at all.
DEGRADATION_LADDER = ("warm", "cold", "narrow", "serial")


# ---------------------------------------------------------------------- policy
@dataclass(frozen=True, slots=True)
class SupervisionPolicy:
    """Knobs for the pool supervisor.

    Attributes
    ----------
    task_timeout:
        Explicit per-task deadline in host seconds; overrides the
        cost-model derivation entirely (the CLI's ``--task-timeout``).
    deadline_factor:
        Derived deadline = ``deadline_factor × EWMA per-item seconds ×
        batch items``, clamped to the floor/ceiling band.  The factor
        absorbs honest variance (cold caches, scheduler noise); only a
        task this many times slower than its own history is called hung.
    deadline_floor, deadline_ceiling:
        Clamp band for derived deadlines.  The floor keeps trivially fast
        workloads (microsecond EWMA) from declaring instant hangs; the
        ceiling bounds detection latency when no estimate exists yet
        (calibration tasks run under the ceiling alone).
    heartbeat_timeout:
        Stale-stamp threshold for the worker liveness probe; ``None``
        disables heartbeat checks (deadlines still apply).  Must be
        comfortably larger than ``heartbeat_interval``.
    heartbeat_interval:
        Worker-side stamp period, threaded to pool initializers.
    poll_interval:
        Supervisor wake-up period — the timeout handed to ``wait()`` in
        the driver loop, bounding hang-detection latency.
    rung_budget:
        Pool rebuilds tolerated per ladder rung before the circuit
        breaker degrades to the next rung; ``None`` defers to the
        driver's ``max_restarts``.
    degrade:
        ``False`` disables the ladder: budget exhaustion raises exactly
        like an unsupervised dispatch (deadlines and heartbeats still
        preempt hangs).
    shm_reap_grace:
        Minimum age in seconds before the shm janitor reaps an orphaned
        ``repro-map-*`` segment after a preemption (guards concurrent
        sweeps in other processes on the same host).
    """

    task_timeout: float | None = None
    deadline_factor: float = 8.0
    deadline_floor: float = 2.0
    deadline_ceiling: float = 120.0
    heartbeat_timeout: float | None = 30.0
    heartbeat_interval: float = 1.0
    poll_interval: float = 0.05
    rung_budget: int | None = None
    degrade: bool = True
    shm_reap_grace: float = 300.0

    def __post_init__(self) -> None:
        if self.task_timeout is not None and not (
            self.task_timeout > 0 and math.isfinite(self.task_timeout)
        ):
            raise ValueError(f"task_timeout must be positive, got {self.task_timeout}")
        if self.deadline_factor <= 0:
            raise ValueError(f"deadline_factor must be > 0, got {self.deadline_factor}")
        if not (0 < self.deadline_floor <= self.deadline_ceiling):
            raise ValueError(
                f"need 0 < deadline_floor <= deadline_ceiling, got "
                f"{self.deadline_floor}, {self.deadline_ceiling}"
            )
        if self.heartbeat_timeout is not None and self.heartbeat_timeout <= 0:
            raise ValueError(
                f"heartbeat_timeout must be positive, got {self.heartbeat_timeout}"
            )
        if self.heartbeat_interval <= 0:
            raise ValueError(
                f"heartbeat_interval must be positive, got {self.heartbeat_interval}"
            )
        if self.poll_interval <= 0:
            raise ValueError(f"poll_interval must be positive, got {self.poll_interval}")
        if self.rung_budget is not None and self.rung_budget < 0:
            raise ValueError(f"rung_budget must be >= 0, got {self.rung_budget}")
        if self.shm_reap_grace < 0:
            raise ValueError(f"shm_reap_grace must be >= 0, got {self.shm_reap_grace}")


def degradation_ladder(initial: str, workers: int) -> list[tuple[str, int]]:
    """The ``(rung, width)`` sequence from ``initial`` down to serial."""
    widths = {
        "warm": workers,
        "cold": workers,
        "narrow": max(1, workers // 2),
        "serial": 1,
    }
    start = DEGRADATION_LADDER.index(initial) if initial in DEGRADATION_LADDER else 0
    return [(name, widths[name]) for name in DEGRADATION_LADDER[start:]]


# ---------------------------------------------------------------------- heartbeat
#: Worker-process heartbeat state; one beat thread per worker, started by
#: the pool initializer and stoppable by fault injection (freeze mode).
_HB_STATE: dict[str, Any] = {"stop": None, "path": None}


def heartbeat_path(directory: str, pid: int) -> str:
    """Stamp-file path for worker ``pid`` under ``directory``."""
    return os.path.join(directory, f"hb-{pid}")


def start_heartbeat(directory: str | None, interval: float = 1.0) -> None:
    """Start this process's liveness beat (worker side; idempotent no-op
    without a directory).  The beat is a daemon thread rewriting a per-PID
    stamp file every ``interval`` seconds — its mtime is the liveness
    signal the supervisor's :func:`stale_heartbeats` probe reads."""
    if not directory:
        return
    prev = _HB_STATE.get("stop")
    if prev is not None:
        prev.set()
    stop = threading.Event()
    path = heartbeat_path(directory, os.getpid())

    def beat() -> None:
        while not stop.is_set():
            try:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(f"{time.time():.6f}")
            except OSError:
                return  # directory torn down: the pool is shutting down
            stop.wait(interval)

    _HB_STATE["stop"] = stop
    _HB_STATE["path"] = path
    thread = threading.Thread(target=beat, name="repro-heartbeat", daemon=True)
    thread.start()


def suspend_heartbeat() -> None:
    """Stop this process's beat (idempotent).  Fault injection's freeze
    mode calls this before hanging, simulating a process so wedged that
    not even its watchdog thread runs."""
    stop = _HB_STATE.get("stop")
    if stop is not None:
        stop.set()


def stale_heartbeats(
    directory: str, pids: list[int], timeout: float, now: float | None = None
) -> list[int]:
    """PIDs whose stamp exists but is older than ``timeout`` seconds.

    A missing stamp is *not* stale — a lazily-spawned worker may simply
    not have initialized yet; the task deadline covers that window.
    """
    now = time.time() if now is None else now
    stale = []
    for pid in pids:
        try:
            mtime = os.stat(heartbeat_path(directory, pid)).st_mtime
        except OSError:
            continue
        if now - mtime > timeout:
            stale.append(pid)
    return stale


def _kill_executor_workers(executor: Any) -> int:
    """SIGKILL every live worker of ``executor``; returns the kill count.

    Killing any worker of a :class:`~concurrent.futures.ProcessPoolExecutor`
    breaks the executor — every in-flight future resolves with
    :class:`BrokenProcessPool`, which is precisely the salvage driver's
    entry point.  All workers are killed (not just the hung one) because
    the executor does not expose which worker holds which task; the
    salvaged-and-resubmitted units land with identical seeds either way.
    """
    procs = getattr(executor, "_processes", None) or {}
    killed = 0
    for proc in list(procs.values()):
        try:
            proc.kill()
            killed += 1
        except (OSError, AttributeError):  # pragma: no cover - already gone
            pass
    return killed


# ---------------------------------------------------------------------- supervisor
class Supervisor:
    """Host-side watchdog for one supervised dispatch.

    The driver (:func:`~repro.sweep.runner.run_pool_tasks`) calls
    :meth:`track` per submission, :meth:`untrack` per completion, and
    :meth:`check` once per poll; ``check`` preempts the pool when a
    tracked task blows its deadline or a worker heartbeat goes stale.
    One supervisor serves a whole sweep — its hang/preemption/degradation
    tallies end up on the outcome via :meth:`stats`.
    """

    def __init__(
        self,
        policy: SupervisionPolicy | None = None,
        estimate: Callable[[], float | None] | None = None,
        bus: EventBus | None = None,
        metrics: MetricsRegistry | None = None,
        heartbeat_dir: str | None = None,
        what: str = "task",
        t0: float | None = None,
    ) -> None:
        self.policy = policy if policy is not None else SupervisionPolicy()
        self.bus = bus
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.heartbeat_dir = heartbeat_dir
        self.what = what
        #: per-key batch width for deadline scaling; drivers rebind this
        #: before each dispatch (a key's deadline grows with its batch)
        self.items_of: Callable[[Any], int] = lambda key: 1
        self.hangs_detected = 0
        self.workers_preempted = 0
        self.segments_reaped = 0
        self.degradations: list[tuple[str, str]] = []
        self.rung: str | None = None
        self._estimate = estimate
        self._t0 = time.perf_counter() if t0 is None else t0
        self._inflight: dict[Any, tuple[Any, float, float]] = {}

    # ------------------------------------------------------------------ deadlines
    def deadline_for(self, key: Any) -> float:
        """Host-seconds budget for ``key`` before it is declared hung."""
        p = self.policy
        if p.task_timeout is not None:
            return p.task_timeout
        est = self._estimate() if self._estimate is not None else None
        if est is None or est <= 0:
            return p.deadline_ceiling
        raw = p.deadline_factor * est * max(1, self.items_of(key))
        return min(max(raw, p.deadline_floor), p.deadline_ceiling)

    def track(self, fut: Any, key: Any) -> None:
        self._inflight[fut] = (key, time.perf_counter(), self.deadline_for(key))

    def untrack(self, fut: Any) -> None:
        self._inflight.pop(fut, None)

    def clear_inflight(self) -> None:
        """Forget a broken pool's futures (salvage path)."""
        self._inflight.clear()

    # ------------------------------------------------------------------ probes
    def overdue(self, now: float | None = None) -> list[tuple[Any, Any, float, float]]:
        """``(future, key, elapsed, deadline)`` for every blown deadline."""
        now = time.perf_counter() if now is None else now
        return [
            (fut, key, now - submitted, deadline)
            for fut, (key, submitted, deadline) in self._inflight.items()
            if not fut.done() and now - submitted > deadline
        ]

    def check(self, executor: Any) -> bool:
        """One supervision poll; returns True when the pool was preempted.

        Preemption kills the executor's workers, which surfaces as
        :class:`BrokenProcessPool` in the driver loop — recovery then
        rides the existing salvage/rebuild/resubmit machinery unchanged.
        """
        overdue = self.overdue()
        stale: list[int] = []
        p = self.policy
        if p.heartbeat_timeout is not None and self.heartbeat_dir and self._inflight:
            procs = getattr(executor, "_processes", None) or {}
            stale = stale_heartbeats(self.heartbeat_dir, list(procs), p.heartbeat_timeout)
        if not overdue and not stale:
            return False
        killed = _kill_executor_workers(executor)
        if killed == 0:
            # nothing spawned yet (lazy pool) — re-check on the next poll
            return False
        self.workers_preempted += killed
        self.metrics.counter(
            "faults.sweep_workers_preempted_total", "pool workers killed by the supervisor"
        ).inc(killed)
        hangs = self.metrics.counter(
            "faults.sweep_hangs_detected_total", "hung pool tasks/workers preempted"
        )
        now = time.perf_counter() - self._t0
        reason = "deadline" if overdue else "heartbeat"
        reported = overdue or [
            (None, f"worker:{pid}", float(p.heartbeat_timeout or 0.0), float(p.heartbeat_timeout or 0.0))
            for pid in stale
        ]
        for _fut, key, elapsed, deadline in reported:
            self.hangs_detected += 1
            hangs.inc(reason=reason)
            if self.bus is not None:
                self.bus.publish(
                    PoolTaskHung(now, self.what, str(key), elapsed, deadline, reason, killed)
                )
        self.reap_shm()
        return True

    def reap_shm(self) -> list[str]:
        """Janitor pass: unlink orphaned shared-map segments (see
        :func:`repro.sweep.shm.reap_leaked_segments`)."""
        from repro.sweep.shm import reap_leaked_segments

        reaped = reap_leaked_segments(grace_seconds=self.policy.shm_reap_grace)
        if reaped:
            self.segments_reaped += len(reaped)
            self.metrics.counter(
                "pool.shm_segments_reaped_total", "leaked shared-map segments reaped"
            ).inc(len(reaped))
        return reaped

    # ------------------------------------------------------------------ ladder
    def begin(self, what: str, rung: str) -> None:
        """Driver hook: a dispatch is starting on ``rung``."""
        self.what = what
        if self.rung is None:
            self.rung = rung
        self.clear_inflight()

    def degrade(self, from_rung: str, to_rung: str, restarts: int, reason: str = "retry_budget") -> None:
        """Record (and announce) one ladder transition."""
        self.degradations.append((from_rung, to_rung))
        self.rung = to_rung
        self.metrics.counter("pool.degraded_total", "degradation-ladder transitions").inc(
            **{"from": from_rung, "to": to_rung}
        )
        if self.bus is not None:
            self.bus.publish(
                PoolDegraded(
                    time.perf_counter() - self._t0, self.what, from_rung, to_rung, restarts, reason
                )
            )

    def rung_budget(self, max_restarts: int) -> int:
        """Per-rung rebuild budget: the policy's override or the driver's."""
        return self.policy.rung_budget if self.policy.rung_budget is not None else max_restarts

    # ------------------------------------------------------------------ outcome
    def stats(self) -> dict[str, Any]:
        """Host-side supervision facts for outcome records (never reports)."""
        return {
            "hangs_detected": self.hangs_detected,
            "workers_preempted": self.workers_preempted,
            "segments_reaped": self.segments_reaped,
            "degradations": [list(d) for d in self.degradations],
            "final_rung": self.rung,
        }
