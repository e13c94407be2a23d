"""Typed observability events and the bus that carries them.

Each event is a frozen dataclass naming one occurrence: the threaded
runtime publishes a phase starting or ending, a granule being dispatched
to, completed by or retried on a worker thread, and a worker's idle/busy
transition; sweeps and grids publish pool progress, hangs and
degradation.  The simulator publishes nothing: its metrics are derived
from the finished trace (:func:`~repro.obs.telemetry.record_run_metrics`).

The :class:`EventBus` delivers published events synchronously to
subscribers.  Delivery order is the **subscription order** — a handler
subscribed earlier always runs before one subscribed later, whether it
subscribed to the concrete event type or to all events (``None``).  That
guarantee is what makes metric wiring deterministic and testable.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = [
    "ObsEvent",
    "PhaseStarted",
    "PhaseEnded",
    "GranuleDispatched",
    "GranuleCompleted",
    "WorkerIdle",
    "WorkerBusy",
    "GranuleRetried",
    "PoolTaskCompleted",
    "PoolTaskHung",
    "PoolDegraded",
    "Subscription",
    "EventBus",
]


@dataclass(frozen=True, slots=True)
class ObsEvent:
    """Base class for all observability events; ``time`` is the clock value.

    The threaded runtime stamps wall-clock seconds since run start, the
    pool host seconds since the sweep started.
    """

    time: float


@dataclass(frozen=True, slots=True)
class PhaseStarted(ObsEvent):
    """A parallel phase run was initiated."""

    phase: str
    run: int
    overlapped: bool = False


@dataclass(frozen=True, slots=True)
class PhaseEnded(ObsEvent):
    """All granules of a phase run completed."""

    phase: str
    run: int


@dataclass(frozen=True, slots=True)
class GranuleDispatched(ObsEvent):
    """A chunk of granules was assigned to a worker."""

    processor: str
    phase: str
    run: int
    n_granules: int


@dataclass(frozen=True, slots=True)
class GranuleCompleted(ObsEvent):
    """A worker finished a chunk of granules."""

    processor: str
    phase: str
    run: int
    n_granules: int


@dataclass(frozen=True, slots=True)
class WorkerIdle(ObsEvent):
    """A worker processor transitioned to idle."""

    processor: str


@dataclass(frozen=True, slots=True)
class WorkerBusy(ObsEvent):
    """A worker left idle; ``activity`` is what it started (``compute``)."""

    processor: str
    activity: str = "compute"


@dataclass(frozen=True, slots=True)
class GranuleRetried(ObsEvent):
    """A task's granules are being retried after a transient failure."""

    phase: str
    run: int
    n_granules: int
    attempt: int
    reason: str = "transient"


@dataclass(frozen=True, slots=True)
class PoolTaskCompleted(ObsEvent):
    """A host-pool task (sweep replication, grid cell) finished.

    ``time`` is host seconds since the sweep started; ``done``/``total``
    count recorded units of ``what`` (including resumed ones), so a
    subscriber can derive progress, throughput and ETA without knowing
    which engine — replication fan or grid — is publishing.

    ``started``/``finished`` are this unit's slice of its pool task's
    measured worker-busy span, in the same clock as ``time`` (negative
    when the publisher had no measurement — e.g. resumed units).  Their
    overlap across events is what
    :func:`~repro.obs.profile.effective_workers_from_events` turns into
    the *observed* concurrency of a sweep, as opposed to the configured
    pool width.
    """

    what: str
    done: int
    total: int
    started: float = -1.0
    finished: float = -1.0


@dataclass(frozen=True, slots=True)
class PoolTaskHung(ObsEvent):
    """The pool supervisor declared a host-pool task hung and preempted it.

    ``reason`` is what tripped the detector: ``"deadline"`` (the task's
    cost-model-derived or ``--task-timeout`` deadline expired) or
    ``"heartbeat"`` (a worker's liveness stamp went stale — the process
    itself is frozen).  ``elapsed``/``deadline`` are host seconds;
    ``preempted_workers`` counts the pool processes killed to break the
    executor into the salvage path.  The preempted unit is resubmitted
    with its original derived seed, so this event never implies a report
    difference.
    """

    what: str
    key: str
    elapsed: float
    deadline: float
    reason: str = "deadline"
    preempted_workers: int = 0


@dataclass(frozen=True, slots=True)
class PoolDegraded(ObsEvent):
    """The retry-budget circuit breaker moved the pool down one rung.

    The degradation ladder is ``warm → cold → narrow → serial``; the
    breaker opens when a single dispatch accumulates more than its
    per-rung restart budget of pool rebuilds (crashes and hang
    preemptions both count).  ``restarts`` is the cumulative rebuild
    count at the moment of transition.
    """

    what: str
    from_rung: str
    to_rung: str
    restarts: int
    reason: str = "retry_budget"


@dataclass(slots=True)
class Subscription:
    """Handle returned by :meth:`EventBus.subscribe`; call to detach."""

    bus: "EventBus"
    seq: int
    event_type: type | None
    handler: Callable[[ObsEvent], None] = field(repr=False)
    active: bool = True

    def unsubscribe(self) -> None:
        self.active = False
        self.bus._prune(self)


class EventBus:
    """Synchronous publish/subscribe bus with deterministic ordering.

    Thread-safe: the threaded runtime publishes from worker threads, so
    subscription and publication both hold an internal lock.  Handlers
    run under that lock — keep them short (metric updates, appends).
    """

    def __init__(self) -> None:
        self._subs: list[Subscription] = []
        # per-concrete-type delivery lists, rebuilt on (un)subscribe, so
        # publish is a dict hit + iteration — no lock, no isinstance scan
        self._by_type: dict[type, tuple[Subscription, ...]] = {}
        self._lock = threading.Lock()
        self._counter = 0
        self.events_published = 0

    def subscribe(
        self, event_type: type | None, handler: Callable[[Any], None]
    ) -> Subscription:
        """Register ``handler`` for events of ``event_type``.

        ``None`` subscribes to every event.  Handlers fire in global
        subscription order regardless of how specific their filter is.
        """
        if event_type is not None and not (
            isinstance(event_type, type) and issubclass(event_type, ObsEvent)
        ):
            raise TypeError(f"event_type must be an ObsEvent subclass or None, got {event_type!r}")
        with self._lock:
            sub = Subscription(self, self._counter, event_type, handler)
            self._counter += 1
            self._subs.append(sub)
            self._by_type.clear()
        return sub

    def _prune(self, sub: Subscription) -> None:
        with self._lock:
            try:
                self._subs.remove(sub)
            except ValueError:
                pass
            self._by_type.clear()

    def _matching(self, event_type: type) -> tuple[Subscription, ...]:
        with self._lock:
            subs = tuple(
                s
                for s in self._subs
                if s.event_type is None or issubclass(event_type, s.event_type)
            )
            self._by_type[event_type] = subs
        return subs

    def publish(self, event: ObsEvent) -> None:
        """Deliver ``event`` to every matching subscriber, in order.

        A handler that (un)subscribes during delivery takes effect from
        the next publish — the in-flight delivery list is immutable.
        ``events_published`` is maintained without the lock; concurrent
        publishers may very rarely under-count it (delivery itself is
        unaffected — handlers guard their own state).
        """
        self.events_published += 1
        subs = self._by_type.get(type(event))
        if subs is None:
            subs = self._matching(type(event))
        for sub in subs:
            if sub.active:
                sub.handler(event)

    def __len__(self) -> int:
        return len(self._subs)

