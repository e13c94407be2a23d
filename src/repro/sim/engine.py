"""Discrete-event engine: event heap, clock, deterministic tie-breaking.

The engine is deliberately minimal — a binary heap of ``(time, priority,
seq)`` keys mapping to callbacks — because all domain behaviour (executive
queue discipline, phase overlap, splitting) lives in higher layers.  Two
properties matter here:

**Determinism.**  Events at equal times fire in ``(priority, insertion
order)`` order.  Nothing in the engine consults wall-clock time or
unordered containers, so a simulation is a pure function of its inputs.

**Safety.**  Scheduling into the past raises immediately rather than
corrupting causality.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable

__all__ = ["Event", "EventQueue", "Simulator"]


@dataclass(slots=True)
class Event:
    """A scheduled callback.

    Ordering is by ``(time, priority, seq)``; ``callback`` is excluded from
    comparisons.  Lower ``priority`` fires first among same-time events —
    the executive uses this to give completion processing precedence over
    new work requests at identical instants, mirroring the paper's rule
    that conflict-released computations are "given higher priority".

    ``__lt__`` is hand-written rather than dataclass ``order=True``: the
    heap compares events on nearly every push/pop, and the generated
    method builds two key tuples per comparison.  Short-circuiting on
    ``time`` (almost always unequal) is measurably cheaper, and ``slots``
    drops the per-event ``__dict__`` — the queue holds thousands of live
    events in a busy rundown.
    """

    time: float
    priority: int
    seq: int
    callback: Callable[[], None]
    cancelled: bool = False
    _queue: "EventQueue | None" = field(default=None, repr=False)

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        if self.priority != other.priority:
            return self.priority < other.priority
        return self.seq < other.seq

    def cancel(self) -> None:
        """Mark the event so the queue skips it when popped."""
        if not self.cancelled:
            self.cancelled = True
            if self._queue is not None:
                self._queue._note_cancel()


class EventQueue:
    """A deterministic priority queue of :class:`Event` objects.

    ``len`` is O(1) via a live-event counter; cancelled events stay in the
    heap as tombstones until they surface at the top or until they
    outnumber the live events, at which point the heap is compacted in one
    O(n) pass.  Compaction cannot perturb determinism: the ``(time,
    priority, seq)`` key is a total order, so any heap over the same live
    events pops them in the same sequence.
    """

    #: Compact only above this heap size — tiny heaps aren't worth a rebuild.
    COMPACT_MIN = 64

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._counter = itertools.count()
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def _note_cancel(self) -> None:
        self._live -= 1
        if len(self._heap) >= self.COMPACT_MIN and self._live * 2 < len(self._heap):
            self._compact()

    def _compact(self) -> None:
        """Drop every tombstone and re-heapify the survivors."""
        self._heap = [e for e in self._heap if not e.cancelled]
        heapq.heapify(self._heap)

    def push(self, time: float, callback: Callable[[], None], priority: int = 0) -> Event:
        """Schedule ``callback`` at ``time`` and return the event handle."""
        ev = Event(
            time=time, priority=priority, seq=next(self._counter), callback=callback,
            _queue=self,
        )
        heapq.heappush(self._heap, ev)
        self._live += 1
        return ev

    def pop(self) -> Event | None:
        """Remove and return the earliest live event, or ``None`` if empty."""
        while self._heap:
            ev = heapq.heappop(self._heap)
            if not ev.cancelled:
                self._live -= 1
                ev._queue = None  # cancelling a popped event must not re-count
                return ev
        return None

    def peek_time(self) -> float | None:
        """Time of the earliest live event without removing it."""
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0].time if self._heap else None


class Simulator:
    """Owns the clock and the event queue; runs the event loop.

    The simulator is agnostic about what the callbacks do; the PAX
    executive and the machine model register their activity through
    :meth:`schedule` / :meth:`schedule_after`.

    Examples
    --------
    >>> sim = Simulator()
    >>> order = []
    >>> _ = sim.schedule(2.0, lambda: order.append("b"))
    >>> _ = sim.schedule(1.0, lambda: order.append("a"))
    >>> sim.run()
    2.0
    >>> order
    ['a', 'b']
    >>> sim.now
    2.0
    """

    def __init__(self) -> None:
        self._queue = EventQueue()
        self._now = 0.0
        self._running = False
        self._stopped = False
        self.events_processed = 0

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    def schedule(self, time: float, callback: Callable[[], None], priority: int = 0) -> Event:
        """Schedule ``callback`` at absolute time ``time``.

        Raises
        ------
        ValueError
            If ``time`` precedes the current clock (causality violation).
        """
        if time < self._now:
            raise ValueError(f"cannot schedule at t={time} before now={self._now}")
        return self._queue.push(time, callback, priority)

    def schedule_after(self, delay: float, callback: Callable[[], None], priority: int = 0) -> Event:
        """Schedule ``callback`` at ``now + delay`` (``delay`` must be >= 0)."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        return self._queue.push(self._now + delay, callback, priority)

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stopped = True

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Drain the event queue; return the final clock value.

        Parameters
        ----------
        until:
            If given, stop once the next event would fire strictly after
            ``until`` (the clock is then advanced to ``until``).
        max_events:
            Safety valve against runaway simulations; raises
            :class:`RuntimeError` when exceeded.
        """
        if self._running:
            raise RuntimeError("Simulator.run is not reentrant")
        self._running = True
        self._stopped = False
        try:
            processed = 0
            while True:
                if self._stopped:
                    break
                next_time = self._queue.peek_time()
                if next_time is None:
                    break
                if until is not None and next_time > until:
                    self._now = max(self._now, until)
                    break
                ev = self._queue.pop()
                assert ev is not None
                self._now = ev.time
                ev.callback()
                processed += 1
                self.events_processed += 1
                if max_events is not None and processed >= max_events:
                    raise RuntimeError(f"exceeded max_events={max_events} at t={self._now}")
        finally:
            self._running = False
        return self._now

    def pending(self) -> int:
        """Number of live events still scheduled."""
        return len(self._queue)
