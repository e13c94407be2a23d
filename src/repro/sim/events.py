"""Event record types shared by the engine, the machine model and the trace.

The simulator is callback-driven: an :class:`~repro.sim.engine.Event` holds a
time, a deterministic tie-break key and a zero-argument callback.  The record
types here are *log* entries — what happened, to whom, when — kept separate
from the live event objects so that traces can be serialized and analysed
without holding references into the simulation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "EventKind",
    "LogRecord",
    "format_task_label",
    "parse_granule_ranges",
    "parse_task_label",
]


class EventKind(enum.Enum):
    """Classification of trace log records."""

    #: A worker processor started executing a computation task.
    TASK_START = "task_start"
    #: A worker processor finished a computation task.
    TASK_END = "task_end"
    #: The executive started a management action (assignment, completion
    #: processing, splitting, enablement, phase initiation, ...).
    MGMT_START = "mgmt_start"
    #: The executive finished a management action.
    MGMT_END = "mgmt_end"
    #: A worker went idle (no work available).
    WORKER_IDLE = "worker_idle"
    #: A worker left the idle state.
    WORKER_RESUME = "worker_resume"
    #: A parallel computational phase was initiated.
    PHASE_START = "phase_start"
    #: All granules of a phase completed.
    PHASE_END = "phase_end"
    #: A serial inter-phase action ran (the paper's "null mapping" cause).
    SERIAL_ACTION = "serial_action"
    #: A worker processor failed; any in-flight task was lost.
    PROCESSOR_FAILED = "processor_failed"
    #: A task's granules were lost with their processor (crash orphaning).
    TASK_LOST = "task_lost"
    #: A failed task was requeued for another attempt.
    TASK_RETRY = "task_retry"
    #: The barrier watchdog detected a stalled phase.
    PHASE_STALLED = "phase_stalled"
    #: Free-form annotation.
    NOTE = "note"


# ``phase#run:GranuleSet([a,b),[c,d))`` — the label every computation task
# carries in TASK_START/TASK_END/TASK_LOST records and obs spans.
def format_task_label(phase: str, run: int, granules: Any) -> str:
    """The canonical trace label of a computation task.

    ``granules`` is anything whose ``repr`` is the ``GranuleSet`` form
    (normally a :class:`~repro.core.granule.GranuleSet`).  The scheduler
    emits this exact string; :func:`parse_task_label` inverts it, so the
    trace sanitizer can rebuild executed granule sets from a saved run.
    """
    return f"{phase}#{run}:{granules!r}"


def parse_task_label(label: str) -> tuple[str, int, tuple[tuple[int, int], ...]] | None:
    """Invert :func:`format_task_label`; ``None`` for non-task labels.

    Returns ``(phase_name, run_gid, ((start, stop), ...))`` with the
    half-open granule ranges in label order.
    """
    # hand-rolled split instead of a regex: the sanitizer parses one
    # label per task event and this is on its critical path
    phase, sep, rest = label.rpartition("#")
    if not sep or not phase:
        return None
    run_s, sep, granules = rest.partition(":")
    if not sep or not run_s.isdigit():
        return None
    ranges = parse_granule_ranges(granules)
    if ranges is None:
        return None
    return phase, int(run_s), ranges


def parse_granule_ranges(text: str) -> tuple[tuple[int, int], ...] | None:
    """Invert ``repr`` of a ``GranuleSet``: ``GranuleSet([a,b),[c,d))``
    gives ``((a, b), (c, d))``; ``None`` for any other text."""
    if not text.startswith("GranuleSet(") or not text.endswith(")"):
        return None
    body = text[len("GranuleSet(") : -1]
    ranges: list[tuple[int, int]] = []
    if body:
        try:
            for part in body.split("),"):
                lo_s, _, hi_s = part.removeprefix("[").removesuffix(")").partition(",")
                ranges.append((int(lo_s), int(hi_s)))
        except ValueError:
            return None
    return tuple(ranges)


@dataclass(frozen=True, slots=True)
class LogRecord:
    """One timestamped entry in a simulation trace.

    Attributes
    ----------
    time:
        Simulation time of the occurrence.
    kind:
        What happened.
    subject:
        Who it happened to — a processor id, the string ``"executive"``, or
        a phase name.
    detail:
        Free-form payload (task ranges, management action names, ...).
    """

    time: float
    kind: EventKind
    subject: str
    detail: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"negative event time {self.time!r}")
