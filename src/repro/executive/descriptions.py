"""Computation descriptions: contiguous granule collections, split and merge.

    "Computations were, instead, described as large, contiguous
    collections of granules.  The descriptions were split apart as
    necessary to produce conveniently sized tasks for workers and then
    merged back into single descriptions when the work was completed."

A :class:`ComputationDescription` names a phase run and carries a
:class:`~repro.core.granule.GranuleSet` of the granules it describes.  It
owns a conflict queue — "each internal description … included a queue
head for a double circularly-linked list of computable but conflicting
computational granules" — whose members become unconditionally computable
when this description's computation completes.
"""

from __future__ import annotations

import enum
import itertools
from typing import Iterator

from repro.core.granule import GranuleSet
from repro.executive.queues import ConflictQueue

__all__ = ["DescriptionState", "ComputationDescription"]


class DescriptionState(enum.Enum):
    """Lifecycle of a description."""

    #: In the waiting computation queue, eligible for assignment.
    WAITING = "waiting"
    #: Assigned to a worker, computation in progress.
    RUNNING = "running"
    #: Computation finished; merged back / conflict queue released.
    COMPLETE = "complete"
    #: Queued in some other description's conflict queue (not yet
    #: unconditionally computable).
    CONFLICTED = "conflicted"


class ComputationDescription:
    """One executive-internal description of one or more granules.

    Parameters
    ----------
    phase_run:
        Index of the phase run (schedule position) the granules belong to.
    phase_name:
        The phase's name (for traces and error messages).
    granules:
        The granule set described.  Root descriptions cover the whole
        phase; splits produce contiguous sub-ranges.
    elevated:
        Whether the description was placed in the waiting queue with
        elevated priority (the control strategy for enabling granules of
        indirect mappings).
    ids:
        Where the description's ``id`` comes from; descriptions split off
        it draw from the same source.  Each executive simulation passes
        its own counter, so ids (and the trace labels that carry them)
        do not depend on earlier runs in the process.  ``None`` starts a
        fresh counter at 1.
    """

    __slots__ = (
        "id",
        "phase_run",
        "phase_name",
        "granules",
        "state",
        "conflict_queue",
        "elevated",
        "splits",
        "merges",
        "attempts",
        "_ids",
    )

    def __init__(
        self,
        phase_run: int,
        phase_name: str,
        granules: GranuleSet,
        elevated: bool = False,
        ids: Iterator[int] | None = None,
    ) -> None:
        if not granules:
            raise ValueError("a computation description must describe at least one granule")
        self._ids = itertools.count(1) if ids is None else ids
        self.id = next(self._ids)
        self.phase_run = phase_run
        self.phase_name = phase_name
        self.granules = granules
        self.state = DescriptionState.WAITING
        self.conflict_queue = ConflictQueue()
        self.elevated = elevated
        self.splits = 0
        self.merges = 0
        # execution attempts that failed (transient fault / crash orphaning);
        # the recovery policy's max_retries bounds this before phase abort
        self.attempts = 0

    def __len__(self) -> int:
        return len(self.granules)

    # ------------------------------------------------------------------ split
    def split(self, n: int) -> "ComputationDescription":
        """Split off a description of the first ``n`` granules.

        The split-off description inherits nothing from the conflict
        queue; conflict-queue propagation is a separate, costed executive
        action (see :mod:`repro.executive.splitting`) because the paper
        treats "the additional delays of splitting queued successor
        computation descriptions" as a distinct design problem.

        Raises if ``n`` is not strictly smaller than the current size;
        use the description whole instead of splitting it into itself.
        """
        if not (0 < n < len(self.granules)):
            raise ValueError(f"cannot split {n} granules out of {len(self.granules)}")
        head, rest = self.granules.take(n)
        self.granules = rest
        self.splits += 1
        child = ComputationDescription(
            self.phase_run, self.phase_name, head, elevated=self.elevated, ids=self._ids
        )
        # a retried description that gets re-split must not reset its
        # failure count, or max_retries could be evaded by splitting
        child.attempts = self.attempts
        return child

    # ------------------------------------------------------------------ merge
    def merge(self, other: "ComputationDescription") -> None:
        """Absorb ``other``'s granules (merging completed work back).

        Both descriptions must belong to the same phase run.  ``other``'s
        conflict queue must already be empty — release it first.
        """
        if other.phase_run != self.phase_run:
            raise ValueError(
                f"cannot merge descriptions of different phase runs "
                f"({self.phase_run} vs {other.phase_run})"
            )
        if len(other.conflict_queue):
            raise ValueError("merge target still has conflict-queued descriptions")
        self.granules = self.granules | other.granules
        self.merges += 1

    # ------------------------------------------------------------------ conflicts
    def queue_conflicting(self, desc: "ComputationDescription") -> None:
        """Queue ``desc`` to become computable when this one completes."""
        desc.state = DescriptionState.CONFLICTED
        self.conflict_queue.append(desc)

    def release_conflicts(self) -> Iterator["ComputationDescription"]:
        """Drain the conflict queue.

        "Upon completion of the described computation, all the queued
        conflicting computations became unconditionally computable and
        were placed in the waiting computation queue."
        """
        while len(self.conflict_queue):
            yield self.conflict_queue.popleft()

    def __repr__(self) -> str:
        return (
            f"<Desc #{self.id} {self.phase_name}[run {self.phase_run}] "
            f"{self.granules!r} {self.state.value}>"
        )
