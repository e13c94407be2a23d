"""The executive's per-task actions: assignment, completion, hand-off.

:class:`~repro.executive.scheduler.ExecutiveSimulation` owns the phase
runs, their initiation and overlap set-up, the frontier and fault
recovery.  Everything that happens once per task lives here, flattened
for speed:

* one :class:`_RunCache` per phase run precomputes everything that is
  constant for the run's lifetime — task size, cost-model dispatch kind,
  the memoized cost RNG stream, the task/completion/presplit label
  prefixes, the successor run and the identity-like overlap verdict;
* each management action is a precomputed **slotted job record**
  (:class:`_AssignJob`, :class:`_CompletionJob`, :class:`_PresplitJob`,
  :class:`_SuccessorSplitJob`) implementing the
  :meth:`~repro.sim.machine.Machine.submit_job` interface —
  ``resolve_duration()`` / ``on_done`` / ``label`` / ``category`` /
  ``noop`` — so the machine dispatches bound methods instead of closure
  cells, and a task's completion is a slotted :class:`_TaskDone`;
* the data-proximity scan walks the waiting queue's rings directly
  (:meth:`WaitingComputationQueue.first_in_window`) instead of driving
  generator frames through ``__iter__``.

The recorded digests under ``tests/golden/`` pin the resulting traces
byte for byte.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.core.granule import GranuleSet
from repro.core.mapping import MappingKind
from repro.core.overlap import SplitStrategy
from repro.core.phase import ConstantCost
from repro.executive.descriptions import ComputationDescription, DescriptionState
from repro.sim.events import EventKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.executive.scheduler import ExecutiveSimulation, _RunState
    from repro.sim.machine import Processor

__all__ = ["HotLoop"]

# cost-model dispatch kinds resolved once per run (see _RunCache.task_duration)
_COST_CONSTANT = 0
_COST_SAMPLE_TOTAL = 1
_COST_PER_GRANULE = 2

_IDENTITY_LIKE = (MappingKind.IDENTITY, MappingKind.SEAM)


class _RunCache:
    """Per-phase-run constants, resolved once instead of per event."""

    __slots__ = (
        "run",
        "gid",
        "name",
        "tsize",
        "cost",
        "cost_kind",
        "cost_value",
        "cost_sampler",
        "rng",
        "succ",
        "label_prefix",
        "complete_label",
        "presplit_prefix",
        "succ_split_prefix",
        "identity_like",
    )

    def __init__(self, ex: "ExecutiveSimulation", run: "_RunState") -> None:
        self.run = run
        self.gid = run.gid
        self.name = run.spec.name
        self.tsize = ex.sizer.task_size(run.n, ex.machine.n_workers)
        cost = run.spec.cost
        self.cost = cost
        self.cost_value = 0.0
        self.cost_sampler = None
        if isinstance(cost, ConstantCost):
            self.cost_kind = _COST_CONSTANT
            self.cost_value = cost.value
        else:
            sample_total = getattr(cost, "sample_total", None)
            if sample_total is not None:
                self.cost_kind = _COST_SAMPLE_TOTAL
                self.cost_sampler = sample_total
            else:
                self.cost_kind = _COST_PER_GRANULE
        # RngStreams.get memoizes by name: this is the run's one cost stream
        self.rng = ex._rng(f"cost:{run.gid}")
        succ_index = run.index + 1
        self.succ = (
            run.stream.runs[succ_index] if succ_index < len(run.stream.runs) else None
        )
        # format_task_label(name, gid, granules) == label_prefix + repr(granules)
        self.label_prefix = f"{run.spec.name}#{run.gid}:"
        self.complete_label = f"complete:{run.spec.name}#{run.gid}"
        self.presplit_prefix = f"presplit:{run.spec.name}#{run.gid}:"
        self.succ_split_prefix = f"succ-split:{run.spec.name}:"
        # tri-state: None until the overlap-init job installs the engine
        self.identity_like: bool | None = None

    def identity_like_overlap(self) -> bool:
        """Does this run's overlap link need successor-description splits?

        Memoized: the engine's mapping kind never changes once the
        overlap-init job installs it.
        """
        verdict = self.identity_like
        if verdict is not None:
            return verdict
        engine = self.run.engine_to_next
        if engine is None:
            return False
        verdict = engine.mapping.kind in _IDENTITY_LIKE
        self.identity_like = verdict
        return verdict

    def task_duration(self, granules: GranuleSet) -> float:
        """Total execution time of a chunk of this run's granules."""
        kind = self.cost_kind
        if kind == _COST_CONSTANT:
            return self.cost_value * len(granules)
        if kind == _COST_SAMPLE_TOTAL:
            return float(self.cost_sampler(granules, self.rng))
        rng = self.rng
        cost = self.cost
        return float(sum(cost.sample(g, rng) for g in granules))


class _AssignJob:
    """One executive assignment: pick, maybe split, and start a task.

    The selected description lives in the ``desc`` slot; ``noop`` reports
    the queue-drained case (nothing was selected), so the machine records
    no phantom zero-length ``assign:*`` span for it.
    """

    __slots__ = ("hl", "proc", "desc", "label")

    category = "mgmt"

    def __init__(self, hl: "HotLoop", proc: "Processor") -> None:
        self.hl = hl
        self.proc = proc
        self.desc: ComputationDescription | None = None
        self.label = hl.assign_labels[proc.index]

    def resolve_duration(self) -> float:
        hl = self.hl
        queue = hl.queue
        if not (queue._elevated._size or queue._normal._size):
            return 0.0
        head = hl.select_desc(self.proc)
        cache = hl.caches[head.phase_run]
        run = cache.run
        tsize = cache.tsize
        d = hl.cost_assign
        if len(head) > tsize:
            chunk_index = len(run.assigned) // tsize
            if run.presplit_watermark <= chunk_index:
                d += hl.cost_split
                run.stats.demand_splits += 1
            child = head.split(tsize)
        else:
            queue.remove(head)
            child = head
        if hl.demand_split and cache.identity_like_overlap():
            chunk_index = len(run.assigned) // max(1, tsize)
            if run.presplit_watermark <= chunk_index:
                d += hl.cost_successor_split
                run.inline_split_chunks.add(child.id)
        self.desc = child
        return d

    def noop(self) -> bool:
        return self.desc is None

    def on_done(self) -> None:
        hl = self.hl
        ex = hl.ex
        proc = self.proc
        hl.pending.discard(proc.index)
        desc = self.desc
        if desc is None:
            return
        cache = hl.caches[desc.phase_run]
        run = cache.run
        task_time = cache.task_duration(desc.granules)
        if hl.remote_penalty > 1.0 and not hl.chunk_is_local(proc, desc):
            task_time *= hl.remote_penalty
        injector = ex._injector
        if injector is not None and injector.has_stragglers:
            task_time *= injector.slowdown(proc.index, ex.sim._now)
        started = hl.machine.start_task(
            proc,
            task_time,
            _TaskDone(hl, desc),
            label=cache.label_prefix + repr(desc.granules),
        )
        if not started:
            # the executive's host processor was reclaimed; requeue at
            # the front so the known order is preserved
            hl.queue.push_front(desc, elevated=desc.elevated)
            return
        ex._in_flight[proc.index] = desc
        hl.note_assignment(cache, desc, proc)
        if (
            hl.successor_task_split
            and cache.identity_like_overlap()
            and desc.id not in run.inline_split_chunks
        ):
            hl.schedule_successor_split(cache, desc)
        hl.dispatch_idle()


class _TaskDone:
    """Per-task completion callback."""

    __slots__ = ("hl", "desc")

    def __init__(self, hl: "HotLoop", desc: ComputationDescription) -> None:
        self.hl = hl
        self.desc = desc

    def __call__(self, proc: "Processor") -> None:
        hl = self.hl
        ex = hl.ex
        desc = self.desc
        ex._in_flight.pop(proc.index, None)
        injector = ex._injector
        if injector is not None and injector.has_transients:
            run_f = ex.runs[desc.phase_run]
            lo, hi = desc.granules.min(), desc.granules.max() + 1
            if injector.task_fails(run_f.spec.name, desc.phase_run, lo, hi, desc.attempts):
                ex._retry(desc, reason="transient")
                return
        ex.tasks_executed += 1
        ex.granules_executed += len(desc.granules)
        cache = hl.caches[desc.phase_run]
        if hl.lateral:
            hl.try_lateral_handoff(cache, desc, proc)
        hl.machine.submit_job(_CompletionJob(hl, cache, desc))


class _CompletionJob:
    """Completion processing: credit granules, run enablement, release."""

    __slots__ = ("hl", "cache", "desc", "label")

    category = "mgmt"
    noop = None

    def __init__(
        self, hl: "HotLoop", cache: _RunCache, desc: ComputationDescription
    ) -> None:
        self.hl = hl
        self.cache = cache
        self.desc = desc
        self.label = cache.complete_label

    def resolve_duration(self) -> float:
        # Pricing only — completion processing's state changes happen
        # atomically in on_done().  With a middle-management pool,
        # completion jobs on different servers can *finish* out of order;
        # mutating here would open a window between computing the enabled
        # successor set and queueing it, during which another server could
        # advance the frontier and queue the same granules again.
        hl = self.hl
        cache = self.cache
        run = cache.run
        d = hl.cost_completion
        succ = cache.succ
        if run.engine_to_next is not None and succ is not None and succ.overlap_active:
            d += hl.cost_enablement
            if (
                cache.identity_like_overlap()
                and hl.successor_task_split
                and self.desc.id not in run.inline_split_chunks
            ):
                # deferred successor-splitting task has not run yet;
                # completion processing must pay inline
                d += hl.cost_successor_split
                run.inline_split_chunks.add(self.desc.id)
        return d

    def on_done(self) -> None:
        hl = self.hl
        ex = hl.ex
        cache = self.cache
        desc = self.desc
        run = cache.run
        run.completed = run.completed | desc.granules
        desc.state = DescriptionState.COMPLETE
        succ = cache.succ
        if run.engine_to_next is not None and succ is not None and succ.overlap_active:
            newly = run.engine_to_next.notify(desc.granules)
            if run.complete:
                newly = newly | run.engine_to_next.complete_all()
            fresh = (newly - succ.queued) - succ.assigned
            if fresh:
                child = ex._describe(succ, fresh)
                desc.queue_conflicting(child)
        for child in desc.release_conflicts():
            child.state = DescriptionState.WAITING
            child_succ = ex.runs[child.phase_run]
            child_succ.enabled = child_succ.enabled | child.granules
            child_succ.queued = child_succ.queued | child.granules
            ex.queue.push(child)
        if run.complete and run.stats.complete_time is None:
            now = ex.sim._now
            run.stats.complete_time = now
            ex.trace.log(now, EventKind.PHASE_END, cache.name, run=cache.gid)
            ex._advance_frontier(run.stream)
        hl.dispatch_idle()


class _PresplitJob:
    """One background pre-split chunk (see :meth:`HotLoop.schedule_presplits`)."""

    __slots__ = ("run", "chunk_index", "cost", "label")

    category = "mgmt"
    noop = None

    def __init__(
        self, run: "_RunState", chunk_index: int, cost: float, label: str
    ) -> None:
        self.run = run
        self.chunk_index = chunk_index
        self.cost = cost
        self.label = label

    def resolve_duration(self) -> float:
        if self.run.presplit_watermark > self.chunk_index:
            return 0.0  # already covered (demand split outran us)
        return self.cost

    def on_done(self) -> None:
        run = self.run
        nxt = self.chunk_index + 1
        if nxt > run.presplit_watermark:
            run.presplit_watermark = nxt


class _SuccessorSplitJob:
    """One deferred successor-splitting task (see
    :meth:`HotLoop.schedule_successor_split`)."""

    __slots__ = ("run", "desc_id", "cost", "label")

    category = "mgmt"
    noop = None

    def __init__(self, run: "_RunState", desc_id: int, cost: float, label: str) -> None:
        self.run = run
        self.desc_id = desc_id
        self.cost = cost
        self.label = label

    def resolve_duration(self) -> float:
        if self.desc_id in self.run.inline_split_chunks:
            return 0.0  # completion processing already paid inline
        return self.cost

    def on_done(self) -> None:
        self.run.inline_split_chunks.add(self.desc_id)


class HotLoop:
    """The per-task half of one :class:`ExecutiveSimulation`.

    Construction precomputes per-run caches, per-processor assignment
    labels and flat copies of the cost/extension constants.  The machine's
    idle hook is :meth:`request_work`; the scheduler calls
    :meth:`dispatch_idle` whenever new work may have become assignable.
    """

    __slots__ = (
        "ex",
        "machine",
        "queue",
        "caches",
        "assign_labels",
        "pending",
        "affinity",
        "cost_assign",
        "cost_split",
        "cost_completion",
        "cost_enablement",
        "cost_successor_split",
        "presplit_cost",
        "demand_split",
        "successor_task_split",
        "lateral",
        "lateral_cost",
        "remote_penalty",
        "data_proximity",
        "proximity_scan",
    )

    def __init__(self, ex: "ExecutiveSimulation") -> None:
        self.ex = ex
        self.machine = ex.machine
        self.queue = ex.queue
        self.caches = [_RunCache(ex, run) for run in ex.runs]
        self.assign_labels = [f"assign:P{i}" for i in range(ex.machine.n_workers)]
        #: processor indices with an assignment job queued or running
        self.pending: set[int] = set()
        #: worker index -> (start, stop) of the granule *data region* it
        #: last computed.  Granule indices name data regions (identity and
        #: seam mappings preserve them across phases), so affinity is
        #: deliberately phase-agnostic: the worker that computed
        #: predecessor granules [a, b) is local to successor granules
        #: [a, b) as well as to the continuation [b, ...).
        self.affinity: dict[int, tuple[int, int]] = {}
        costs = ex.costs
        self.cost_assign = costs.assign
        self.cost_split = costs.split
        self.cost_completion = costs.completion
        self.cost_enablement = costs.enablement
        self.cost_successor_split = costs.successor_split
        self.presplit_cost = costs.split + costs.successor_split
        config = ex.config
        self.demand_split = config.split_strategy is SplitStrategy.DEMAND
        self.successor_task_split = config.split_strategy is SplitStrategy.SUCCESSOR_TASK
        ext = ex.ext
        self.lateral = ext.lateral_handoff
        self.lateral_cost = ext.lateral_cost
        self.remote_penalty = ext.remote_penalty
        self.data_proximity = ext.data_proximity
        self.proximity_scan = ext.proximity_scan

    # ------------------------------------------------------------- dispatch
    def select_desc(self, proc: "Processor") -> ComputationDescription:
        """The description the assignment serves next.

        Default: the head of the waiting queue ("kept in a known order").
        With the data-proximity extension, the executive first scans a few
        queue entries for the chunk that continues the granule range the
        worker just computed.
        """
        queue = self.queue
        if not self.data_proximity:
            return queue.peek()
        affinity = self.affinity.get(proc.index)
        if affinity is None:
            return queue.peek()
        start, stop = affinity
        return queue.first_in_window(start, stop, self.proximity_scan)

    def chunk_is_local(self, proc: "Processor", desc: ComputationDescription) -> bool:
        affinity = self.affinity.get(proc.index)
        if affinity is None:
            return False
        start, stop = affinity
        return start <= desc.granules.min() <= stop

    def request_work(self, proc: "Processor") -> None:
        """Submit an assignment job for an idle ``proc`` (the idle hook)."""
        pending = self.pending
        if proc.index in pending:
            return
        queue = self.queue
        if not (queue._elevated._size or queue._normal._size):
            return
        pending.add(proc.index)
        self.machine.submit_job(_AssignJob(self, proc))

    def dispatch_idle(self) -> None:
        """Submit an assignment for every idle worker while work is queued.

        The idle list is snapshotted before any assignment is submitted
        (submitting can flip a SHARED-placement host to MGMT, mutating
        ``_idle_sorted`` mid-loop).  The per-processor pending check is
        folded into the snapshot: the pending set only grows by this
        loop's own additions — one per distinct index.  The
        queue-emptiness check is NOT foldable: a submitted job on a free
        server resolves synchronously and pops the queue
        (:meth:`_AssignJob.resolve_duration`), so the queue can drain
        mid-loop and the remaining processors must not be handed
        assignments.
        """
        queue = self.queue
        if not (queue._elevated._size or queue._normal._size):
            return
        machine = self.machine
        pending = self.pending
        hs = machine._host_server
        if not hs:
            ready = [i for i in machine._idle_sorted if i not in pending]
        else:
            ready = []
            for i in machine._idle_sorted:
                if i in pending:
                    continue
                server = hs.get(i)
                if server is not None and (server.busy or server.urgent):
                    continue
                ready.append(i)
        if not ready:
            return
        procs = machine.processors
        submit = machine.submit_job
        elevated, normal = queue._elevated, queue._normal
        for i in ready:
            if not (elevated._size or normal._size):
                return
            pending.add(i)
            submit(_AssignJob(self, procs[i]))

    def note_assignment(
        self, cache: _RunCache, desc: ComputationDescription, proc: "Processor"
    ) -> None:
        """Bookkeeping for a started task, executive-assigned or lateral."""
        ex = self.ex
        run = cache.run
        now = ex.sim._now
        desc.state = DescriptionState.RUNNING
        granules = desc.granules
        run.assigned = run.assigned | granules
        run.queued = run.queued - granules
        run.stats.tasks += 1
        self.affinity[proc.index] = (granules.min(), granules.max() + 1)
        stats = run.stats
        if stats.first_task_start is None:
            stats.first_task_start = now
        if run.fully_assigned and stats.last_assign_time is None:
            stats.last_assign_time = now

    def try_lateral_handoff(
        self, cache: _RunCache, desc: ComputationDescription, proc: "Processor"
    ) -> None:
        """Worker-to-worker hand-off: start the enabled successor chunk now.

        With an identity mapping, the worker that just completed granules
        ``g`` of the current phase *knows* granules ``g`` of the successor
        are computable — no executive consultation needed.  The worker
        starts them directly, paying only the lateral communication cost.
        Granules already assigned or queued (including those waiting out a
        retry backoff or a crash reassignment) are not handed off again.
        """
        run = cache.run
        succ = cache.succ
        engine = run.engine_to_next
        if (
            engine is None
            or succ is None
            or not succ.overlap_active
            or engine.mapping.kind is not MappingKind.IDENTITY
        ):
            return
        candidate = (
            (desc.granules & GranuleSet.universe(succ.n)) - succ.assigned
        ) - succ.queued
        if not candidate:
            return
        ex = self.ex
        child = ex._describe(succ, candidate)
        succ_cache = self.caches[succ.gid]
        task_time = self.lateral_cost + succ_cache.task_duration(candidate)
        injector = ex._injector
        if injector is not None and injector.has_stragglers:
            task_time *= injector.slowdown(proc.index, ex.sim._now)
        started = self.machine.start_task(
            proc,
            task_time,
            _TaskDone(self, child),
            label=succ_cache.label_prefix + repr(candidate),
        )
        if not started:
            return
        ex._in_flight[proc.index] = child
        succ.enabled = succ.enabled | candidate
        self.note_assignment(succ_cache, child, proc)
        ex.lateral_handoffs += 1

    def schedule_presplits(self, run: "_RunState") -> None:
        """Queue background jobs that pre-split the run's task chunks.

        "One possibility is to presplit the tasks before idle workers
        present themselves to the executive.  This would allow the
        executive to work ahead in otherwise idle time."
        """
        cache = self.caches[run.gid]
        n_chunks = math.ceil(run.n / cache.tsize)
        machine = self.machine
        cost = self.presplit_cost
        prefix = cache.presplit_prefix
        for c in range(n_chunks):
            machine.submit_job(_PresplitJob(run, c, cost, prefix + str(c)), background=True)

    def schedule_successor_split(
        self, cache: _RunCache, desc: ComputationDescription
    ) -> None:
        """Queue the deferred successor-splitting task for one chunk.

        "the splitting of a computation could generate a successor-
        splitting task that could be quickly queued for later attention
        when the executive would again be idle."
        """
        job = _SuccessorSplitJob(
            cache.run,
            desc.id,
            self.cost_successor_split,
            cache.succ_split_prefix + str(desc.id),
        )
        self.machine.submit_job(job, background=True)
