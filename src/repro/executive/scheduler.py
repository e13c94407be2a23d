"""The event-driven PAX executive.

Runs one or more :class:`~repro.core.phase.PhaseProgram` *job streams* on
a simulated :class:`~repro.sim.machine.Machine` under an
:class:`~repro.core.overlap.OverlapConfig`, producing a
:class:`RunResult` with the full trace.

Scheduling model (one-to-one with the paper's description):

* Each phase run starts as a single **root computation description**
  covering the whole granule space, placed in the waiting computation
  queue.  Idle workers trigger executive *assignment* jobs that split a
  conveniently sized task off the head description (demand-driven
  splitting).
* Task completion triggers an executive *completion processing* job that
  credits the completed granules, recognizes enablement relationships,
  and moves now-computable successor descriptions from the completing
  description's conflict queue into the waiting queue.
* With ``OverlapPolicy.NEXT_PHASE``, initiating phase *k* also initiates
  phase *k+1* in overlapped mode per the declared enablement mapping.
  Lookahead is exactly one phase: granules of run *k+1* may execute while
  run *k* is active, but run *k+2* must wait for run *k* to finish.
* Indirect mappings require the executive to materialize the information-
  selection maps and build a composite granule map first; its generation
  is charged at ``map_entry`` per required-granule reference ("extensive
  composite granule map generation could be self defeating").
* A serial action scheduled between two phases forces a barrier (the
  paper's null-mapping cause) and occupies the executive for its
  duration.
* Multiple job streams realize the paper's "multi-parallel-job-stream
  environment": each stream is an independent phase chain; their
  descriptions share the one waiting queue, so one stream's work fills
  another's rundown — raising utilization while stretching each job's
  wall clock.

The executive is strictly serial: every management action is a job on the
machine's management queue, charged per
:class:`~repro.executive.costs.ExecutiveCosts`, hosted either on worker 0
(SHARED) or on a separate server (DEDICATED).  The actions taken once per
task — assignment, task completion, completion processing, presplit and
successor-split jobs, lateral hand-off — live in
:mod:`repro.executive.hotloop`; this module keeps the per-phase ones.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.core.enablement import EnablementEngine
from repro.core.granule import GranuleSet
from repro.core.mapping import EnablementMapping
from repro.core.overlap import (
    AdmissionDecision,
    OverlapConfig,
    OverlapPolicy,
    SplitStrategy,
    admission_decision,
)
from repro.core.phase import PhaseProgram, PhaseSpec, SerialAction
from repro.core.predicate import overlap_is_safe
from repro.executive.costs import ExecutiveCosts
from repro.executive.descriptions import ComputationDescription, DescriptionState
from repro.executive.extensions import Extensions
from repro.executive.hotloop import HotLoop
from repro.executive.queues import WaitingComputationQueue
from repro.executive.splitting import TaskSizer
from repro.faults import (
    FaultInjector,
    FaultPlan,
    PhaseAbortError,
    RecoveryPolicy,
    RundownFailureReport,
)
from repro.sim.engine import Event, Simulator
from repro.sim.events import EventKind
from repro.sim.machine import CHIEF_LANE, ExecutivePlacement, Machine, Processor
from repro.sim.rng import RngStreams
from repro.sim.trace import Trace

__all__ = ["PhaseRunStats", "StreamStats", "RunResult", "ExecutiveSimulation", "run_program"]


@dataclass
class PhaseRunStats:
    """Per-phase-run timing and bookkeeping, extracted after a run."""

    stream: int
    index: int
    name: str
    n_granules: int
    init_time: float | None = None
    overlap_init_time: float | None = None
    first_task_start: float | None = None
    last_assign_time: float | None = None
    complete_time: float | None = None
    tasks: int = 0
    overlapped: bool = False
    #: Descriptions split at assignment (demand splitting).
    demand_splits: int = 0
    #: Enabling granules split out into priority-elevated descriptions.
    elevated: int = 0

    @property
    def rundown_window(self) -> tuple[float, float] | None:
        """``[last task assigned, phase complete]`` — the rundown interval."""
        if self.last_assign_time is None or self.complete_time is None:
            return None
        return (self.last_assign_time, self.complete_time)


@dataclass
class StreamStats:
    """Whole-job timing for one job stream."""

    stream: int
    start_time: float
    complete_time: float

    @property
    def wall_clock(self) -> float:
        """Elapsed time of the job — the quantity batch mixing stretches."""
        return self.complete_time - self.start_time


@dataclass
class RunResult:
    """Everything a benchmark needs from one simulated execution."""

    trace: Trace
    n_workers: int
    placement: ExecutivePlacement
    config: OverlapConfig
    phase_stats: list[PhaseRunStats]
    stream_stats: list[StreamStats]
    makespan: float
    compute_time: float
    mgmt_time: float
    serial_time: float
    tasks_executed: int
    granules_executed: int
    #: Worker-to-worker direct successor starts (lateral hand-off extension).
    lateral_handoffs: int = 0
    #: One verdict per adjacent phase pair the executive considered.
    admission_decisions: list[AdmissionDecision] = field(default_factory=list)
    #: Transient-failure retries performed (fault injection).
    retries: int = 0
    #: Crash-orphaned tasks requeued by the barrier watchdog.
    reassignments: int = 0
    #: Worker processors lost to injected crashes.
    processor_failures: int = 0
    #: Barrier-watchdog stall detections.
    stalls: int = 0
    #: Discrete events the simulator executed.
    events_processed: int = 0

    @property
    def utilization(self) -> float:
        """Mean fraction of worker capacity spent computing."""
        if self.makespan <= 0:
            return 0.0
        return self.compute_time / (self.n_workers * self.makespan)

    @property
    def comp_mgmt_ratio(self) -> float:
        """The paper's computation-to-management ratio (≈ 200 for PAX/CASPER)."""
        if self.mgmt_time <= 0:
            return math.inf
        return self.compute_time / self.mgmt_time

    def stats_for(self, name: str) -> list[PhaseRunStats]:
        """All run stats for a phase name (may occur several times)."""
        return [s for s in self.phase_stats if s.name == name]


class _RunState:
    """Mutable executive-internal state of one scheduled phase run."""

    __slots__ = (
        "gid",
        "stream",
        "index",
        "spec",
        "n",
        "initiated",
        "init_submitted",
        "overlap_active",
        "current",
        "enabled",
        "queued",
        "assigned",
        "completed",
        "engine_to_next",
        "overlap_aborted",
        "presplit_watermark",
        "inline_split_chunks",
        "stats",
    )

    def __init__(self, gid: int, stream: "_Stream", index: int, spec: PhaseSpec) -> None:
        self.gid = gid  # global run id (index into ExecutiveSimulation.runs)
        self.stream = stream
        self.index = index  # position within the stream's schedule
        self.spec = spec
        self.n = spec.n_granules
        self.initiated = False
        self.init_submitted = False  # an initiation job is queued or done
        self.overlap_active = False  # initiated as an overlapped successor
        self.current = False
        self.enabled = GranuleSet.empty()
        self.queued = GranuleSet.empty()
        self.assigned = GranuleSet.empty()
        self.completed = GranuleSet.empty()
        self.engine_to_next: EnablementEngine | None = None
        self.overlap_aborted = False
        self.presplit_watermark = 0
        self.inline_split_chunks: set[int] = set()
        self.stats = PhaseRunStats(
            stream=stream.index, index=index, name=spec.name, n_granules=spec.n_granules
        )

    @property
    def complete(self) -> bool:
        return len(self.completed) >= self.n

    @property
    def fully_assigned(self) -> bool:
        return len(self.assigned) >= self.n


class _Stream:
    """One job stream: a phase program with its own frontier."""

    __slots__ = ("index", "program", "runs", "serial_before", "frontier", "start_time", "complete_time")

    def __init__(self, index: int, program: PhaseProgram) -> None:
        self.index = index
        self.program = program
        self.runs: list[_RunState] = []
        self.serial_before: list[SerialAction | None] = []
        self.frontier = 0
        self.start_time: float | None = None
        self.complete_time: float | None = None

    @property
    def complete(self) -> bool:
        return all(r.complete for r in self.runs)


class _OverlapInitJob:
    """Overlapped successor initiation, as a machine job record.

    Once per adjacent phase pair; the work is the simulation's
    :meth:`~ExecutiveSimulation._overlap_init_duration` (pricing, and
    building the enablement engine) and
    :meth:`~ExecutiveSimulation._overlap_init_done` (commit or abort).
    """

    __slots__ = ("ex", "run", "succ", "mapping", "serial_barrier", "new_descs", "label")

    category = "mgmt"
    noop = None

    def __init__(
        self,
        ex: "ExecutiveSimulation",
        run: _RunState,
        succ: _RunState,
        mapping: EnablementMapping,
        serial_barrier: bool,
    ) -> None:
        self.ex = ex
        self.run = run
        self.succ = succ
        self.mapping = mapping
        self.serial_barrier = serial_barrier
        self.new_descs: list[ComputationDescription] = []
        self.label = f"overlap-init:{succ.spec.name}#{succ.gid}"

    def resolve_duration(self) -> float:
        return self.ex._overlap_init_duration(self.run, self.succ, self.mapping, self.new_descs)

    def on_done(self) -> None:
        self.ex._overlap_init_done(
            self.run, self.succ, self.mapping, self.serial_barrier, self.new_descs
        )


class ExecutiveSimulation:
    """Binds job streams, a machine and a control-strategy configuration.

    Parameters
    ----------
    program:
        One phase program, or a sequence of programs (independent job
        streams sharing the machine — the paper's batch environment).
    n_workers:
        Worker processor count.
    config:
        Overlap policy and control strategies.
    costs:
        Executive per-action charges.
    sizer:
        Task-size policy.
    placement:
        Executive placement (shared worker 0 or dedicated).
    seed:
        Master seed for service times and map generation.
    extensions:
        The paper's identified follow-on strategies (middle management,
        lateral hand-off, data proximity); defaults to all off.
    faults:
        A :class:`~repro.faults.FaultPlan` to inject (crashes, stragglers,
        transient task errors), or ``None`` for the fault-free fast path.
        Passing any plan — even an empty one — arms the recovery
        machinery: retry accounting, crash orphan tracking and per-run
        barrier watchdogs.
    recovery:
        Retry/backoff/watchdog knobs; defaults apply when ``None``.
    """

    def __init__(
        self,
        program: PhaseProgram | list[PhaseProgram] | tuple[PhaseProgram, ...],
        n_workers: int,
        config: OverlapConfig | None = None,
        costs: ExecutiveCosts | None = None,
        sizer: TaskSizer | None = None,
        placement: ExecutivePlacement = ExecutivePlacement.DEDICATED,
        seed: int = 0,
        extensions: Extensions | None = None,
        admission_guard: "Callable[[AdmissionDecision], None] | None" = None,
        faults: FaultPlan | None = None,
        recovery: RecoveryPolicy | None = None,
    ) -> None:
        programs = [program] if isinstance(program, PhaseProgram) else list(program)
        if not programs:
            raise ValueError("need at least one program")
        self.config = config or OverlapConfig()
        self.costs = costs or ExecutiveCosts()
        self.sizer = sizer or TaskSizer()
        self.ext = extensions or Extensions()
        self.admission_guard = admission_guard
        self.sim = Simulator()
        self.trace = Trace()
        self.machine = Machine(
            self.sim, self.trace, n_workers, placement,
            n_executives=self.ext.middle_managers,
        )
        self.lateral_handoffs = 0
        self.streams_rng = RngStreams(seed)
        self.queue = WaitingComputationQueue()
        #: numbers this simulation's descriptions (succ-split:<phase>:<id>)
        self._description_ids = itertools.count(1)

        self.runs: list[_RunState] = []
        self.streams: list[_Stream] = []
        for s_idx, prog in enumerate(programs):
            seq = prog.phase_sequence()
            if not seq:
                raise ValueError(f"program {s_idx} schedule contains no phases")
            stream = _Stream(s_idx, prog)
            for i, name in enumerate(seq):
                run = _RunState(len(self.runs), stream, i, prog.phases[name])
                self.runs.append(run)
                stream.runs.append(run)
            stream.serial_before = [None] * len(stream.runs)
            idx = -1
            pending_serial: SerialAction | None = None
            for entry in prog.schedule:
                if isinstance(entry, SerialAction):
                    pending_serial = entry
                else:
                    idx += 1
                    if idx > 0:
                        stream.serial_before[idx] = pending_serial
                    pending_serial = None
            self.streams.append(stream)

        self.tasks_executed = 0
        self.granules_executed = 0
        self._finished = False

        # ---------------------------------------------------------- faults
        self.faults = faults
        self.recovery = recovery or RecoveryPolicy()
        self._injector = FaultInjector(faults) if faults is not None else None
        if faults is not None:
            for crash in faults.crashes:
                if crash.processor >= self.machine.n_workers:
                    raise ValueError(
                        f"crash targets processor {crash.processor} but the "
                        f"machine has {self.machine.n_workers} workers"
                    )
                proc = self.machine.processors[crash.processor]
                if self.machine._server_for(proc) is not None:
                    raise ValueError(
                        f"crash targets {proc.name}, which hosts an executive "
                        f"server; executive failover is not modelled — use "
                        f"DEDICATED placement for crash experiments"
                    )
        #: processor index -> the description its in-flight task executes
        self._in_flight: dict[int, ComputationDescription] = {}
        #: crash-orphaned descriptions awaiting watchdog reassignment
        self._orphans: list[ComputationDescription] = []
        self._pending_retries = 0
        self._fault_events: list[Event] = []
        self._watchdog_event: Event | None = None
        self.retries = 0
        self.reassignments = 0
        self.processor_failures = 0
        self.stalls = 0
        self.failure_report: RundownFailureReport | None = None
        self.machine.on_task_lost = self._on_task_lost
        self.admission_decisions: list[AdmissionDecision] = []
        self._admission_seen: set[tuple[int, int]] = set()
        # Built last: the hot loop snapshots per-run caches, labels and
        # cost constants from the fully constructed simulation.
        self._hot = HotLoop(self)
        self.machine.on_processor_idle = self._hot.request_work

    # ------------------------------------------------------------------ helpers
    def _rng(self, name: str) -> np.random.Generator:
        return self.streams_rng.get(name)

    def _record_admission(self, run: "_RunState", succ: "_RunState", decision: AdmissionDecision) -> None:
        """Keep one admission verdict per phase pair."""
        key = (run.gid, succ.gid)
        if key in self._admission_seen:
            return
        self._admission_seen.add(key)
        self.admission_decisions.append(decision)
        if self.admission_guard is not None:
            # dynamic cross-check hook (see repro.lint.crosscheck): raise
            # before the admission is acted on if it exceeds a verdict
            self.admission_guard(decision)

    def _describe(
        self, run: _RunState, granules: GranuleSet, elevated: bool = False
    ) -> ComputationDescription:
        """A new description of ``granules`` of ``run``."""
        return ComputationDescription(
            run.gid, run.spec.name, granules, elevated, ids=self._description_ids
        )

    def _next_run(self, run: _RunState) -> _RunState | None:
        if run.index + 1 < len(run.stream.runs):
            return run.stream.runs[run.index + 1]
        return None

    def _mapping_to_next(self, run: _RunState) -> EnablementMapping | None:
        succ = self._next_run(run)
        if succ is None:
            return None
        return run.stream.program.mapping_between(run.spec.name, succ.spec.name)

    # ------------------------------------------------------------------ lifecycle
    def run(self, max_events: int | None = None) -> RunResult:
        """Execute every job stream to completion; returns the result bundle."""
        if self._finished:
            raise RuntimeError("ExecutiveSimulation.run may only be called once")
        if self.faults is not None:
            for crash in self.faults.crashes:
                proc = self.machine.processors[crash.processor]
                self._fault_events.append(
                    self.sim.schedule(crash.at_time, lambda p=proc: self._crash(p))
                )
        for stream in self.streams:
            self._initiate(stream.runs[0])
        try:
            self.sim.run(max_events=max_events)
            self._finished = True
            for ev in self._fault_events:
                ev.cancel()
            if self.failure_report is not None:
                raise PhaseAbortError(self.failure_report)
            for stream in self.streams:
                if not stream.complete:
                    incomplete = [r.spec.name for r in stream.runs if not r.complete]
                    raise RuntimeError(
                        f"simulation drained with incomplete phases in stream "
                        f"{stream.index}: {incomplete}"
                    )
            return self._result()
        finally:
            # the hot loop, the machine's callbacks and this simulation
            # point at each other; cut those links so a finished run is
            # freed by reference counting instead of waiting for a full
            # collection, and free its enablement engines (composite
            # maps, CSR index) even if something else still holds it
            for run in self.runs:
                run.engine_to_next = None
            self._hot = None
            self.machine.on_processor_idle = None
            self.machine.on_task_lost = None
            self._fault_events.clear()

    def _result(self) -> RunResult:
        stream_stats = [
            StreamStats(
                stream=s.index,
                start_time=s.start_time if s.start_time is not None else 0.0,
                complete_time=s.complete_time if s.complete_time is not None else self.sim.now,
            )
            for s in self.streams
        ]
        mgmt_time = sum(
            self.trace.busy_time(res, "mgmt") for res in self.machine.exec_resources()
        )
        serial_time = sum(
            self.trace.busy_time(res, "serial") for res in self.machine.exec_resources()
        )
        return RunResult(
            trace=self.trace,
            n_workers=self.machine.n_workers,
            placement=self.machine.placement,
            config=self.config,
            phase_stats=[r.stats for r in self.runs],
            stream_stats=stream_stats,
            makespan=self.sim.now,
            compute_time=self.machine.compute_time(),
            mgmt_time=mgmt_time,
            serial_time=serial_time,
            tasks_executed=self.tasks_executed,
            granules_executed=self.granules_executed,
            lateral_handoffs=self.lateral_handoffs,
            admission_decisions=list(self.admission_decisions),
            retries=self.retries,
            reassignments=self.reassignments,
            processor_failures=self.processor_failures,
            stalls=self.stalls,
            events_processed=self.sim.events_processed,
        )

    # ------------------------------------------------------------------ initiation
    def _initiate(self, run: _RunState) -> None:
        """Submit the executive job that fully initiates a phase run."""
        run.init_submitted = True

        def done() -> None:
            run.initiated = True
            run.current = True
            run.stats.init_time = self.sim.now
            if run.stream.start_time is None:
                run.stream.start_time = self.sim.now
            run.enabled = GranuleSet.universe(run.n)
            root = self._describe(run, run.enabled)
            self.queue.push(root)
            run.queued = run.enabled
            self.trace.log(self.sim.now, EventKind.PHASE_START, run.spec.name, run=run.gid)
            self._arm_watchdog()
            self._maybe_overlap_next(run)
            self._hot.dispatch_idle()

        self.machine.submit_mgmt(
            self.costs.phase_init + self.costs.dispatch_overhead,
            done,
            label=f"init:{run.spec.name}#{run.gid}",
            lane=CHIEF_LANE,
        )

    def _overlap_decision(
        self, run: _RunState, succ: _RunState, mapping: EnablementMapping,
        serial_barrier: bool, safe: bool = True,
    ) -> AdmissionDecision:
        return admission_decision(
            run.spec.name,
            succ.spec.name,
            self.config.policy,
            mapping_kind=mapping.kind,
            serial_barrier=serial_barrier,
            safe=safe,
        )

    def _overlap_init_duration(
        self,
        run: _RunState,
        succ: _RunState,
        mapping: EnablementMapping,
        new_descs: list[ComputationDescription],
    ) -> float:
        """Price (and perform) overlapped successor initiation."""
        d = self.costs.phase_init + self.costs.dispatch_overhead
        maps: dict[str, np.ndarray] = {}
        if mapping.kind.indirect:
            map_name = getattr(mapping, "map_name", None)
            if map_name is not None:
                gen = run.stream.program.map_generators.get(map_name)
                if gen is None:
                    raise KeyError(
                        f"mapping between {run.spec.name!r} and {succ.spec.name!r} "
                        f"references map {map_name!r} but no generator is registered"
                    )
                maps[map_name] = gen(self._rng(f"map:{map_name}:{run.gid}"))
        if self.config.verify_safety:
            # materialize every selection map the two phases' declared
            # footprints reference, so the PARALLEL check can evaluate
            # mapped accesses (best effort: unmaterializable maps make
            # the check refuse the overlap, never guess)
            from repro.core.access import MappedIndex

            for spec in (run.spec, succ.spec):
                if spec.access is None:
                    continue
                for ref in spec.access.reads + spec.access.writes:
                    name = getattr(ref.index, "map_name", None)
                    if not isinstance(ref.index, MappedIndex) or name in maps:
                        continue
                    gen = run.stream.program.map_generators.get(name)
                    if gen is not None:
                        maps[name] = gen(self._rng(f"map:{name}:{run.gid}"))
        if self.config.verify_safety:
            report = overlap_is_safe(run.spec, succ.spec, mapping, maps=maps or None)
            if not report.safe:
                run.overlap_aborted = True
                return d
        target = None
        if mapping.kind.indirect and self.config.target_fraction < 1.0:
            n_target = max(1, int(self.config.target_fraction * succ.n))
            target = GranuleSet.universe(n_target)
        engine = EnablementEngine(
            mapping,
            n_pred=run.n,
            n_succ=succ.n,
            maps=maps or None,
            group_size=self.config.composite_group_size,
            target=target,
        )
        run.engine_to_next = engine
        if engine.composite is not None:
            d += self.costs.map_entry * engine.composite.total_required()
            if self.config.elevate_enabling_granules:
                d += self._elevate_enabling_granules(run, engine, new_descs)
        initially = engine.initially_enabled()
        if initially:
            desc = self._describe(succ, initially)
            new_descs.append(desc)
        return d

    def _overlap_init_done(
        self,
        run: _RunState,
        succ: _RunState,
        mapping: EnablementMapping,
        serial_barrier: bool,
        new_descs: list[ComputationDescription],
    ) -> None:
        """Commit (or abort) the overlapped successor initiation."""
        if run.overlap_aborted or run.engine_to_next is None:
            # fall back to a strict barrier: the successor will be
            # initiated normally when this run completes
            self._record_admission(
                run, succ, self._overlap_decision(run, succ, mapping, serial_barrier, safe=False)
            )
            succ.init_submitted = False
            if run.stream.frontier == succ.index:
                self._make_current(succ)
            return
        self._record_admission(
            run, succ, self._overlap_decision(run, succ, mapping, serial_barrier)
        )
        succ.initiated = True
        succ.overlap_active = True
        succ.stats.overlapped = True
        succ.stats.overlap_init_time = self.sim.now
        self._arm_watchdog()
        for desc in new_descs:
            self.queue.push(desc, elevated=desc.elevated)
            if desc.phase_run == succ.gid:
                succ.enabled = succ.enabled | desc.granules
                succ.queued = succ.queued | desc.granules
        if (
            self.config.split_strategy is SplitStrategy.PRESPLIT
            and self._hot.caches[run.gid].identity_like_overlap()
        ):
            self._hot.schedule_presplits(run)
        if run.stream.frontier == succ.index:
            # the predecessor finished while this job was queued
            self._make_current(succ)
        self._hot.dispatch_idle()

    def _maybe_overlap_next(self, run: _RunState) -> None:
        """At phase initiation, also initiate the successor in overlap mode."""
        succ = self._next_run(run)
        if succ is None or succ.initiated or succ.init_submitted:
            return
        serial_barrier = run.stream.serial_before[succ.index] is not None
        mapping = self._mapping_to_next(run)
        assert mapping is not None
        if (
            self.config.policy is not OverlapPolicy.NEXT_PHASE
            or serial_barrier  # a serial action between the phases forces the barrier
            or not mapping.kind.overlappable
        ):
            self._record_admission(
                run, succ, self._overlap_decision(run, succ, mapping, serial_barrier)
            )
            return
        succ.init_submitted = True
        self.machine.submit_job(
            _OverlapInitJob(self, run, succ, mapping, serial_barrier), lane=CHIEF_LANE
        )

    def _elevate_enabling_granules(
        self,
        run: _RunState,
        engine: EnablementEngine,
        new_descs: list[ComputationDescription],
    ) -> float:
        """Split enabling current-phase granules into elevated descriptions.

        Returns the executive time charged (one split per new description).
        "they should be split into individual descriptions and placed in
        the waiting computation queue in such a manner as to elevate
        their computational priority."  Descriptions are created in
        composite-group order — "this map could also be used to direct a
        preferred order of first phase granule dispatching so as to
        enable a known second phase granule as early as possible" — so
        the enablers of the first successor subset run first.
        """
        assert engine.composite is not None
        charged = 0.0
        covered = GranuleSet.empty()
        for group in engine.composite.groups:
            need = group.required - covered
            if not need:
                continue
            covered = covered | need
            for desc in list(self.queue):
                if desc.phase_run != run.gid:
                    continue
                inter = desc.granules & need
                if not inter:
                    continue
                desc.granules = desc.granules - inter
                if not desc.granules:
                    self.queue.remove(desc)
                child = self._describe(run, inter, elevated=True)
                new_descs.append(child)
                charged += self.costs.split
                run.stats.elevated += 1
        return charged

    # ------------------------------------------------------------------ faults
    def _crash(self, proc: Processor) -> None:
        """Fire an injected processor crash (scheduled from the fault plan)."""
        if all(s.complete_time is not None for s in self.streams):
            return  # the workload outran the crash; nothing left to kill
        self.processor_failures += 1
        self.machine.fail_processor(proc)

    def _on_task_lost(self, proc: Processor) -> None:
        """A crash orphaned ``proc``'s in-flight task.

        Deliberately does *not* requeue: the granules sit in ``_orphans``
        until the barrier watchdog notices the phase can no longer make
        progress, attributes the stall to them, and reassigns.  Recovery
        therefore always flows through the stall-detection path, and every
        crash that matters produces a ``PHASE_STALLED`` trace record.
        """
        desc = self._in_flight.pop(proc.index, None)
        if desc is None:
            return
        run = self.runs[desc.phase_run]
        run.assigned = run.assigned - desc.granules
        # queued while orphaned, as for a retry (see _retry)
        run.queued = run.queued | desc.granules
        if run.stats.last_assign_time is not None and not run.fully_assigned:
            run.stats.last_assign_time = None
        desc.state = DescriptionState.WAITING
        self._orphans.append(desc)

    def _retry(self, desc: ComputationDescription, reason: str) -> None:
        """Requeue a transiently failed task after capped exponential backoff.

        The failed attempt's compute time stays on the books (the worker
        really spent it) but nothing is credited: no completion-processing
        job runs, so enablement sees the granules exactly once — on the
        attempt that finally succeeds.
        """
        run = self.runs[desc.phase_run]
        desc.attempts += 1
        if desc.attempts > self.recovery.max_retries:
            self._abort(
                run,
                "retries_exhausted",
                detail={"granules": repr(desc.granules), "attempts": desc.attempts},
            )
            return
        self.retries += 1
        self.trace.log(
            self.sim.now,
            EventKind.TASK_RETRY,
            run.spec.name,
            granules=repr(desc.granules),
            attempt=desc.attempts,
            reason=reason,
            backoff=self.recovery.backoff(desc.attempts),
        )
        run.assigned = run.assigned - desc.granules
        # queued from now on, not only after the backoff: until then neither
        # completion processing nor a lateral hand-off may issue them again
        run.queued = run.queued | desc.granules
        if run.stats.last_assign_time is not None and not run.fully_assigned:
            run.stats.last_assign_time = None
        desc.state = DescriptionState.WAITING
        self._pending_retries += 1

        def requeue() -> None:
            self._pending_retries -= 1
            self.queue.push_front(desc, elevated=True)
            self._hot.dispatch_idle()

        self._fault_events.append(
            self.sim.schedule_after(self.recovery.backoff(desc.attempts), requeue)
        )

    def _arm_watchdog(self) -> None:
        """Start the barrier watchdog (fault-armed runs only).

        One timer guards the whole simulation, not one per phase run:
        stall *handling* is already global (see :meth:`_handle_stall` —
        whichever detection fires must recover every orphan), so per-run
        timers would only multiply heap events without adding coverage.

        Checks back off exponentially while the system is healthy (capped
        at 16x the base timeout) and snap back to the base timeout after a
        detected stall.  The stall predicate is *precise* — true only when
        nothing in the system can still make progress — so checking it at
        any cadence is safe; the cadence tunes sim-time detection latency,
        which is free, while every check is a real heap event, and on a
        healthy run those events are the entire cost of arming the fault
        machinery (gated <5% by ``benchmarks/test_fault_overhead.py``).
        """
        if self._injector is None or self.recovery.watchdog_timeout is None:
            return
        if self._watchdog_event is not None:
            return
        self._watchdog_interval = self.recovery.watchdog_timeout
        self._watchdog_event = self.sim.schedule_after(
            self._watchdog_interval, self._watchdog_check
        )

    def _watchdog_check(self) -> None:
        """One watchdog tick: recover a stalled run, then re-arm.

        A method rather than a closure: a closure that re-schedules
        itself refers to itself, and that cycle would keep the whole
        finished simulation alive until a full collection.
        """
        self._watchdog_event = None
        if all(s.complete_time is not None for s in self.streams):
            return
        base = self.recovery.watchdog_timeout
        stalled = next(
            (
                r
                for r in self.runs
                if r.initiated and not r.complete and self._is_stalled(r)
            ),
            None,
        )
        if stalled is not None:
            self._watchdog_interval = base
            self._handle_stall(stalled)
            if self.failure_report is not None:
                return
        else:
            self._watchdog_interval = min(self._watchdog_interval * 2.0, base * 16.0)
        self._watchdog_event = self.sim.schedule_after(
            self._watchdog_interval, self._watchdog_check
        )

    def _is_stalled(self, run: _RunState) -> bool:
        """Can nothing in the system still complete this run?

        True only when the run is incomplete and there are no in-flight
        tasks, no retries waiting out their backoff, and the executive is
        fully drained — so a true verdict is stable regardless of the
        watchdog period (the period tunes latency, not correctness).
        """
        if run.complete:
            return False
        if self._in_flight or self._pending_retries:
            return False
        if self.machine.executive_busy or self.machine.executive_pending():
            return False
        return True

    def _handle_stall(self, run: _RunState) -> None:
        """Attribute a detected stall and either reassign orphans or abort.

        Orphans are considered *globally*, not per run: an orphaned
        predecessor chunk is exactly what starves an overlapped successor
        of enablement, so whichever run's watchdog fires first must
        recover every orphan, not just its own.
        """
        self.stalls += 1
        missing = GranuleSet.universe(run.n) - run.completed
        orphans = list(self._orphans)
        abort_reason: str | None = None
        if not self.machine.live_workers():
            abort_reason = "no_live_workers"
        elif orphans and self.reassignments >= self.recovery.max_reassignments:
            abort_reason = "reassignments_exhausted"
        elif not orphans and not self.queue:
            # granules neither completed, queued, in flight nor orphaned:
            # nothing will ever produce them
            abort_reason = "unrecoverable_stall"
        action = "abort" if abort_reason is not None else "reassign"
        self.trace.log(
            self.sim.now,
            EventKind.PHASE_STALLED,
            run.spec.name,
            missing=len(missing),
            granules=repr(missing),
            action=action,
        )
        if abort_reason is not None:
            self._abort(run, abort_reason, missing=missing)
            return
        for desc in orphans:
            self._orphans.remove(desc)
            owner = self.runs[desc.phase_run]
            desc.attempts += 1
            if desc.attempts > self.recovery.max_retries:
                self._abort(
                    owner,
                    "retries_exhausted",
                    detail={"granules": repr(desc.granules), "attempts": desc.attempts},
                )
                return
            self.reassignments += 1
            self.queue.push_front(desc, elevated=True)
        self._hot.dispatch_idle()

    def _abort(
        self,
        run: _RunState,
        reason: str,
        missing: GranuleSet | None = None,
        detail: dict | None = None,
    ) -> None:
        """Give up on the run: record the failure report and stop the sim."""
        if self.failure_report is not None:
            return
        if missing is None:
            missing = GranuleSet.universe(run.n) - run.completed
        self.failure_report = RundownFailureReport(
            phase=run.spec.name,
            run=run.gid,
            stream=run.stream.index,
            reason=reason,
            time=self.sim.now,
            missing_granules=len(missing),
            missing_ranges=tuple(missing.spans()),
            retries=self.retries,
            reassignments=self.reassignments,
            processor_failures=self.processor_failures,
            detail=detail or {},
        )
        self.sim.stop()

    def _cancel_fault_timers(self) -> None:
        """Drop pending crash/retry/watchdog events once all streams finish.

        Without this, a crash scheduled past the natural finish time (or a
        still-armed watchdog) would keep the event queue alive and inflate
        the makespan of an already-complete workload.
        """
        for ev in self._fault_events:
            ev.cancel()
        self._fault_events.clear()
        if self._watchdog_event is not None:
            self._watchdog_event.cancel()
            self._watchdog_event = None

    # ------------------------------------------------------------------ frontier
    def _advance_frontier(self, stream: _Stream) -> None:
        while stream.frontier < len(stream.runs) and stream.runs[stream.frontier].complete:
            run = stream.runs[stream.frontier]
            if run.stats.complete_time is None:
                run.stats.complete_time = self.sim.now
            stream.frontier += 1
            if stream.frontier >= len(stream.runs):
                stream.complete_time = self.sim.now
                if all(s.complete_time is not None for s in self.streams):
                    self._cancel_fault_timers()
                return
            nxt = stream.runs[stream.frontier]
            serial = stream.serial_before[stream.frontier]
            if serial is not None and not nxt.initiated:
                self._run_serial_action(serial, nxt)
                return
            self._make_current(nxt)
            if not nxt.complete:
                return

    def _run_serial_action(self, serial: SerialAction, nxt: _RunState) -> None:
        """Execute the inter-phase serial action, then continue."""

        def done() -> None:
            self.trace.log(self.sim.now, EventKind.SERIAL_ACTION, serial.name)
            self._make_current(nxt)
            if nxt.complete:
                self._advance_frontier(nxt.stream)
            self._hot.dispatch_idle()

        self.machine.submit_mgmt(
            serial.duration, done, label=f"serial:{serial.name}", category="serial",
            lane=CHIEF_LANE,
        )

    def _make_current(self, run: _RunState) -> None:
        if not run.initiated:
            if not run.init_submitted:
                self._initiate(run)
            # else: a queued initiation job will promote the run when it
            # completes (see _maybe_overlap_next)
            return
        run.current = True
        run.overlap_active = False
        if run.stats.init_time is None:
            run.stats.init_time = self.sim.now
        # The predecessor's final completion processing released everything
        # its enablement engine governed; anything never enabled (e.g. an
        # untargeted remainder) is freed here.
        remaining = (GranuleSet.universe(run.n) - run.enabled) - run.assigned
        if remaining:
            run.enabled = run.enabled | remaining
            desc = self._describe(run, remaining)
            run.queued = run.queued | remaining
            self.queue.push(desc)
        self.trace.log(self.sim.now, EventKind.PHASE_START, run.spec.name, run=run.gid)
        self._maybe_overlap_next(run)
        self._hot.dispatch_idle()


def run_program(
    program: PhaseProgram | list[PhaseProgram] | tuple[PhaseProgram, ...],
    n_workers: int,
    config: OverlapConfig | None = None,
    costs: ExecutiveCosts | None = None,
    sizer: TaskSizer | None = None,
    placement: ExecutivePlacement = ExecutivePlacement.DEDICATED,
    seed: int = 0,
    max_events: int | None = 5_000_000,
    extensions: Extensions | None = None,
    admission_guard: "Callable[[AdmissionDecision], None] | None" = None,
    faults: FaultPlan | None = None,
    recovery: RecoveryPolicy | None = None,
) -> RunResult:
    """Convenience wrapper: build an :class:`ExecutiveSimulation` and run it."""
    sim = ExecutiveSimulation(
        program,
        n_workers,
        config=config,
        costs=costs,
        sizer=sizer,
        placement=placement,
        seed=seed,
        extensions=extensions,
        admission_guard=admission_guard,
        faults=faults,
        recovery=recovery,
    )
    return sim.run(max_events=max_events)
