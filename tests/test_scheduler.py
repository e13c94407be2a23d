"""Tests for the event-driven PAX executive.

These exercise the core claims: overlap fills rundown for every
overlappable mapping kind, null mappings and serial actions force
barriers, lookahead is exactly one phase deep, split strategies shift
executive cost without changing results, and multi-stream batching
raises utilization while stretching per-job wall clock.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.enablement import EnablementEngine
from repro.core.granule import GranuleSet
from repro.core.mapping import (
    ForwardIndirectMapping,
    IdentityMapping,
    MappingKind,
    NullMapping,
    ReverseIndirectMapping,
    SeamMapping,
    UniversalMapping,
)
from repro.core.overlap import OverlapConfig, OverlapPolicy, SplitStrategy
from repro.core.phase import ConstantCost, PhaseProgram, PhaseSpec, SerialAction, PhaseLink
from repro.executive import ExecutiveCosts, ExecutiveSimulation, TaskSizer, run_program
from repro.faults import (
    FaultPlan,
    PhaseAbortError,
    ProcessorCrash,
    RecoveryPolicy,
    TransientGranuleError,
)
from repro.sim.events import EventKind
from repro.sim.machine import ExecutivePlacement
from repro.sweep import build_workload
from repro.workloads.generators import mapping_of_kind, synthetic_chain
from tests.conftest import two_phase_program

MAPPINGS = {
    "universal": UniversalMapping(),
    "identity": IdentityMapping(),
    "seam": SeamMapping((-1, 0, 1)),
    "null": NullMapping(),
}


def reverse_program(n=64, fan_in=3):
    return PhaseProgram.chain(
        [PhaseSpec("A", n), PhaseSpec("B", n)],
        [ReverseIndirectMapping("IMAP", fan_in=fan_in)],
        map_generators={"IMAP": lambda rng: rng.integers(0, n, size=(fan_in, n))},
    )


def forward_program(n=64):
    return PhaseProgram.chain(
        [PhaseSpec("A", n), PhaseSpec("B", n)],
        [ForwardIndirectMapping("FMAP")],
        map_generators={"FMAP": lambda rng: rng.integers(0, n, size=n)},
    )


class TestBasicExecution:
    def test_every_granule_executed_exactly_once(self, small_costs):
        for name, m in MAPPINGS.items():
            r = run_program(two_phase_program(m), 8, config=OverlapConfig(), costs=small_costs)
            assert r.granules_executed == 128, name

    def test_all_phases_complete_in_order(self, small_costs):
        prog = synthetic_chain([MappingKind.IDENTITY, MappingKind.UNIVERSAL, MappingKind.NULL])
        r = run_program(prog, 4, config=OverlapConfig(), costs=small_costs)
        times = [s.complete_time for s in r.phase_stats]
        assert all(t is not None for t in times)
        assert times == sorted(times)

    def test_single_phase_program(self, small_costs):
        prog = PhaseProgram([PhaseSpec("only", 32)])
        r = run_program(prog, 4, costs=small_costs)
        assert r.granules_executed == 32
        assert r.phase_stats[0].complete_time == r.makespan

    def test_single_worker(self, small_costs):
        r = run_program(two_phase_program(IdentityMapping(), n=16), 1, costs=small_costs)
        assert r.granules_executed == 32

    def test_more_workers_than_granules(self, free_costs):
        r = run_program(two_phase_program(UniversalMapping(), n=4), 16, costs=free_costs)
        assert r.granules_executed == 8

    def test_empty_program_rejected(self):
        with pytest.raises(ValueError):
            ExecutiveSimulation(PhaseProgram([PhaseSpec("a", 1)], []), 2)

    def test_run_only_once(self, small_costs):
        sim = ExecutiveSimulation(two_phase_program(IdentityMapping()), 2, costs=small_costs)
        sim.run()
        with pytest.raises(RuntimeError):
            sim.run()

    def test_deterministic_replay(self, small_costs):
        prog = synthetic_chain(
            [MappingKind.IDENTITY, MappingKind.REVERSE_INDIRECT], n_granules=48
        )
        r1 = run_program(prog, 6, config=OverlapConfig(), costs=small_costs, seed=11)
        r2 = run_program(prog, 6, config=OverlapConfig(), costs=small_costs, seed=11)
        assert r1.makespan == r2.makespan
        assert r1.mgmt_time == r2.mgmt_time
        assert [s.complete_time for s in r1.phase_stats] == [
            s.complete_time for s in r2.phase_stats
        ]

    def test_different_seed_changes_nothing_with_constant_costs(self, small_costs):
        prog = two_phase_program(IdentityMapping())
        r1 = run_program(prog, 4, costs=small_costs, seed=1)
        r2 = run_program(prog, 4, costs=small_costs, seed=2)
        assert r1.makespan == r2.makespan  # no stochastic elements anywhere


class TestOverlapBeatsBarrier:
    @pytest.mark.parametrize("name", ["universal", "identity", "seam"])
    def test_overlap_reduces_makespan(self, name, small_costs):
        prog = two_phase_program(MAPPINGS[name])
        rb = run_program(prog, 8, config=OverlapConfig.barrier(), costs=small_costs)
        ro = run_program(prog, 8, config=OverlapConfig(), costs=small_costs)
        assert ro.makespan < rb.makespan, name
        assert ro.utilization > rb.utilization, name

    def test_null_mapping_shows_no_gain(self, small_costs):
        prog = two_phase_program(NullMapping())
        rb = run_program(prog, 8, config=OverlapConfig.barrier(), costs=small_costs)
        ro = run_program(prog, 8, config=OverlapConfig(), costs=small_costs)
        assert ro.makespan == rb.makespan

    def test_reverse_indirect_overlap_helps_at_low_fan_in(self, small_costs):
        # fan_in=1: each successor granule waits on a single random
        # predecessor, so enablements arrive throughout the phase
        prog = reverse_program(fan_in=1)
        rb = run_program(prog, 8, config=OverlapConfig.barrier(), costs=small_costs, seed=3)
        ro = run_program(prog, 8, config=OverlapConfig(), costs=small_costs, seed=3)
        assert ro.makespan < rb.makespan

    def test_reverse_indirect_can_be_self_defeating_at_high_fan_in(self, small_costs):
        # the paper's warning: with wide random fan-in, successor granules
        # are enabled only near phase end, and the composite-map plus
        # enablement overhead can exceed the rundown savings
        prog = reverse_program(fan_in=3)
        rb = run_program(prog, 8, config=OverlapConfig.barrier(), costs=small_costs, seed=3)
        ro = run_program(prog, 8, config=OverlapConfig(), costs=small_costs, seed=3)
        assert ro.makespan >= rb.makespan

    def test_forward_indirect_overlap_helps(self, small_costs):
        prog = forward_program()
        rb = run_program(prog, 8, config=OverlapConfig.barrier(), costs=small_costs, seed=3)
        ro = run_program(prog, 8, config=OverlapConfig(), costs=small_costs, seed=3)
        assert ro.makespan < rb.makespan

    def test_overlapped_phase_starts_before_predecessor_ends(self, free_costs):
        # 68 granules on 8 workers leave a final-wave shortfall — the
        # rundown the successor's tasks fill
        prog = two_phase_program(UniversalMapping(), n=68)
        r = run_program(prog, 8, config=OverlapConfig(), costs=free_costs)
        pred, succ = r.phase_stats
        assert succ.first_task_start is not None and pred.complete_time is not None
        assert succ.first_task_start < pred.complete_time
        assert succ.overlapped

    def test_barrier_phase_starts_after_predecessor_ends(self, free_costs):
        prog = two_phase_program(UniversalMapping())
        r = run_program(prog, 8, config=OverlapConfig.barrier(), costs=free_costs)
        pred, succ = r.phase_stats
        assert succ.first_task_start >= pred.complete_time
        assert not succ.overlapped


class TestOrderingConstraints:
    def test_one_phase_lookahead_only(self, free_costs):
        # three universal phases: phase 2 must not start before phase 0 ends
        prog = synthetic_chain([MappingKind.UNIVERSAL, MappingKind.UNIVERSAL], n_granules=32)
        r = run_program(prog, 4, config=OverlapConfig(), costs=free_costs)
        p0, p1, p2 = r.phase_stats
        assert p2.first_task_start >= p0.complete_time

    def test_identity_granule_never_runs_before_enabler(self, free_costs):
        # with identity mapping, successor granule i's task must start
        # after the predecessor task containing i completed
        prog = two_phase_program(IdentityMapping(), n=32)
        sim = ExecutiveSimulation(prog, 4, config=OverlapConfig(), costs=free_costs)
        r = sim.run()
        starts = {}
        ends = {}
        for rec in r.trace.records:
            if rec.kind is EventKind.TASK_START and rec.detail["label"].startswith("B#1"):
                starts[rec.detail["label"]] = rec.time
            if rec.kind is EventKind.TASK_END and rec.detail["label"].startswith("A#0"):
                ends[rec.detail["label"]] = rec.time
        # every B task must start at or after some A end (first A end)
        if starts and ends:
            assert min(starts.values()) >= min(ends.values())

    def test_serial_action_forces_barrier_and_costs_time(self, small_costs):
        phases = [PhaseSpec("a", 16), PhaseSpec("b", 16)]
        prog = PhaseProgram(
            phases,
            ["a", SerialAction("decide", 5.0), "b"],
            [PhaseLink("a", "b", NullMapping())],
        )
        r = run_program(prog, 4, config=OverlapConfig(), costs=small_costs)
        assert r.serial_time == pytest.approx(5.0)
        a, b = r.phase_stats
        assert b.first_task_start >= a.complete_time + 5.0
        assert not b.overlapped


class TestSplitStrategies:
    @pytest.mark.parametrize("strategy", list(SplitStrategy))
    def test_all_strategies_complete_correctly(self, strategy, small_costs):
        prog = two_phase_program(IdentityMapping(), n=96)
        r = run_program(
            prog, 8, config=OverlapConfig(split_strategy=strategy), costs=small_costs
        )
        assert r.granules_executed == 192

    def test_demand_charges_most_on_critical_path(self, small_costs):
        # demand splitting inflates assignment time; the deferred
        # successor-splitting task moves that cost off the critical path
        prog = two_phase_program(IdentityMapping(), n=128)
        makespans = {}
        for strategy in SplitStrategy:
            r = run_program(
                prog, 8, config=OverlapConfig(split_strategy=strategy), costs=small_costs
            )
            makespans[strategy] = r.makespan
        assert makespans[SplitStrategy.PRESPLIT] <= makespans[SplitStrategy.DEMAND]

    def test_strategies_do_not_apply_to_universal(self, small_costs):
        # universal overlap needs no successor splits: all strategies agree
        prog = two_phase_program(UniversalMapping(), n=96)
        spans = {
            s: run_program(prog, 8, config=OverlapConfig(split_strategy=s), costs=small_costs).makespan
            for s in SplitStrategy
        }
        assert len(set(spans.values())) == 1


class TestIndirectControls:
    def test_elevation_accelerates_enablement(self, small_costs):
        n = 96
        # every successor granule depends on the tail cluster of
        # predecessors, which the natural dispatch order runs last;
        # elevation pulls those forward so successor work exists in time
        # to fill the rundown
        prog = PhaseProgram.chain(
            [PhaseSpec("A", n), PhaseSpec("B", n)],
            [ReverseIndirectMapping("IMAP", fan_in=1)],
            map_generators={"IMAP": lambda rng: (n - 6 + (np.arange(n) % 6)).copy()},
        )
        base = run_program(
            prog, 8,
            config=OverlapConfig(elevate_enabling_granules=False, composite_group_size=6),
            costs=small_costs,
        )
        elev = run_program(
            prog, 8,
            config=OverlapConfig(elevate_enabling_granules=True, composite_group_size=6),
            costs=small_costs,
        )
        assert elev.phase_stats[1].first_task_start < base.phase_stats[1].first_task_start
        assert elev.makespan <= base.makespan + 1e-9

    def test_target_fraction_limits_map_cost(self):
        costs = ExecutiveCosts(0.1, 0.1, 0.1, 0.05, 0.05, 0.05, map_entry=0.5)
        prog = reverse_program(n=64, fan_in=4)
        full = run_program(prog, 8, config=OverlapConfig(target_fraction=1.0), costs=costs, seed=5)
        part = run_program(prog, 8, config=OverlapConfig(target_fraction=0.25), costs=costs, seed=5)
        assert part.mgmt_time < full.mgmt_time
        assert part.granules_executed == full.granules_executed == 128

    def test_composite_group_size_tradeoff_completes(self, small_costs):
        for gs in (1, 4, 16, 64):
            r = run_program(
                reverse_program(), 8, config=OverlapConfig(composite_group_size=gs),
                costs=small_costs, seed=2,
            )
            assert r.granules_executed == 128

    def test_missing_map_generator_raises(self, small_costs):
        prog = PhaseProgram.chain(
            [PhaseSpec("A", 8), PhaseSpec("B", 8)],
            [ReverseIndirectMapping("NOPE", fan_in=1)],
        )
        with pytest.raises(KeyError):
            run_program(prog, 2, config=OverlapConfig(), costs=small_costs)


class TestSafetyVerification:
    def _phase(self, name, src, dst, n=24):
        from repro.core.access import AccessPattern, AffineIndex, ArrayRef

        return PhaseSpec(
            name,
            n,
            access=AccessPattern(
                reads=(ArrayRef(src, AffineIndex()),), writes=(ArrayRef(dst, AffineIndex()),)
            ),
        )

    def test_safe_pair_overlaps(self, free_costs):
        prog = PhaseProgram.chain(
            [self._phase("p", "A", "B"), self._phase("q", "B", "C")], [IdentityMapping()]
        )
        r = run_program(prog, 4, config=OverlapConfig(verify_safety=True), costs=free_costs)
        assert r.phase_stats[1].overlapped

    def test_unsafe_claim_falls_back_to_barrier(self, free_costs):
        # a universal mapping claimed over a true dependence is rejected
        prog = PhaseProgram.chain(
            [self._phase("p", "A", "B"), self._phase("q", "B", "C")], [UniversalMapping()]
        )
        r = run_program(prog, 4, config=OverlapConfig(verify_safety=True), costs=free_costs)
        assert not r.phase_stats[1].overlapped
        assert r.phase_stats[1].first_task_start >= r.phase_stats[0].complete_time
        assert r.granules_executed == 48

    def test_missing_footprint_falls_back(self, free_costs):
        prog = two_phase_program(UniversalMapping())
        r = run_program(prog, 4, config=OverlapConfig(verify_safety=True), costs=free_costs)
        assert not r.phase_stats[1].overlapped


class TestPlacement:
    def test_shared_executive_steals_worker_time(self):
        costs = ExecutiveCosts(0.2, 0.2, 0.2, 0.1, 0.1, 0.1, 0.01)
        prog = two_phase_program(IdentityMapping())
        ded = run_program(prog, 4, config=OverlapConfig(), costs=costs,
                          placement=ExecutivePlacement.DEDICATED)
        sha = run_program(prog, 4, config=OverlapConfig(), costs=costs,
                          placement=ExecutivePlacement.SHARED)
        assert sha.makespan > ded.makespan
        assert sha.granules_executed == ded.granules_executed

    def test_shared_host_mgmt_recorded_on_p0(self):
        costs = ExecutiveCosts(0.2, 0.2, 0.2, 0.1, 0.1, 0.1, 0.01)
        r = run_program(two_phase_program(IdentityMapping(), n=16), 2, costs=costs,
                        placement=ExecutivePlacement.SHARED)
        assert r.trace.busy_time("P0", "mgmt") > 0


class TestMultiStream:
    def job(self, n_phases=3, n=32):
        return PhaseProgram.chain(
            [PhaseSpec(f"p{i}", n) for i in range(n_phases)], [NullMapping()] * (n_phases - 1)
        )

    def test_batch_raises_utilization(self, small_costs):
        solo = run_program(self.job(), 8, config=OverlapConfig.barrier(), costs=small_costs)
        batch = run_program([self.job(), self.job()], 8,
                            config=OverlapConfig.barrier(), costs=small_costs)
        assert batch.utilization > solo.utilization

    def test_batch_stretches_wall_clock(self, small_costs):
        solo = run_program(self.job(), 8, config=OverlapConfig.barrier(), costs=small_costs)
        batch = run_program([self.job(), self.job()], 8,
                            config=OverlapConfig.barrier(), costs=small_costs)
        solo_wall = solo.stream_stats[0].wall_clock
        for s in batch.stream_stats:
            assert s.wall_clock > solo_wall

    def test_streams_complete_independently(self, small_costs):
        r = run_program([self.job(2), self.job(4)], 4,
                        config=OverlapConfig.barrier(), costs=small_costs)
        assert len(r.stream_stats) == 2
        assert r.granules_executed == 2 * 32 + 4 * 32

    def test_streams_with_overlap(self, small_costs):
        jobs = [
            PhaseProgram.chain([PhaseSpec("a", 32), PhaseSpec("b", 32)], [IdentityMapping()]),
            PhaseProgram.chain([PhaseSpec("a", 32), PhaseSpec("b", 32)], [UniversalMapping()]),
        ]
        r = run_program(jobs, 4, config=OverlapConfig(), costs=small_costs)
        assert r.granules_executed == 128


class TestRundownStats:
    def test_rundown_window_recorded(self, small_costs):
        r = run_program(two_phase_program(IdentityMapping()), 8, costs=small_costs)
        for s in r.phase_stats:
            w = s.rundown_window
            assert w is not None and w[0] <= w[1]

    def test_tasks_counted(self, small_costs, sizer):
        r = run_program(two_phase_program(IdentityMapping(), n=64), 8,
                        config=OverlapConfig.barrier(), costs=small_costs, sizer=sizer)
        # 64 granules / 4 per task = 16 tasks per phase
        assert r.phase_stats[0].tasks == 16


def _record_instances(monkeypatch, cls) -> list[weakref.ref]:
    refs: list[weakref.ref] = []
    init = cls.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(cls, "__init__", recording)
    return refs


def test_run_releases_enablement_engines(monkeypatch):
    # a finished run must be freed by reference counting alone: with GC
    # disabled, neither the simulation (its hot loop and the machine's
    # callbacks point back at it) nor its engines may stay alive
    engines = _record_instances(monkeypatch, EnablementEngine)
    sims = _record_instances(monkeypatch, ExecutiveSimulation)
    program = build_workload("reverse-indirect", {"n": 256, "fan_in": 2})
    gc.disable()
    try:
        run_program(program, 4, seed=0)
        for _ in range(3):
            run_program(build_workload("casper"), 8, seed=0)
        assert engines, "the overlapped link must build an engine"
        assert [ref for ref in engines if ref() is not None] == []
        assert len(sims) == 4
        assert [ref for ref in sims if ref() is not None] == []
    finally:
        gc.enable()


def test_faulted_run_is_freed_without_gc(monkeypatch):
    # the barrier watchdog re-arms itself and crashes are scheduled
    # callbacks; neither may keep a finished or aborted run alive
    sims = _record_instances(monkeypatch, ExecutiveSimulation)
    gc.disable()
    try:
        run_program(
            build_workload("casper"),
            8,
            seed=0,
            faults=FaultPlan(
                seed=1, faults=(TransientGranuleError(0.1), ProcessorCrash(2, 10.0))
            ),
            recovery=RecoveryPolicy(max_retries=8, watchdog_timeout=5.0),
        )
        with pytest.raises(PhaseAbortError):
            run_program(
                build_workload("identity"),
                2,
                seed=0,
                faults=FaultPlan(faults=(ProcessorCrash(0, 1.0), ProcessorCrash(1, 1.0))),
                recovery=RecoveryPolicy(max_retries=1, watchdog_timeout=2.0),
            )
        assert len(sims) == 2
        assert [ref for ref in sims if ref() is not None] == []
    finally:
        gc.enable()


# ---------------------------------------------------------------- properties
@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.sampled_from(
            [MappingKind.UNIVERSAL, MappingKind.IDENTITY, MappingKind.SEAM,
             MappingKind.NULL, MappingKind.REVERSE_INDIRECT, MappingKind.FORWARD_INDIRECT]
        ),
        min_size=1,
        max_size=4,
    ),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=4, max_value=40),
    st.integers(min_value=0, max_value=999),
)
def test_overlap_rarely_worse_with_free_executive(kinds, workers, granules, seed):
    """With a zero-cost executive, next-phase overlap essentially only helps.

    "Essentially": greedy non-preemptive list scheduling is subject to
    Graham's anomalies — added flexibility (early-released successor
    chunks) can occasionally fragment descriptions into one extra wave.
    The anomaly is bounded; we allow one task-sized slack over the
    barrier schedule, never more.
    """
    prog = synthetic_chain(kinds, n_granules=granules, fan_in=2)
    rb = run_program(prog, workers, config=OverlapConfig.barrier(),
                     costs=ExecutiveCosts.free(), seed=seed)
    ro = run_program(prog, workers, config=OverlapConfig(),
                     costs=ExecutiveCosts.free(), seed=seed)
    assert ro.granules_executed == rb.granules_executed == prog.total_granules()
    # one task is at most ceil(granules / (2 * workers)) granule-times
    task_time = -(-granules // (2 * workers))
    assert ro.makespan <= rb.makespan + task_time + 1e-9


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(list(SplitStrategy)),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=99),
)
def test_every_configuration_executes_all_granules(strategy, workers, seed):
    prog = synthetic_chain(
        [MappingKind.IDENTITY, MappingKind.SEAM, MappingKind.REVERSE_INDIRECT],
        n_granules=[24, 30, 18, 26],
        fan_in=2,
    )
    r = run_program(
        prog,
        workers,
        config=OverlapConfig(split_strategy=strategy, elevate_enabling_granules=bool(seed % 2)),
        costs=ExecutiveCosts(0.05, 0.05, 0.05, 0.02, 0.02, 0.02, 0.001),
        seed=seed,
    )
    assert r.granules_executed == 24 + 30 + 18 + 26
    assert all(s.complete_time is not None for s in r.phase_stats)
