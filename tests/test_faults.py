"""Fault injection and recovery: plans, injectors, crash recovery, aborts.

The acceptance property throughout: a run that loses processors or
retries transient failures must finish with *exactly* the granule
completions of its fault-free twin — recovery changes the schedule, never
the result.  The seed used for the deterministic fault draws can be
swept from CI via ``REPRO_FAULT_SEED``.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.granule import GranuleSet
from repro.core.mapping import IdentityMapping, ReverseIndirectMapping, UniversalMapping
from repro.core.overlap import OverlapConfig
from repro.core.phase import ConstantCost, PhaseProgram, PhaseSpec
from repro.core.enablement import EnablementEngine
from repro.executive import ExecutiveSimulation, run_program
from repro.faults import (
    FaultInjector,
    FaultPlan,
    PhaseAbortError,
    ProcessorCrash,
    RecoveryPolicy,
    StragglerSlowdown,
    SweepWorkerKill,
    TransientGranuleError,
    WorkerThreadKill,
)
from repro.obs import GranuleRetried, MetricsRegistry, Telemetry, record_run_metrics
from repro.sim.engine import Simulator
from repro.sim.machine import ExecutivePlacement, Machine, ProcessorState
from repro.sim.trace import Trace
from tests.conftest import two_phase_program

#: CI sweeps this to exercise different deterministic fault draws.
FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))


# ------------------------------------------------------------------ plan


class TestFaultPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            ProcessorCrash(-1, 1.0)
        with pytest.raises(ValueError):
            ProcessorCrash(0, -1.0)
        with pytest.raises(ValueError):
            StragglerSlowdown(0, 0.5)
        with pytest.raises(ValueError):
            TransientGranuleError(1.5)
        with pytest.raises(ValueError):
            WorkerThreadKill(-1)
        with pytest.raises(ValueError):
            SweepWorkerKill(-2)

    def test_views_partition_faults(self):
        plan = FaultPlan(
            seed=7,
            faults=(
                ProcessorCrash(1, 5.0),
                StragglerSlowdown(2, 3.0),
                TransientGranuleError(0.1),
                WorkerThreadKill(0, after_granules=2),
                SweepWorkerKill(3),
            ),
        )
        assert [c.processor for c in plan.crashes] == [1]
        assert [s.factor for s in plan.stragglers] == [3.0]
        assert [t.probability for t in plan.transients] == [0.1]
        assert [k.worker for k in plan.thread_kills] == [0]
        assert [k.replication for k in plan.sweep_kills] == [3]

    def test_serde_roundtrip(self):
        plan = FaultPlan(
            seed=FAULT_SEED,
            faults=(
                ProcessorCrash(1, 5.0),
                StragglerSlowdown(2, 3.0, from_time=1.0),
                TransientGranuleError(0.25, phase="B"),
                WorkerThreadKill(1, after_granules=4),
                SweepWorkerKill(0),
            ),
        )
        again = FaultPlan.from_dict(plan.to_dict())
        assert again == plan

    def test_recovery_backoff_caps(self):
        pol = RecoveryPolicy(backoff_base=0.5, backoff_cap=2.0)
        assert pol.backoff(1) == 0.5
        assert pol.backoff(2) == 1.0
        assert pol.backoff(3) == 2.0
        assert pol.backoff(10) == 2.0  # capped


class TestInjector:
    def test_transient_draw_is_deterministic_and_order_free(self):
        plan = FaultPlan(seed=FAULT_SEED, faults=(TransientGranuleError(0.5),))
        a = FaultInjector(plan)
        b = FaultInjector(plan)
        keys = [("A", 0, lo, lo + 8, att) for lo in range(0, 64, 8) for att in (0, 1)]
        draws_a = [a.task_fails(*k) for k in keys]
        draws_b = [b.task_fails(*k) for k in reversed(keys)]
        assert draws_a == list(reversed(draws_b))
        assert any(draws_a) and not all(draws_a)  # p=0.5 over 16 draws

    def test_transient_phase_filter(self):
        plan = FaultPlan(seed=0, faults=(TransientGranuleError(1.0, phase="B"),))
        inj = FaultInjector(plan)
        assert not inj.task_fails("A", 0, 0, 8, 0)
        assert inj.task_fails("B", 1, 0, 8, 0)

    def test_slowdown_composes_and_respects_from_time(self):
        plan = FaultPlan(
            faults=(
                StragglerSlowdown(0, 2.0, from_time=10.0),
                StragglerSlowdown(0, 3.0),
            )
        )
        inj = FaultInjector(plan)
        assert inj.slowdown(0, 0.0) == 3.0
        assert inj.slowdown(0, 10.0) == 6.0
        assert inj.slowdown(1, 50.0) == 1.0

    def test_thread_kill_lookup(self):
        plan = FaultPlan(faults=(WorkerThreadKill(2, after_granules=5),))
        inj = FaultInjector(plan)
        assert inj.thread_kill_after(2) == 5
        assert inj.thread_kill_after(0) is None

    def test_sweep_kill_lookup(self):
        inj = FaultInjector(FaultPlan(faults=(SweepWorkerKill(1),)))
        assert inj.kills_replication(1)
        assert not inj.kills_replication(0)


# --------------------------------------------------------------- machine


class TestMachineFailure:
    def make(self, n=3, placement=ExecutivePlacement.DEDICATED):
        sim, tr = Simulator(), Trace()
        return sim, tr, Machine(sim, tr, n, placement)

    def test_fail_idle_processor(self):
        sim, tr, m = self.make()
        p = m.processors[0]
        m.fail_processor(p)
        assert p.state is ProcessorState.FAILED
        assert not m.start_task(p, 1.0, lambda p: None)
        assert len(m.live_workers()) == 2
        assert [f.index for f in m.failed_workers()] == [0]

    def test_fail_computing_processor_loses_task(self):
        sim, tr, m = self.make()
        done, lost = [], []
        m.on_task_lost = lambda p: lost.append(p.index)
        p = m.processors[1]
        m.start_task(p, 5.0, lambda p: done.append(p.index), label="t")
        sim.schedule(2.0, lambda: m.fail_processor(p))
        sim.run()
        assert done == []  # completion callback never fires
        assert lost == [1]
        assert p.state is ProcessorState.FAILED

    def test_fail_is_idempotent(self):
        sim, tr, m = self.make()
        lost = []
        m.on_task_lost = lambda p: lost.append(p.index)
        p = m.processors[0]
        m.fail_processor(p)
        m.fail_processor(p)
        assert lost == []  # idle processor: nothing lost, no double hooks
        assert len(m.failed_workers()) == 1

    def test_refuses_to_crash_executive_host(self):
        sim, tr, m = self.make(placement=ExecutivePlacement.SHARED)
        with pytest.raises(ValueError, match="executive"):
            m.fail_processor(m.processors[0])


# -------------------------------------------------- crash recovery (tentpole)


def run_pair(program, n_workers, plan, recovery=None, **kw):
    """Run the same program fault-free and under ``plan``; return both sims."""
    clean = ExecutiveSimulation(program, n_workers, seed=FAULT_SEED, **kw)
    clean.run()
    faulty = ExecutiveSimulation(
        program, n_workers, seed=FAULT_SEED, faults=plan, recovery=recovery, **kw
    )
    faulty.run()
    return clean, faulty


class TestCrashRecovery:
    def test_crash_one_of_p_completes_identically(self):
        """The PR's acceptance criterion: kill 1 of P mid-rundown, finish anyway."""
        program = two_phase_program(IdentityMapping(), n=64)
        plan = FaultPlan(seed=FAULT_SEED, faults=(ProcessorCrash(1, 5.0),))

        clean = ExecutiveSimulation(program, 4, seed=FAULT_SEED)
        r_clean = clean.run()
        faulty = ExecutiveSimulation(program, 4, seed=FAULT_SEED, faults=plan)
        r_faulty = faulty.run()

        # identical completion sets, run by run
        for run_c, run_f in zip(clean.runs, faulty.runs):
            assert run_c.completed == run_f.completed
        assert r_faulty.granules_executed == r_clean.granules_executed == 128
        # losing a worker can only stretch the makespan
        assert r_faulty.makespan >= r_clean.makespan
        assert r_faulty.processor_failures == 1
        assert r_faulty.stalls >= 1
        assert r_faulty.reassignments >= 1
        # the crash, the stall and the reassignment all show in the metrics
        metrics = MetricsRegistry()
        record_run_metrics(r_faulty, metrics)
        assert metrics.get("faults.processor_crashes_total").total() >= 1
        assert metrics.get("faults.phase_stalls_total").total() >= 1
        retries = metrics.get("faults.retries_total").series()
        assert sum(v for key, v in retries.items() if ("reason", "crash") in key) >= 1

    def test_crash_with_overlap_and_indirect_mapping(self):
        n, fan_in = 48, 3
        program = PhaseProgram.chain(
            [PhaseSpec("A", n, ConstantCost(1.0)), PhaseSpec("B", n, ConstantCost(1.0))],
            [ReverseIndirectMapping("IMAP", fan_in=fan_in)],
            map_generators={"IMAP": lambda rng: rng.integers(0, n, size=(fan_in, n))},
        )
        plan = FaultPlan(seed=FAULT_SEED, faults=(ProcessorCrash(0, 4.0),))
        clean, faulty = run_pair(program, 4, plan)
        for run_c, run_f in zip(clean.runs, faulty.runs):
            assert run_c.completed == run_f.completed

    def test_two_crashes_still_complete(self):
        program = two_phase_program(UniversalMapping(), n=32)
        plan = FaultPlan(
            seed=FAULT_SEED,
            faults=(ProcessorCrash(1, 3.0), ProcessorCrash(2, 6.0)),
        )
        clean, faulty = run_pair(program, 4, plan)
        for run_c, run_f in zip(clean.runs, faulty.runs):
            assert run_c.completed == run_f.completed
        assert len(faulty.machine.live_workers()) == 2

    def test_crash_after_completion_is_harmless(self):
        program = two_phase_program(IdentityMapping(), n=16)
        plan = FaultPlan(faults=(ProcessorCrash(1, 1e9),))
        clean, faulty = run_pair(program, 4, plan)
        for run_c, run_f in zip(clean.runs, faulty.runs):
            assert run_c.completed == run_f.completed
        # the pending crash timer must not inflate the clock
        assert faulty.sim.now < 1e9

    def test_armed_empty_plan_changes_nothing(self):
        program = two_phase_program(IdentityMapping(), n=64)
        clean, armed = run_pair(program, 4, FaultPlan())
        assert armed.sim.now == clean.sim.now
        for run_c, run_f in zip(clean.runs, armed.runs):
            assert run_c.completed == run_f.completed

    def test_crash_out_of_range_rejected(self):
        program = two_phase_program(IdentityMapping(), n=16)
        plan = FaultPlan(faults=(ProcessorCrash(99, 1.0),))
        with pytest.raises(ValueError):
            ExecutiveSimulation(program, 4, faults=plan)

    def test_crash_on_shared_executive_host_rejected(self):
        program = two_phase_program(IdentityMapping(), n=16)
        plan = FaultPlan(faults=(ProcessorCrash(0, 1.0),))
        with pytest.raises(ValueError):
            ExecutiveSimulation(
                program, 4, placement=ExecutivePlacement.SHARED, faults=plan
            )


class TestStragglersAndTransients:
    def test_straggler_stretches_makespan_not_results(self):
        program = two_phase_program(IdentityMapping(), n=64)
        plan = FaultPlan(faults=(StragglerSlowdown(0, 4.0),))
        clean, faulty = run_pair(program, 4, plan)
        assert faulty.sim.now > clean.sim.now
        for run_c, run_f in zip(clean.runs, faulty.runs):
            assert run_c.completed == run_f.completed

    def test_transients_are_retried_to_completion(self):
        program = two_phase_program(IdentityMapping(), n=64)
        plan = FaultPlan(
            seed=FAULT_SEED, faults=(TransientGranuleError(0.2),)
        )
        recovery = RecoveryPolicy(max_retries=8, backoff_base=0.05, backoff_cap=0.4)
        clean, faulty = run_pair(program, 4, plan, recovery=recovery)
        r = faulty._result()
        assert r.retries > 0
        for run_c, run_f in zip(clean.runs, faulty.runs):
            assert run_c.completed == run_f.completed

    def test_transient_retry_counts_are_reproducible(self):
        program = two_phase_program(IdentityMapping(), n=64)
        plan = FaultPlan(seed=FAULT_SEED, faults=(TransientGranuleError(0.2),))
        recovery = RecoveryPolicy(max_retries=8, backoff_base=0.05, backoff_cap=0.4)
        runs = []
        for _ in range(2):
            s = ExecutiveSimulation(program, 4, faults=plan, recovery=recovery)
            runs.append(s.run())
        assert runs[0].retries == runs[1].retries
        assert runs[0].makespan == runs[1].makespan


class TestAborts:
    def test_retries_exhausted_aborts_with_report(self):
        program = two_phase_program(IdentityMapping(), n=16)
        plan = FaultPlan(faults=(TransientGranuleError(1.0, phase="A"),))
        recovery = RecoveryPolicy(max_retries=2, backoff_base=0.01, backoff_cap=0.02)
        sim = ExecutiveSimulation(program, 4, faults=plan, recovery=recovery)
        with pytest.raises(PhaseAbortError) as exc:
            sim.run()
        report = exc.value.report
        assert report.reason == "retries_exhausted"
        assert report.phase == "A"
        assert report.retries >= 2
        assert report.missing_granules > 0
        assert report.missing_ranges  # structured, serializable
        data = report.to_dict()
        assert data["reason"] == "retries_exhausted"
        assert "A" in report.summary()

    def test_all_workers_dead_aborts_no_live_workers(self):
        program = two_phase_program(IdentityMapping(), n=64)
        plan = FaultPlan(
            faults=tuple(ProcessorCrash(i, 2.0 + i) for i in range(4)),
        )
        recovery = RecoveryPolicy(watchdog_timeout=3.0)
        sim = ExecutiveSimulation(program, 4, faults=plan, recovery=recovery)
        with pytest.raises(PhaseAbortError) as exc:
            sim.run()
        assert exc.value.report.reason == "no_live_workers"
        assert exc.value.report.processor_failures == 4

    def test_watchdog_disabled_means_no_stall_detection(self):
        # with the watchdog off, a fully-crashed machine just stops making
        # progress; the simulator drains and the generic incomplete-stream
        # check fires instead of a structured PhaseAbortError
        program = two_phase_program(IdentityMapping(), n=16)
        plan = FaultPlan(faults=tuple(ProcessorCrash(i, 1.0) for i in range(2)))
        recovery = RecoveryPolicy(watchdog_timeout=None)
        sim = ExecutiveSimulation(program, 2, faults=plan, recovery=recovery)
        with pytest.raises(RuntimeError, match="incomplete"):
            sim.run()
        assert sim.failure_report is None


# ---------------------------------------------- run_program surface


class TestRunProgramSurface:
    def test_run_program_accepts_fault_plan(self, small_costs):
        program = two_phase_program(IdentityMapping(), n=32)
        plan = FaultPlan(seed=FAULT_SEED, faults=(ProcessorCrash(1, 2.0),))
        r = run_program(
            program, 4, costs=small_costs, faults=plan,
            recovery=RecoveryPolicy(watchdog_timeout=5.0),
        )
        assert r.granules_executed == 64
        assert r.processor_failures == 1

    def test_admission_guard_sees_no_violation_under_retries(self, small_costs):
        """Satellite: retried granules must not trip the static cross-check."""
        from repro.lint import AdmissionGuard

        program = two_phase_program(IdentityMapping(), n=64)
        guard = AdmissionGuard(program)
        plan = FaultPlan(
            seed=FAULT_SEED,
            faults=(TransientGranuleError(0.3), ProcessorCrash(2, 4.0)),
        )
        r = run_program(
            program, 4, config=OverlapConfig(), costs=small_costs,
            faults=plan,
            recovery=RecoveryPolicy(max_retries=10, backoff_base=0.05),
            admission_guard=guard,
        )
        assert guard.checked > 0  # the guard actually ran — and never raised
        assert r.granules_executed == 128


# ------------------------------------------- enablement idempotence


class TestEnablementIdempotence:
    """Satellite: duplicate/replayed completions must be strict no-ops."""

    @staticmethod
    def build(n=24, fan_in=3, seed=0):
        import numpy as np

        rng = np.random.default_rng(seed)
        mapping = ReverseIndirectMapping("IMAP", fan_in=fan_in)
        maps = {"IMAP": rng.integers(0, n, size=(fan_in, n))}
        return EnablementEngine(mapping, n, n, maps=maps)

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_replayed_completions_are_no_ops(self, data):
        n = 24
        order = data.draw(st.permutations(range(n)))
        # interleave replays of already-delivered granules
        replay_at = data.draw(
            st.lists(st.integers(min_value=1, max_value=n - 1), max_size=8)
        )
        ref = self.build(n)
        dut = self.build(n)
        delivered: list[int] = []
        enabled_total = GranuleSet.empty()
        for i, g in enumerate(order):
            delta = GranuleSet.from_ids([g])
            assert ref.notify(delta) == dut.notify(delta)
            delivered.append(g)
            for r in replay_at:
                if r == i and delivered:
                    replay = GranuleSet.from_ids(delivered[: r + 1])
                    got = dut.notify(replay)
                    assert not got, "replayed completions re-enabled granules"
        assert dut.enabled == ref.enabled
        assert dut.completed == ref.completed
        enabled_total = dut.enabled
        assert enabled_total == GranuleSet.universe(n)

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_overlapping_deltas_never_double_enable(self, data):
        n = 24
        ref = self.build(n)
        dut = self.build(n)
        chunks = data.draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=n - 1),
                    st.integers(min_value=1, max_value=8),
                ),
                min_size=1,
                max_size=16,
            )
        )
        seen = GranuleSet.empty()
        returned: list[GranuleSet] = []
        for lo, width in chunks:
            delta = GranuleSet.from_ranges([(lo, min(lo + width, n))])
            fresh = delta - seen
            seen = seen | delta
            got_dut = dut.notify(delta)
            got_ref = ref.notify(fresh) if fresh else GranuleSet.empty()
            assert got_dut == got_ref
            returned.append(got_dut)
        # no successor granule is ever announced twice
        total = 0
        for s in returned:
            total += len(s)
        assert total == len(GranuleSet.union_all(returned) if returned else GranuleSet.empty())


# ------------------------------------------------- threaded runtime


class TestThreadedFaults:
    """Worker kills and transients in the real (host-thread) runtime."""

    def test_killed_workers_do_not_corrupt_results(self):
        import numpy as np

        from repro.runtime import run_fragment_threaded
        from repro.workloads.fragments import identity_fragment

        plan = FaultPlan(
            seed=FAULT_SEED,
            faults=(WorkerThreadKill(0, after_granules=3), WorkerThreadKill(2)),
        )
        produced, expected = run_fragment_threaded(
            identity_fragment(256), n_workers=4, seed=2, fault_plan=plan
        )
        for key, val in expected.items():
            assert np.allclose(produced[key], val)

    def test_transient_kernel_errors_are_retried(self):
        import numpy as np

        from repro.runtime import run_fragment_threaded
        from repro.workloads.fragments import universal_fragment

        telemetry = Telemetry()
        retried = []
        telemetry.bus.subscribe(GranuleRetried, retried.append)
        plan = FaultPlan(seed=FAULT_SEED, faults=(TransientGranuleError(0.1),))
        produced, expected = run_fragment_threaded(
            universal_fragment(200), n_workers=4, seed=3,
            fault_plan=plan, max_retries=20, telemetry=telemetry,
        )
        for key, val in expected.items():
            assert np.allclose(produced[key], val)
        assert retried  # transients actually fired and were retried

    def test_transient_exhaustion_raises(self):
        from repro.runtime import run_fragment_threaded
        from repro.workloads.fragments import identity_fragment

        plan = FaultPlan(faults=(TransientGranuleError(1.0),))
        with pytest.raises(RuntimeError, match="failed 3 times"):
            run_fragment_threaded(
                identity_fragment(64), n_workers=2, fault_plan=plan, max_retries=2
            )

    def test_all_workers_dead_raises_instead_of_hanging(self):
        from repro.runtime import run_fragment_threaded
        from repro.workloads.fragments import identity_fragment

        plan = FaultPlan(
            faults=tuple(WorkerThreadKill(i, after_granules=1) for i in range(3))
        )
        with pytest.raises(RuntimeError, match="workers alive"):
            run_fragment_threaded(
                identity_fragment(256), n_workers=3, fault_plan=plan, join_timeout=30.0
            )
