"""The paper's overlap condition, checked on generated runs.

A successor granule ``r`` may start only when ``PARALLEL(q, r)`` holds
for every uncompleted current-phase granule ``q``: a phase-ordering
property.  For every generated run that finishes (does not raise
:class:`PhaseAbortError`), three things must hold:

* the rundown sanitizer, replaying the trace against the declared and
  inferred mappings, reports no finding;
* every granule of every phase run executes exactly once, so
  ``granules_executed`` equals the sum of the phase sizes;
* no assignment span of zero length is recorded (a zero-length
  ``assign:*`` span is a phantom job whose queue had drained).

The generator covers all seven bundled workloads (all six mapping
kinds), both executive placements, one to three executives, the three
split strategies, composite-map group sizes, target fractions and
priority elevation, the lateral hand-off, data-proximity and
remote-penalty extensions, and transient, straggler and crash fault
plans.  A second property runs reverse-indirect, casper and particles
with at least one processor crash in every example: with a crash only on
a coin flip, 2,400 examples once missed a crash-orphan double execution.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.overlap import OverlapConfig, OverlapPolicy, SplitStrategy
from repro.executive.extensions import Extensions
from repro.executive.scheduler import run_program
from repro.executive.splitting import TaskSizer
from repro.faults import PhaseAbortError
from repro.faults.plan import (
    FaultPlan,
    ProcessorCrash,
    RecoveryPolicy,
    StragglerSlowdown,
    TransientGranuleError,
)
from repro.lint import sanitize_result
from repro.sim.machine import ExecutivePlacement
from repro.sweep.runner import build_workload, workload_names


@st.composite
def fault_plans(draw, workers: int, first_crashable: int, crash: bool = False):
    """A fault plan; with ``crash`` it always crashes one or two processors."""
    faults = []
    if draw(st.booleans()):
        faults.append(TransientGranuleError(draw(st.sampled_from([0.02, 0.05, 0.1]))))
    if draw(st.booleans()):
        faults.append(
            StragglerSlowdown(
                draw(st.integers(0, workers - 1)),
                draw(st.sampled_from([1.5, 2.5, 4.0])),
                draw(st.sampled_from([0.0, 20.0])),
            )
        )
    if crash:
        crashes = draw(st.integers(1, 2))
    else:
        crashes = int(first_crashable < workers and draw(st.booleans()))
    for _ in range(crashes):
        faults.append(
            ProcessorCrash(
                draw(st.integers(first_crashable, workers - 1)),
                draw(st.floats(0.0, 200.0, allow_nan=False)),
            )
        )
    return FaultPlan(seed=draw(st.integers(0, 20)), faults=tuple(faults))


@st.composite
def run_configs(draw, crash: bool = False):
    """Workers and ``run_program`` keywords; ``crash`` forces a crash plan."""
    workers = draw(st.integers(2 if crash else 1, 12))
    placement = draw(st.sampled_from(list(ExecutivePlacement)))
    # a crash needs a worker that hosts no executive
    executives = draw(st.integers(1, min(3, workers - 1 if crash else workers)))
    kw = {
        "seed": draw(st.integers(0, 50)),
        "placement": placement,
        "config": OverlapConfig(
            policy=draw(st.sampled_from(list(OverlapPolicy))),
            split_strategy=draw(st.sampled_from(list(SplitStrategy))),
            elevate_enabling_granules=draw(st.booleans()),
            composite_group_size=draw(st.integers(1, 64)),
            target_fraction=draw(st.floats(0.1, 1.0)),
        ),
        "sizer": TaskSizer(
            tasks_per_processor=draw(st.sampled_from([1.0, 2.0, 4.0, 8.0]))
        ),
        "extensions": Extensions(
            middle_managers=executives,
            lateral_handoff=draw(st.booleans()),
            lateral_cost=draw(st.sampled_from([0.0, 0.1])),
            data_proximity=draw(st.booleans()),
            remote_penalty=draw(st.sampled_from([1.0, 1.5])),
        ),
    }
    if crash or draw(st.booleans()):
        # shared placement hosts executive i on worker i, which may not crash
        hosts = executives if placement is ExecutivePlacement.SHARED else 0
        kw["faults"] = draw(fault_plans(workers, hosts, crash))
        kw["recovery"] = RecoveryPolicy(watchdog_timeout=25.0)
    return workers, kw


def check_run(workload: str, workers: int, **kw):
    """Run and check one configuration; ``None`` if the run aborted."""
    program = build_workload(workload)
    try:
        result = run_program(program, workers, **kw)
    except PhaseAbortError:
        return None
    report = sanitize_result(result, program)
    assert report.findings == [], report.render_text()
    expected = sum(s.n_granules for s in result.phase_stats)
    assert result.granules_executed == expected, (
        f"{result.granules_executed} granules executed, {expected} in the program"
    )
    for iv in result.trace.intervals():
        if iv.category == "mgmt" and iv.label.startswith("assign:"):
            assert iv.duration > 0.0, f"zero-length assignment span {iv}"
    return result


@settings(max_examples=60, deadline=None)
@given(workload=st.sampled_from(workload_names()), config=run_configs())
def test_overlap_order_and_exactly_once(workload, config):
    workers, kw = config
    check_run(workload, workers, **kw)


@settings(max_examples=40, deadline=None)
@given(
    workload=st.sampled_from(["reverse-indirect", "casper", "particles"]),
    config=run_configs(crash=True),
)
def test_overlap_order_and_exactly_once_under_crashes(workload, config):
    workers, kw = config
    assert any(isinstance(f, ProcessorCrash) for f in kw["faults"].faults)
    check_run(workload, workers, **kw)


@pytest.mark.parametrize(
    "workload, workers, kw",
    [
        # a lateral hand-off task is labelled like any other task, so the
        # sanitizer sees its granules complete
        (
            "casper",
            8,
            {"extensions": Extensions(lateral_handoff=True, lateral_cost=0.1)},
        ),
        # the granules of a task lost to a crash count as queued until
        # reassigned, so a lateral hand-off does not issue them again
        (
            "particles",
            12,
            {
                "config": OverlapConfig(split_strategy=SplitStrategy.PRESPLIT),
                "sizer": TaskSizer(tasks_per_processor=1.0),
                "extensions": Extensions(lateral_handoff=True, lateral_cost=0.1),
                "faults": FaultPlan(
                    seed=0, faults=(ProcessorCrash(0, 4.0), ProcessorCrash(7, 47.0))
                ),
                "recovery": RecoveryPolicy(watchdog_timeout=25.0),
            },
        ),
    ],
    ids=["casper-lateral", "particles-lateral-crash"],
)
def test_known_violations_stay_fixed(workload, workers, kw):
    assert check_run(workload, workers, **kw) is not None


def test_retry_during_lateral_handoff_executes_each_granule_once():
    """Granules waiting out a retry backoff count as queued, so neither
    completion processing nor a lateral hand-off issues them again."""
    result = check_run(
        "identity",
        8,
        seed=3,
        config=OverlapConfig(split_strategy=SplitStrategy.DEMAND),
        extensions=Extensions(lateral_handoff=True, lateral_cost=0.1),
        faults=FaultPlan(
            seed=11, faults=(TransientGranuleError(0.05), StragglerSlowdown(0.3, 2.5))
        ),
        recovery=RecoveryPolicy(watchdog_timeout=25.0),
    )
    assert result.retries > 0 and result.lateral_handoffs > 0
    assert result.granules_executed == 200
