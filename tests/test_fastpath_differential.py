"""Golden-digest checks of the simulation core.

Each case re-runs one configuration recorded in
``tests/golden/sim_digests.json`` and compares the sha256 of its
canonical output — both result summaries, the recovery counters and the
full persisted trace — with the recorded digest.  The corpus covers every
bundled workload, a nine-configuration matrix, seeded fault plans, the
indirect-mapping machinery and 40 stored random configurations;
``tests/golden/README.md`` says when a digest may be re-recorded.  The
module keeps its name, from when these cases compared two simulation
paths, so that its test ids stay stable.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.lint import sanitize_result
from repro.obs import MetricsRegistry, record_run_metrics
from repro.sim.engine import Simulator
from repro.sim.events import EventKind
from repro.sim.machine import Machine
from repro.sim.trace import Trace
from repro.sweep.runner import build_workload, workload_names
from tests.golden.record import digest, load_cases, run_case

CASES = load_cases()


def assert_golden(case_id: str, **overrides):
    """Run a recorded case and require its recorded digest."""
    entry = CASES[case_id]
    result = run_case(entry["spec"], **overrides)
    assert digest(result) == entry["digest"], (
        f"golden case {case_id} changed (see tests/golden/README.md)"
    )
    return result


# ------------------------------------------------------------------ workloads
class TestAllWorkloads:
    @pytest.mark.parametrize("workload", workload_names())
    def test_byte_identity(self, workload):
        assert_golden(f"workload/{workload}")


# ------------------------------------------------------------------ configs
CONFIG_NAMES = sorted(
    case.removeprefix("config/identity-")
    for case in CASES
    if case.startswith("config/identity-")
)


class TestConfigMatrix:
    @pytest.mark.parametrize("name", CONFIG_NAMES)
    @pytest.mark.parametrize("workload", ["identity", "checkerboard"])
    def test_byte_identity(self, workload, name):
        assert_golden(f"config/{workload}-{name}")


# ------------------------------------------------------------------ faults
class TestFaultInjection:
    @pytest.mark.parametrize("fault_seed", [7, 11])
    @pytest.mark.parametrize("workload", ["casper", "identity"])
    def test_byte_identity_under_faults(self, workload, fault_seed):
        result = assert_golden(f"faults/{workload}-{fault_seed}")
        assert result.processor_failures == 1

    def test_byte_identity_with_telemetry_and_faults(self):
        """A faulted run keeps its golden digest, and the metrics derived
        from it are themselves deterministic."""
        snapshots = []
        for _ in range(2):
            registry = MetricsRegistry()
            record_run_metrics(assert_golden("faults/identity-11"), registry)
            snapshots.append(registry.snapshot())
        assert snapshots[0] == snapshots[1]
        assert snapshots[0]["faults.processor_crashes_total"]["series"]


# ------------------------------------------------------------------ indirect
INDIRECT_CASES = sorted(case for case in CASES if case.startswith("indirect/"))


class TestIndirectMappings:
    """Composite maps, enablement counters, deferred release and priority
    elevation: reverse-indirect at three fan-ins and group sizes, target
    subsets, elevation, a crash plus transient faults, and casper's
    forward-indirect phase."""

    @pytest.mark.parametrize("case", INDIRECT_CASES)
    def test_byte_identity(self, case):
        assert_golden(case)


# ------------------------------------------------------------------ sanitizer
class TestSanitizer:
    def test_sanitizer_verdict_and_trace_identical(self):
        result = assert_golden("workload/checkerboard")
        report = sanitize_result(result, build_workload("checkerboard"))
        assert report.ok, report.render_text()


# ------------------------------------------------------------------ random
class TestRandomizedConfigs:
    def test_byte_identity(self):
        changed = [
            case
            for case, entry in sorted(CASES.items())
            if case.startswith("random/")
            and digest(run_case(entry["spec"])) != entry["digest"]
        ]
        assert changed == [], f"golden cases changed: {changed}"


# ------------------------------------------------------------------ noop spans
class TestNoopMgmtSpans:
    """A no-op assign records no span, trace records or derived metrics,
    while a genuine zero-duration job (ExecutiveCosts.free) still records
    everything."""

    @staticmethod
    def machine():
        trace = Trace()
        return Machine(Simulator(), trace, 2), trace

    @staticmethod
    def derived_series(machine, trace) -> dict:
        """The non-empty metric series ``record_run_metrics`` derives from
        this bare machine's trace (no phases, so no admission verdicts)."""
        run = SimpleNamespace(
            trace=trace,
            n_workers=machine.n_workers,
            admission_decisions=[],
            phase_stats=[],
            events_processed=machine.sim.events_processed,
        )
        registry = MetricsRegistry()
        record_run_metrics(run, registry)
        return {
            name: m["series"] for name, m in registry.snapshot().items() if m["series"]
        }

    @pytest.mark.parametrize("metrics", [False, True])
    def test_noop_job_records_nothing(self, metrics):
        machine, trace = self.machine()
        fired = []
        machine.submit_mgmt(
            0.0, lambda: fired.append(True), label="assign:P0", noop=lambda: True
        )
        machine.sim.run()
        assert fired == [True], "on_done must still fire"
        assert machine.mgmt_jobs_done == 1
        assert trace.records == []
        assert list(trace.intervals()) == []
        if metrics:
            # only the simulator's own event count; no worker or executive series
            assert self.derived_series(machine, trace) == {
                "sim.events_processed_total": {"": 1.0}
            }

    @pytest.mark.parametrize("metrics", [False, True])
    def test_zero_duration_genuine_job_still_records(self, metrics):
        machine, trace = self.machine()
        machine.submit_mgmt(0.0, None, label="assign:P0")
        machine.sim.run()
        kinds = [r.kind for r in trace.records]
        assert kinds == [EventKind.MGMT_START, EventKind.MGMT_END]
        # SHARED placement: one interval on the server, one on its host
        ivs = list(trace.intervals())
        assert sorted(iv.resource for iv in ivs) == ["EXEC", "P0"]
        assert all(iv.duration == 0.0 for iv in ivs)
        if metrics:
            # the host goes busy and idle once, the server finishes one job
            assert self.derived_series(machine, trace) == {
                "executive.actions_total": {'{action="assign"}': 1.0},
                "executive.busy_seconds": {'{server="EXEC"}': 0.0},
                "sim.events_processed_total": {"": 1.0},
                "worker.busy_transitions_total": {'{activity="mgmt",processor="P0"}': 1.0},
                "worker.idle_transitions_total": {'{processor="P0"}': 1.0},
            }

    def test_drained_queue_assign_leaves_no_span(self):
        """End to end: runs always retire every queued assignment, and
        no zero-length mgmt interval labelled ``assign:*`` survives
        unless it did real work (real work pays ``costs.assign`` > 0)."""
        result = assert_golden("workload/identity")
        for iv in result.trace.intervals():
            if iv.category == "mgmt" and iv.label.startswith("assign:"):
                assert iv.duration > 0.0, f"phantom zero-length assign span {iv}"
