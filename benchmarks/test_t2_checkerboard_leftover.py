"""T2 — the introduction's checkerboard leftover-wave example.

Paper: a 1024-points-per-side potential grid (2**20 points) gives
524 288 computations per checkerboard phase; on 1000 processors that is
524 computations each with 288 left over, "leaving 712 processors with
nothing to do while the final 288 computations are carried out."

Regenerated twice: by the closed-form model, and by simulating the
final-wave schedule on the event-driven machine (a scaled-down grid with
the same leftover structure, plus the exact 1000-processor case driven
task-by-task analytically).
"""

from __future__ import annotations

import os
import resource
import time

import pytest

from benchmarks.conftest import emit
from repro.analysis import checkerboard_phase_computations, leftover_wave, rundown_idle_uniform
from repro.core.phase import PhaseProgram, PhaseSpec
from repro.executive import ExecutiveCosts, TaskSizer, run_program
from repro.metrics.report import format_table
from repro.metrics.rundown import rundown_report


def test_t2_paper_arithmetic(once):
    w = once(lambda: leftover_wave(checkerboard_phase_computations(1024), 1000))
    emit(
        "T2: 1024² checkerboard on 1000 processors",
        format_table(
            ["quantity", "value", "paper"],
            [
                ("computations per phase", w.n_computations, 524288),
                ("computations per processor", w.per_processor, 524),
                ("leftover computations", w.leftover, 288),
                ("idle processors (final wave)", w.idle_processors, 712),
            ],
        ),
    )
    assert w.n_computations == 524_288
    assert w.per_processor == 524
    assert w.leftover == 288
    assert w.idle_processors == 712


@pytest.mark.skipif(
    not os.environ.get("REPRO_FULL_SCALE"),
    reason="~25 s run; set REPRO_FULL_SCALE=1 to simulate the paper's exact scale",
)
def test_t2c_full_scale_paper_example(once):
    """The paper's example at full scale: 524 288 computations on 1000
    simulated processors, one computation per task.

    Measured (and asserted): makespan exactly 525 waves and final-wave
    idle of exactly 712 processor-units — the memo's "712 processors with
    nothing to do while the final 288 computations are carried out."
    Also printed, not gated: the run's CPU seconds and the process's peak
    RSS, the host cost of the largest trace any test writes (3,145,732
    records).
    """
    prog = PhaseProgram([PhaseSpec("checkerboard", 524_288)])

    def run():
        return run_program(
            prog, 1000,
            costs=ExecutiveCosts.free(),
            sizer=TaskSizer(tasks_per_processor=1e9, max_task_size=1),
            max_events=20_000_000,
        )

    cpu = time.process_time()
    r = once(run)
    cpu = time.process_time() - cpu
    # ru_maxrss is in KiB on Linux
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rep = rundown_report(r, 0)
    emit(
        "T2c: full-scale 1024² checkerboard phase on 1000 simulated processors",
        format_table(
            ["quantity", "simulated", "paper"],
            [
                ("makespan (waves)", r.makespan, 525),
                ("final-wave idle processor-time", rep.idle_time, 712),
                ("run CPU seconds", f"{cpu:.1f}", "-"),
                ("peak RSS (MB)", f"{peak_mb:.0f}", "-"),
            ],
        ),
    )
    assert r.makespan == 525.0
    assert rep.idle_time == pytest.approx(712.0)


def test_t2_simulated_final_wave(once):
    """A one-granule-per-task simulation reproduces the same idle loss.

    Scaled instance with identical modular structure: 1048 computations
    on 100 processors -> 10 full waves + 48 leftover -> 52 idle.
    """
    n_comp, n_proc = 1048, 100
    prog = PhaseProgram([PhaseSpec("phase", n_comp)])

    def run():
        return run_program(
            prog,
            n_proc,
            costs=ExecutiveCosts.free(),
            sizer=TaskSizer(tasks_per_processor=1e9, max_task_size=1),
        )

    r = once(run)
    rep = rundown_report(r, 0)
    w = leftover_wave(n_comp, n_proc)
    emit(
        "T2b: simulated final wave (1048 computations, 100 processors)",
        format_table(
            ["quantity", "simulated", "closed form"],
            [
                ("makespan (waves)", r.makespan, w.waves),
                ("final-wave idle processor-time", rep.idle_time, rundown_idle_uniform(n_comp, n_proc)),
            ],
        ),
    )
    assert r.makespan == w.waves
    assert rep is not None
    assert rep.idle_time == pytest.approx(w.idle_processors * 1.0)
    assert w.idle_processors == 52
