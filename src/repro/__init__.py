"""repro — reproduction of Jones (ICPP 1986), *Increasing Processor
Utilization During Parallel Computation Rundown* (NASA TM-87349).

The package rebuilds the paper's system in Python:

* the **enablement-mapping taxonomy** and the ``PARALLEL(x, y)`` overlap
  theorem (:mod:`repro.core`);
* a **PAX-style dynamic executive** — waiting computation queue, conflict
  queues, demand-driven description splitting, composite granule maps and
  enablement counters (:mod:`repro.executive`);
* a **deterministic discrete-event multiprocessor** standing in for the
  UNIVAC 1100 test bed (:mod:`repro.sim`);
* the proposed **PAX language construct** with executive-verified
  interlocks (:mod:`repro.lang`);
* the **workloads**: the paper's Fortran fragments, a synthetic CASPER
  with the exact published mapping census, checkerboard SOR, and a small
  Navier–Stokes pipeline (:mod:`repro.workloads`);
* **metrics** and **closed-form models** for utilization and rundown idle
  loss (:mod:`repro.metrics`, :mod:`repro.analysis`);
* a **threaded runtime** validating overlap correctness on real arrays
  (:mod:`repro.runtime`).

Quickstart
----------
>>> from repro import (PhaseSpec, PhaseProgram, IdentityMapping,
...                    OverlapConfig, run_program)
>>> program = PhaseProgram.chain(
...     [PhaseSpec("produce", 256), PhaseSpec("consume", 256)],
...     [IdentityMapping()],
... )
>>> barrier = run_program(program, n_workers=8, config=OverlapConfig.barrier())
>>> overlap = run_program(program, n_workers=8, config=OverlapConfig())
>>> overlap.makespan < barrier.makespan
True
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

_EXPORTS, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        ".core.access": (
            "AccessPattern",
            "AffineIndex",
            "AllIndex",
            "ArrayRef",
            "ConstIndex",
            "MappedIndex",
        ),
        ".core.classifier": ("MappingCensus", "classify_pair", "classify_program"),
        ".core.enablement": ("CompositeGranuleMap", "EnablementEngine"),
        ".core.granule": ("GranuleRange", "GranuleSet"),
        ".core.mapping": (
            "EnablementMapping",
            "ForwardIndirectMapping",
            "IdentityMapping",
            "MappingKind",
            "NullMapping",
            "ReverseIndirectMapping",
            "SeamMapping",
            "UniversalMapping",
        ),
        ".core.overlap": ("OverlapConfig", "OverlapPolicy", "SplitStrategy"),
        ".core.phase": ("ConstantCost", "PhaseLink", "PhaseProgram", "PhaseSpec", "SerialAction"),
        ".core.predicate": ("AccessConflictPredicate", "overlap_is_safe"),
        ".executive.costs": ("ExecutiveCosts",),
        ".executive.scheduler": ("ExecutiveSimulation", "RunResult", "run_program"),
        ".executive.extensions": ("Extensions",),
        ".executive.splitting": ("TaskSizer",),
        ".metrics.report": ("census_table",),
        ".metrics.gantt": ("render_gantt",),
        ".metrics.rundown": ("rundown_reports",),
        ".lang.compiler": ("compile_program",),
        ".sim.machine": ("ExecutivePlacement",),
    },
)

__all__ = [*_EXPORTS, "__version__"]
