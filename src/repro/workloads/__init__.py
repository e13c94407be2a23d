"""Workloads: the computations the paper's executive schedules.

* :mod:`repro.workloads.generators` — stochastic cost models capturing
  CASPER's "no definite execution times" and conditional granules;
* :mod:`repro.workloads.fragments` — the paper's four Fortran fragments
  as executable phase programs with declared access patterns;
* :mod:`repro.workloads.casper` — a synthetic 22-phase suite with exactly
  the PAX/CASPER mapping census;
* :mod:`repro.workloads.checkerboard` — the red/black successive
  over-relaxation potential-field solver of the introduction;
* :mod:`repro.workloads.navier_stokes` — a small 2-D projection-method
  Navier–Stokes pipeline standing in for CASPER's solver;
* :mod:`repro.workloads.particles` — a particle chain whose neighbour
  lists are genuinely dynamically generated selection maps (the paper's
  reverse-indirect situation in the wild);
* :mod:`repro.workloads.registry` — the named builders the CLI and the
  sweep engine share.
"""

from repro._lazy import lazy_exports

_EXPORTS, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        ".generators": (
            "UniformCost",
            "ExponentialCost",
            "LognormalCost",
            "ConditionalCost",
            "synthetic_chain",
        ),
        ".fragments": (
            "universal_fragment",
            "identity_fragment",
            "reverse_indirect_fragment",
            "forward_indirect_fragment",
        ),
        ".casper": ("casper_suite", "CASPER_KIND_SEQUENCE", "CASPER_LINE_WEIGHTS"),
        ".checkerboard": ("CheckerboardSOR", "checkerboard_program"),
        ".navier_stokes": ("NavierStokes2D", "navier_stokes_program"),
        ".particles": ("ParticleChain", "particle_program"),
        ".registry": ("build_workload", "workload_names"),
    },
)

__all__ = list(_EXPORTS)
