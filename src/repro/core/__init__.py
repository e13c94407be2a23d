"""The paper's primary contribution: phase-overlap machinery.

Subpackages model the concepts of Jones (1986) directly:

* :mod:`repro.core.granule` — indivisible computation granules and
  interval-set algebra over them;
* :mod:`repro.core.access` — symbolic array access patterns (the Fortran
  fragments' ``B(I)=A(I)``, ``B(I)+=A(IMAP(J,I))``, ...);
* :mod:`repro.core.phase` — parallel computational phase specifications;
* :mod:`repro.core.predicate` — the logical predicate ``PARALLEL(x, y)``
  and the phase-overlap safety condition built on it;
* :mod:`repro.core.mapping` — the enablement-mapping taxonomy (universal,
  identity, null, reverse indirect, forward indirect, plus the foreseen
  seam mapping);
* :mod:`repro.core.classifier` — automatic classification of a phase
  pair's mapping kind from declared access patterns (reproduces the
  PAX/CASPER census);
* :mod:`repro.core.enablement` — composite granule maps and enablement
  counters;
* :mod:`repro.core.overlap` — overlap policies and control strategies.
"""

from repro._lazy import lazy_exports

_EXPORTS, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        ".granule": ("GranuleRange", "GranuleSet"),
        ".access": ("AccessPattern", "AffineIndex", "AllIndex", "MappedIndex", "ArrayRef"),
        ".phase": ("PhaseSpec", "PhaseProgram", "PhaseLink", "SerialAction"),
        ".mapping": (
            "MappingKind",
            "EnablementMapping",
            "UniversalMapping",
            "IdentityMapping",
            "NullMapping",
            "ReverseIndirectMapping",
            "ForwardIndirectMapping",
            "SeamMapping",
        ),
        ".predicate": ("ParallelPredicate", "AccessConflictPredicate", "overlap_is_safe"),
        ".classifier": ("classify_pair", "classify_program", "MappingCensus"),
        ".enablement": ("CompositeGranuleMap", "EnablementEngine"),
        ".overlap": ("OverlapPolicy", "SplitStrategy", "OverlapConfig"),
    },
)

__all__ = list(_EXPORTS)
