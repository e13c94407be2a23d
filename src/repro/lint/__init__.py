"""``repro.lint`` — the overlap-safety analyzer.

The paper's enablement construct is declarative: the programmer asserts
``ENABLE [phase/MAPPING=option]`` and the executive trusts the mapping
when admitting next-phase granules during rundown.  The paper itself
warns the unverified form "leaves the door wide open to user mistakes".
This package closes that door statically: it races every declared
mapping against the mapping *inferred* from the phases' READS/WRITES
footprints and reports any declaration the data flow cannot support
(``RDN001``), any that wastes rundown utilization (``RDN002``), and the
structural smells around them (``RDN003``–``RDN006``).  A whole-program
happens-before engine (:mod:`repro.lint.hb`) composes the declared
granule relations along every control-flow path and powers the
phase-ordering rules: enablement cycles (``RDN007``), redundant
declarations (``RDN008``), over-synchronization (``RDN009``) and
cost-model-weighted rundown idle (``RDN010``).

Entry points:

* :func:`lint_source` / :func:`lint_file` — analyze PAX text or a file;
* :class:`HappensBeforeEngine` — the granule-level partial order the
  phase-ordering rules query;
* :func:`sanitize_result` / :func:`sanitize_saved` — the trace-replay
  rundown sanitizer: validates an *executed* run (live result or saved
  JSON) against the program's declared and inferred orders;
* :class:`AdmissionGuard` — runtime cross-check that scheduler
  admissions never exceed the static verdict;
* :func:`run_self_check` — embedded corpus smoke test (one program per
  rule);
* ``repro lint`` — the CLI front end with text/JSON/SARIF output and
  CI-friendly exit codes (see ``docs/LINTING.md``).
"""

from repro._lazy import lazy_exports

_EXPORTS, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        ".analyzer": (
            "lint_source",
            "lint_file",
            "DEFAULT_PROCESSORS",
            "DEFAULT_IDLE_THRESHOLD",
        ),
        ".crosscheck": ("AdmissionGuard", "CrossCheckError"),
        ".diagnostics": (
            "Diagnostic",
            "exit_code",
            "filter_suppressed",
            "render_json",
            "render_text",
            "source_suppressions",
        ),
        ".sarif": ("render_sarif", "sarif_log"),
        ".hb": (
            "GranuleRelation",
            "HappensBeforeEngine",
            "HBCycle",
            "HBEdge",
            "compose",
            "relation_of",
        ),
        ".sanitizer": (
            "ExecutedTask",
            "SanitizerFinding",
            "SanitizerReport",
            "sanitize_result",
            "sanitize_saved",
            "tasks_from_spans",
            "tasks_from_trace",
        ),
        ".rules": ("RULES", "Rule", "Severity", "rule"),
        ".selfcheck": ("SELF_CHECK_CORPUS", "run_self_check"),
    },
)

__all__ = list(_EXPORTS)
