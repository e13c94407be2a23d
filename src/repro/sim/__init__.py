"""Deterministic discrete-event simulation substrate.

This package stands in for the physical multiprocessor of the paper's
PAX/CASPER test bed (a UNIVAC 1100).  The paper's claims are about event
ordering and service times — which processors are busy when, how long the
executive spends on completion processing, how quickly enabled successor
work reaches an idle worker — so a discrete-event simulator reproduces the
reported quantities (utilization, rundown idle loss, computation-to-
management ratio) exactly and deterministically, something real Python
threads cannot do under the GIL.

Modules
-------
``engine``
    Event heap and simulation clock with deterministic tie-breaking.
``events``
    Event record types shared by the engine and the trace.
``machine``
    Worker processors and the executive resource (shared or dedicated).
``trace``
    Busy/idle interval recording and utilization timelines.
``rng``
    Named, seeded random substreams for reproducible stochastic workloads.
"""

from repro._lazy import lazy_exports

_EXPORTS, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        ".engine": ("Event", "EventQueue", "Simulator"),
        ".machine": ("ExecutivePlacement", "Machine", "Processor"),
        ".rng": ("RngStreams",),
        ".trace": ("Interval", "Trace", "utilization_timeline"),
    },
)

__all__ = list(_EXPORTS)
