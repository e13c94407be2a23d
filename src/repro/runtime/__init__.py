"""Real-thread execution backend.

The discrete-event simulator (:mod:`repro.sim`) measures *timing*; this
package demonstrates *functional correctness* of phase overlap on real
Python callables and shared numpy arrays.  Under CPython's GIL the
threads do not give true parallel speedup — which is exactly why the
calibration notes flag Python as a poor vehicle for measuring parallel
rundown, and why all quantitative claims come from the simulator — but
the interleavings are real: if the enablement machinery released a
successor granule too early, these runs would corrupt data and the
equality-with-sequential tests would fail.
"""

from repro._lazy import lazy_exports

_EXPORTS, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        ".threaded": ("KernelPhase", "ThreadedExecutor", "run_fragment_threaded"),
    },
)

__all__ = list(_EXPORTS)
