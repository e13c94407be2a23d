"""Per-layer host-cost ledger from a cProfile pass, measured from outside.

A layer is a ``src/repro`` module or package, or numpy (see ``LAYERS``).
Each profiled function is charged to the layer whose source file defines
it.  Functions of no layer -- builtins (``len``, ``sorted``, numpy C
functions), the standard library, dataclass-generated methods -- are
charged to the layer of their caller, edge by edge, using the per-caller
self time cProfile keeps.  Time whose whole caller chain lies outside every
layer (the benchmark's own loop) is ``other``.  Nothing here touches
``src/``: the profiler wraps calls the benchmark makes into public
functions.
"""

from __future__ import annotations

import cProfile
import os
import pstats

#: Layer names, most specific first: a source file belongs to the first
#: layer with a path prefix of it, relative to the ``repro`` package (or,
#: for ``numpy``, the numpy package).  ``sim/events.py`` builds the
#: trace's records and task labels, so it is charged to ``sim.trace``.
LAYERS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("core.granule", ("core/granule.py",)),
    ("core.mapping", ("core/mapping.py",)),
    ("core.enablement", ("core/enablement.py",)),
    ("executive", ("executive/",)),
    ("sim.engine", ("sim/engine.py",)),
    ("sim.machine", ("sim/machine.py",)),
    ("sim.trace", ("sim/trace.py", "sim/events.py")),
    ("sim.persist", ("sim/persist.py",)),
    ("sweep", ("sweep/",)),
    ("lint", ("lint/",)),
    ("obs", ("obs/",)),
    ("workloads", ("workloads/",)),
    ("cli", ("cli.py",)),
    ("repro.other", ("",)),
)

#: Time no layer's code caused: the benchmark's own loop and the profiler.
OTHER = "other"

LAYER_NAMES: tuple[str, ...] = tuple(name for name, _ in LAYERS) + ("numpy", OTHER)


def _package_dir(module) -> str:
    return os.path.dirname(os.path.abspath(module.__file__)) + os.sep


def layer_of(filename: str) -> str | None:
    """The layer that defines code in ``filename``; ``None`` for none."""
    import numpy
    import repro

    path = os.path.abspath(filename) if os.sep in filename else filename
    root = _package_dir(repro)
    if path.startswith(root):
        rel = path[len(root):].replace(os.sep, "/")
        for name, prefixes in LAYERS:
            if any(rel.startswith(p) for p in prefixes):
                return name
    if path.startswith(_package_dir(numpy)):
        return "numpy"
    return None


def ledger(profile: cProfile.Profile) -> dict[str, dict[str, float]]:
    """``{layer: {"self_s": seconds, "calls": count}}`` for every layer.

    ``calls`` counts calls of the layer's own Python functions, recursive
    ones included.  Calls the layer makes into code of no layer add to its
    self time but not to its calls, so the count is the layer's own work.
    """
    stats = pstats.Stats(profile).stats
    out = {name: {"self_s": 0.0, "calls": 0} for name in LAYER_NAMES}
    owners: dict = {}
    layers: dict = {}

    def layer(filename: str) -> str | None:
        if filename not in layers:
            layers[filename] = layer_of(filename)
        return layers[filename]

    def owner(func) -> str:
        # follow the caller edge that carried the most time until code of
        # some layer is reached
        chain = []
        while func not in owners:
            found = layer(func[0])
            if found is None:
                callers = stats.get(func, (0, 0, 0, 0, {}))[4]
                if callers and func not in chain:
                    chain.append(func)
                    func = max(callers, key=lambda c: callers[c][2])
                    continue
                found = OTHER
            owners[func] = found
        for f in chain:
            owners[f] = owners[func]
        return owners[func]

    for func, (_cc, nc, tt, _ct, callers) in stats.items():
        own = layer(func[0])
        if own is not None:
            out[own]["self_s"] += tt
            out[own]["calls"] += nc
        elif not callers:
            out[OTHER]["self_s"] += tt
        else:
            for caller, edge in callers.items():
                out[owner(caller)]["self_s"] += edge[2]
    return out
