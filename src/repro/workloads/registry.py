"""The built-in workload registry: name -> phase-program builder.

The CLI's ``choices``, ``repro sweep`` and the pool workers all read this
one table.  It imports no workload (and so no numpy) until a builder
runs, which keeps ``import repro.cli`` cheap.
"""

from __future__ import annotations

from typing import Any, Callable

__all__ = ["build_workload", "workload_names"]


def _build_casper(params: dict[str, Any]):
    from repro.workloads.casper import casper_suite

    return casper_suite(**params)


def _build_checkerboard(params: dict[str, Any]):
    from repro.workloads.checkerboard import checkerboard_program

    defaults = dict(grid_side=96, rows_per_granule=4, n_iterations=2, cost_per_cell=0.02)
    defaults.update(params)
    return checkerboard_program(**defaults)


def _build_navier_stokes(params: dict[str, Any]):
    from repro.workloads.navier_stokes import navier_stokes_program

    defaults = dict(n=48, n_jacobi=4, rows_per_granule=2, cost_per_cell=0.02)
    defaults.update(params)
    return navier_stokes_program(**defaults)


def _build_particles(params: dict[str, Any]):
    from repro.workloads.particles import particle_program

    defaults = dict(n=96, n_neighbors=4, n_steps=3)
    defaults.update(params)
    return particle_program(**defaults)


def _build_synthetic(kind: str, params: dict[str, Any]):
    from repro.core.mapping import IdentityMapping, UniversalMapping
    from repro.core.phase import PhaseProgram, PhaseSpec

    n = int(params.get("n", 100))
    mapping = IdentityMapping() if kind == "identity" else UniversalMapping()
    return PhaseProgram.chain(
        [PhaseSpec("produce", n), PhaseSpec("consume", n)], [mapping]
    )


def _build_reverse_indirect(params: dict[str, Any]):
    """Two-phase reverse-indirect workload: ``B(I) += A(IMAP(J, I))``.

    The grid/shm studies need an indirect-map workload whose concrete map
    can be arbitrarily large (``n``) — this is the paper's reverse-indirect
    shape with a uniform random ``IMAP`` drawn from the run's map RNG
    (or overridden by a shared map store in grid sweeps).
    """
    from repro.core.mapping import ReverseIndirectMapping
    from repro.core.phase import PhaseProgram, PhaseSpec

    n = int(params.get("n", 100))
    fan_in = int(params.get("fan_in", 2))
    mapping = ReverseIndirectMapping("IMAP", fan_in=fan_in)
    generators = {"IMAP": lambda rng: rng.integers(0, n, size=(fan_in, n))}
    return PhaseProgram.chain(
        [PhaseSpec("scatter", n), PhaseSpec("gather", n)],
        [mapping],
        map_generators=generators,
    )


_WORKLOADS: dict[str, Callable[[dict[str, Any]], Any]] = {
    "casper": _build_casper,
    "checkerboard": _build_checkerboard,
    "navier-stokes": _build_navier_stokes,
    "particles": _build_particles,
    "identity": lambda p: _build_synthetic("identity", p),
    "universal": lambda p: _build_synthetic("universal", p),
    "reverse-indirect": _build_reverse_indirect,
}


def workload_names() -> list[str]:
    """Registry names: the CLI's workload choices and the values
    :class:`~repro.sweep.runner.SweepSpec` accepts."""
    return sorted(_WORKLOADS)


def build_workload(name: str, params: dict[str, Any] | None = None):
    """Build the named workload program (used by the CLI and the pool workers)."""
    params = dict(params or {})
    try:
        builder = _WORKLOADS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; expected one of {workload_names()}"
        ) from None
    return builder(params)
