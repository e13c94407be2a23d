"""Zero-copy shared-memory data plane for sweep map arrays.

Parameter studies over indirect-map workloads are dominated by one large,
*read-only* object: the concrete information-selection map (the paper's
``IMAP``).  Shipping it to every pool worker through pickle costs
O(map size) bytes per submitted task; a ``fork``-heavy pool pays it again
in copy-on-write page faults.  :class:`SharedMapStore` places each numpy
map array into a :mod:`multiprocessing.shared_memory` segment exactly
once, ships only a tiny ``(segment name, shape, dtype)`` descriptor with
each task, and reattaches the segments read-only on the worker side — the
per-task transfer drops from O(map size) to O(1).

Lifecycle rules (the part shared memory makes easy to get wrong):

* The **owner** (driver process) creates segments and is the only party
  that ever unlinks them.  ``with SharedMapStore.create(maps) as store:``
  guarantees unlink on scope exit; a module-level ``atexit`` guard
  unlinks anything a crashed driver left behind, so no ``/dev/shm``
  segment outlives the interpreter.
* **Attachments** (pool workers) open segments by name, immediately
  deregister them from their :mod:`multiprocessing.resource_tracker`
  (the tracker would otherwise race the owner's unlink and log
  "leaked shared_memory" warnings at interpreter exit), and expose the
  arrays with ``writeable=False`` — a worker cannot corrupt another
  worker's view.
* A worker killed mid-task (OOM, ``os._exit``) merely drops its mapping;
  the kernel frees the pages when the owner unlinks.  The regression
  tests assert a ``--kill-replication`` sweep leaves ``/dev/shm`` clean.
* A **janitor** (:func:`audit_shm_segments` / :func:`reap_leaked_segments`)
  scans ``/dev/shm`` for ``repro-map-*`` segments that no live owner in
  this process claims and that are older than a grace period, and unlinks
  them.  The pool supervisor runs it after every hang preemption, so a
  driver that was itself killed mid-sweep (leaving its atexit guard
  unexecuted) cannot poison the host for the next run.

A store implements ``Mapping[str, np.ndarray]``, so both sides can pass
it anywhere a plain dict-of-arrays is accepted (``EnablementMapping``
lookups, :meth:`~repro.core.enablement.CompositeGranuleMap.build`, …).
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import secrets
import time
from collections.abc import Mapping
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Iterator

import numpy as np

__all__ = [
    "MapDescriptor",
    "SharedMapStore",
    "audit_shm_segments",
    "reap_leaked_segments",
]

#: JSON-able per-array descriptor: what a worker needs to reattach.
MapDescriptor = dict[str, Any]

#: Owner-side stores not yet unlinked; the atexit guard drains it.
_LIVE_OWNERS: "set[SharedMapStore]" = set()

#: Worker-side attachment memo: descriptor identity -> live store.  A pool
#: worker runs many chunks of the same grid; reattaching per chunk would
#: reopen the segments hundreds of times for nothing.  Insertion order is
#: recency order (hits are re-inserted), so the cap below evicts LRU-first.
_ATTACH_CACHE: dict[tuple, "SharedMapStore"] = {}

#: Warm-pool workers outlive a single grid, so the memo must not grow with
#: the number of grids a worker ever serves.  A handful of entries covers
#: every sane overlap (one live grid, plus stragglers from the previous
#: one); beyond that the least-recently-used attachment is closed.  The
#: owner's segments are unaffected — eviction drops this process's view.
_ATTACH_CACHE_MAX = 4


def _cache_put(key: tuple, store: "SharedMapStore") -> None:
    """Insert/refresh ``key`` as most-recent; close+evict LRU past the cap."""
    _ATTACH_CACHE.pop(key, None)
    _ATTACH_CACHE[key] = store
    while len(_ATTACH_CACHE) > _ATTACH_CACHE_MAX:
        oldest, evicted = next(iter(_ATTACH_CACHE.items()))
        del _ATTACH_CACHE[oldest]
        evicted.close()


def _unlink_leftovers() -> None:  # pragma: no cover - exercised via subprocess
    """atexit guard: unlink owner segments that escaped their context."""
    for store in list(_LIVE_OWNERS):
        store.unlink()
    for store in list(_ATTACH_CACHE.values()):
        store.close()
    _ATTACH_CACHE.clear()


atexit.register(_unlink_leftovers)


def _untrack(shm: shared_memory.SharedMemory) -> None:
    """Deregister an attached segment from its resource tracker, if safe.

    An attachment from an *unrelated* process spins up that process's own
    resource tracker, which would unlink (and warn about) the segment out
    from under the owner when the process exits.  Python 3.13 grew
    ``SharedMemory(track=False)`` for exactly this; on older interpreters
    the public-enough unregister call is the standard workaround.

    A :mod:`multiprocessing` child (a pool worker) is different: it shares
    the parent's tracker process, where register is an idempotent set-add
    — unregistering there would strip the owner's registration and make
    the owner's eventual unlink trip a KeyError inside the tracker.  So
    children leave the shared registration alone — as does an attach in
    the owner's own process (same single-registration, same tracker).
    """
    if multiprocessing.parent_process() is not None:
        return
    owned = {d["segment"] for s in _LIVE_OWNERS for d in s._descriptors.values()}
    if shm.name in owned:
        return
    try:
        resource_tracker.unregister(shm._name, "shared_memory")  # type: ignore[attr-defined]
    except Exception:  # pragma: no cover - tracker variations across platforms
        pass


class SharedMapStore(Mapping):
    """Named numpy map arrays backed by shared-memory segments.

    Construct with :meth:`create` (owner side) or :meth:`attach` (worker
    side); the constructor itself is internal.  Iteration order is sorted
    by map name so descriptor payloads are canonical.
    """

    # Mapping's value-comparison __eq__ would elementwise-compare numpy
    # arrays (and disables hashing); a store is identified by its object,
    # not its contents.
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self,
        segments: dict[str, shared_memory.SharedMemory],
        arrays: dict[str, np.ndarray],
        descriptors: dict[str, MapDescriptor],
        owner: bool,
    ) -> None:
        self._segments = segments
        self._arrays = arrays
        self._descriptors = descriptors
        self._owner = owner
        self._closed = False

    # ------------------------------------------------------------------ owner
    @classmethod
    def create(cls, maps: Mapping[str, np.ndarray]) -> "SharedMapStore":
        """Copy ``maps`` into fresh shared-memory segments (owner side)."""
        segments: dict[str, shared_memory.SharedMemory] = {}
        arrays: dict[str, np.ndarray] = {}
        descriptors: dict[str, MapDescriptor] = {}
        token = secrets.token_hex(4)
        try:
            for i, name in enumerate(sorted(maps)):
                src = np.ascontiguousarray(maps[name])
                seg_name = f"repro-map-{token}-{i}"
                seg = shared_memory.SharedMemory(
                    name=seg_name, create=True, size=max(1, src.nbytes)
                )
                segments[name] = seg
                view = np.ndarray(src.shape, dtype=src.dtype, buffer=seg.buf)
                view[...] = src
                view.flags.writeable = False
                arrays[name] = view
                descriptors[name] = {
                    "segment": seg.name,
                    "shape": list(src.shape),
                    "dtype": src.dtype.str,
                }
        except BaseException:
            for seg in segments.values():
                try:
                    seg.close()
                    seg.unlink()
                except OSError:  # pragma: no cover - best-effort rollback
                    pass
            raise
        store = cls(segments, arrays, descriptors, owner=True)
        _LIVE_OWNERS.add(store)
        return store

    # ------------------------------------------------------------------ worker
    @classmethod
    def attach(
        cls, descriptors: Mapping[str, MapDescriptor], cached: bool = False
    ) -> "SharedMapStore":
        """Reattach segments described by an owner's :meth:`descriptors`.

        Arrays come back read-only — attachments observe, never mutate.
        ``cached=True`` memoizes the attachment per descriptor set for the
        life of the process (the pool-worker pattern: every chunk of the
        same grid reuses one attachment, closed by the atexit guard).

        Every call counts into the process-local worker registry
        (``shm.attach_total{outcome=...}``), so a profiled grid run shows
        how many chunk arrivals reattached segments versus hit the memo —
        the counters ride the profiler envelope back to the parent.
        """
        from repro.obs.metrics import worker_registry

        attach_counter = worker_registry().counter(
            "shm.attach_total", "shared-map attach requests by outcome"
        )
        key = cls._cache_key(descriptors)
        if cached:
            hit = _ATTACH_CACHE.get(key)
            if hit is not None and not hit._closed:
                attach_counter.inc(outcome="cache_hit")
                _cache_put(key, hit)
                return hit
        segments: dict[str, shared_memory.SharedMemory] = {}
        arrays: dict[str, np.ndarray] = {}
        try:
            for name in sorted(descriptors):
                d = descriptors[name]
                seg = shared_memory.SharedMemory(name=d["segment"])
                _untrack(seg)
                segments[name] = seg
                view = np.ndarray(
                    tuple(d["shape"]), dtype=np.dtype(d["dtype"]), buffer=seg.buf
                )
                view.flags.writeable = False
                arrays[name] = view
        except BaseException:
            for seg in segments.values():
                try:
                    seg.close()
                except OSError:  # pragma: no cover
                    pass
            raise
        store = cls(segments, arrays, {k: dict(v) for k, v in descriptors.items()}, owner=False)
        attach_counter.inc(outcome="reattach")
        if cached:
            _cache_put(key, store)
        return store

    @staticmethod
    def _cache_key(descriptors: Mapping[str, MapDescriptor]) -> tuple:
        return tuple(
            (name, descriptors[name]["segment"]) for name in sorted(descriptors)
        )

    # ------------------------------------------------------------------ mapping
    def __getitem__(self, name: str) -> np.ndarray:
        if self._closed:
            raise KeyError(f"shared map store is closed (lookup of {name!r})")
        return self._arrays[name]

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._arrays))

    def __len__(self) -> int:
        return len(self._arrays)

    # ------------------------------------------------------------------ identity
    @property
    def owner(self) -> bool:
        """True on the creating side; only the owner unlinks."""
        return self._owner

    @property
    def closed(self) -> bool:
        return self._closed

    def descriptors(self) -> dict[str, MapDescriptor]:
        """The O(1)-size payload to ship instead of the arrays."""
        return {k: dict(v) for k, v in self._descriptors.items()}

    def nbytes(self) -> int:
        """Total bytes resident in the shared segments."""
        return sum(a.nbytes for a in self._arrays.values())

    # ------------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """Release this process's views and segment handles (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._arrays.clear()
        for seg in self._segments.values():
            try:
                seg.close()
            except BufferError:  # pragma: no cover - a caller still holds a view
                pass

    def unlink(self) -> None:
        """Destroy the segments (owner only; idempotent).

        Closes first, so a bare ``unlink()`` is a complete teardown.
        """
        if not self._owner:
            raise RuntimeError("only the owning SharedMapStore may unlink segments")
        self.close()
        for seg in self._segments.values():
            try:
                seg.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        _LIVE_OWNERS.discard(self)

    def __enter__(self) -> "SharedMapStore":
        return self

    def __exit__(self, *exc) -> None:
        if self._owner:
            self.unlink()
        else:
            self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else f"{len(self._descriptors)} maps, {self.nbytes()} bytes"
        side = "owner" if self._owner else "attached"
        return f"SharedMapStore({side}, {state})"


# ---------------------------------------------------------------------- janitor
#: Where POSIX shared memory surfaces as files on Linux.
_SHM_DIR = "/dev/shm"

#: The segment-name prefix :meth:`SharedMapStore.create` uses.
_SEGMENT_PREFIX = "repro-map-"


def _live_segment_names() -> set[str]:
    """Segment names some live owner in this process still claims."""
    return {d["segment"] for s in _LIVE_OWNERS for d in s._descriptors.values()}


def audit_shm_segments(shm_dir: str = _SHM_DIR) -> list[dict[str, Any]]:
    """Inventory every ``repro-map-*`` segment visible under ``shm_dir``.

    Returns one record per segment: ``{"segment", "age_seconds", "live"}``
    where ``live`` means a not-yet-unlinked owner in *this* process claims
    it.  Read-only — reaping is :func:`reap_leaked_segments`'s job.
    """
    try:
        names = os.listdir(shm_dir)
    except OSError:
        return []
    live = _live_segment_names()
    now = time.time()
    records = []
    for name in sorted(names):
        if not name.startswith(_SEGMENT_PREFIX):
            continue
        try:
            mtime = os.stat(os.path.join(shm_dir, name)).st_mtime
        except OSError:
            continue  # raced an unlink; nothing to report
        records.append(
            {"segment": name, "age_seconds": max(0.0, now - mtime), "live": name in live}
        )
    return records


def reap_leaked_segments(
    grace_seconds: float = 300.0, shm_dir: str = _SHM_DIR
) -> list[str]:
    """Unlink orphaned ``repro-map-*`` segments; returns the reaped names.

    A segment is orphaned when no live owner in this process claims it
    *and* it is at least ``grace_seconds`` old.  The grace period is the
    safety margin for concurrent sweeps in sibling processes on the same
    host — their freshly created segments are never touched; a segment
    that has sat unclaimed for minutes belongs to a driver that died
    without running its atexit guard.  Unlinking goes straight through
    the filesystem (no :class:`SharedMemory` attach), so even a
    truncated or corrupt leftover is reapable.
    """
    if grace_seconds < 0:
        raise ValueError(f"grace_seconds must be >= 0, got {grace_seconds}")
    reaped = []
    for record in audit_shm_segments(shm_dir):
        if record["live"] or record["age_seconds"] < grace_seconds:
            continue
        try:
            os.unlink(os.path.join(shm_dir, record["segment"]))
        except OSError:  # pragma: no cover - raced another janitor
            continue
        reaped.append(record["segment"])
    return reaped
