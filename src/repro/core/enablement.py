"""Composite granule maps and enablement counters.

For the indirect mappings the paper prescribes exactly this machinery:

    "Once the values of the information selection map … have been
    determined, it is a simple matter to produce a composite map of first
    phase granules that must be completed in order to enable a particular
    second phase granule."

    "during completion processing, a status bit … can be checked and, if
    it is set, an enablement counter decremented.  When the enablement
    counter reaches zero, it can be taken as a signal that the
    successor-phase granules are computable."

    "It would seem appropriate to identify a subset group of
    successor-phase granules that are to be the subject of the enablement
    operation so as to avoid solving an unnecessarily large enablement
    problem."

:class:`CompositeGranuleMap` is the executive-built table from successor
subset groups to required predecessor granule sets, held as flat arrays
(:class:`~repro.core.granule.GroupRuns`);
:class:`EnablementEngine` drives either the counter machinery (indirect
mappings: one counter per group in one array) or direct incremental
evaluation (universal / identity / seam) during completion processing.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.core.granule import GranuleSet, GroupRuns
from repro.core.mapping import EnablementMapping

__all__ = [
    "CompositeGroup",
    "CompositeGranuleMap",
    "CompositeMapCache",
    "EnablementEngine",
    "maps_fingerprint",
]


def maps_fingerprint(maps: Mapping[str, np.ndarray] | None):
    """A stable, cheap identity key for a set of concrete selection maps.

    Two map collections with the same fingerprint hold element-identical
    arrays, so composite-map work keyed on the fingerprint can be reused
    across runs (see :class:`CompositeMapCache`).  Stores that already
    know their identity (e.g. :class:`repro.sweep.shm.SharedMapStore`
    attachments, whose arrays are immutable shared segments) expose a
    ``fingerprint()`` method and skip the content hash entirely.
    """
    if maps is None:
        return None
    fp = getattr(maps, "fingerprint", None)
    if callable(fp):
        return fp()
    items = []
    for name in sorted(maps):
        arr = np.asarray(maps[name])
        if not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        items.append((name, arr.shape, str(arr.dtype), zlib.crc32(arr)))
    return tuple(items)


@dataclass(frozen=True, slots=True)
class CompositeGroup:
    """One composite-map entry: a successor subset and its requirement."""

    successors: GranuleSet
    required: GranuleSet


class CompositeGranuleMap:
    """Executive-generated table: successor subset group -> required set.

    Parameters
    ----------
    groups:
        The composite entries.  Successor subsets must be disjoint.

    Notes
    -----
    Generation cost matters: on the paper's UNIVAC test bed "executive
    computation was done at the direct expense of worker computation …
    extensive composite granule map generation could be self defeating."
    :meth:`build_cost` quantifies it so the simulator can charge the
    executive.

    The table is two :class:`~repro.core.granule.GroupRuns` in the same
    group order: :attr:`successors` and :attr:`required`.  The per-group
    :attr:`groups` objects are built on first read.
    """

    def __init__(self, groups: list[CompositeGroup]) -> None:
        successors = GroupRuns.from_sets([g.successors for g in groups])
        covered = successors.union()
        # the groups are pairwise disjoint exactly when their union loses
        # no granule to overlap
        if len(covered) != (successors.stops - successors.starts).sum():
            raise ValueError("composite map successor groups must be disjoint")
        required = GroupRuns.from_sets([g.required for g in groups])
        self._init(successors, required, covered, None, len(groups))
        self._groups = list(groups)

    def _init(self, successors, required, covered, build_args, rebuilt_groups) -> None:
        self.successors: GroupRuns = successors
        self.required: GroupRuns = required
        self.covered: GranuleSet = covered
        self._groups: list[CompositeGroup] | None = None
        # build provenance, set by build(); None for hand-assembled maps
        self._build_args: tuple | None = build_args
        #: groups recomputed by the last build (== n_groups for a cold
        #: build; the rebuild win is visible as reused = total - rebuilt)
        self.rebuilt_groups: int = rebuilt_groups

    @classmethod
    def build(
        cls,
        mapping: EnablementMapping,
        n_pred: int,
        n_succ: int,
        maps: Mapping[str, np.ndarray] | None = None,
        group_size: int = 1,
        target: GranuleSet | None = None,
        reuse: "CompositeGranuleMap | None" = None,
    ) -> "CompositeGranuleMap":
        """Build the composite map via the mapping's reverse direction.

        ``group_size`` granules per subset group trades table size against
        enablement latency (bigger groups fire later but cost less to
        build and check).  ``target`` restricts generation to a subset of
        the successor space — the paper's "subset group … to avoid
        solving an unnecessarily large enablement problem".  The groups
        cut the target front to back (:meth:`GroupRuns.chunks`), so two
        targets that share a prefix share their leading groups.

        ``reuse`` is a previously built map for the *same* ``(mapping,
        n_pred, n_succ, maps, group_size)``: any subset group whose
        successor set already appears there keeps its computed requirement
        and only the remainder goes through ``required_for_many`` — the
        incremental path behind :meth:`rebuild_targets`.  The caller is
        responsible for the sameness precondition (:class:`CompositeMapCache`
        enforces it with :func:`maps_fingerprint`).
        """
        if group_size < 1:
            raise ValueError(f"group_size must be >= 1, got {group_size}")
        space = target if target is not None else GranuleSet.universe(n_succ)
        successors = GroupRuns.chunks(space, group_size)
        if reuse is None:
            required = mapping.required_for_many(successors, n_pred, n_succ, maps)
            rebuilt = successors.n_groups
        else:
            # row of each group in reuse.required, then in the fresh rows
            rows = successors.find_in(reuse.successors)
            missing = np.flatnonzero(rows < 0)
            fresh = mapping.required_for_many(successors.take(missing), n_pred, n_succ, maps)
            rows[missing] = reuse.required.n_groups + np.arange(missing.size)
            required = GroupRuns.concat(reuse.required, fresh).take(rows)
            rebuilt = missing.size
        out = cls.__new__(cls)
        out._init(successors, required, space, (mapping, n_pred, n_succ, maps, group_size), rebuilt)
        return out

    def rebuild_targets(self, target: GranuleSet | None) -> "CompositeGranuleMap":
        """Rebuild this map for a different successor ``target`` set.

        Adjacent parameter-grid points often differ *only* in the targeted
        successor subset (the ``target_fraction`` axis): the mapping, the
        concrete selection maps and the group size are all unchanged, so
        every subset group shared between the old and new partition keeps
        its requirement and only the target-dependent suffix is recomputed.
        Only available on maps produced by :meth:`build` (hand-assembled
        maps carry no provenance to rebuild from).
        """
        if self._build_args is None:
            raise ValueError(
                "rebuild_targets needs a map produced by CompositeGranuleMap.build"
            )
        mapping, n_pred, n_succ, maps, group_size = self._build_args
        return CompositeGranuleMap.build(
            mapping, n_pred, n_succ, maps, group_size=group_size, target=target, reuse=self
        )

    @property
    def groups(self) -> list[CompositeGroup]:
        """The entries as objects, built on first read (priority elevation)."""
        if self._groups is None:
            self._groups = list(
                map(CompositeGroup, self.successors.sets(), self.required.sets())
            )
        return self._groups

    @property
    def n_groups(self) -> int:
        return self.successors.n_groups

    def total_required(self) -> int:
        """Sum of requirement sizes — the map-generation workload measure."""
        return int((self.required.stops - self.required.starts).sum())

    def build_cost(self, cost_per_entry: float) -> float:
        """Executive time to generate this map."""
        if cost_per_entry < 0:
            raise ValueError(f"negative cost_per_entry {cost_per_entry}")
        return cost_per_entry * self.total_required()

    def required_union(self) -> GranuleSet:
        """All predecessor granules that enable anything in the map.

        The control strategy elevates these in the waiting queue: "they
        should be split into individual descriptions and placed in the
        waiting computation queue in such a manner as to elevate their
        computational priority."
        """
        return self.required.union()


class CompositeMapCache:
    """Process-local memo of built composite maps, keyed by link identity.

    A parameter-grid sweep runs many executive simulations in the same
    worker process; adjacent grid points frequently share the mapping, the
    concrete selection maps and the group size and differ only in the
    targeted successor subset (the ``target_fraction`` axis).  This cache
    recognizes that case — identity is ``(mapping repr, n_pred, n_succ,
    group_size,`` :func:`maps_fingerprint` ``)`` — and answers it with
    :meth:`CompositeGranuleMap.rebuild_targets`, recomputing only the
    target-dependent suffix instead of the whole table.

    The cache never changes results: a hit rebuilds through the same
    ``required_for_many`` reverse mapping a cold build would run, so the
    produced map is element-identical (the Hypothesis
    differential tests pin this).  ``hits`` / ``misses`` /
    ``groups_reused`` expose the win for telemetry and benchmarks.
    """

    def __init__(self, max_entries: int = 8) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self._entries: dict[tuple, CompositeGranuleMap] = {}
        self._max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.groups_reused = 0

    def build(
        self,
        mapping: EnablementMapping,
        n_pred: int,
        n_succ: int,
        maps: Mapping[str, np.ndarray] | None = None,
        group_size: int = 1,
        target: GranuleSet | None = None,
    ) -> CompositeGranuleMap:
        """Drop-in for :meth:`CompositeGranuleMap.build` with reuse."""
        key = (repr(mapping), n_pred, n_succ, group_size, maps_fingerprint(maps))
        prev = self._entries.get(key)
        if prev is not None:
            out = prev.rebuild_targets(target)
            self.hits += 1
            self.groups_reused += out.n_groups - out.rebuilt_groups
        else:
            out = CompositeGranuleMap.build(
                mapping, n_pred, n_succ, maps, group_size=group_size, target=target
            )
            self.misses += 1
            while len(self._entries) >= self._max_entries:
                self._entries.pop(next(iter(self._entries)))
        self._entries[key] = out
        return out


class EnablementEngine:
    """Per-link enablement tracker driven by completion processing.

    Two operating modes, chosen from the mapping kind:

    * **direct** — universal, identity, seam, null: evaluate the forward
      mapping incrementally on each completion;
    * **counter** — reverse / forward indirect: build a
      :class:`CompositeGranuleMap` (costed separately by the executive)
      and count down one enablement counter per subset group.

    ``notify(delta)`` returns the successor granules that have *just*
    become enabled, never repeating earlier answers.

    The counters are one int64 array of outstanding requirement sizes.
    A CSR inverted index maps each predecessor granule to the groups it
    credits, so a whole completion delta is credited with a single
    ``np.bincount`` and only the groups that fire are touched in Python.
    """

    def __init__(
        self,
        mapping: EnablementMapping,
        n_pred: int,
        n_succ: int,
        maps: Mapping[str, np.ndarray] | None = None,
        group_size: int = 1,
        target: GranuleSet | None = None,
        composite_cache: CompositeMapCache | None = None,
    ) -> None:
        self.mapping = mapping
        self.n_pred = n_pred
        self.n_succ = n_succ
        self.maps = maps
        self.completed = GranuleSet.empty()
        self._enabled = GranuleSet.empty()
        self.composite: CompositeGranuleMap | None = None
        self._deferred: GranuleSet = GranuleSet.empty()
        # universes are immutable; recomputing them per pending/notify call
        # was a measurable constant drag on completion processing
        self._pred_universe = GranuleSet.universe(n_pred)
        self._succ_universe = GranuleSet.universe(n_succ)
        # counter state, None in direct mode (and for a map with no group):
        # outstanding credits and fired flag per composite group, and the
        # CSR inverted index, predecessor granule -> groups it credits
        self._counts: np.ndarray | None = None
        self._fired: np.ndarray | None = None
        self._index_offsets: np.ndarray | None = None
        self._index_gids: np.ndarray | None = None

        if mapping.kind.indirect:
            build = composite_cache.build if composite_cache is not None else CompositeGranuleMap.build
            cmap = self.composite = build(
                mapping, n_pred, n_succ, maps, group_size=group_size, target=target
            )
            # successor granules outside the targeted subset wait for phase end
            self._deferred = self._succ_universe - cmap.covered
            if cmap.n_groups:
                self._build_counters(cmap)
        else:
            self._enabled = mapping.enabled_by(self.completed, n_pred, n_succ, maps)

    def _build_counters(self, cmap: CompositeGranuleMap) -> None:
        """One counter per group, and the inverted index that credits them.

        A counter starts at its group's requirement size.  The index maps
        each predecessor granule to the groups it credits: the paper's
        completion processing checks "a status bit" per completed
        granule, and with the CSR layout ``notify(delta)`` touches only
        the groups ``delta`` credits instead of scanning every counter.
        The ``(pred, group)`` pairs are distinct, so one sort of ``pred *
        n_groups + group`` orders them predecessor-major.
        """
        preds, gids = cmap.required.expand()
        n_groups = cmap.n_groups
        self._counts = np.bincount(gids, minlength=n_groups)
        self._fired = self._counts == 0
        # groups with empty requirements are enabled immediately
        self._enabled = cmap.successors.take(np.flatnonzero(self._fired)).union()
        self._index_gids = np.sort(preds * n_groups + gids) % n_groups
        per_pred = np.bincount(preds, minlength=self.n_pred)
        self._index_offsets = np.concatenate(([0], np.cumsum(per_pred)))

    @property
    def enabled(self) -> GranuleSet:
        """Every successor granule enabled so far."""
        return self._enabled

    @property
    def pending(self) -> GranuleSet:
        """Successor granules not yet enabled."""
        return self._succ_universe - self._enabled

    def initially_enabled(self) -> GranuleSet:
        """Successor granules enabled before any completion (universal etc.)."""
        return self._enabled

    def notify(self, delta: GranuleSet) -> GranuleSet:
        """Process completion of ``delta`` predecessor granules.

        Returns the *newly* enabled successor granules.
        """
        if not delta:
            return GranuleSet.empty()
        fresh = delta - self.completed
        if not fresh:
            # a replayed/duplicate completion (retried task, crash
            # re-execution) must be a strict no-op: counters were already
            # credited and nothing new can fire — ``completed`` is
            # unchanged, so the deferred release below cannot trigger
            return GranuleSet.empty()
        self.completed = self.completed | delta
        if self._counts is not None:
            newly = self._credit(fresh)
            if self._deferred and len(self.completed) >= self.n_pred:
                newly = newly | self._deferred
                self._deferred = GranuleSet.empty()
        else:
            now_enabled = self.mapping.enabled_by(self.completed, self.n_pred, self.n_succ, self.maps)
            newly = now_enabled - self._enabled
        self._enabled = self._enabled | newly
        return newly

    def _credit(self, fresh: GranuleSet) -> GranuleSet:
        """Credit ``fresh`` completions in bulk through the inverted index.

        The index enumerates each ``(predecessor granule, group)`` pair
        exactly once and ``fresh`` is disjoint from everything already
        credited, so one ``np.bincount`` over the index slices for the
        fresh ranges yields ``|fresh ∩ required|`` per group — the whole
        delta lands in a single vectorized subtraction.
        """
        offsets, gids = self._index_offsets, self._index_gids
        counts, fired, cmap = self._counts, self._fired, self.composite
        assert offsets is not None and gids is not None and cmap is not None
        assert counts is not None and fired is not None
        parts: list[np.ndarray] = []
        for s, e in fresh.spans():
            lo = offsets[min(max(s, 0), self.n_pred)]
            hi = offsets[min(max(e, 0), self.n_pred)]
            if hi > lo:
                parts.append(gids[lo:hi])
        if not parts:
            return GranuleSet.empty()
        touched = np.concatenate(parts) if len(parts) > 1 else parts[0]
        counts -= np.bincount(touched, minlength=len(counts))
        newly_fired = np.flatnonzero((counts <= 0) & ~fired)
        if newly_fired.size == 0:
            return GranuleSet.empty()
        fired[newly_fired] = True
        return cmap.successors.take(newly_fired).union()

    def complete_all(self) -> GranuleSet:
        """Force phase completion; returns whatever was still pending."""
        remaining = self._pred_universe - self.completed
        newly = self.notify(remaining) if remaining else GranuleSet.empty()
        # Even with every predecessor complete, counters for targeted groups
        # have fired; anything left in the successor space is now free.
        leftover = self._succ_universe - self._enabled
        self._enabled = self._succ_universe
        return newly | leftover
