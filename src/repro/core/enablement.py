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

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.core.granule import GranuleSet, GroupRuns
from repro.core.mapping import EnablementMapping

__all__ = [
    "CompositeGroup",
    "CompositeGranuleMap",
    "EnablementEngine",
]


@dataclass(frozen=True, slots=True)
class CompositeGroup:
    """One composite-map entry: a successor subset and its requirement."""

    successors: GranuleSet
    required: GranuleSet


class CompositeGranuleMap:
    """Executive-generated table: successor subset group -> required set.

    :meth:`build` makes it.  The table is two
    :class:`~repro.core.granule.GroupRuns` in the same group order:
    :attr:`successors`, pairwise disjoint, and :attr:`required`, each
    group's required predecessor granules; :attr:`covered` is the union
    of the successors.  The per-group :attr:`groups` objects are built on
    first read.

    Notes
    -----
    Generation cost matters: on the paper's UNIVAC test bed "executive
    computation was done at the direct expense of worker computation …
    extensive composite granule map generation could be self defeating."
    :meth:`build_cost` quantifies it so the simulator can charge the
    executive.
    """

    def __init__(self, successors: GroupRuns, required: GroupRuns, covered: GranuleSet) -> None:
        self.successors = successors
        self.required = required
        self.covered = covered
        self._groups: list[CompositeGroup] | None = None

    @classmethod
    def build(
        cls,
        mapping: EnablementMapping,
        n_pred: int,
        n_succ: int,
        maps: Mapping[str, np.ndarray] | None = None,
        group_size: int = 1,
        target: GranuleSet | None = None,
    ) -> "CompositeGranuleMap":
        """Build the composite map via the mapping's reverse direction.

        ``group_size`` granules per subset group trades table size against
        enablement latency (bigger groups fire later but cost less to
        build and check).  ``target`` restricts generation to a subset of
        the successor space — the paper's "subset group … to avoid
        solving an unnecessarily large enablement problem".  The groups
        cut the target front to back (:meth:`GroupRuns.chunks`).
        """
        if group_size < 1:
            raise ValueError(f"group_size must be >= 1, got {group_size}")
        space = target if target is not None else GranuleSet.universe(n_succ)
        successors = GroupRuns.chunks(space, group_size)
        required = mapping.required_for_many(successors, n_pred, n_succ, maps)
        return cls(successors, required, space)

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
            cmap = self.composite = CompositeGranuleMap.build(
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
