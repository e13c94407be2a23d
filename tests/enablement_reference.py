"""Reference enablement counters: one object per group, every one scanned.

Before the inverted index and the counter array, the engine's counter
mode held one :class:`EnablementCounter` per composite group and, on each
completion, offered the completed granules to every counter.  That scan
is kept here as the reference for ``tests/test_enablement.py`` and for
the ``enablement_notify`` benchmark's ``speedup_vs_scan``.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.core.enablement import CompositeGranuleMap
from repro.core.granule import GranuleSet
from repro.core.mapping import EnablementMapping


class EnablementCounter:
    """Countdown over a required predecessor granule set.

    The successor work it guards becomes computable when every required
    granule has completed — "it is enabled not by the completion of any
    one such granule but by the completion of all the identified
    granules."
    """

    def __init__(self, required: GranuleSet) -> None:
        self._remaining = required
        self._required = required
        self.fired = len(required) == 0

    @property
    def required(self) -> GranuleSet:
        """The full original requirement."""
        return self._required

    @property
    def remaining(self) -> GranuleSet:
        """Required granules not yet completed."""
        return self._remaining

    @property
    def count(self) -> int:
        """The enablement counter value (granules still outstanding)."""
        return len(self._remaining)

    def on_complete(self, done: GranuleSet) -> bool:
        """Credit completed granules; True exactly when the counter hits zero."""
        if self.fired:
            return False
        self._remaining = self._remaining - done
        if not self._remaining:
            self.fired = True
            return True
        return False


class ScanEngine:
    """The counter mode of :class:`~repro.core.enablement.EnablementEngine`
    for an indirect mapping, crediting by a scan of every counter.

    Same interface and answers: ``initially_enabled``, ``notify``,
    ``enabled``, ``pending`` and ``complete_all``.
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
        assert mapping.kind.indirect, "the scan reference covers counter mode only"
        composite = CompositeGranuleMap.build(
            mapping, n_pred, n_succ, maps, group_size=group_size, target=target
        )
        self.n_pred = n_pred
        self.counters = [(g.successors, EnablementCounter(g.required)) for g in composite.groups]
        self.completed = GranuleSet.empty()
        self.deferred = GranuleSet.universe(n_succ) - composite.covered
        self.universe = GranuleSet.universe(n_succ)
        self.enabled = GranuleSet.union_all(s for s, c in self.counters if c.fired)

    @property
    def pending(self) -> GranuleSet:
        return self.universe - self.enabled

    def initially_enabled(self) -> GranuleSet:
        return self.enabled

    def notify(self, delta: GranuleSet) -> GranuleSet:
        fresh = delta - self.completed
        if not fresh:
            return GranuleSet.empty()
        self.completed = self.completed | delta
        newly = GranuleSet.union_all(s for s, c in self.counters if c.on_complete(fresh))
        if self.deferred and len(self.completed) >= self.n_pred:
            newly = newly | self.deferred
            self.deferred = GranuleSet.empty()
        self.enabled = self.enabled | newly
        return newly

    def complete_all(self) -> GranuleSet:
        remaining = GranuleSet.universe(self.n_pred) - self.completed
        newly = self.notify(remaining) if remaining else GranuleSet.empty()
        leftover = self.universe - self.enabled
        self.enabled = self.universe
        return newly | leftover
