"""Hypothesis differential tests for the zero-copy path.

Shared memory is invisible: any mapping computation fed a
:class:`SharedMapStore` attachment must produce element-identical results
to the same computation fed the plain dict of arrays the store was
created from — `required_for` / `required_for_many` / `enabled_by` and
`CompositeGranuleMap.build` never see the difference.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.enablement import CompositeGranuleMap
from repro.core.granule import GranuleSet, GroupRuns
from repro.core.mapping import ForwardIndirectMapping, ReverseIndirectMapping
from repro.sweep.shm import SharedMapStore

# Small-but-jagged spaces: enough to exercise group partitioning and
# ragged final groups without slowing the suite down.
dims = st.tuples(st.integers(1, 40), st.integers(1, 40))


@st.composite
def indirect_case(draw):
    """A mapping, its concrete map dict, and the space dimensions."""
    n_pred, n_succ = draw(dims)
    fan = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**20))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        mapping = ReverseIndirectMapping("IMAP", fan_in=fan)
        maps = {"IMAP": rng.integers(0, n_pred, size=(fan, n_succ))}
    else:
        mapping = ForwardIndirectMapping("FMAP", fan_out=fan)
        maps = {"FMAP": rng.integers(0, n_succ, size=(fan, n_pred))}
    return mapping, maps, n_pred, n_succ


@st.composite
def granule_subset(draw, n):
    """A random subset of [0, n) as a GranuleSet (possibly empty)."""
    ids = draw(st.sets(st.integers(0, n - 1), max_size=n))
    return GranuleSet.from_sorted_ids(np.array(sorted(ids), dtype=np.int64))


class TestSharedStoreSubstitution:
    @settings(max_examples=60, deadline=None)
    @given(case=indirect_case(), data=st.data())
    def test_required_for_is_element_identical(self, case, data):
        mapping, maps, n_pred, n_succ = case
        successors = data.draw(granule_subset(n_succ))
        with SharedMapStore.create(maps) as store:
            attached = SharedMapStore.attach(store.descriptors())
            try:
                via_dict = mapping.required_for(successors, n_pred, n_succ, maps)
                via_store = mapping.required_for(successors, n_pred, n_succ, attached)
            finally:
                attached.close()
        assert via_store == via_dict

    @settings(max_examples=60, deadline=None)
    @given(case=indirect_case(), group_size=st.integers(1, 9))
    def test_required_for_many_is_element_identical(self, case, group_size):
        mapping, maps, n_pred, n_succ = case
        groups = GroupRuns.chunks(GranuleSet.universe(n_succ), group_size)
        with SharedMapStore.create(maps) as store:
            attached = SharedMapStore.attach(store.descriptors())
            try:
                via_dict = mapping.required_for_many(groups, n_pred, n_succ, maps)
                via_store = mapping.required_for_many(groups, n_pred, n_succ, attached)
            finally:
                attached.close()
        assert via_store.sets() == via_dict.sets()

    @settings(max_examples=60, deadline=None)
    @given(case=indirect_case(), data=st.data())
    def test_enabled_by_is_element_identical(self, case, data):
        mapping, maps, n_pred, n_succ = case
        completed = data.draw(granule_subset(n_pred))
        with SharedMapStore.create(maps) as store:
            via_dict = mapping.enabled_by(completed, n_pred, n_succ, maps)
            via_store = mapping.enabled_by(completed, n_pred, n_succ, store)
        assert via_store == via_dict

    @settings(max_examples=30, deadline=None)
    @given(case=indirect_case(), group_size=st.integers(1, 6))
    def test_composite_build_matches_through_store(self, case, group_size):
        mapping, maps, n_pred, n_succ = case
        with SharedMapStore.create(maps) as store:
            via_dict = CompositeGranuleMap.build(
                mapping, n_pred, n_succ, maps, group_size=group_size
            )
            via_store = CompositeGranuleMap.build(
                mapping, n_pred, n_succ, store, group_size=group_size
            )
        assert via_store.groups == via_dict.groups

