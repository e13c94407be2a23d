"""Tests for enablement counters, composite maps and the engine."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import granule
from repro.core.enablement import CompositeGranuleMap, CompositeGroup, EnablementEngine
from repro.core.granule import GranuleSet
from repro.core.mapping import (
    ForwardIndirectMapping,
    IdentityMapping,
    ReverseIndirectMapping,
    SeamMapping,
    UniversalMapping,
)
from tests.enablement_reference import EnablementCounter, ScanEngine


class TestEnablementCounter:
    def test_counts_down_and_fires_once(self):
        c = EnablementCounter(GranuleSet.from_ids([1, 3, 5]))
        assert c.count == 3
        assert not c.on_complete(GranuleSet.from_ids([1]))
        assert c.count == 2
        assert not c.on_complete(GranuleSet.from_ids([2]))  # irrelevant granule
        assert c.on_complete(GranuleSet.from_ids([3, 5]))
        assert c.fired and c.count == 0
        assert not c.on_complete(GranuleSet.from_ids([1]))  # never fires twice

    def test_empty_requirement_prefired(self):
        c = EnablementCounter(GranuleSet.empty())
        assert c.fired
        assert not c.on_complete(GranuleSet.from_ids([0]))

    def test_required_preserved(self):
        req = GranuleSet.from_ids([2, 4])
        c = EnablementCounter(req)
        c.on_complete(GranuleSet.from_ids([2]))
        assert c.required == req
        assert c.remaining == GranuleSet.from_ids([4])


class TestCompositeGranuleMap:
    def setup_method(self):
        self.maps = {"M": np.array([[0, 1, 2, 3], [1, 2, 3, 0]])}
        self.mapping = ReverseIndirectMapping("M", fan_in=2)

    def test_build_groups_cover_successor_space(self):
        cm = CompositeGranuleMap.build(self.mapping, 4, 4, self.maps, group_size=2)
        assert cm.n_groups == 2
        assert cm.covered == GranuleSet.universe(4)

    def test_group_requirements(self):
        cm = CompositeGranuleMap.build(self.mapping, 4, 4, self.maps, group_size=1)
        assert cm.groups[0].required == GranuleSet.from_ids([0, 1])
        assert cm.groups[2].required == GranuleSet.from_ids([2, 3])

    def test_build_cost_scales_with_entries(self):
        cm = CompositeGranuleMap.build(self.mapping, 4, 4, self.maps, group_size=1)
        assert cm.build_cost(0.5) == 0.5 * cm.total_required()
        with pytest.raises(ValueError):
            cm.build_cost(-1)

    def test_target_subset_restricts_coverage(self):
        target = GranuleSet.from_ranges([(0, 2)])
        cm = CompositeGranuleMap.build(self.mapping, 4, 4, self.maps, group_size=1, target=target)
        assert cm.covered == target

    def test_required_union(self):
        cm = CompositeGranuleMap.build(self.mapping, 4, 4, self.maps, group_size=4)
        assert cm.required_union() == GranuleSet.universe(4)

    def test_group_size_validation(self):
        with pytest.raises(ValueError):
            CompositeGranuleMap.build(self.mapping, 4, 4, self.maps, group_size=0)


class TestEnablementEngine:
    def test_universal_initially_enabled(self):
        e = EnablementEngine(UniversalMapping(), 8, 8)
        assert e.initially_enabled() == GranuleSet.universe(8)
        assert not e.notify(GranuleSet.from_ids([0]))  # nothing new

    def test_identity_incremental(self):
        e = EnablementEngine(IdentityMapping(), 8, 8)
        assert not e.initially_enabled()
        assert e.notify(GranuleSet.from_ranges([(0, 3)])) == GranuleSet.from_ranges([(0, 3)])
        assert e.notify(GranuleSet.from_ranges([(3, 5)])) == GranuleSet.from_ranges([(3, 5)])
        # repeating a completion yields nothing new
        assert not e.notify(GranuleSet.from_ranges([(0, 5)]))

    def test_seam_engine(self):
        e = EnablementEngine(SeamMapping((-1, 0, 1)), 6, 6)
        newly = e.notify(GranuleSet.from_ranges([(0, 3)]))
        assert newly == GranuleSet.from_ranges([(0, 2)])
        newly = e.notify(GranuleSet.from_ranges([(3, 6)]))
        assert newly == GranuleSet.from_ranges([(2, 6)])

    def test_reverse_counter_mode(self):
        maps = {"M": np.array([[0, 1], [1, 2]])}
        e = EnablementEngine(ReverseIndirectMapping("M", fan_in=2), 3, 2, maps, group_size=1)
        assert e.composite is not None
        assert not e.notify(GranuleSet.from_ids([0]))
        assert e.notify(GranuleSet.from_ids([1])) == GranuleSet.from_ids([0])
        assert e.notify(GranuleSet.from_ids([2])) == GranuleSet.from_ids([1])

    def test_forward_counter_mode(self):
        maps = {"F": np.array([1, 1, 0])}
        e = EnablementEngine(ForwardIndirectMapping("F"), 3, 3, maps, group_size=1)
        # successor 2 has no writer: enabled immediately
        assert 2 in e.enabled
        newly = e.notify(GranuleSet.from_ids([0, 1]))
        assert newly == GranuleSet.from_ids([1])

    def test_target_defers_untargeted(self):
        maps = {"M": np.array([0, 1, 2, 3])}
        target = GranuleSet.from_ranges([(0, 2)])
        e = EnablementEngine(
            ReverseIndirectMapping("M", fan_in=1), 4, 4, maps, group_size=1, target=target
        )
        # granule 2 enables successor 2, but 2 is untargeted -> deferred
        assert not e.notify(GranuleSet.from_ids([2]))
        e.notify(GranuleSet.from_ids([0]))
        assert e.enabled == GranuleSet.from_ids([0])
        # full predecessor completion releases the deferred remainder
        newly = e.notify(GranuleSet.from_ids([1, 3]))
        assert newly == GranuleSet.from_ids([1, 2, 3])

    def test_complete_all_releases_everything(self):
        e = EnablementEngine(IdentityMapping(), 4, 6)
        e.notify(GranuleSet.from_ids([0]))
        rest = e.complete_all()
        assert e.enabled == GranuleSet.universe(6)
        assert 0 not in rest  # already enabled granules not re-released

    def test_pending_is_complement(self):
        e = EnablementEngine(IdentityMapping(), 4, 4)
        e.notify(GranuleSet.from_ids([1]))
        assert e.pending == GranuleSet.from_ids([0, 2, 3])


# ---------------------------------------------------------------- properties
@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=24),
    st.integers(min_value=1, max_value=24),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=9999),
    st.lists(st.sets(st.integers(0, 23), max_size=8), max_size=6),
)
def test_counter_engine_safe_and_exact(n_pred, n_succ, fan_in, group_size, seed, steps):
    """The counter machinery never enables a successor granule before
    direct mapping evaluation would (safety, any group size), and with
    single-granule groups it is exactly as eager (no lost enablements).
    Grouped counters fire later by design — a group waits for the union
    of its members' requirements."""
    rng = np.random.default_rng(seed)
    maps = {"M": rng.integers(0, n_pred, size=(fan_in, n_succ))}
    mapping = ReverseIndirectMapping("M", fan_in=fan_in)
    engine = EnablementEngine(mapping, n_pred, n_succ, maps, group_size=group_size)
    completed = GranuleSet.empty()
    for step in steps:
        delta = GranuleSet.from_ids(i for i in step if i < n_pred) - completed
        completed = completed | delta
        engine.notify(delta)
        direct = mapping.enabled_by(completed, n_pred, n_succ, maps)
        assert engine.enabled.issubset(direct), "counter enabled a granule too early"
        if group_size == 1:
            assert engine.enabled == direct
    # full completion closes any remaining gap
    engine.notify(GranuleSet.universe(n_pred) - completed)
    assert engine.enabled == GranuleSet.universe(n_succ)


# ---------------------------------------------------------- inverted index
@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=4),
    st.sampled_from(["reverse", "forward"]),
    st.integers(min_value=0, max_value=9999),
    st.lists(st.sets(st.integers(0, 39), max_size=10), max_size=8),
)
def test_indexed_notify_matches_full_scan(
    n_pred, n_succ, fan_in, group_size, kind, seed, steps
):
    """The inverted predecessor->group index is a pure optimization: at
    every step it enables exactly what the full-counter-scan reference
    (``tests/enablement_reference.py``) enables."""
    rng = np.random.default_rng(seed)
    if kind == "reverse":
        maps = {"M": rng.integers(0, n_pred, size=(fan_in, n_succ))}
        mapping = ReverseIndirectMapping("M", fan_in=fan_in)
    else:
        maps = {"F": rng.integers(0, max(n_succ, 1), size=n_pred)}
        mapping = ForwardIndirectMapping("F")
    fast = EnablementEngine(mapping, n_pred, n_succ, maps, group_size=group_size)
    scan = ScanEngine(mapping, n_pred, n_succ, maps, group_size=group_size)
    assert fast.initially_enabled() == scan.initially_enabled()
    completed = GranuleSet.empty()
    for step in steps:
        delta = GranuleSet.from_ids(i for i in step if i < n_pred)
        completed = completed | delta
        assert fast.notify(delta) == scan.notify(delta)
        assert fast.enabled == scan.enabled
        assert fast.pending == scan.pending
    assert fast.complete_all() == scan.complete_all()
    assert fast.enabled == GranuleSet.universe(n_succ)


# ------------------------------------------------------ vectorized counters
@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=4),
    st.sampled_from(["reverse", "forward"]),
    st.integers(min_value=0, max_value=9999),
    st.floats(min_value=0.25, max_value=1.0),
    st.lists(st.sets(st.integers(0, 39), max_size=10), max_size=8),
)
def test_vectorized_notify_matches_both_references(
    n_pred, n_succ, fan_in, group_size, kind, seed, target_frac, steps
):
    """The ``np.bincount`` bulk-credit path against two references, with a
    restricted target subset (deferred release): it enables exactly what
    the full-counter scan (``ScanEngine``) enables at every step, and
    until the last predecessor completes it stays within direct mapping
    evaluation restricted to the target — equal to it with
    single-granule groups, since grouped counters fire later by design."""
    rng = np.random.default_rng(seed)
    if kind == "reverse":
        maps = {"M": rng.integers(0, n_pred, size=(fan_in, n_succ))}
        mapping = ReverseIndirectMapping("M", fan_in=fan_in)
    else:
        maps = {"F": rng.integers(0, max(n_succ, 1), size=n_pred)}
        mapping = ForwardIndirectMapping("F")
    target = GranuleSet.universe(max(1, int(target_frac * n_succ)))
    vec = EnablementEngine(
        mapping, n_pred, n_succ, maps, group_size=group_size, target=target
    )
    scan = ScanEngine(mapping, n_pred, n_succ, maps, group_size=group_size, target=target)
    assert vec._counts is not None
    assert vec.initially_enabled() == scan.initially_enabled()
    completed = GranuleSet.empty()
    for step in [set()] + steps:
        delta = GranuleSet.from_ids(i for i in step if i < n_pred)
        completed = completed | delta
        assert vec.notify(delta) == scan.notify(delta)
        assert vec.enabled == scan.enabled
        if len(completed) < n_pred:
            direct = mapping.enabled_by(completed, n_pred, n_succ, maps) & target
            assert vec.enabled.issubset(direct), "enabled a granule too early"
            if group_size == 1:
                assert vec.enabled == direct
        else:
            assert vec.enabled == GranuleSet.universe(n_succ)
    assert vec.complete_all() == scan.complete_all()
    assert vec.enabled == GranuleSet.universe(n_succ)


class TestVectorizedEngineEdges:
    def test_counter_fired_flags_synced(self):
        maps = {"M": np.arange(6)[None, :]}
        e = EnablementEngine(ReverseIndirectMapping("M", fan_in=1), 6, 6, maps)
        assert e._counts is not None
        e.notify(GranuleSet.from_ranges([(0, 3)]))
        assert list(e._counts) == [0] * 3 + [1] * 3
        assert list(e._fired) == [True] * 3 + [False] * 3

    def test_direct_mapping_has_no_vector_state(self):
        e = EnablementEngine(IdentityMapping(), 5, 5)
        assert e._counts is None and e._fired is None


class TestIndexedEngineEdges:
    def test_notify_empty_delta_touches_nothing(self):
        maps = {"M": np.arange(6)[None, :]}
        e = EnablementEngine(ReverseIndirectMapping("M", fan_in=1), 6, 6, maps, group_size=1)
        assert not e.notify(GranuleSet.empty())
        assert e.pending == GranuleSet.universe(6)

    def test_repeated_notify_is_idempotent(self):
        maps = {"M": np.arange(8)[None, :]}
        e = EnablementEngine(ReverseIndirectMapping("M", fan_in=1), 8, 8, maps, group_size=1)
        first = e.notify(GranuleSet.from_ranges([(0, 4)]))
        assert first == GranuleSet.from_ranges([(0, 4)])
        assert not e.notify(GranuleSet.from_ranges([(0, 4)]))
        assert e.enabled == GranuleSet.from_ranges([(0, 4)])

    def test_pending_uses_cached_universe(self):
        e = EnablementEngine(IdentityMapping(), 5, 5)
        # same object both calls: the universe is built once in __init__
        assert e._succ_universe is e._succ_universe
        before = e.pending
        e.notify(GranuleSet.from_ids([2]))
        assert e.pending == before - GranuleSet.from_ids([2])


# ------------------------------------------------------ no per-group objects
class TestArrayBuild:
    def test_groups_built_only_when_read(self):
        maps = {"M": np.array([[0, 1, 2, 3], [1, 2, 3, 0]])}
        cm = CompositeGranuleMap.build(ReverseIndirectMapping("M", fan_in=2), 4, 4, maps)
        assert cm._groups is None
        assert cm.total_required() == 8 and cm.n_groups == 4
        assert cm.groups[1] == CompositeGroup(GranuleSet.from_ids([1]), GranuleSet.from_ids([1, 2]))
        assert cm.groups is cm.groups

    def test_engine_build_at_benchmark_shape_makes_few_sets(self, monkeypatch):
        """Building the engine for a 50,000-granule fan-in-4 reverse-indirect
        link (the ``indirect-enable`` benchmark shape, 6,250 groups of 8)
        makes a handful of sets, not one or more per group."""
        n, fan_in, group_size = 50_000, 4, 8
        built = []
        new, init = granule._new, GranuleSet.__init__

        def counting_new(bounds, size):
            built.append(size)
            return new(bounds, size)

        def counting_init(self, ranges=()):
            built.append(None)
            init(self, ranges)

        monkeypatch.setattr(granule, "_new", counting_new)
        monkeypatch.setattr(GranuleSet, "__init__", counting_init)
        GranuleSet.universe(3)
        GranuleSet()
        assert len(built) == 2, "patch inactive"
        built.clear()
        maps = {"M": np.random.default_rng(0).integers(0, n, size=(fan_in, n))}
        e = EnablementEngine(
            ReverseIndirectMapping("M", fan_in=fan_in), n, n, maps, group_size=group_size
        )
        assert e.composite is not None and e.composite._groups is None
        assert len(built) <= 16, f"{len(built)} sets for {e.composite.n_groups} groups"
