"""Unit and property tests for granule interval-set algebra."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.granule import GranuleRange, GranuleSet
from repro.executive import run_program
from repro.sweep import build_workload


# ---------------------------------------------------------------- GranuleRange
class TestGranuleRange:
    def test_length_and_contains(self):
        r = GranuleRange(3, 8)
        assert len(r) == 5
        assert 3 in r and 7 in r
        assert 8 not in r and 2 not in r

    def test_empty_range(self):
        r = GranuleRange(4, 4)
        assert r.empty
        assert len(r) == 0
        assert 4 not in r

    def test_invalid_range_raises(self):
        with pytest.raises(ValueError):
            GranuleRange(5, 4)

    def test_iteration_order(self):
        assert list(GranuleRange(2, 6)) == [2, 3, 4, 5]

    def test_overlaps(self):
        assert GranuleRange(0, 5).overlaps(GranuleRange(4, 9))
        assert not GranuleRange(0, 5).overlaps(GranuleRange(5, 9))
        assert not GranuleRange(0, 5).overlaps(GranuleRange(8, 9))

    def test_adjacent(self):
        assert GranuleRange(0, 5).adjacent(GranuleRange(5, 9))
        assert GranuleRange(5, 9).adjacent(GranuleRange(0, 5))
        assert not GranuleRange(0, 5).adjacent(GranuleRange(6, 9))

    def test_intersection(self):
        got = GranuleRange(0, 8).intersection(GranuleRange(5, 12))
        assert (got.start, got.stop) == (5, 8)

    def test_intersection_disjoint_is_empty(self):
        assert GranuleRange(0, 3).intersection(GranuleRange(7, 9)).empty

    def test_split_at(self):
        a, b = GranuleRange(0, 10).split_at(4)
        assert (a.start, a.stop) == (0, 4)
        assert (b.start, b.stop) == (4, 10)

    def test_split_at_boundary(self):
        a, b = GranuleRange(0, 10).split_at(0)
        assert a.empty and len(b) == 10

    def test_split_outside_raises(self):
        with pytest.raises(ValueError):
            GranuleRange(2, 5).split_at(6)

    def test_take_clamps(self):
        head, rest = GranuleRange(0, 5).take(100)
        assert len(head) == 5 and rest.empty
        head, rest = GranuleRange(0, 5).take(-3)
        assert head.empty and len(rest) == 5


# ---------------------------------------------------------------- GranuleSet
class TestGranuleSet:
    def test_normalization_merges_adjacent_and_overlapping(self):
        s = GranuleSet.from_ranges([(0, 3), (3, 5), (4, 8), (10, 12)])
        assert s.ranges == (GranuleRange(0, 8), GranuleRange(10, 12))
        with pytest.raises(ValueError):
            GranuleSet.from_ranges([(5, 3)])

    def test_from_ids(self):
        s = GranuleSet.from_ids([5, 1, 2, 3, 9])
        assert s.ranges == (GranuleRange(1, 4), GranuleRange(5, 6), GranuleRange(9, 10))
        assert len(s) == 5

    def test_universe_and_empty(self):
        assert len(GranuleSet.universe(7)) == 7
        assert not GranuleSet.empty()
        assert GranuleSet.universe(0) == GranuleSet.empty()
        with pytest.raises(ValueError):
            GranuleSet.universe(-1)

    def test_contains_binary_search(self):
        s = GranuleSet.from_ranges([(0, 5), (100, 105), (1000, 1001)])
        for g in [0, 4, 100, 104, 1000]:
            assert g in s
        for g in [-1, 5, 99, 105, 999, 1001]:
            assert g not in s

    def test_union(self):
        a = GranuleSet.from_ranges([(0, 5)])
        b = GranuleSet.from_ranges([(3, 8), (10, 12)])
        assert (a | b).ranges == (GranuleRange(0, 8), GranuleRange(10, 12))

    def test_intersection(self):
        a = GranuleSet.from_ranges([(0, 10), (20, 30)])
        b = GranuleSet.from_ranges([(5, 25)])
        assert (a & b).ranges == (GranuleRange(5, 10), GranuleRange(20, 25))

    def test_difference(self):
        a = GranuleSet.from_ranges([(0, 10)])
        b = GranuleSet.from_ranges([(3, 5), (7, 8)])
        assert (a - b).ranges == (
            GranuleRange(0, 3),
            GranuleRange(5, 7),
            GranuleRange(8, 10),
        )

    def test_difference_nothing_left(self):
        a = GranuleSet.from_ranges([(2, 6)])
        assert not (a - GranuleSet.from_ranges([(0, 10)]))

    def test_subset_and_disjoint(self):
        a = GranuleSet.from_ranges([(2, 4)])
        b = GranuleSet.from_ranges([(0, 10)])
        assert a.issubset(b)
        assert not b.issubset(a)
        assert a.isdisjoint(GranuleSet.from_ranges([(4, 6)]))
        assert not a.isdisjoint(GranuleSet.from_ranges([(3, 6)]))

    def test_complement(self):
        s = GranuleSet.from_ranges([(2, 4), (6, 8)])
        assert s.complement(10).ranges == (
            GranuleRange(0, 2),
            GranuleRange(4, 6),
            GranuleRange(8, 10),
        )

    def test_min_max(self):
        s = GranuleSet.from_ranges([(3, 5), (9, 11)])
        assert s.min() == 3
        assert s.max() == 10

    def test_min_max_empty_raise(self):
        with pytest.raises(ValueError):
            GranuleSet.empty().min()
        with pytest.raises(ValueError):
            GranuleSet.empty().max()

    def test_take_splits_across_ranges(self):
        s = GranuleSet.from_ranges([(0, 3), (10, 15)])
        head, rest = s.take(5)
        assert list(head) == [0, 1, 2, 10, 11]
        assert list(rest) == [12, 13, 14]

    def test_take_zero_and_all(self):
        s = GranuleSet.from_ranges([(0, 4)])
        head, rest = s.take(0)
        assert not head and rest == s
        head, rest = s.take(99)
        assert head == s and not rest

    def test_equality_and_hash(self):
        a = GranuleSet.from_ranges([(0, 3), (3, 6)])
        b = GranuleSet.from_ranges([(0, 6)])
        assert a == b
        assert hash(a) == hash(b)

    def test_iteration_is_sorted(self):
        s = GranuleSet.from_ids([9, 1, 5, 2])
        assert list(s) == sorted(s)


# ---------------------------------------------------------------- properties
ids_strategy = st.lists(st.integers(min_value=0, max_value=200), max_size=60)


@settings(max_examples=200, deadline=None)
@given(ids_strategy, ids_strategy, st.integers(min_value=0, max_value=80))
def test_set_algebra_matches_python_sets(a_ids, b_ids, k):
    """GranuleSet algebra agrees with frozenset semantics."""
    a, b = GranuleSet.from_ids(a_ids), GranuleSet.from_ids(b_ids)
    sa, sb = set(a_ids), set(b_ids)
    assert set(a | b) == sa | sb
    assert set(a & b) == sa & sb
    assert set(a - b) == sa - sb
    assert a.issubset(b) == sa.issubset(sb)
    assert a.isdisjoint(b) == sa.isdisjoint(sb)
    assert len(a) == len(sa)
    # every result's cached size and membership test agree with the model
    ordered = sorted(sa)
    results = [
        (a | b, sa | sb),
        (a & b, sa & sb),
        (a - b, sa - sb),
        (a.take(k)[0], set(ordered[:k])),
        (a.take(k)[1], set(ordered[k:])),
    ]
    probes = {-1, 0, 100, 200, 201} | {i + d for i in a_ids[:4] + b_ids[:4] for d in (-1, 0, 1)}
    for got, model in results:
        assert len(got) == len(model)
        for g in probes:
            assert (g in got) == (g in model)


@settings(max_examples=200, deadline=None)
@given(ids_strategy)
def test_canonical_form_invariant(ids):
    """Ranges are sorted, disjoint, non-adjacent and non-empty."""
    s = GranuleSet.from_ids(ids)
    ranges = s.ranges
    for r in ranges:
        assert len(r) > 0
    for r1, r2 in zip(ranges, ranges[1:]):
        assert r1.stop < r2.start  # strict gap: no overlap, no adjacency


@settings(max_examples=100, deadline=None)
@given(ids_strategy, st.integers(min_value=0, max_value=80))
def test_take_partitions(ids, n):
    s = GranuleSet.from_ids(ids)
    head, rest = s.take(n)
    assert len(head) == min(n, len(s))
    assert (head | rest) == s
    assert head.isdisjoint(rest)
    if head and rest:
        assert head.max() < rest.min()


@settings(max_examples=100, deadline=None)
@given(ids_strategy, st.integers(min_value=1, max_value=300))
def test_complement_involution(ids, n):
    s = GranuleSet.from_ids(i for i in ids if i < n)
    assert s.complement(n).complement(n) == s
    assert len(s) + len(s.complement(n)) == n


@pytest.mark.parametrize(
    "workload, params",
    [
        ("identity", {"n": 256}),
        ("reverse-indirect", {"n": 256, "fan_in": 2}),
        ("casper", {"granule_scale": 0.1}),
    ],
)
def test_simulation_builds_no_granule_ranges(monkeypatch, workload, params):
    """Simulation works on boundary tuples; ranges exist only for readers."""
    built: list[tuple[int, int]] = []
    post_init = GranuleRange.__post_init__

    def counting(self):
        built.append((self.start, self.stop))
        post_init(self)

    monkeypatch.setattr(GranuleRange, "__post_init__", counting)
    assert GranuleSet.universe(3).ranges == (GranuleRange(0, 3),) and built, "patch inactive"
    built.clear()
    run_program(build_workload(workload, params), 4, seed=0)
    assert built == []
