"""Tests for computation descriptions: split, merge, conflict release."""

from __future__ import annotations

import itertools

import pytest

from repro.core.granule import GranuleSet
from repro.executive.descriptions import ComputationDescription, DescriptionState


def desc(start=0, stop=16, run=0, name="p"):
    return ComputationDescription(run, name, GranuleSet.from_ranges([(start, stop)]))


class TestLifecycle:
    def test_initial_state(self):
        d = desc()
        assert d.state is DescriptionState.WAITING
        assert len(d) == 16

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ComputationDescription(0, "p", GranuleSet.empty())

    def test_unique_ids(self):
        ids = itertools.count(1)
        a = ComputationDescription(0, "p", GranuleSet.from_ranges([(0, 8)]), ids=ids)
        b = ComputationDescription(0, "p", GranuleSet.from_ranges([(8, 16)]), ids=ids)
        child = a.split(3)  # splits draw from the parent's id source
        assert len({a.id, b.id, child.id}) == 3


class TestPerSimulationIds:
    def test_back_to_back_runs_are_byte_identical(self):
        """Each simulation numbers its own descriptions, so labels such as
        ``succ-split:<phase>:<id>`` do not depend on earlier runs."""
        from repro.executive.scheduler import run_program
        from repro.sweep.runner import build_workload
        from tests.golden.record import canonical

        first, second = (
            canonical(run_program(build_workload("identity"), 8, seed=3))
            for _ in range(2)
        )
        assert b"succ-split:" in first
        assert first == second


class TestSplit:
    def test_split_takes_head(self):
        d = desc(0, 16)
        child = d.split(5)
        assert list(child.granules) == list(range(5))
        assert list(d.granules) == list(range(5, 16))
        assert d.splits == 1

    def test_split_whole_rejected(self):
        d = desc(0, 4)
        with pytest.raises(ValueError):
            d.split(4)
        with pytest.raises(ValueError):
            d.split(0)

    def test_split_preserves_elevation(self):
        d = ComputationDescription(0, "p", GranuleSet.from_ranges([(0, 8)]), elevated=True)
        assert d.split(3).elevated


class TestMerge:
    def test_merge_recombines(self):
        d = desc(0, 16)
        child = d.split(5)
        d.merge(child)
        assert d.granules == GranuleSet.from_ranges([(0, 16)])
        assert d.merges == 1

    def test_merge_cross_run_rejected(self):
        a = desc(run=0)
        b = desc(run=1)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_merge_with_pending_conflicts_rejected(self):
        a = desc(0, 8)
        b = desc(8, 16)
        b.queue_conflicting(desc(16, 20))
        with pytest.raises(ValueError):
            a.merge(b)


class TestConflictQueueing:
    def test_queue_and_release(self):
        current = desc(0, 8)
        succ1 = desc(0, 4, run=1, name="q")
        succ2 = desc(4, 8, run=1, name="q")
        current.queue_conflicting(succ1)
        current.queue_conflicting(succ2)
        assert succ1.state is DescriptionState.CONFLICTED
        released = list(current.release_conflicts())
        assert released == [succ1, succ2]
        assert len(current.conflict_queue) == 0

    def test_release_empty(self):
        assert list(desc().release_conflicts()) == []
