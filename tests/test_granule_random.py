"""Seeded randomized differential tests for GranuleSet algebra.

Every operator is checked against the obvious ``set[int]`` model over
random interval soups, including the adjacency-merge edges the
``__or__`` and ``union_all`` fast paths must preserve
(``[0,2) | [2,4)`` is the single range ``[0,4)``, never two touching
ranges).  The canonical-form invariant — sorted, disjoint, non-adjacent,
non-empty ranges — is re-asserted after every operation because the fast
paths build their results' boundary tuples directly, without the
normalizing constructor.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.granule import GranuleSet, GroupRuns

UNIVERSE = 120


def random_set(rng: np.random.Generator) -> GranuleSet:
    """A random interval soup; from_ranges normalizes overlaps for us."""
    n_ranges = int(rng.integers(0, 8))
    pairs = []
    for _ in range(n_ranges):
        start = int(rng.integers(0, UNIVERSE))
        stop = start + int(rng.integers(0, 12))
        pairs.append((start, stop))
    return GranuleSet.from_ranges(pairs)


def assert_canonical(s: GranuleSet) -> None:
    """The class invariant: sorted, disjoint, non-adjacent, non-empty."""
    ranges = s.ranges
    for r in ranges:
        assert r.start < r.stop
    for a, b in zip(ranges, ranges[1:]):
        assert a.stop < b.start  # `<` (not `<=`): adjacent runs must merge


def assert_matches_model(s: GranuleSet, model: set[int]) -> None:
    assert_canonical(s)
    assert set(s) == model
    assert len(s) == len(model)


@pytest.mark.parametrize("seed", range(40))
def test_binary_algebra_matches_set_model(seed):
    rng = np.random.default_rng(seed)
    a, b = random_set(rng), random_set(rng)
    ma, mb = set(a), set(b)

    assert_matches_model(a | b, ma | mb)
    assert_matches_model(a & b, ma & mb)
    assert_matches_model(a - b, ma - mb)
    assert a.issubset(b) == ma.issubset(mb)
    assert a.isdisjoint(b) == ma.isdisjoint(mb)
    assert (a == b) == (ma == mb)


@pytest.mark.parametrize("seed", range(40))
def test_take_matches_model(seed):
    rng = np.random.default_rng(seed + 1000)
    a = random_set(rng)
    model = sorted(a)
    n = int(rng.integers(0, len(model) + 3))
    taken, rest = a.take(n)
    assert_matches_model(taken, set(model[:n]))
    assert_matches_model(rest, set(model[n:]))
    assert_matches_model(taken | rest, set(model))
    assert taken.isdisjoint(rest)


@pytest.mark.parametrize("seed", range(40))
def test_union_all_matches_fold_and_model(seed):
    rng = np.random.default_rng(seed + 2000)
    sets = [random_set(rng) for _ in range(int(rng.integers(0, 10)))]
    bulk = GranuleSet.union_all(sets)

    folded = GranuleSet.empty()
    model: set[int] = set()
    for s in sets:
        folded = folded | s
        model |= set(s)
    assert bulk == folded
    assert_matches_model(bulk, model)


@pytest.mark.parametrize("seed", range(40))
def test_from_sorted_ids_matches_model(seed):
    rng = np.random.default_rng(seed + 3000)
    ids = np.unique(rng.integers(0, UNIVERSE, size=int(rng.integers(0, 60))))
    s = GranuleSet.from_sorted_ids(ids)
    assert_matches_model(s, set(int(i) for i in ids))
    assert s == GranuleSet.from_ids(int(i) for i in ids)


@pytest.mark.parametrize("seed", range(40))
def test_group_helpers_match_model(seed):
    """``GroupRuns`` keeps every group: ``expand`` lists every (granule,
    group) pair in order, ``sets`` rebuilds each group, and ``take`` and
    ``union`` agree with the per-set model."""
    rng = np.random.default_rng(seed + 4000)
    groups = [random_set(rng) for _ in range(int(rng.integers(0, 6)))]
    runs = GroupRuns.from_sets(groups)
    assert runs.n_groups == len(groups)
    idx, gids = runs.expand()
    want = [(g, i) for g, s in enumerate(groups) for i in s]
    assert list(zip(gids.tolist(), idx.tolist())) == want

    rebuilt = runs.sets()
    assert rebuilt == groups
    for got, grp in zip(rebuilt, groups):
        assert_matches_model(got, set(grp))

    rows = rng.integers(0, max(len(groups), 1), size=int(rng.integers(0, 8)) if groups else 0)
    assert runs.take(rows).sets() == [groups[r] for r in rows]
    assert_matches_model(runs.union(), set().union(*map(set, groups)))


@pytest.mark.parametrize("seed", range(40))
def test_chunks_match_take_loop(seed):
    """``GroupRuns.chunks`` cuts a set front to back exactly as repeated
    ``take`` does."""
    rng = np.random.default_rng(seed + 5000)
    space, size = random_set(rng), int(rng.integers(1, 10))
    want, rest = [], space
    while rest:
        head, rest = rest.take(size)
        want.append(head)
    assert GroupRuns.chunks(space, size).sets() == want


def test_adjacency_merge_edges():
    # touching ranges merge into one through every construction path
    a = GranuleSet.from_ranges([(0, 2)])
    b = GranuleSet.from_ranges([(2, 4)])
    assert (a | b).ranges == GranuleSet.from_ranges([(0, 4)]).ranges
    assert len((a | b).ranges) == 1

    chain = [GranuleSet.from_ranges([(i, i + 1)]) for i in range(10)]
    merged = GranuleSet.union_all(chain)
    assert merged.ranges == GranuleSet.from_ranges([(0, 10)]).ranges

    contiguous = GranuleSet.from_sorted_ids(np.arange(7))
    assert len(contiguous.ranges) == 1

    # interleaved evens then odds: fold must collapse to one range
    evens = GranuleSet.from_ids(range(0, 20, 2))
    odds = GranuleSet.from_ids(range(1, 20, 2))
    assert len((evens | odds).ranges) == 1
    assert len(GranuleSet.union_all([evens, odds]).ranges) == 1


def test_union_all_trivial_cases():
    assert GranuleSet.union_all([]) == GranuleSet.empty()
    one = GranuleSet.from_ranges([(3, 7)])
    assert GranuleSet.union_all([one]) == one
    assert GranuleSet.union_all([GranuleSet.empty(), one, GranuleSet.empty()]) == one
