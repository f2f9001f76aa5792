"""Tests for SAD-unique signature sets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, DataError
from repro.core.unique import (
    UniqueSet,
    diversity_select,
    greedy_unique,
    greedy_unique_reference,
    merge_unique_sets,
    reduce_to_count,
)
from repro.hsi.metrics import sad_pairwise


def _clusters(rng, centers, per=5, noise=0.001):
    """Pixels drawn tightly around distinct center signatures."""
    rows = []
    for c in centers:
        rows += [c + rng.normal(0, noise, size=c.shape) for _ in range(per)]
    return np.vstack(rows)


@pytest.fixture()
def centers():
    return np.array(
        [[1.0, 0.1, 0.1, 0.1], [0.1, 1.0, 0.1, 0.1], [0.1, 0.1, 1.0, 0.1]]
    )


class TestGreedyUnique:
    def test_collapses_clusters(self, rng, centers):
        pixels = _clusters(rng, centers)
        unique = greedy_unique(pixels, threshold=0.2)
        assert unique.count == 3

    def test_keeps_first_seen(self, rng, centers):
        pixels = _clusters(rng, centers)
        unique = greedy_unique(pixels, threshold=0.2)
        assert unique.indices[0] == 0

    def test_max_keep_cap(self, rng, centers):
        pixels = _clusters(rng, centers)
        unique = greedy_unique(pixels, threshold=0.2, max_keep=2)
        assert unique.count == 2

    def test_zero_threshold_keeps_everything_distinct(self, rng):
        pixels = rng.random((10, 4)) + 0.1
        unique = greedy_unique(pixels, threshold=0.0)
        assert unique.count == 10

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            greedy_unique(np.empty((0, 3)), 0.1)

    def test_signatures_match_indices(self, rng, centers):
        pixels = _clusters(rng, centers)
        unique = greedy_unique(pixels, threshold=0.2)
        assert np.array_equal(unique.signatures, pixels[unique.indices])


class TestReduceAndDiversity:
    def test_reduce_to_count(self, rng):
        pixels = rng.random((8, 5)) + 0.1
        unique = greedy_unique(pixels, 0.0)
        reduced = reduce_to_count(unique, 3)
        assert reduced.count == 3

    def test_reduce_noop_when_small(self, rng):
        unique = greedy_unique(rng.random((3, 4)) + 0.1, 0.0)
        assert reduce_to_count(unique, 5).count == 3

    def test_diversity_keeps_distinct_members(self, rng, centers):
        # 3 tight clusters + near-duplicates: diversity must keep one
        # representative per cluster.
        pixels = _clusters(rng, centers, per=4)
        unique = greedy_unique(pixels, 0.0)
        selected = diversity_select(unique, 3)
        angles = sad_pairwise(selected.signatures)
        assert angles[~np.eye(3, dtype=bool)].min() > 0.3

    def test_diversity_seed_is_highest_score(self, rng):
        sig = rng.random((5, 4)) + 0.1
        scores = np.array([0.1, 0.9, 0.2, 0.3, 0.4])
        unique = UniqueSet(signatures=sig, indices=np.arange(5), scores=scores)
        selected = diversity_select(unique, 2)
        assert 1 in selected.indices

    def test_bad_count_rejected(self, rng):
        unique = greedy_unique(rng.random((3, 4)) + 0.1, 0.0)
        with pytest.raises(ConfigurationError):
            diversity_select(unique, 0)


class TestMerge:
    def test_merge_dedups_across_sets(self, rng, centers):
        a = greedy_unique(_clusters(rng, centers[:2]), 0.2)
        b = greedy_unique(_clusters(rng, centers[1:]), 0.2)
        merged = merge_unique_sets([a, b], threshold=0.2)
        assert merged.count == 3

    def test_merge_respects_count(self, rng, centers):
        a = greedy_unique(_clusters(rng, centers), 0.2)
        merged = merge_unique_sets([a], threshold=0.2, count=2)
        assert merged.count == 2

    def test_score_ordering_prefers_high_scores(self, rng):
        sig = np.vstack([np.eye(3) + 0.01, np.eye(3)])  # two copies-ish
        low = UniqueSet(sig[:3], np.arange(3), scores=np.full(3, 0.1))
        high = UniqueSet(sig[3:], np.arange(10, 13), scores=np.full(3, 0.9))
        merged = merge_unique_sets([low, high], threshold=0.1)
        assert set(merged.indices) == {10, 11, 12}

    def test_unknown_strategy_rejected(self, rng):
        unique = greedy_unique(rng.random((3, 4)) + 0.1, 0.0)
        with pytest.raises(ConfigurationError):
            merge_unique_sets([unique], 0.1, strategy="magic")

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            merge_unique_sets([], 0.1)


class TestUniqueSetValidation:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(DataError):
            UniqueSet(np.ones((2, 3)), np.arange(3))

    def test_mismatched_scores_rejected(self):
        with pytest.raises(DataError):
            UniqueSet(np.ones((2, 3)), np.arange(2), scores=np.ones(3))


@st.composite
def _pools(draw):
    """A candidate pool, a threshold and a keep limit.  Some pools
    repeat earlier rows, so a candidate can sit at angle 0 from a kept
    one."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=500)))
    n = draw(st.integers(min_value=1, max_value=40))
    pixels = rng.random((n, draw(st.integers(2, 8)))) + 0.05
    copies = draw(st.integers(min_value=0, max_value=n // 2))
    pixels[n - copies:] = pixels[rng.integers(0, n, size=copies)]
    threshold = draw(st.floats(min_value=0.01, max_value=0.5))
    max_keep = draw(st.none() | st.integers(min_value=1, max_value=n))
    return pixels, threshold, max_keep


@settings(max_examples=25, deadline=None)
@given(pool=_pools())
def test_greedy_unique_mutual_distance_property(pool):
    """Every pair of kept signatures is separated by more than the
    threshold — the defining invariant of the unique set."""
    pixels, threshold, max_keep = pool
    unique = greedy_unique(pixels, threshold, max_keep)
    if unique.count > 1:
        angles = sad_pairwise(unique.signatures)
        off = angles[~np.eye(unique.count, dtype=bool)]
        assert off.min() > threshold


@settings(max_examples=50, deadline=None)
@given(pool=_pools())
def test_greedy_unique_equals_the_reference_property(pool):
    """The vectorized filter keeps what the one-candidate-at-a-time
    scan keeps, to the bit: same indices, same signatures."""
    pixels, threshold, max_keep = pool
    fast = greedy_unique(pixels, threshold, max_keep)
    reference = greedy_unique_reference(pixels, threshold, max_keep)
    assert np.array_equal(fast.indices, reference.indices)
    assert np.array_equal(fast.signatures, reference.signatures)
