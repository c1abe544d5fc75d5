"""Tests for SWAMP and its TinyTable-role counting table."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    CountingTable,
    Swamp,
    distinct_mle,
    snapshot_swamp_distinct,
    snapshot_swamp_ismember,
)
from repro.errors import MemoryBudgetError


class TestCountingTable:
    def test_add_remove_count(self):
        table = CountingTable()
        table.add(5)
        table.add(5)
        table.add(9)
        assert table.count(5) == 2
        assert table.distinct() == 2
        assert len(table) == 3
        table.remove(5)
        assert table.count(5) == 1
        table.remove(5)
        assert not table.contains(5)
        assert table.distinct() == 1

    def test_remove_absent_raises(self):
        with pytest.raises(KeyError):
            CountingTable().remove(1)

    @given(st.lists(st.integers(0, 10), max_size=100))
    @settings(max_examples=60, deadline=None)
    def test_matches_counter_semantics(self, values):
        from collections import Counter
        table = CountingTable()
        for v in values:
            table.add(v)
        reference = Counter(values)
        assert len(table) == sum(reference.values())
        assert table.distinct() == len(reference)
        for v, c in reference.items():
            assert table.count(v) == c


class TestSwampWindow:
    def test_exact_window_with_wide_fingerprints(self):
        """With 64-bit fingerprints SWAMP is an exact sliding window."""
        s = Swamp(window_items=8, fingerprint_bits=64)
        for i in range(30):
            s.insert(i)
        for i in range(22, 30):
            assert s.ismember(i)
        for i in range(0, 22):
            assert not s.ismember(i)

    def test_frequency_counts_window_multiplicity(self):
        s = Swamp(window_items=4, fingerprint_bits=64)
        for key in ["a", "a", "b", "a"]:
            s.insert(key)
        assert s.frequency("a") == 3
        s.insert("c")  # evicts the first "a"
        assert s.frequency("a") == 2

    def test_narrow_fingerprints_collide(self):
        s = Swamp(window_items=256, fingerprint_bits=2, seed=1)
        for i in range(256):
            s.insert(i)
        false_positives = sum(s.ismember(10_000 + i) for i in range(100))
        assert false_positives > 50  # 2-bit space is saturated

    def test_distinct_estimate_tracks_truth(self):
        s = Swamp(window_items=500, fingerprint_bits=32, seed=1)
        for i in range(300):
            s.insert(i % 120)
        assert s.distinct_estimate() == pytest.approx(120, rel=0.1)

    def test_window_must_be_positive(self):
        with pytest.raises(MemoryBudgetError):
            Swamp(window_items=0, fingerprint_bits=8)

    def test_from_memory_solves_fingerprint_bits(self):
        s = Swamp.from_memory("2KB", window_items=512)
        assert 1 <= s.fingerprint_bits <= 64
        assert s.memory_bits() <= 2 * 8192

    def test_from_memory_below_floor_raises(self):
        with pytest.raises(MemoryBudgetError):
            Swamp.from_memory(16, window_items=4096)  # 128 bits for 4096 slots

    def test_insert_many_equals_loop(self, rng):
        keys = rng.integers(0, 50, size=200)
        a = Swamp(window_items=32, fingerprint_bits=16, seed=3)
        b = Swamp(window_items=32, fingerprint_bits=16, seed=3)
        a.insert_many(keys)
        for key in keys:
            b.insert(int(key))
        queries = np.arange(60)
        assert list(a.ismember_many(queries)) == \
            [b.ismember(int(q)) for q in queries]

    @pytest.mark.parametrize("keys", [["a", 1, 2**64 - 1, ("t", 2), True],
                                      [2**63, 5, 2**64 - 1, -1]],
                             ids=["mixed", "beyond-int64"])
    def test_batch_paths_equal_the_scalar_loop(self, keys):
        a = Swamp(window_items=8, fingerprint_bits=64, seed=3)
        b = Swamp(window_items=8, fingerprint_bits=64, seed=3)
        a.insert_many(keys)
        for key in keys:
            b.insert(key)
        queries = keys + ["absent", 7]
        scalar = [b.ismember(q) for q in queries]
        assert scalar[:len(keys)] == [True] * len(keys)
        assert list(a.ismember_many(queries)) == scalar
        assert [a.ismember(q) for q in queries] == scalar
        assert list(snapshot_swamp_ismember(
            keys, queries, window_items=8, fingerprint_bits=64,
            seed=3)) == scalar


class TestDistinctMle:
    def test_zero(self):
        assert distinct_mle(0, 16) == 0.0

    def test_identity_when_space_is_huge(self):
        assert distinct_mle(100, 64) == pytest.approx(100, rel=1e-6)

    def test_corrects_upward_in_small_spaces(self):
        # 200 distinct fingerprints in an 8-bit space imply many more
        # distinct items than 200.
        assert distinct_mle(200, 8) > 300

    def test_saturation(self):
        assert distinct_mle(256, 8) > distinct_mle(255, 8)

    def test_monotone_in_observations(self):
        values = [distinct_mle(z, 12) for z in range(0, 4000, 97)]
        assert values == sorted(values)


class TestSwampSnapshots:
    def test_ismember_snapshot_matches_incremental(self, rng):
        keys = rng.integers(0, 60, size=400)
        s = Swamp(window_items=64, fingerprint_bits=12, seed=2)
        s.insert_many(keys)
        queries = np.arange(100)
        snap = snapshot_swamp_ismember(keys, queries, window_items=64,
                                       fingerprint_bits=12, seed=2)
        assert list(snap) == [s.ismember(int(q)) for q in queries]

    def test_distinct_snapshot_matches_incremental(self, rng):
        keys = rng.integers(0, 60, size=400)
        s = Swamp(window_items=64, fingerprint_bits=12, seed=2)
        s.insert_many(keys)
        snap = snapshot_swamp_distinct(keys, window_items=64,
                                       fingerprint_bits=12, seed=2)
        assert snap == s.distinct_estimate()
