"""Tests for the activeness baselines: TOBF, TBF, Ideal."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    IdealSlidingBloom,
    TimeOutBloomFilter,
    TimingBloomFilter,
    snapshot_ideal_membership,
)
from repro.errors import ConfigurationError
from repro.timebase import count_window


class TestTimeOutBloomFilter:
    def test_insert_then_contains(self, small_count_window):
        f = TimeOutBloomFilter(n=128, k=3, window=small_count_window)
        f.insert("x")
        assert f.contains("x")

    def test_expires_exactly_at_window(self):
        f = TimeOutBloomFilter(n=1024, k=2, window=count_window(4))
        f.insert("x")          # t=1
        for _ in range(3):
            f.insert("pad")    # t=2..4: age 3 < 4
        assert f.contains("x")
        f.insert("pad")        # t=5: age 4 -> expired (no error window!)
        assert not f.contains("x")

    def test_from_memory_uses_64_bit_cells(self):
        f = TimeOutBloomFilter.from_memory("1KB", count_window(8))
        assert f.n == 8192 // 64
        assert f.memory_bits() == f.n * 64

    @given(window=st.integers(2, 40), age=st.integers(0, 39))
    @settings(max_examples=60, deadline=None)
    def test_no_false_negative_within_window(self, window, age):
        f = TimeOutBloomFilter(n=512, k=3, window=count_window(window))
        f.insert(777)
        for _ in range(age % window):
            f.insert(999)
        assert f.contains(777)

    def test_insert_many_equals_loop(self, rng):
        keys = rng.integers(0, 40, size=200)
        a = TimeOutBloomFilter(n=256, k=3, window=count_window(32), seed=4)
        b = TimeOutBloomFilter(n=256, k=3, window=count_window(32), seed=4)
        a.insert_many(keys)
        for key in keys:
            b.insert(int(key))
        assert np.array_equal(a.cells, b.cells)

    def test_snapshot_matches_incremental(self, rng):
        # The order-free batch write answers as the per-item loop.
        keys = rng.integers(0, 40, size=300)
        w = count_window(32)
        f = TimeOutBloomFilter(n=256, k=3, window=w, seed=4)
        f.insert_many(keys)
        loop = TimeOutBloomFilter(n=256, k=3, window=w, seed=4)
        for key in keys:
            loop.insert(int(key))
        queries = np.arange(80)
        assert list(f.contains_many(queries, t=len(keys))) == \
            [loop.contains(int(q)) for q in queries]


class TestTimingBloomFilter:
    def test_insert_then_contains(self, small_count_window):
        f = TimingBloomFilter(n=512, k=3, window=small_count_window)
        f.insert("x")
        assert f.contains("x")

    def test_window_must_fit_counters(self):
        with pytest.raises(ConfigurationError):
            TimingBloomFilter(n=64, k=2, window=count_window(1 << 20),
                              counter_bits=18)

    def test_wraparound_does_not_resurrect(self):
        """After many wraps of the counter space, old items stay dead."""
        f = TimingBloomFilter(n=512, k=2, window=count_window(8),
                              counter_bits=6)  # modulus 64
        f.insert("old")
        for i in range(300):  # several full wraps of the 64-value space
            f.insert(f"pad-{i % 7}")
        assert not f.contains("old")

    def test_memory_accounting(self):
        f = TimingBloomFilter(n=100, k=2, window=count_window(8))
        assert f.memory_bits() == 1800

    @given(window=st.integers(4, 40), age=st.integers(0, 39))
    @settings(max_examples=60, deadline=None)
    def test_no_false_negative_within_window(self, window, age):
        f = TimingBloomFilter(n=512, k=3, window=count_window(window))
        f.insert(777)
        for _ in range(age % window):
            f.insert(999)
        assert f.contains(777)

    def test_snapshot_matches_incremental(self, rng):
        # TBF answers as a TOBF of the same cells and hashes (what its
        # experiment row computes): the scan only removes cells the
        # window test already rejects.
        keys = rng.integers(0, 40, size=300)
        w = count_window(32)
        f = TimingBloomFilter(n=256, k=3, window=w, seed=4)
        f.insert_many(keys)
        tobf = TimeOutBloomFilter(n=256, k=3, window=w, seed=4)
        tobf.insert_many(keys)
        queries = np.arange(80)
        assert list(tobf.contains_many(queries, t=len(keys))) == \
            [f.contains(int(q)) for q in queries]


class TestIdealSlidingBloom:
    def test_perfect_expiry(self):
        f = IdealSlidingBloom(n=512, k=3, window=count_window(2))
        f.insert("a")
        f.insert("b")
        f.insert("c")
        assert not f.contains("a")
        assert f.contains("c")

    def test_no_false_negatives_ever(self, rng):
        window = count_window(16)
        f = IdealSlidingBloom(n=1024, k=3, window=window)
        keys = rng.integers(0, 30, size=200)
        recent = []
        for key in keys:
            f.insert(int(key))
            recent.append(int(key))
            # Every key in the last 16 items (ages 0..15 < 16) is active.
            for active in set(recent[-16:]):
                assert f.contains(active)

    def test_counters_return_to_zero(self):
        f = IdealSlidingBloom(n=128, k=2, window=count_window(2))
        for i in range(50):
            f.insert(i)
        # Only the last 2 items' cells can be set.
        assert f.counters.sum() <= 2 * 2

    def test_from_memory_one_bit_cells(self):
        f = IdealSlidingBloom.from_memory("1KB", count_window(64))
        assert f.n == 8192
        assert f.memory_bits() == 8192

    def test_snapshot_matches_incremental(self, rng):
        keys = rng.integers(0, 40, size=300)
        w = count_window(32)
        f = IdealSlidingBloom(n=256, k=3, window=w, seed=4)
        f.insert_many(keys)
        # Active keys = those in the last 32 items (ages 0..31 < 32).
        active = np.unique(keys[-32:])
        queries = np.arange(80)
        snap = snapshot_ideal_membership(active, queries, n=256, k=3, seed=4)
        assert list(snap) == [f.contains(int(q)) for q in queries]
