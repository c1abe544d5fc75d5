"""Tests for BF+clock (item batch activeness)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.activeness import ClockBloomFilter
from repro.errors import ConfigurationError, TimeError
from repro.timebase import count_window, time_window


class TestBasics:
    def test_insert_then_contains(self, small_count_window):
        bf = ClockBloomFilter(n=512, k=3, s=2, window=small_count_window)
        bf.insert("flow")
        assert bf.contains("flow")

    def test_never_inserted_is_usually_absent(self, small_count_window):
        bf = ClockBloomFilter(n=4096, k=4, s=2, window=small_count_window)
        bf.insert("present")
        absent = sum(bf.contains(f"ghost-{i}") for i in range(100))
        assert absent <= 2  # tiny filter load => almost no FPs

    def test_count_based_rejects_timestamps(self, small_count_window):
        bf = ClockBloomFilter(n=64, k=2, s=2, window=small_count_window)
        with pytest.raises(TimeError):
            bf.insert("x", t=1.0)

    def test_time_based_requires_timestamps(self, small_time_window):
        bf = ClockBloomFilter(n=64, k=2, s=2, window=small_time_window)
        with pytest.raises(TimeError):
            bf.insert("x")

    def test_time_moves_forward_only(self, small_time_window):
        bf = ClockBloomFilter(n=64, k=2, s=2, window=small_time_window)
        bf.insert("x", t=5.0)
        with pytest.raises(TimeError):
            bf.insert("y", t=4.0)

    def test_memory_accounting(self):
        bf = ClockBloomFilter(n=1000, k=3, s=2, window=count_window(16))
        assert bf.memory_bits() == 2000

    def test_repr(self, small_count_window):
        text = repr(ClockBloomFilter(n=8, k=1, s=2, window=small_count_window))
        assert "ClockBloomFilter" in text


class TestFromMemory:
    def test_cells_fill_budget(self):
        bf = ClockBloomFilter.from_memory("1KB", count_window(64), s=2)
        assert bf.n == 4096
        assert bf.memory_bits() == 8192

    def test_k_defaults_to_optimum(self):
        bf = ClockBloomFilter.from_memory("64KB", count_window(1 << 16))
        assert bf.k >= 1

    def test_explicit_k_respected(self):
        bf = ClockBloomFilter.from_memory("1KB", count_window(64), k=7)
        assert bf.k == 7

    def test_too_small_budget_raises(self):
        with pytest.raises(ConfigurationError):
            ClockBloomFilter.from_memory("1 bit", count_window(64), s=2)


class TestWindowSemantics:
    def test_expires_after_error_window(self):
        window = count_window(32)
        bf = ClockBloomFilter(n=256, k=2, s=2, window=window)
        bf.insert("one-shot")
        for _ in range(100):
            bf.insert("filler")  # drive time forward well past 1.5 * T
        assert not bf.contains("one-shot")
        assert bf.contains("filler")

    def test_refreshing_keeps_alive_indefinitely(self):
        window = count_window(8)
        bf = ClockBloomFilter(n=128, k=2, s=2, window=window)
        for _ in range(200):
            bf.insert("heartbeat")
            assert bf.contains("heartbeat")

    @given(
        window=st.integers(4, 64),
        s=st.integers(2, 6),
        gap=st.integers(0, 63),
    )
    @settings(max_examples=100, deadline=None)
    def test_no_false_negative_within_window(self, window, s, gap):
        """The paper's guarantee: items within T are always reported."""
        bf = ClockBloomFilter(n=256, k=3, s=s, window=count_window(window))
        bf.insert(12345)
        for _ in range(gap % window):
            bf.insert(99999)  # other traffic advancing count time
        assert bf.contains(12345)

    @given(window=st.integers(4, 32), s=st.integers(2, 5))
    @settings(max_examples=60, deadline=None)
    def test_guaranteed_expiry_past_error_window(self, window, s):
        bf = ClockBloomFilter(n=256, k=3, s=s, window=count_window(window))
        bf.insert(12345)
        # T * (1 + 1/(2^s - 2)) later the clocks must have expired.
        quiet = int(window * (1 + 1 / ((1 << s) - 2))) + 2
        bf.contains(0, t=bf.now + quiet)  # advance time via a query
        assert not bf.contains(12345)


class TestBulkPaths:
    def test_insert_many_equals_loop(self, rng):
        window = count_window(64)
        keys = rng.integers(0, 50, size=300)
        a = ClockBloomFilter(n=512, k=3, s=2, window=window, seed=5)
        b = ClockBloomFilter(n=512, k=3, s=2, window=window, seed=5)
        a.insert_many(keys)
        for key in keys:
            b.insert(int(key))
        assert np.array_equal(a.clock.values, b.clock.values)

    def test_contains_many_equals_loop(self, rng):
        window = count_window(64)
        keys = rng.integers(0, 50, size=200)
        bf = ClockBloomFilter(n=512, k=3, s=2, window=window, seed=5)
        bf.insert_many(keys)
        queries = np.arange(80)
        bulk = bf.contains_many(queries)
        assert list(bulk) == [bf.contains(int(q)) for q in queries]

    def test_time_based_insert_many_requires_times(self, small_time_window):
        bf = ClockBloomFilter(n=64, k=2, s=2, window=small_time_window)
        with pytest.raises(ConfigurationError):
            bf.insert_many(np.arange(5))

    def test_time_based_insert_many(self, small_time_window):
        bf = ClockBloomFilter(n=256, k=2, s=2, window=small_time_window)
        bf.insert_many(np.arange(5), times=np.arange(1.0, 6.0))
        assert bf.contains(4)

    def test_deferred_chunked_insert_close_to_exact(self, rng):
        window = count_window(64)
        keys = rng.integers(0, 60, size=500)
        exact = ClockBloomFilter(n=512, k=3, s=4, window=window, seed=5)
        deferred = ClockBloomFilter(n=512, k=3, s=4, window=window, seed=5,
                                    sweep_mode="deferred")
        exact.insert_many(keys)
        deferred.insert_many(keys)
        queries = np.arange(100)
        agreement = np.mean(
            exact.contains_many(queries) == deferred.contains_many(queries)
        )
        assert agreement > 0.9  # deferred only disturbs the window edge


class TestSnapshotEquivalence:
    """The experiments' path (one whole-stream ``insert_many``, then
    ``query_many`` at the query time) against the per-item ``insert``
    loop on the scalar sweep: the sweep schedule at varied ``n``, ``k``,
    ``s`` and window, checked against an independent path."""

    @given(
        n=st.integers(16, 512),
        k=st.integers(1, 5),
        s=st.integers(2, 6),
        window=st.integers(4, 100),
        n_keys=st.integers(1, 200),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=80, deadline=None)
    def test_snapshot_matches_incremental_count_based(
            self, scalar_reference, n, k, s, window, n_keys, seed):
        rng = np.random.default_rng(seed)
        keys = rng.integers(0, 60, size=n_keys)
        config = dict(n=n, k=k, s=s, window=count_window(window), seed=seed)
        bf = ClockBloomFilter(**config)
        bf.insert_many(keys)
        ref = scalar_reference(ClockBloomFilter, keys, **config)
        queries = np.arange(100)
        answers = bf.query_many(queries, t=len(keys))
        assert np.array_equal(answers, [ref.query(int(q)) for q in queries])
        assert np.array_equal(bf.clock.values, ref.clock.values)

    def test_snapshot_matches_incremental_time_based(self, rng,
                                                     scalar_reference):
        keys = rng.integers(0, 60, size=300)
        times = np.cumsum(rng.exponential(1.0, size=300)) + 1.0
        config = dict(n=256, k=3, s=3, window=time_window(40.0), seed=2)
        bf = ClockBloomFilter(**config)
        bf.insert_many(keys, times)
        ref = scalar_reference(ClockBloomFilter, keys, times, **config)
        queries = np.arange(100)
        answers = bf.query_many(queries, t=float(times[-1]))
        assert np.array_equal(answers, [ref.query(int(q)) for q in queries])
        assert np.array_equal(bf.clock.values, ref.clock.values)

    def test_snapshot_empty_stream(self):
        bf = ClockBloomFilter(n=64, k=2, s=2, window=count_window(8))
        bf.insert_many(np.array([], dtype=np.int64))
        assert not bf.query_many(np.arange(10), t=0).any()
