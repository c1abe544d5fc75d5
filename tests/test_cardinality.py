"""Tests for BM+clock (item batch cardinality)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cardinality import ClockBitmap, linear_counting_estimate
from repro.errors import EstimatorSaturatedError
from repro.timebase import count_window, time_window


class TestLinearCounting:
    def test_empty_bitmap_estimates_zero(self):
        assert linear_counting_estimate(100, 100).value == 0.0

    def test_estimate_grows_as_zeros_shrink(self):
        dense = linear_counting_estimate(10, 100).value
        sparse = linear_counting_estimate(90, 100).value
        assert dense > sparse

    def test_saturation_clamps(self):
        est = linear_counting_estimate(0, 100)
        assert est.saturated
        assert est.value == pytest.approx(100 * np.log(100))

    def test_saturation_strict_raises(self):
        with pytest.raises(EstimatorSaturatedError):
            linear_counting_estimate(0, 100, strict=True)

    def test_float_conversion(self):
        assert float(linear_counting_estimate(50, 100)) == \
            linear_counting_estimate(50, 100).value


class TestClockBitmap:
    def test_estimate_tracks_distinct_actives(self):
        bm = ClockBitmap(n=8192, s=8, window=count_window(1000), seed=1)
        for key in range(300):
            bm.insert(key)
        assert bm.estimate().value == pytest.approx(300, rel=0.15)

    def test_duplicates_do_not_inflate(self):
        bm = ClockBitmap(n=8192, s=8, window=count_window(1000), seed=1)
        for _ in range(100):
            bm.insert("same")
        assert bm.estimate().value == pytest.approx(1.0, abs=0.5)

    def test_expired_batches_leave_the_count(self):
        window = count_window(50)
        bm = ClockBitmap(n=4096, s=8, window=window, seed=1)
        for key in range(20):
            bm.insert(f"old-{key}")
        for i in range(200):  # > T * (1 + 1/(2^s-2)) filler items
            bm.insert("recent")
        estimate = bm.estimate().value
        assert estimate < 5  # the 20 old batches have expired

    def test_from_memory(self):
        bm = ClockBitmap.from_memory("1KB", count_window(64), s=8)
        assert bm.n == 1024
        assert bm.memory_bits() == 8192

    def test_time_based(self):
        bm = ClockBitmap(n=1024, s=4, window=time_window(10.0), seed=0)
        bm.insert("a", t=1.0)
        bm.insert("b", t=2.0)
        assert bm.estimate(t=3.0).value == pytest.approx(2.0, abs=0.5)

    def test_insert_many_equals_loop(self, rng):
        window = count_window(64)
        keys = rng.integers(0, 50, size=300)
        a = ClockBitmap(n=512, s=4, window=window, seed=5)
        b = ClockBitmap(n=512, s=4, window=window, seed=5)
        a.insert_many(keys)
        for key in keys:
            b.insert(int(key))
        assert np.array_equal(a.clock.values, b.clock.values)

    def test_repr(self):
        assert "ClockBitmap" in repr(ClockBitmap(n=8, s=2,
                                                 window=count_window(4)))


class TestSnapshotEquivalence:
    """The experiments' path (one whole-stream ``insert_many``, then
    ``estimate`` at the query time) against the per-item ``insert`` loop
    on the scalar sweep."""

    @given(
        n=st.integers(16, 512),
        s=st.integers(2, 8),
        window=st.integers(4, 100),
        n_keys=st.integers(1, 200),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=80, deadline=None)
    def test_snapshot_matches_incremental(self, scalar_reference, n, s, window,
                                         n_keys, seed):
        rng = np.random.default_rng(seed)
        keys = rng.integers(0, 60, size=n_keys)
        config = dict(n=n, s=s, window=count_window(window), seed=seed)
        bm = ClockBitmap(**config)
        bm.insert_many(keys)
        batch = bm.estimate(t=len(keys))
        reference = scalar_reference(ClockBitmap, keys, **config).estimate()
        assert batch.value == reference.value
        assert batch.zero_cells == reference.zero_cells

    def test_snapshot_time_based(self, rng, scalar_reference):
        keys = rng.integers(0, 60, size=200)
        times = np.cumsum(rng.exponential(1.0, size=200)) + 1.0
        config = dict(n=256, s=4, window=time_window(40.0), seed=3)
        bm = ClockBitmap(**config)
        bm.insert_many(keys, times)
        reference = scalar_reference(ClockBitmap, keys, times, **config)
        assert (bm.estimate(t=float(times[-1])).value
                == reference.estimate().value)
