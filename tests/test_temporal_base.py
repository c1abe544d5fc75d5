"""Tests for the shared temporal conventions of all sketches."""

import pytest

from repro import (
    ClockBitmap,
    ClockBloomFilter,
    ClockCountMin,
    ClockTimeSpanSketch,
    count_window,
    time_window,
)
from repro.errors import TimeError


class TestCountBasedTime:
    def test_item_counter_is_the_clock(self):
        bf = ClockBloomFilter(n=64, k=2, s=2, window=count_window(8))
        bf.insert("a")
        bf.insert("b")
        assert bf.now == 2.0
        assert bf.items_inserted == 2

    def test_future_query_fast_forwards_the_counter(self):
        """Querying 'as of item 100' means the stream idled until then;
        the next insert is item 101, not item 3."""
        bf = ClockBloomFilter(n=64, k=2, s=2, window=count_window(8))
        bf.insert("a")
        bf.insert("b")
        assert not bf.contains("a", t=100)
        bf.insert("c")  # must not raise; continues from the queried time
        assert bf.items_inserted == 101
        assert bf.contains("c")

    def test_fractional_count_query_rejected(self):
        bf = ClockBloomFilter(n=64, k=2, s=2, window=count_window(8))
        bf.insert("a")
        with pytest.raises(TimeError, match="integer"):
            bf.contains("a", t=1.5)

    def test_past_query_rejected(self):
        cm = ClockCountMin(width=32, depth=2, s=4, window=count_window(8))
        for _ in range(5):
            cm.insert("x")
        with pytest.raises(TimeError, match="backwards"):
            cm.query("x", t=3)


class TestTimeBasedTime:
    def test_query_defaults_to_latest(self):
        bf = ClockBloomFilter(n=64, k=2, s=2, window=time_window(8.0))
        bf.insert("a", t=3.5)
        assert bf.now == 3.5
        assert bf.contains("a")
        assert bf.now == 3.5

    def test_future_query_advances_now(self):
        bf = ClockBloomFilter(n=64, k=2, s=2, window=time_window(8.0))
        bf.insert("a", t=1.0)
        bf.contains("a", t=5.0)
        assert bf.now == 5.0
        with pytest.raises(TimeError):
            bf.insert("b", t=4.0)

    def test_same_timestamp_inserts_allowed(self):
        bf = ClockBloomFilter(n=64, k=2, s=2, window=time_window(8.0))
        bf.insert("a", t=2.0)
        bf.insert("b", t=2.0)  # ties are fine; time is non-decreasing
        assert bf.items_inserted == 2

    def test_equal_timestamp_allowed_after_query(self):
        """Regression: a query pins ``now``; an insert AT that exact
        time must still be accepted (only strictly smaller is an
        error)."""
        bf = ClockBloomFilter(n=64, k=2, s=2, window=time_window(8.0))
        bf.insert("a", t=3.0)
        bf.contains("a", t=5.0)
        bf.insert("b", t=5.0)  # equal to now — allowed
        assert bf.items_inserted == 2
        with pytest.raises(TimeError, match="equal timestamps are allowed"):
            bf.insert("c", t=4.999)

    def test_batch_run_of_equal_timestamps(self):
        """Batch ingestion routinely submits runs of tied timestamps;
        they must be accepted and match the scalar loop."""
        batch = ClockBloomFilter(n=64, k=2, s=2, window=time_window(8.0))
        batch.insert_many(["a", "b", "c", "d"], [2.0, 2.0, 2.0, 3.0])
        scalar = ClockBloomFilter(n=64, k=2, s=2, window=time_window(8.0))
        for key, t in zip(["a", "b", "c", "d"], [2.0, 2.0, 2.0, 3.0]):
            scalar.insert(key, t)
        assert (batch.clock.values == scalar.clock.values).all()
        assert batch.now == scalar.now == 3.0

    def test_batch_rejects_time_moving_backwards(self):
        bf = ClockBloomFilter(n=64, k=2, s=2, window=time_window(8.0))
        bf.insert("a", t=5.0)
        with pytest.raises(TimeError, match="equal timestamps are allowed"):
            bf.insert_many(["b"], [4.0])
        with pytest.raises(TimeError, match="non-decreasing"):
            bf.insert_many(["b", "c"], [6.0, 5.5])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    @pytest.mark.parametrize("make", [
        lambda w: ClockBloomFilter(n=64, k=2, s=2, window=w),
        lambda w: ClockBitmap(n=64, s=2, window=w),
        lambda w: ClockCountMin(width=32, depth=2, s=4, window=w),
        lambda w: ClockTimeSpanSketch(n=64, k=2, s=4, window=w),
    ], ids=["bf", "bm", "cm", "ts"])
    def test_non_finite_times_rejected_untouched(self, make, bad):
        sketch = make(time_window(8.0))
        sketch.insert("a", t=5.0)
        cells = sketch.clock.values.copy()
        for insert in (lambda: sketch.insert("b", bad),
                       lambda: sketch.insert_many(["b", "c"], [6.0, bad]),
                       lambda: sketch.insert_many(["b"], [bad])):
            with pytest.raises(TimeError, match="finite"):
                insert()
            assert (sketch.items_inserted, sketch.now) == (1, 5.0)
            assert (sketch.clock.values == cells).all()
