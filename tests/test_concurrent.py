"""Tests for the background cleaning thread and the thread-safe wrapper."""

import threading
import time

import numpy as np
import pytest

from repro import ClockBitmap, ClockBloomFilter, time_window
from repro.concurrent import BackgroundCleaner, ThreadSafeSketch
from repro.errors import ConfigurationError, EstimatorSaturatedError, TimeError
from repro.timebase import count_window


def _wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.002)
    return False


class TestThreadSafeSketch:
    def test_delegates_operations(self):
        sketch = ClockBloomFilter(n=128, k=2, s=2, window=time_window(10.0))
        shared = ThreadSafeSketch(sketch)
        shared.insert("x", t=1.0)
        assert shared.contains("x", t=2.0)
        assert shared.memory_bits() == sketch.memory_bits()

    def test_unlocked_mode(self):
        sketch = ClockBitmap(n=64, s=4, window=time_window(10.0))
        shared = ThreadSafeSketch(sketch, lock=None)
        shared.insert("x", t=1.0)
        assert shared.estimate(t=2.0).value > 0

    def test_estimate_forwards_strict(self):
        sketch = ClockBitmap(n=8, s=4, window=count_window(64))
        sketch.insert_many(np.arange(64, dtype=np.int64))
        shared = ThreadSafeSketch(sketch)
        assert shared.estimate(strict=False) == sketch.estimate()
        with pytest.raises(EstimatorSaturatedError):
            sketch.estimate(strict=True)
        with pytest.raises(EstimatorSaturatedError):
            shared.estimate(strict=True)

    def test_chunked_insert_many_matches_one_batch(self):
        # Locking per chunk must not change what a batch does.
        def build():
            return ClockBloomFilter(n=512, k=3, s=2, window=count_window(256),
                                    seed=5)

        plain = build()
        wrapped = ThreadSafeSketch(build())
        keys = np.arange(5000, dtype=np.int64)
        plain.insert_many(keys)
        wrapped.insert_many(keys, chunk_size=1024)
        assert wrapped.sketch.clock.values.tobytes() == \
            plain.clock.values.tobytes()
        assert wrapped.sketch.clock.steps_done == plain.clock.steps_done

    def test_advance_clock_ignores_stale_ticks(self):
        sketch = ClockBloomFilter(n=128, k=2, s=2, window=time_window(10.0))
        shared = ThreadSafeSketch(sketch)
        shared.insert("x", t=5.0)
        shared.advance_clock(3.0)  # stale: must not raise
        assert sketch.clock.now == 5.0

    def test_reads_answer_at_the_cleaners_tick(self):
        # The tick moves the stream clock, not only the cells, so a
        # default-time read answers at the tick instead of raising.
        sketch = ClockBloomFilter(n=128, k=2, s=2, window=time_window(100.0))
        shared = ThreadSafeSketch(sketch)
        shared.insert("x", t=10.0)
        shared.advance_clock(20.0)
        assert sketch.now == sketch.clock.now == 20.0
        assert shared.contains("x") is True
        assert shared.query_many(["x", "never"]).tolist() == [True, False]
        shared.insert("y", t=20.0)
        assert sketch.items_inserted == 2

    def test_insert_behind_the_tick_moves_nothing(self):
        # A batch behind the tick is refused before the engine writes a
        # cell (it used to write cells, then fail to commit them).
        sketch = ClockBloomFilter(n=512, k=3, s=2, window=time_window(100.0))
        shared = ThreadSafeSketch(sketch)
        shared.advance_clock(50.0)
        before = sketch.clock.values.tobytes()
        keys = np.arange(40, dtype=np.int64)
        with pytest.raises(TimeError, match="backwards"):
            shared.insert_many(keys, np.linspace(10.0, 20.0, 40))
        assert sketch.clock.values.tobytes() == before
        assert (sketch.items_inserted, sketch.now) == (0, 50.0)
        shared.insert_many(keys, np.linspace(50.0, 60.0, 40))
        assert sketch.items_inserted == 40

    def test_concurrent_inserts_with_lock(self, fake_clock):
        sketch = ClockBitmap(n=4096, s=8, window=time_window(1e6))
        shared = ThreadSafeSketch(sketch)
        clock = fake_clock(start=1.0)
        lock = threading.Lock()

        def writer(offset):
            for i in range(200):
                # Timestamp issuance must be atomic with the insert:
                # releasing the lock in between lets another thread
                # insert a later timestamp first, and the sketch
                # correctly rejects time moving backwards.
                with lock:
                    clock.advance(0.001)
                    shared.insert(offset + i, t=clock())

        threads = [threading.Thread(target=writer, args=(w * 1000,))
                   for w in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert shared.estimate(t=clock() + 1).value == pytest.approx(
            800, rel=0.15
        )


class TestBackgroundCleaner:
    def test_requires_time_based_window(self):
        sketch = ThreadSafeSketch(
            ClockBloomFilter(n=64, k=2, s=2, window=count_window(8))
        )
        with pytest.raises(ConfigurationError, match="time-based"):
            BackgroundCleaner(sketch)

    def test_interval_validated(self):
        sketch = ThreadSafeSketch(
            ClockBloomFilter(n=64, k=2, s=2, window=time_window(8.0))
        )
        with pytest.raises(ConfigurationError):
            BackgroundCleaner(sketch, interval=0)

    def test_expiry_without_any_operations(self, fake_clock):
        """The whole point of the thread: expiry with no queries."""
        window = time_window(10.0)
        sketch = ClockBloomFilter(n=128, k=2, s=2, window=window)
        shared = ThreadSafeSketch(sketch)
        clock = fake_clock(start=1.0)
        cleaner = BackgroundCleaner(shared, interval=0.001,
                                    time_source=clock)
        with cleaner:
            shared.insert("x", t=clock())
            cells = sketch.deriver.indexes("x")
            assert all(sketch.clock.values[i] > 0 for i in cells)
            clock.advance(16.0)  # past T * (1 + 1/(2^s - 2)) = 15
            cleared = _wait_until(
                lambda: all(sketch.clock.values[i] == 0 for i in cells)
            )
            assert cleared
        assert not cleaner.running

    def test_in_window_items_survive_cleaning(self, fake_clock):
        window = time_window(10.0)
        sketch = ClockBloomFilter(n=128, k=2, s=2, window=window)
        shared = ThreadSafeSketch(sketch)
        clock = fake_clock(start=1.0)
        with BackgroundCleaner(shared, interval=0.001,
                               time_source=clock) as cleaner:
            shared.insert("x", t=clock())
            clock.advance(5.0)  # half a window
            assert _wait_until(lambda: cleaner.ticks >= 3)
            assert shared.contains("x", t=clock())

    def test_start_is_idempotent_and_stop_joins(self):
        sketch = ThreadSafeSketch(
            ClockBloomFilter(n=64, k=2, s=2, window=time_window(8.0))
        )
        cleaner = BackgroundCleaner(sketch, interval=0.001)
        cleaner.start()
        cleaner.start()
        assert cleaner.running
        cleaner.stop()
        assert not cleaner.running
        cleaner.stop()  # idempotent


class TestFakeClock:
    def test_never_moves_backwards(self, fake_clock):
        clock = fake_clock(start=1.0)
        clock.advance(0.0)
        with pytest.raises(ValueError, match="non-negative"):
            clock.advance(-0.5)
        assert clock() == 1.0
        with pytest.raises(ValueError, match="non-negative"):
            fake_clock(tick=-1.0)
        ticking = fake_clock(tick=2.0)
        assert ticking() < ticking()
