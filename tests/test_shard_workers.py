"""Deterministic tests for the multiprocessing shard worker pool.

Concurrency failure modes are driven, not awaited: the router takes an
injectable ``time_source`` (the :class:`BackgroundCleaner` pattern from
:mod:`repro.concurrent`), so back-pressure deadlines fire on a fake
clock, and the worker protocol exposes fault-injection commands
(``stall``, ``crash``) so worker death is provoked on demand. Every
failure must surface as a typed error carrying the partial-result
picture — never as a hang — and shutdown must always be clean and
idempotent.
"""

import multiprocessing
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro import (
    ClockBloomFilter,
    ClockCountMin,
    ItemBatchMonitor,
    ShardedSketch,
    count_window,
    dumps_sketch,
    loads_sketch,
)
from repro.errors import (
    ConfigurationError,
    ShardBackpressureError,
    ShardError,
    ShardWorkerError,
)

WINDOW = count_window(256)


def _make_bloom():
    return ClockBloomFilter(n=1024, k=3, s=2, window=WINDOW)


def _items(seed, size=1200, keys=150):
    rng = np.random.default_rng(seed)
    return [f"key-{v}" for v in rng.integers(0, keys, size=size)]


class TestProcessRouterCorrectness:
    def test_process_equals_serial_end_state(self):
        items = _items(1)
        probe = [f"key-{i}" for i in range(150)]
        serial = ShardedSketch(_make_bloom, shards=3, router="serial")
        with ShardedSketch(_make_bloom, shards=3, router="process") as proc:
            for lo in range(0, len(items), 400):
                serial.insert_many(items[lo:lo + 400])
                proc.insert_many(items[lo:lo + 400])
            a = proc.merged()
            b = serial.merged()
            assert np.array_equal(a.clock.values, b.clock.values)
            assert a.clock.steps_done == b.clock.steps_done
            assert np.array_equal(np.asarray(proc.contains_many(probe)),
                                  np.asarray(serial.contains_many(probe)))

    def test_facade_queryable_after_close(self):
        items = _items(2)
        sharded = ShardedSketch(_make_bloom, shards=2, router="process")
        sharded.insert_many(items)
        before = np.asarray(sharded.contains_many(_items(2, size=100)))
        sharded.close()
        after = np.asarray(sharded.contains_many(_items(2, size=100)))
        assert np.array_equal(before, after)

    def test_merged_state_round_trips_after_pool_ingest(self):
        with ShardedSketch(_make_bloom, shards=2, router="process") as sh:
            sh.insert_many(_items(3))
            blob = dumps_sketch(sh)
            probe = [f"key-{i}" for i in range(150)]
            expected = np.asarray(sh.contains_many(probe))
        restored = loads_sketch(blob)
        try:
            assert restored.shards == 2
            assert np.array_equal(
                np.asarray(restored.contains_many(probe)), expected)
        finally:
            restored.close()


class TestBackpressure:
    def test_full_queue_raises_instead_of_buffering(self, fake_clock):
        clock = fake_clock(tick=1.0)
        sharded = ShardedSketch(_make_bloom, shards=1, router="process",
                                queue_capacity=1, timeout=5.0,
                                time_source=clock)
        try:
            # Wedge the single worker, then flood its bounded queue.
            sharded.router.inject(0, "stall", 2.0)
            with pytest.raises(ShardBackpressureError) as excinfo:
                for i in range(200):
                    sharded.insert(f"key-{i}")
            assert "queue full" in str(excinfo.value)
            assert isinstance(excinfo.value, ShardError)
        finally:
            sharded.close()

    def test_deadline_runs_on_injected_time_source(self, fake_clock):
        # Fake seconds pass 600x faster than real ones: a 60-second
        # deadline must trip after a couple of 0.05s real-time polls,
        # proving the deadline arithmetic reads the injected clock.
        clock = fake_clock(tick=30.0)
        sharded = ShardedSketch(_make_bloom, shards=1, router="process",
                                queue_capacity=1, timeout=60.0,
                                time_source=clock)
        try:
            sharded.router.inject(0, "stall", 1.5)
            import time as _time
            started = _time.monotonic()
            with pytest.raises(ShardBackpressureError):
                for i in range(200):
                    sharded.insert(f"key-{i}")
            assert _time.monotonic() - started < 30.0
        finally:
            sharded.close()


class TestWorkerFailure:
    def test_crash_surfaces_with_partial_result_info(self):
        sharded = ShardedSketch(_make_bloom, shards=2, router="process",
                                timeout=20.0)
        try:
            sharded.insert_many(_items(4, size=400))
            sharded.router.inject(0, "crash")
            with pytest.raises(ShardWorkerError) as excinfo:
                sharded.merged()
            error = excinfo.value
            assert 0 in error.failed
            assert "injected worker crash" in error.failed[0]
            assert isinstance(error.pending, dict)
        finally:
            sharded.close()

    def test_dispatch_to_dead_worker_raises_not_hangs(self):
        sharded = ShardedSketch(_make_bloom, shards=2, router="process",
                                timeout=20.0)
        try:
            sharded.insert_many(_items(5, size=200))
            sharded.router.inject(1, "crash")
            with pytest.raises(ShardWorkerError):
                # Either the dispatch notices the dead worker or the
                # next barrier does; both must raise, not hang.
                for _ in range(50):
                    sharded.insert_many(_items(6, size=200))
                sharded.merged()
        finally:
            sharded.close()

    def test_close_is_idempotent_after_crash(self):
        sharded = ShardedSketch(_make_bloom, shards=2, router="process",
                                timeout=20.0)
        sharded.router.inject(0, "crash")
        sharded.close()
        sharded.close()
        with pytest.raises(ShardWorkerError):
            sharded.insert("post-close")


class TestSharedMemoryHygiene:
    def test_side_arrays_live_in_shared_memory(self):
        def make():
            return ClockCountMin(width=256, depth=2, s=2, window=WINDOW)
        with ShardedSketch(make, shards=2, router="process") as sharded:
            sharded.insert_many(_items(7, size=600))
            sharded.merged()  # barrier: all queued ingests applied
            total = sum(int(np.asarray(r.counters).sum())
                        for r in sharded.replicas)
            # Worker-side counter updates are visible to the parent
            # through the shared block without any explicit transfer.
            assert total > 0
            probe = [f"key-{i}" for i in range(150)]
            merged = np.asarray(sharded.query_many(probe))
            serial = ShardedSketch(make, shards=2, router="serial")
            serial.insert_many(_items(7, size=600))
            assert np.array_equal(merged, np.asarray(serial.query_many(probe)))

    def test_queue_depth_reporting(self):
        with ShardedSketch(_make_bloom, shards=2, router="process") as sh:
            sh.insert_many(_items(8, size=300))
            depths = [sh.router.queue_depth(p) for p in range(2)]
            assert all(d >= 0 for d in depths)
        assert sh.metrics()["router"] == "process"


def _os_children():
    """Pids of every live process whose parent is this one."""
    me = os.getpid()
    children = set()
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == me and fields[0] != "Z":
            children.add(int(stat.parent.name))
    return children


def _wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


@pytest.mark.skipif(not Path("/dev/shm").is_dir()
                    or not Path("/proc/self/stat").exists(),
                    reason="needs Linux /proc and /dev/shm")
class TestProcessHygiene:
    """A process router starts P workers and nothing else, and leaves no
    named segment behind: its blocks are anonymous fork-inherited
    mappings, so there is nothing to unlink and no resource tracker."""

    @pytest.mark.parametrize("shards", [2, 4])
    def test_exactly_p_children_and_no_segments(self, shards):
        shm_before = set(os.listdir("/dev/shm"))
        mp_before = set(multiprocessing.active_children())
        os_before = _os_children()
        monitor = ItemBatchMonitor.sharded(
            WINDOW, memory="8KB", shards=shards, router="process",
            timeout=20.0)
        try:
            monitor.observe_many(_items(9, size=600))
            monitor.report("key-1")  # barrier: every ingest applied
            workers = set(multiprocessing.active_children()) - mp_before
            assert len(workers) == shards
            assert _os_children() - os_before == {p.pid for p in workers}
            assert set(os.listdir("/dev/shm")) == shm_before

            monitor.activeness.router.inject(0, "crash")
            with pytest.raises(ShardWorkerError):
                monitor.report("key-1", t=monitor.activeness.now + 1)
            assert _wait_for(lambda: len(
                set(multiprocessing.active_children()) - mp_before)
                == shards - 1)
            assert _os_children() - os_before <= {p.pid for p in workers}
            assert set(os.listdir("/dev/shm")) == shm_before
        finally:
            monitor.close()
        assert not set(multiprocessing.active_children()) - mp_before
        assert _wait_for(lambda: not _os_children() - os_before)
        assert set(os.listdir("/dev/shm")) == shm_before

    def test_process_router_needs_fork(self, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn", "forkserver"])
        before = set(multiprocessing.active_children())
        with pytest.raises(ConfigurationError, match="fork"):
            ItemBatchMonitor.sharded(WINDOW, memory="8KB", shards=2,
                                     router="process")
        assert set(multiprocessing.active_children()) == before
