"""The sharded monitor: one shard set for every task.

``ItemBatchMonitor.sharded`` partitions the stream once — one shard
hash, one scatter per batch, one router — and each shard applies its
sub-batch to all enabled tasks. These tests pin that shape (worker and
pass counts, P=1 serial is the plain monitor), hold the serial and
process routers to per-key agreement live and across a checkpoint
restore, and check §7's distributed-measurement answers on a
time-based window.
"""

import multiprocessing
import tempfile

import numpy as np
import pytest

from repro import (
    ClockBitmap,
    ClockBloomFilter,
    ClockCountMin,
    ClockTimeSpanSketch,
    ItemBatchMonitor,
    ShardedSketch,
    count_window,
    time_window,
)
from repro.bench.harness import last_batches
from repro.datasets import caida_like
from repro.hashing import ShardSelector
from repro.serve import TenantConfig
from repro.serve.checkpoint import CheckpointManager
from repro.serve.tenants import Tenant
from repro.shard import SerialShardRouter
from repro.streams import split_active_inactive

WINDOW = 128


def _keys(seed, size=1500, universe=300):
    rng = np.random.default_rng(seed)
    return [f"key-{v}" for v in rng.integers(0, universe, size=size)]


def _feed(monitor, keys, chunk=250):
    for lo in range(0, len(keys), chunk):
        monitor.observe_many(keys[lo:lo + chunk])


def _reports(monitor, probe):
    return {key: monitor.report(key) for key in probe}


class TestShape:
    def test_process_router_runs_one_worker_per_shard(self):
        before = {p.pid for p in multiprocessing.active_children()}
        monitor = ItemBatchMonitor.sharded(
            count_window(WINDOW), memory="16KB", seed=1, shards=2,
            router="process")
        try:
            started = {p.pid for p in multiprocessing.active_children()}
            assert len(started - before) == 2
            assert len(monitor.tasks) == 4
        finally:
            monitor.close()
        assert not {p.pid for p in multiprocessing.active_children()} \
            - before

    def test_one_serial_shard_is_the_plain_monitor(self):
        monitor = ItemBatchMonitor.sharded(
            count_window(WINDOW), memory="16KB", seed=1, shards=1,
            router="serial")
        assert type(monitor.activeness) is ClockBloomFilter
        assert type(monitor.cardinality) is ClockBitmap
        assert type(monitor.size_sketch) is ClockCountMin
        assert type(monitor.span_sketch) is ClockTimeSpanSketch
        assert monitor.shards == 1

    def test_tasks_are_views_of_one_shard_set(self):
        monitor = ItemBatchMonitor.sharded(
            count_window(WINDOW), memory="16KB", seed=4, shards=3)
        views = monitor._sketches
        assert all(isinstance(view, ShardedSketch) for view in views)
        assert len({id(view.shard_set) for view in views}) == 1
        assert len({id(view.router) for view in views}) == 1
        assert views[0].selector.seed == 4
        assert [view.slot for view in views] == [0, 1, 2, 3]

    def test_one_scatter_per_batch_and_one_barrier_per_query(
            self, monkeypatch):
        monitor = ItemBatchMonitor.sharded(
            count_window(WINDOW), memory="16KB", seed=2, shards=2)
        calls = {"shards_of": 0, "barrier": 0}
        shards_of = ShardSelector.shards_of
        barrier = SerialShardRouter.barrier

        def counting_shards_of(self, items):
            calls["shards_of"] += 1
            return shards_of(self, items)

        def counting_barrier(self, now, ctx=None):
            calls["barrier"] += 1
            return barrier(self, now, ctx)

        monkeypatch.setattr(ShardSelector, "shards_of", counting_shards_of)
        monkeypatch.setattr(SerialShardRouter, "barrier", counting_barrier)
        keys = _keys(0, size=200)
        monitor.observe_many(keys)
        assert calls["shards_of"] == 1
        assert monitor.report(keys[-1]).active
        assert calls["barrier"] == 1
        # A second key at the same stream time reuses the merged views.
        assert monitor.report(keys[-2]).active
        assert calls["barrier"] == 1

    def test_every_view_reads_the_shared_stream_clock(self):
        monitor = ItemBatchMonitor.sharded(
            count_window(WINDOW), memory="16KB", seed=2, shards=2)
        monitor.observe_many(_keys(1, size=300))
        monitor.observe("extra")
        assert {view.now for view in monitor._sketches} == {301.0}
        assert {view.items_inserted for view in monitor._sketches} == {301}


class TestSerialProcessDifferential:
    """Per-key agreement between the routers, live and restored."""

    @pytest.mark.parametrize("shards", [2, 3])
    def test_reports_agree_for_every_key(self, shards):
        keys = _keys(shards)
        probe = sorted(set(keys)) + [f"never-{i}" for i in range(100)]
        config = {"memory": "16KB", "seed": 7, "shards": shards}
        serial = ItemBatchMonitor.sharded(count_window(WINDOW), **config)
        process = ItemBatchMonitor.sharded(count_window(WINDOW),
                                           router="process", **config)
        try:
            _feed(serial, keys)
            _feed(process, keys)
            expected = _reports(serial, probe)
            assert _reports(process, probe) == expected
            assert any(r.active for r in expected.values())
        finally:
            process.close()

    @pytest.mark.parametrize("shards", [2, 3])
    def test_reports_agree_after_checkpoint_restore(self, shards):
        keys = _keys(shards + 20)
        probe = sorted(set(keys)) + [f"never-{i}" for i in range(100)]
        restored = {}
        with tempfile.TemporaryDirectory() as root:
            for router in ("serial", "process"):
                config = TenantConfig(window_length=WINDOW, memory="16KB",
                                      seed=7, shards=shards, router=router)
                tenant = Tenant(router, config, config.build_monitor())
                try:
                    for lo in range(0, len(keys), 250):
                        tenant.ingest(keys[lo:lo + 250], None)
                    live = _reports(tenant.monitor, probe)
                    manager = CheckpointManager(root)
                    manager.write(tenant)
                finally:
                    tenant.close()
                state = manager.restore(router)
                assert state is not None and not state.fell_back
                try:
                    monitor = state.monitor
                    assert monitor.shards == shards
                    assert len({id(s.shard_set)
                                for s in monitor._sketches}) == 1
                    assert monitor._sketches[0].router.kind == router
                    restored[router] = _reports(monitor, probe)
                    assert restored[router] == live
                    # The restored set keeps ingesting on one routing.
                    _feed(monitor, keys[:300])
                    restored[router] = _reports(monitor, probe)
                finally:
                    state.monitor.close()
        assert restored["process"] == restored["serial"]


class TestTimeWindowAcrossShards:
    """Keyed partitions merged at a barrier answer global queries (§7)."""

    @pytest.fixture(scope="class")
    def world(self):
        window = time_window(2048.0)
        stream = caida_like(n_items=30_000, window_hint=2048, seed=17)
        monitor = ItemBatchMonitor.sharded(window, memory="160KB", seed=5,
                                           shards=3)
        monitor.observe_many(stream.keys, stream.times)
        now = float(stream.times[-1])
        active, _ = split_active_inactive(stream.keys, stream.times, now,
                                          window)
        return monitor, stream, window, active

    def test_no_false_negatives_across_shards(self, world):
        monitor, _stream, _window, active = world
        rng = np.random.default_rng(0)
        sample = rng.choice(active, size=min(300, active.size),
                            replace=False)
        missed = [int(key) for key in sample
                  if not monitor.is_active(int(key))]
        assert missed == []

    def test_cardinality_near_truth(self, world):
        monitor, _stream, _window, active = world
        assert monitor.active_batches() == pytest.approx(active.size,
                                                         rel=0.25)

    def test_all_items_counted(self, world):
        monitor, stream, _window, _active = world
        assert monitor.size_sketch.items_inserted == len(stream)

    def test_merge_does_not_corrupt_replicas(self):
        """Shards keep ingesting correctly after a merged query."""
        monitor = ItemBatchMonitor.sharded(time_window(100.0),
                                           memory="32KB", seed=3, shards=2)
        selector = monitor.activeness.selector
        first = next(k for k in range(100) if selector.shard_of(k) == 0)
        second = next(k for k in range(100) if selector.shard_of(k) == 1)
        monitor.observe_many([first], [1.0])
        assert monitor.is_active(first, t=2.0)
        # The merge built a private view: shard 1 never saw the key.
        untouched = monitor.activeness.replicas[1]
        assert not untouched.contains(first, t=2.0)
        monitor.observe_many([second], [3.0])
        assert monitor.is_active(first, t=4.0)
        assert monitor.is_active(second)

    def test_batch_size_at_least_truth(self, world):
        monitor, stream, window, _active = world
        keys, _starts, ends, sizes = last_batches(stream.keys, stream.times,
                                                  window)
        live = (float(stream.times[-1]) - ends) < window.length
        low = [(int(key), int(size))
               for key, size in list(zip(keys[live], sizes[live]))[:100]
               if monitor.batch_size(int(key)) < size]
        assert low == []
