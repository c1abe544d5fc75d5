"""One insert path: the kinds' shared writers, all-or-nothing time
checks, and exact counter saturation on every engine path."""

import numpy as np
import pytest

from repro import ItemBatchMonitor, count_window, time_window
from repro.baselines import TimingBloomFilter
from repro.core import KINDS, ClockCountMin, ClockTimeSpanSketch
from repro.core.base import ClockSketchKind
from repro.engine import BatchEngine
from repro.errors import TimeError
from repro.serve import TenantConfig
from repro.serve.testing import LineClient, ServiceThread
from repro.shard import ShardedSketch


def _task_state(monitor):
    """Every task's (and every shard replica's) counters, times and cells."""
    state = []
    for sketch in monitor._sketches:
        state.append((sketch.items_inserted, sketch.now))
        for plain in getattr(sketch, "replicas", [sketch]):
            state.append((plain.items_inserted, plain.now, plain.clock.now,
                          plain.clock.steps_done,
                          *(cells.tobytes()
                            for cells in plain._cells(slice(None)))))
    return state


def _time_monitor(shards):
    return ItemBatchMonitor.sharded(time_window(100.0), memory="8KB",
                                    shards=shards)


class TestKindBase:
    def test_the_kinds_share_one_insert_path(self):
        for kind in KINDS:
            assert issubclass(kind, ClockSketchKind)
            for name in ("insert", "insert_many", "_bump"):
                assert name not in vars(kind), (kind.__name__, name)
        ingests = [name for name in vars(BatchEngine)
                   if name.startswith("ingest")]
        assert ingests == ["ingest"]

    def test_baselines_and_the_facade_inherit_no_kind_machinery(self):
        tbf = TimingBloomFilter.from_memory("4KB", count_window(64))
        for name in ("snapshot", "_cells", "_apply", "_union"):
            assert not hasattr(tbf, name), name
        assert not issubclass(ShardedSketch, ClockSketchKind)


@pytest.mark.parametrize("shards", [1, 2], ids=["plain", "sharded"])
class TestTimeZero:
    """The span task needs positive times; a time-0 insert is refused
    before any task moves, on every path."""

    @pytest.mark.parametrize("times", [[0.0, 0.0], [0.0, 1.0]],
                             ids=["all-zero", "first-zero"])
    def test_batch_moves_no_task(self, shards, times):
        monitor = _time_monitor(shards)
        before = _task_state(monitor)
        with pytest.raises(TimeError, match="positive"):
            monitor.observe_many(["a", "b"], times)
        assert _task_state(monitor) == before
        monitor.observe_many(["a"], [1.0])
        assert monitor.report("a").size == 1

    def test_scalar_moves_no_task(self, shards):
        monitor = _time_monitor(shards)
        before = _task_state(monitor)
        with pytest.raises(TimeError, match="positive"):
            monitor.observe("a", 0.0)
        assert _task_state(monitor) == before
        monitor.observe("a", 1.0)
        assert monitor.report("a").size == 1


@pytest.mark.parametrize("sweep_mode", ["vector", "deferred"])
def test_span_sketch_refuses_time_zero_before_moving(sweep_mode):
    ts = ClockTimeSpanSketch(n=64, k=2, s=8, window=time_window(10.0),
                             sweep_mode=sweep_mode)
    with pytest.raises(TimeError, match="positive"):
        ts.insert("x", t=0.0)
    with pytest.raises(TimeError, match="positive"):
        ts.insert_many(["x", "y"], [0.0, 1.0])
    assert (ts.items_inserted, ts.now) == (0, 0.0)
    assert not ts.timestamps.any() and not ts.clock.values.any()
    ts.insert("x", t=1.0)
    assert ts.query("x").begin == 1.0


def test_served_batch_at_time_zero_moves_no_task():
    config = TenantConfig(window_length=10.0, window_kind="time",
                          memory="16KB", seed=3)
    with ServiceThread(default_config=config) as hosted, \
            LineClient.for_service(hosted) as client:
        frame = {"op": "INSERT_BATCH", "tenant": "zero", "keys": ["a", "b"],
                 "times": [0.0, 0.0]}
        response = client.request(frame)
        assert response["error"]["code"] == "time-error", response
        monitor = hosted.service.tenants.peek("zero").monitor
        assert [s.items_inserted for s in monitor._sketches] == [0, 0, 0, 0]
        assert client.request({**frame, "times": [1.0, 1.0]})["ok"] is True
        assert [s.items_inserted for s in monitor._sketches] == [2, 2, 2, 2]


@pytest.mark.parametrize("shards", [1, 2], ids=["plain", "sharded"])
class TestTimedTaskQuery:
    """A timed query on one task (``active_batches(t)``) moves that task
    on; an insert before its time is refused by every task."""

    def _queried(self, shards):
        monitor = _time_monitor(shards)
        monitor.observe_many(["a"], [1.0])
        monitor.active_batches(t=50.0)
        return monitor

    def test_batch_moves_no_task(self, shards):
        monitor = self._queried(shards)
        before = _task_state(monitor)
        with pytest.raises(TimeError, match="backwards"):
            monitor.observe_many(["b", "c"], [45.0, 46.0])
        assert _task_state(monitor) == before
        monitor.observe_many(["b", "c"], [50.0, 51.0])
        assert [s.items_inserted for s in monitor._sketches] == [3] * 4

    def test_scalar_moves_no_task(self, shards):
        monitor = self._queried(shards)
        before = _task_state(monitor)
        with pytest.raises(TimeError, match="backwards"):
            monitor.observe("b", 45.0)
        assert _task_state(monitor) == before
        monitor.observe("b", 50.0)
        assert [s.items_inserted for s in monitor._sketches] == [2] * 4


@pytest.mark.parametrize("conservative", [False, True],
                         ids=["plain", "conservative"])
@pytest.mark.parametrize("sweep_mode", ["vector", "scalar", "deferred",
                                        "deferred-scalar"])
@pytest.mark.parametrize("repeats", [1, 3, 20],
                         ids=["scalar", "loop-or-chunk", "fused-or-chunk"])
@pytest.mark.parametrize("counter_bits", [2, 32])
def test_counters_saturate_on_every_path(sweep_mode, conservative, repeats,
                                         counter_bits):
    """A counter one below its ceiling stops there, however many hits a
    write brings (a deferred chunk adds them all at once); a 32-bit
    counter does not wrap past 2^32 - 1."""
    cm = ClockCountMin(width=64, depth=3, s=4, window=count_window(1000),
                       counter_bits=counter_bits, sweep_mode=sweep_mode,
                       conservative=conservative)
    cm.insert("k")
    cm.counters[np.flatnonzero(cm.counters)] = cm.counter_max - 1
    if repeats == 1:
        cm.insert("k")
    else:
        cm.insert_many(["k"] * repeats)
    assert cm.query("k") == cm.counter_max == 2**counter_bits - 1
    assert cm.metrics()["saturated_counters"] == 3
