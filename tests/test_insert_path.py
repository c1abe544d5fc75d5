"""One insert path: the kinds' and the baselines' shared writers,
all-or-nothing time checks, and exact counter saturation on every
engine path."""

from collections import deque

import numpy as np
import pytest

from repro import ItemBatchMonitor, count_window, obs, time_window
from repro.baselines import (
    CounterVectorSketch,
    IdealSlidingBloom,
    NaiveSizeSketch,
    NaiveTimeSpanSketch,
    TimeOutBloomFilter,
    TimestampVector,
    TimingBloomFilter,
)
from repro.core import KINDS, ClockCountMin, ClockTimeSpanSketch
from repro.core.base import ClockSketchKind
from repro.engine import BatchEngine
from repro.errors import ConfigurationError, TimeError
from repro.obs import names
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


#: The seven baselines, each built on a given window.
BASELINES = {
    "tobf": lambda w: TimeOutBloomFilter(n=256, k=3, window=w, seed=1),
    "tbf": lambda w: TimingBloomFilter(n=256, k=3, window=w, seed=1),
    "tsv": lambda w: TimestampVector(n=256, window=w, seed=1),
    "cvs": lambda w: CounterVectorSketch(n=256, window=w, seed=1),
    "ideal": lambda w: IdealSlidingBloom(n=256, k=3, window=w, seed=1),
    "naive_size": lambda w: NaiveSizeSketch(width=64, depth=3, window=w,
                                            seed=1),
    "naive_span": lambda w: NaiveTimeSpanSketch(n=256, k=2, window=w,
                                                seed=1),
}

#: The five that answer per key, and the Python type of one answer.
PER_KEY = {"tobf": bool, "tbf": bool, "ideal": bool, "naive_size": int,
           "naive_span": None}


def _baseline_state(sketch):
    """Item count, time, and every cell array, counter and RNG state."""
    state = [sketch.items_inserted, sketch.now]
    for name, value in sorted(vars(sketch).items()):
        if isinstance(value, np.ndarray):
            state.append((name, value.tobytes()))
        elif isinstance(value, (int, float)):
            state.append((name, value))
        elif isinstance(value, deque):
            state.append((name, [(t, row.tobytes()) for t, row in value]))
        elif isinstance(value, np.random.Generator):
            state.append((name, value.bit_generator.state))
    return state


#: (window, refused operation, error type): every way a batch or one
#: insert can carry a bad time, after items at times 10 and 20.
REFUSED = {
    "batch-decreasing": ("time", lambda s: s.insert_many(["x", "y"],
                                                         [50.0, 40.0]),
                         TimeError),
    "batch-nan": ("time", lambda s: s.insert_many(["x"], [float("nan")]),
                  TimeError),
    "batch-inf-inside": ("time", lambda s: s.insert_many(
        ["x", "y", "z"], [30.0, float("inf"), 40.0]), TimeError),
    "batch-dips-inside": ("time", lambda s: s.insert_many(
        ["x", "y", "z"], [30.0, 31.0, 30.5]), TimeError),
    "batch-before-now": ("time", lambda s: s.insert_many(["x"], [15.0]),
                         TimeError),
    "batch-without-times": ("time", lambda s: s.insert_many(["x"]),
                            ConfigurationError),
    "batch-misaligned": ("time", lambda s: s.insert_many(["x", "y"],
                                                         [30.0]),
                         ConfigurationError),
    "one-before-now": ("time", lambda s: s.insert("x", t=15.0), TimeError),
    "one-nan": ("time", lambda s: s.insert("x", t=float("nan")), TimeError),
    "one-without-time": ("time", lambda s: s.insert("x"), TimeError),
    "count-batch-with-times": ("count", lambda s: s.insert_many(
        ["x", "y"], [30.0, 31.0]), TimeError),
    "count-one-with-time": ("count", lambda s: s.insert("x", t=30.0),
                            TimeError),
}


@pytest.mark.parametrize("case", REFUSED)
@pytest.mark.parametrize("name", BASELINES)
def test_baselines_refuse_bad_times_whole(name, case):
    """A baseline refuses a bad time by the kinds' rules, before any
    cell, counter or clock moves, and keeps working afterwards."""
    kind, refused, error = REFUSED[case]
    if kind == "time":
        sketch = BASELINES[name](time_window(100.0))
        sketch.insert_many(["a", "b"], [10.0, 10.0])
        sketch.insert("c", t=20.0)
    else:
        sketch = BASELINES[name](count_window(64))
        sketch.insert_many(["a", "b"])
        sketch.insert("c")
    before = _baseline_state(sketch)
    with pytest.raises(error):
        refused(sketch)
    assert _baseline_state(sketch) == before
    if kind == "time":
        sketch.insert_many(["d", "e"], [30.0, 31.0])
    else:
        sketch.insert_many(["d", "e"])
    assert sketch.items_inserted == 5


#: Keys across the whole domain: ints (negative, past 2^63), strings.
_KEYS = [0, 7, -5, 2**64 - 1, 2**63 + 11, "a", "flow-9", "\u00fc\U0001f600",
         ""]


@pytest.mark.parametrize("windowed", ["count", "time"])
@pytest.mark.parametrize("name", PER_KEY)
def test_baseline_scalar_answer_is_its_batch_row(name, windowed):
    """``query`` (and ``contains``) is row ``i`` of ``query_many``, as a
    plain Python value, over int and str keys alike."""
    if windowed == "count":
        sketch = BASELINES[name](count_window(16))
        sketch.insert_many(_KEYS[::2] * 3)
        for key in _KEYS[1::3]:
            sketch.insert(key)
        t_query = None
    else:
        sketch = BASELINES[name](time_window(10.0))
        sketch.insert_many(_KEYS[::2], np.linspace(1.0, 8.0, 5))
        for i, key in enumerate(_KEYS[1::3]):
            sketch.insert(key, t=9.0 + i)
        t_query = 15.0
    probes = _KEYS + ["never-seen", 10**15]
    batch = sketch.query_many(probes, t=t_query)
    for i, key in enumerate(probes):
        answer = sketch.query(key)
        row = batch.item(i) if PER_KEY[name] is None else batch[i].item()
        assert answer == row, (key, answer, row)
        assert type(answer) is type(row)
        if PER_KEY[name] is not None:
            assert type(answer) is PER_KEY[name]
        if PER_KEY[name] is bool:
            assert sketch.contains(key) is answer
    if PER_KEY[name] is bool:
        assert np.array_equal(sketch.contains_many(probes), batch)


def test_baselines_gain_no_method_they_cannot_answer():
    w = count_window(64)
    for name, build in BASELINES.items():
        sketch = build(w)
        assert hasattr(sketch, "query") == (name in PER_KEY), name
        assert hasattr(sketch, "contains") == (PER_KEY.get(name) is bool), \
            name
        assert not hasattr(sketch, "snapshot"), name


def test_cvs_config_check_is_a_configuration_error():
    with pytest.raises(ConfigurationError, match="max_count"):
        CounterVectorSketch(n=16, window=count_window(8), max_count=16,
                            counter_bits=4)


@pytest.mark.parametrize("name", BASELINES)
def test_baseline_operations_are_counted(name):
    registry = obs.enable()
    try:
        sketch = BASELINES[name](count_window(64))
        sketch.insert("a")
        sketch.insert_many(["b", "c", "d"])
        if name in PER_KEY:
            sketch.query("a")
            sketch.query_many(["a", "b"])
        else:
            sketch.estimate()
            sketch.estimate()
    finally:
        obs.disable()
    label = {"sketch": type(sketch).__name__}
    assert registry.get(names.SKETCH_INSERTS_TOTAL, label).value == 4
    assert registry.get(names.SKETCH_QUERIES_TOTAL, label).value == 2
