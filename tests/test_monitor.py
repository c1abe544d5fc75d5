"""Tests for the ItemBatchMonitor facade."""

import pytest

from repro import BatchReport, ItemBatchMonitor, count_window, time_window
from repro.datasets import caida_like
from repro.errors import ConfigurationError, TimeError
from repro.streams import BatchTracker


class TestConstruction:
    def test_all_tasks_by_default(self):
        monitor = ItemBatchMonitor(count_window(64), memory="32KB")
        assert monitor.tasks == ("activeness", "cardinality", "size", "span")
        assert monitor.memory_bits() > 0

    def test_subset_of_tasks(self):
        monitor = ItemBatchMonitor(count_window(64), memory="16KB",
                                   tasks=("activeness",))
        assert monitor.cardinality is None
        assert monitor.size_sketch is None

    def test_unknown_task_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown tasks"):
            ItemBatchMonitor(count_window(64), tasks=("magic",))

    def test_empty_tasks_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            ItemBatchMonitor(count_window(64), tasks=())

    def test_budget_respected(self):
        monitor = ItemBatchMonitor(count_window(64), memory="64KB")
        assert monitor.memory_bits() <= 64 * 8192

    def test_custom_split(self):
        fat_size = ItemBatchMonitor(
            count_window(64), memory="64KB",
            split={"size": 0.9, "activeness": 0.03, "cardinality": 0.03,
                   "span": 0.04},
        )
        default = ItemBatchMonitor(count_window(64), memory="64KB")
        assert fat_size.size_sketch.memory_bits() > \
            default.size_sketch.memory_bits()

    def test_repr(self):
        assert "ItemBatchMonitor" in repr(ItemBatchMonitor(count_window(8)))

    def test_repr_surfaces_memory_split(self):
        monitor = ItemBatchMonitor(count_window(64), memory="32KB",
                                   tasks=("activeness", "size"))
        text = repr(monitor)
        assert "split=(" in text
        assert f"activeness={monitor.split['activeness']:.2f}" in text
        assert f"size={monitor.split['size']:.2f}" in text

    @pytest.mark.parametrize("tasks", [
        ("activeness",),
        ("activeness", "size"),
        ("cardinality", "span", "size"),
        ("activeness", "cardinality", "size", "span"),
    ])
    def test_split_renormalises_to_one_for_task_subsets(self, tasks):
        monitor = ItemBatchMonitor(count_window(64), memory="32KB",
                                   tasks=tasks)
        assert set(monitor.split) == set(tasks)
        assert sum(monitor.split.values()) == pytest.approx(1.0)
        report = monitor.memory_report()
        assert sum(report["split"].values()) == pytest.approx(1.0)
        assert report["total_bits"] == monitor.memory_bits()
        for task in tasks:
            assert report["actual_bits"][task] <= report["budget_bits"][task]

    def test_metrics_aggregates_every_enabled_task(self):
        monitor = ItemBatchMonitor(count_window(64), memory="32KB")
        monitor.observe_many(range(100))
        metrics = monitor.metrics()
        assert set(metrics["per_task"]) == set(monitor.tasks)
        assert metrics["memory_bits"] == monitor.memory_bits()
        assert sum(metrics["split"].values()) == pytest.approx(1.0)
        for task_metrics in metrics["per_task"].values():
            assert task_metrics["memory_bits"] > 0

    def test_metrics_publishes_split_gauges_when_observed(self):
        from repro import obs
        from repro.obs import names

        monitor = ItemBatchMonitor(count_window(64), memory="32KB",
                                   tasks=("activeness", "size"))
        with obs.observed() as reg:
            monitor.metrics()
        total = reg.get(names.MONITOR_MEMORY_BITS)
        assert total.value == float(monitor.memory_bits())
        assert reg.get(names.MONITOR_TASKS).value == 2.0
        fractions = [
            reg.get(names.MONITOR_SPLIT_RATIO, labels={"task": task}).value
            for task in monitor.tasks
        ]
        assert sum(fractions) == pytest.approx(1.0)


class TestMeasurements:
    def test_disabled_task_raises(self):
        monitor = ItemBatchMonitor(count_window(64), tasks=("activeness",))
        monitor.observe("x")
        assert monitor.is_active("x")
        with pytest.raises(ConfigurationError, match="not enabled"):
            monitor.batch_size("x")
        with pytest.raises(ConfigurationError, match="not enabled"):
            monitor.active_batches()
        with pytest.raises(ConfigurationError, match="not enabled"):
            monitor.batch_span("x")

    def test_report_combines_tasks(self):
        monitor = ItemBatchMonitor(count_window(64), memory="64KB", seed=2)
        for _ in range(5):
            monitor.observe("key")
        report = monitor.report("key")
        assert report == BatchReport(key="key", active=True, size=5,
                                     span=4.0, begin=1.0)

    def test_report_inactive_key(self):
        monitor = ItemBatchMonitor(count_window(8), memory="64KB", seed=2)
        monitor.observe("old")
        for i in range(40):
            monitor.observe(f"pad-{i}")
        report = monitor.report("old")
        assert not report.active
        assert report.size is None
        assert report.span is None

    def test_time_based(self):
        monitor = ItemBatchMonitor(time_window(10.0), memory="64KB")
        monitor.observe("a", t=1.0)
        monitor.observe("a", t=3.0)
        report = monitor.report("a", t=4.0)
        assert report.active
        assert report.size == 2

    def test_predicted_fpr_in_range(self):
        monitor = ItemBatchMonitor(count_window(1024), memory="64KB")
        assert 0 <= monitor.predicted_fpr() < 1

    def test_predicted_fpr_none_without_activeness(self):
        monitor = ItemBatchMonitor(count_window(64), tasks=("size",))
        assert monitor.predicted_fpr() is None


@pytest.mark.parametrize("shards", [1, 2], ids=["plain", "sharded"])
class TestSizeOnlyReport:
    """Without the activeness and span tasks, ``report`` reads a key as
    active exactly when its size is non-zero (Count-Min erases a counter
    when its clock expires)."""

    def test_live_key_reports_its_size(self, shards):
        monitor = ItemBatchMonitor.sharded(count_window(64),
                                           tasks=("size",), shards=shards)
        monitor.observe_many(["a", "a", "a"])
        assert monitor.batch_size("a") == 3
        assert monitor.report("a") == BatchReport(
            key="a", active=True, size=3, span=None, begin=None)

    def test_only_expired_and_unseen_keys_are_inactive(self, shards):
        monitor = ItemBatchMonitor.sharded(count_window(8), memory="64KB",
                                           tasks=("size",), shards=shards)
        monitor.observe("old")
        monitor.observe_many([f"pad-{i}" for i in range(40)] + ["new"])
        assert monitor.report("new") == BatchReport(
            key="new", active=True, size=1, span=None, begin=None)
        for key in ("old", "never"):
            assert monitor.batch_size(key) == 0
            assert monitor.report(key) == BatchReport(
                key=key, active=False, size=None, span=None, begin=None)


def test_served_size_only_query_reports_the_size():
    from repro.serve import TenantConfig
    from repro.serve.testing import LineClient, ServiceThread

    config = TenantConfig(window_length=64, memory="16KB", tasks=("size",))
    with ServiceThread(default_config=config) as service, \
            LineClient.for_service(service) as client:
        client.request({"op": "INSERT_BATCH", "tenant": "t",
                        "keys": ["a", "a", "a"]})
        answer = client.request({"op": "QUERY", "tenant": "t", "key": "a"})
    assert answer["ok"]
    assert (answer["active"], answer["size"]) == (True, 3)


class TestAgainstGroundTruth:
    def test_stream_level_agreement(self):
        window = count_window(1024)
        stream = caida_like(n_items=15_000, window_hint=1024, seed=8)
        monitor = ItemBatchMonitor(window, memory="256KB", seed=3)
        truth = BatchTracker(window)
        monitor.observe_stream(stream)
        truth.observe_stream(stream)

        assert monitor.active_batches() == pytest.approx(
            truth.active_cardinality(), rel=0.25
        )
        for key in truth.active_keys()[:50]:
            report = monitor.report(key)
            assert report.active
            assert report.size >= truth.size(key)
            assert report.span >= truth.span(key)


def _state(monitor):
    """Every task's (items_inserted, now, clock-array time); a sharded
    task adds each shard replica's."""
    state = []
    for sketch in monitor._sketches:
        replicas = getattr(sketch, "replicas", None)
        if replicas is None:
            state.append((sketch.items_inserted, sketch.now,
                          sketch.clock.now))
            continue
        state.append((sketch.items_inserted, sketch.now))
        state += [(r.items_inserted, r.now, r.clock.now) for r in replicas]
    return state


def _still_ingests(monitor):
    """A batch and a query at valid later times both go through."""
    if monitor.window.is_count_based:
        monitor.observe_many(["c", "d"])
        assert monitor.report("c").active
    else:
        monitor.observe_many(["c", "d"], [5.0, 6.0])
        assert monitor.report("c", t=7.0).active


def _time_monitor(shards):
    monitor = ItemBatchMonitor.sharded(time_window(100.0), memory="8KB",
                                       shards=shards)
    monitor.observe_many(["a", "b"], [1.0, 2.0])
    return monitor


@pytest.mark.parametrize("shards", [1, 2], ids=["plain", "sharded"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"),
                                 1e308],
                         ids=["nan", "inf", "-inf", "1e308"])
class TestNonFiniteTimes:
    """NaN, infinite and overflowing times raise TimeError before any
    task moves, and the monitor keeps serving afterwards. (1e308 is
    finite, but its sweep step count overflows.)"""

    def test_scalar_observe(self, shards, bad):
        monitor = _time_monitor(shards)
        before = _state(monitor)
        with pytest.raises(TimeError, match="finite|out of range"):
            monitor.observe("x", bad)
        assert _state(monitor) == before
        _still_ingests(monitor)

    @pytest.mark.parametrize("times", ["last", "all"])
    def test_batch_observe(self, shards, bad, times):
        monitor = _time_monitor(shards)
        before = _state(monitor)
        batch = [3.0, bad] if times == "last" else [bad, bad]
        with pytest.raises(TimeError, match="finite|out of range"):
            monitor.observe_many(["x", "y"], batch)
        assert _state(monitor) == before
        _still_ingests(monitor)

    def test_query_time(self, shards, bad):
        monitor = _time_monitor(shards)
        before = _state(monitor)
        with pytest.raises(TimeError, match="finite|out of range"):
            monitor.report("a", t=bad)
        assert _state(monitor) == before
        assert monitor.report("a").active
        _still_ingests(monitor)


def test_time_overflowing_one_task_moves_no_task():
    """Tasks differ in cells and circles, so at 1e15 the cardinality
    task's step count passes 2^63 but the activeness task's, which is
    written first, does not."""
    monitor = ItemBatchMonitor(time_window(10.0), memory="16KB")
    monitor.observe_many(["a", "b"], [1.0, 2.0])
    assert monitor.activeness.clock.total_steps_at(1e15) < 2**63 \
        <= monitor.cardinality.clock.total_steps_at(1e15)
    before = _state(monitor)
    with pytest.raises(TimeError, match="out of range"):
        monitor.observe("x", 1e15)
    with pytest.raises(TimeError, match="out of range"):
        monitor.observe_many(["x", "y"], [3.0, 1e15])
    assert _state(monitor) == before
    _still_ingests(monitor)


#: (window, keys, times, error) of one rejected batch; the monitor saw
#: "a" and "b" at times 1 and 2 (or as items 1 and 2).
_REJECTED_BATCHES = {
    "decreasing-times": ("time", ["x", "y"], [5.0, 4.0], TimeError),
    "before-now": ("time", ["x", "y"], [1.5, 3.0], TimeError),
    "length-mismatch": ("time", ["x", "y"], [3.0], ConfigurationError),
    "time-window-no-times": ("time", ["x", "y"], None, ConfigurationError),
    "count-window-times": ("count", ["x", "y"], [3.0, 4.0], TimeError),
    "unhashable-key": ("time", ["x", ["y"]], [3.0, 4.0], TypeError),
    "nan": ("time", ["x", "y"], [3.0, float("nan")], TimeError),
    "inf": ("time", ["x", "y"], [3.0, float("inf")], TimeError),
    "-inf": ("time", ["x", "y"], [float("-inf"), 3.0], TimeError),
    "overflow": ("time", ["x", "y"], [3.0, 1e308], TimeError),
}


@pytest.mark.parametrize("shards", [1, 2], ids=["plain", "sharded"])
@pytest.mark.parametrize("case", sorted(_REJECTED_BATCHES))
def test_rejected_batch_moves_no_task(shards, case):
    """A batch is applied to every task or to none."""
    window, keys, times, error = _REJECTED_BATCHES[case]
    if window == "time":
        monitor = _time_monitor(shards)
    else:
        monitor = ItemBatchMonitor.sharded(count_window(100), memory="8KB",
                                           shards=shards)
        monitor.observe_many(["a", "b"])
    before = _state(monitor)
    with pytest.raises(error):
        monitor.observe_many(keys, times)
    assert _state(monitor) == before
    _still_ingests(monitor)
