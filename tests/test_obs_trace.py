"""Tests for ``repro.obs.trace`` — spans, sampling, capture, stitching.

The tracer follows the switchboard discipline: the autouse fixture
below restores the defaults before and after every test, so trace state
never leaks between tests, including spans other suites (the audit
plane's) left in the process tracer.
"""

import threading

import numpy as np
import pytest

from repro import ClockBloomFilter, count_window, obs
from repro.concurrent import ThreadSafeSketch
from repro.errors import ConfigurationError
from repro.monitor import ItemBatchMonitor
from repro.obs import names
from repro.obs import trace
from repro.obs.ring import LockedRing


@pytest.fixture(autouse=True)
def _trace_reset():
    obs.disable()
    trace.configure()
    yield
    obs.disable()
    trace.configure()


def spans_by_name(name):
    return [s for s in trace.tracer().ring.entries() if s["name"] == name]


class TestSpanLifecycle:
    def test_disabled_returns_the_shared_null_span(self):
        sp = trace.span("anything", key="value")
        assert sp is trace.NULL_SPAN
        assert sp.recording is False
        assert sp.ctx is None
        sp.set("dropped", 1)  # no-op, no error
        with sp:
            pass
        assert trace.tracer().ring.total_pushed == 0

    def test_enabled_records_root_and_child_linkage(self):
        obs.enable(fresh=True)
        with trace.span("parent", a=1) as root:
            assert root.recording
            root.set("b", 2)
            with trace.span("child") as kid:
                assert kid.trace_id == root.trace_id
                assert kid.parent_id == root.span_id
        parent, = spans_by_name("parent")
        child, = spans_by_name("child")
        # Child finishes (and is pushed) first; both share the trace.
        assert child["parent_id"] == parent["span_id"]
        assert child["trace_id"] == parent["trace_id"]
        assert parent["parent_id"] is None
        assert parent["attrs"] == {"a": 1, "b": 2}
        assert parent["status"] == "ok"
        assert parent["duration"] >= 0.0

    def test_exception_marks_status_error_and_propagates(self):
        obs.enable(fresh=True)
        with pytest.raises(ValueError, match="boom"):
            with trace.span("failing"):
                raise ValueError("boom")
        failed, = spans_by_name("failing")
        assert failed["status"] == "error"
        assert failed["attrs"]["error"] == "ValueError: boom"

    def test_span_ids_embed_the_pid_and_never_repeat(self):
        obs.enable(fresh=True)
        with trace.span("one") as a:
            pass
        with trace.span("two") as b:
            pass
        assert a.span_id != b.span_id
        import os
        assert a.span_id.startswith(f"{os.getpid():x}-")

    def test_finished_spans_feed_the_counters(self):
        reg = obs.enable(fresh=True)
        with trace.span("outer"):
            with trace.span("inner"):
                pass
        snap = reg.snapshot()
        spans_total = {tuple(sorted(c["labels"].items())): c["value"]
                       for c in snap["counters"]
                       if c["name"] == names.TRACE_SPANS_TOTAL}
        assert spans_total[(("name", "outer"),)] == 1
        assert spans_total[(("name", "inner"),)] == 1
        traces = [c["value"] for c in snap["counters"]
                  if c["name"] == names.TRACE_TRACES_TOTAL]
        assert traces == [1]


class TestSampling:
    def test_sample_every_two_alternates_whole_traces(self):
        obs.enable(fresh=True)
        trace.configure(sample_every=2)
        recorded = []
        for _ in range(4):
            with trace.span("root") as root:
                with trace.span("leaf") as leaf:
                    # An unsampled root suppresses its subtree: the
                    # child must not make its own sampling decision.
                    assert leaf.recording == root.recording
                recorded.append(root.recording)
        assert recorded == [True, False, True, False]
        assert len(spans_by_name("root")) == 2
        assert len(spans_by_name("leaf")) == 2

    def test_sample_every_zero_disables_while_metrics_stay_on(self):
        reg = obs.enable(fresh=True)
        trace.configure(sample_every=0)
        with trace.span("never") as sp:
            assert sp is trace.NULL_SPAN
        assert trace.tracer().ring.total_pushed == 0
        reg.counter(names.SKETCH_INSERTS_TOTAL).inc()  # metrics live
        assert len(reg) == 1

    def test_negative_sample_every_rejected(self):
        with pytest.raises(ConfigurationError, match=">= 0"):
            trace.configure(sample_every=-1)


class TestSpanRing:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigurationError, match=">= 1"):
            LockedRing(0)

    def test_wraparound_keeps_most_recent_in_order(self):
        ring = LockedRing(capacity=3)
        for i in range(7):
            ring.push({"name": f"s{i}"})
        assert len(ring) == 3
        assert ring.total_pushed == 7
        assert [s["name"] for s in ring.entries()] == ["s4", "s5", "s6"]
        ring.clear()
        assert len(ring) == 0 and ring.entries() == []

    def test_configure_replaces_ring_and_fresh_enable_clears_it(self):
        obs.enable(fresh=True)
        trace.configure(capacity=8)
        with trace.span("kept"):
            pass
        assert trace.tracer().ring.total_pushed == 1
        # enable(fresh=True) runs the tracer's reset hook.
        obs.enable(fresh=True)
        assert trace.tracer().ring.total_pushed == 0
        assert trace.tracer().ring.capacity == 8  # config survives


class TestCaptureAndStitching:
    def test_capture_records_while_switchboard_is_off(self):
        assert not obs.enabled()
        sink = []
        with trace.capture(("trace-1", "span-1"), sink):
            with trace.span("worker.op", shard="3") as sp:
                assert sp.recording
        payload, = sink
        assert payload["trace_id"] == "trace-1"
        assert payload["parent_id"] == "span-1"
        assert payload["attrs"] == {"shard": "3"}
        # Captured spans go to the sink only — the local ring is for
        # the dispatching process, which adopts them via record_spans.
        assert trace.tracer().ring.total_pushed == 0
        # And outside the block the tracer is inert again.
        assert trace.span("after") is trace.NULL_SPAN

    def test_record_spans_adopts_dicts_and_counts_them(self):
        reg = obs.enable(fresh=True)
        trace.record_spans([
            {"name": "shard.ingest", "trace_id": "t", "span_id": "a"},
            {"name": "shard.ingest", "trace_id": "t", "span_id": "b"},
        ])
        assert [s["span_id"] for s in trace.tracer().ring.entries()] == \
            ["a", "b"]
        snap = reg.snapshot()
        count, = [c["value"] for c in snap["counters"]
                  if c["name"] == names.TRACE_SPANS_TOTAL]
        assert count == 2


class TestSnapshotAndChrome:
    def test_snapshot_shape(self):
        obs.enable(fresh=True)
        trace.configure(capacity=16, sample_every=1)
        with trace.span("snap"):
            pass
        snap = trace.snapshot()
        assert snap["capacity"] == 16
        assert snap["sample_every"] == 1
        assert snap["total_pushed"] == 1
        assert snap["spans"][0]["name"] == "snap"

    def test_chrome_trace_events_are_perfetto_shaped(self):
        obs.enable(fresh=True)
        with trace.span("outer", items=5):
            with trace.span("inner"):
                pass
        doc = trace.chrome_trace()
        assert doc["displayTimeUnit"] == "ms"
        inner, outer = doc["traceEvents"]
        for event in (inner, outer):
            assert event["ph"] == "X"
            assert event["cat"] == "repro"
            assert event["ts"] > 0 and event["dur"] >= 0
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
        assert outer["name"] == "outer"
        assert outer["args"]["items"] == 5
        assert inner["args"]["parent_id"] == outer["args"]["span_id"]


class TestPipelineInstrumentation:
    def test_monitor_root_spans_with_engine_children(self):
        obs.enable(fresh=True)
        monitor = ItemBatchMonitor(count_window(128), memory="16KB", seed=1)
        monitor.observe_many(np.arange(200, dtype=np.uint64))
        root, = spans_by_name(names.SPAN_MONITOR_OBSERVE)
        assert root["parent_id"] is None
        assert root["attrs"]["items"] == 200
        assert root["attrs"]["sketches"] == len(monitor._sketches)
        engine = spans_by_name(names.SPAN_ENGINE_BATCH)
        assert len(engine) == len(monitor._sketches)
        assert {s["parent_id"] for s in engine} == {root["span_id"]}
        assert all(s["attrs"]["items"] == 200 for s in engine)

    def test_raw_sketch_ingest_opens_no_trace(self):
        # engine.batch is a child-only span: a bare insert_many (no
        # monitor root, no worker capture) must not start a trace per
        # chunk — that keeps the metrics-only overhead budget intact.
        obs.enable(fresh=True)
        bf = ClockBloomFilter(n=512, k=3, s=2, window=count_window(128),
                              seed=1)
        bf.insert_many(np.arange(400, dtype=np.uint64))
        assert trace.tracer().ring.total_pushed == 0
        # Under a root, the same path emits its child span.
        with trace.span("root"):
            bf.insert_many(np.arange(400, dtype=np.uint64))
        assert len(spans_by_name(names.SPAN_ENGINE_BATCH)) == 1

    def test_disabled_pipeline_records_no_spans(self):
        assert not obs.enabled()
        monitor = ItemBatchMonitor(count_window(128), memory="16KB", seed=1)
        monitor.observe_many(np.arange(50, dtype=np.uint64))
        assert trace.tracer().ring.total_pushed == 0

    def test_contended_lock_emits_a_lock_wait_span(self):
        obs.enable(fresh=True)
        bf = ClockBloomFilter(n=256, k=2, s=2, window=count_window(64),
                              seed=1)
        ts = ThreadSafeSketch(bf)
        ts._lock.acquire()  # simulate the cleaner holding the lock
        done = threading.Event()

        def blocked_insert():
            ts.insert(1)
            done.set()

        worker = threading.Thread(target=blocked_insert)
        worker.start()
        try:
            # Give the worker time to fail the non-blocking attempt and
            # enter the timed blocking wait.
            assert not done.wait(0.05)
        finally:
            ts._lock.release()
        worker.join(timeout=5)
        assert done.is_set()
        waits = spans_by_name(names.SPAN_LOCK_WAIT)
        assert len(waits) == 1
        assert waits[0]["status"] == "ok"


class TestShardedStitching:
    def _sharded(self, router):
        proto = ClockBloomFilter(n=512, k=3, s=2, window=count_window(256),
                                 seed=7)
        from repro.shard import ShardedSketch
        return ShardedSketch(proto, shards=2, router=router)

    def test_serial_router_parents_engine_spans_under_scatter(self):
        # Inline execution: no worker-side shard.* spans, the replicas'
        # engine spans nest directly under the scatter span.
        obs.enable(fresh=True)
        sk = self._sharded("serial")
        try:
            sk.insert_many(np.arange(500, dtype=np.uint64))
            sk.merged()
        finally:
            sk.close()
        scatter, = spans_by_name(names.SPAN_SHARD_SCATTER)
        merge, = spans_by_name(names.SPAN_SHARD_MERGE)
        assert scatter["attrs"]["shards"] == 2
        assert merge["attrs"]["shards"] == 2
        engine = spans_by_name(names.SPAN_ENGINE_BATCH)
        assert len(engine) == 2  # one replica ingest per shard
        assert {s["parent_id"] for s in engine} == {scatter["span_id"]}
        assert spans_by_name(names.SPAN_SHARD_INGEST) == []

    def test_process_router_stitches_worker_spans_into_one_trace(self):
        obs.enable(fresh=True)
        sk = self._sharded("process")
        try:
            sk.insert_many(np.arange(500, dtype=np.uint64))
            sk.merged()
        finally:
            sk.close()
        scatter, = spans_by_name(names.SPAN_SHARD_SCATTER)
        merge, = spans_by_name(names.SPAN_SHARD_MERGE)
        ingest = spans_by_name(names.SPAN_SHARD_INGEST)
        advance = spans_by_name(names.SPAN_SHARD_ADVANCE)
        assert {s["attrs"]["shard"] for s in ingest} == {"0", "1"}
        assert {s["trace_id"] for s in ingest} == {scatter["trace_id"]}
        assert {s["parent_id"] for s in ingest} == {scatter["span_id"]}
        assert {s["parent_id"] for s in advance} == {merge["span_id"]}
        # Worker spans really were recorded in other processes.
        import os
        assert all(s["pid"] != os.getpid() for s in ingest)

    def test_monitor_report_runs_one_traced_barrier(self):
        # report() queries three slots; only the first runs the
        # barrier, so one shard.merge span holds every worker's advance.
        obs.enable(fresh=True)
        monitor = ItemBatchMonitor.sharded(count_window(256), memory="16KB",
                                           seed=3, shards=2,
                                           router="process")
        try:
            keys = [f"key-{i}" for i in range(300)]
            monitor.observe_many(keys)
            trace.tracer().ring.clear()
            assert monitor.report(keys[-1]).active
        finally:
            monitor.close()
        merge, = spans_by_name(names.SPAN_SHARD_MERGE)
        advance = spans_by_name(names.SPAN_SHARD_ADVANCE)
        assert merge["attrs"]["shards"] == 2
        assert {s["attrs"]["shard"] for s in advance} == {"0", "1"}
        assert {s["parent_id"] for s in advance} == {merge["span_id"]}
        assert {s["trace_id"] for s in advance} == {merge["trace_id"]}
