"""Tests for ``repro.obs`` — registry, ring, exposition, switchboard.

Every test that enables instrumentation restores the disabled default
(the autouse fixture below), so obs state never leaks between tests.
"""

import json
import os
import re
import subprocess
import sys
import threading
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro import ClockBloomFilter, count_window, obs
from repro.concurrent import ThreadSafeSketch
from repro.errors import ConfigurationError
from repro.obs import names
from repro.obs import runtime
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    SECONDS_BOUNDS,
    SIZE_BOUNDS,
)
from repro.obs.ring import SweepTraceRing


@pytest.fixture(autouse=True)
def _obs_disabled_after():
    yield
    obs.disable()


class TestRegistry:
    def test_counter_inc_and_interning(self):
        reg = MetricsRegistry()
        a = reg.counter(names.SKETCH_INSERTS_TOTAL, "Items.",
                        labels={"sketch": "X"})
        b = reg.counter(names.SKETCH_INSERTS_TOTAL,
                        labels={"sketch": "X"})
        assert a is b
        a.inc()
        a.inc(4)
        assert b.value == 5.0
        assert len(reg) == 1

    def test_counter_rejects_decrease(self):
        counter = MetricsRegistry().counter(names.SKETCH_INSERTS_TOTAL)
        with pytest.raises(ConfigurationError, match="cannot decrease"):
            counter.inc(-1)

    def test_gauge_set_inc_dec(self):
        gauge = MetricsRegistry().gauge(names.CLOCK_SWEEP_LAG_STEPS)
        gauge.set(10)
        gauge.inc(2)
        gauge.dec(5)
        assert gauge.value == 7.0

    def test_label_variants_are_distinct_series(self):
        reg = MetricsRegistry()
        a = reg.counter(names.SKETCH_INSERTS_TOTAL, labels={"sketch": "A"})
        b = reg.counter(names.SKETCH_INSERTS_TOTAL, labels={"sketch": "B"})
        assert a is not b
        assert len(reg) == 2

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter(names.SKETCH_INSERTS_TOTAL)
        with pytest.raises(ConfigurationError, match="already registered"):
            reg.gauge(names.SKETCH_INSERTS_TOTAL)

    def test_invalid_name_and_labels_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ConfigurationError, match="invalid metric name"):
            reg.counter("0bad name")
        with pytest.raises(ConfigurationError, match="invalid label name"):
            reg.counter(names.SKETCH_INSERTS_TOTAL, labels={"0bad": "x"})
        with pytest.raises(ConfigurationError, match="must be strings"):
            reg.counter(names.SKETCH_INSERTS_TOTAL, labels={"k": 3})

    def test_get_does_not_create(self):
        reg = MetricsRegistry()
        assert reg.get(names.SKETCH_INSERTS_TOTAL) is None
        created = reg.counter(names.SKETCH_INSERTS_TOTAL)
        assert reg.get(names.SKETCH_INSERTS_TOTAL) is created

    def test_iteration_is_sorted_by_name_then_labels(self):
        reg = MetricsRegistry()
        reg.gauge(names.SKETCH_MEMORY_BITS, labels={"sketch": "B"})
        reg.counter(names.ENGINE_BATCHES_TOTAL)
        reg.gauge(names.SKETCH_MEMORY_BITS, labels={"sketch": "A"})
        keys = [(m.name, tuple(sorted(m.labels.items()))) for m in reg]
        assert keys == sorted(keys)


class TestHistogram:
    def test_le_bucket_semantics_including_boundary(self):
        hist = Histogram(names.ENGINE_BATCH_SIZE,
                         bounds=np.array([1.0, 2.0, 4.0]))
        hist.observe(0.5)   # <= 1      -> bucket 0
        hist.observe(2.0)   # == bound  -> bucket 1 (le semantics)
        hist.observe(3.0)   # <= 4      -> bucket 2
        hist.observe(100.0)  # overflow -> +Inf bucket
        assert hist.bucket_counts == [1, 1, 1, 1]
        assert hist.count == 4
        assert hist.sum == pytest.approx(105.5)
        assert list(hist.cumulative_counts()) == [1, 2, 3, 4]

    def test_observe_many_matches_scalar_observe(self):
        rng = np.random.default_rng(7)
        values = rng.uniform(0.0, 40.0, size=500)
        batched = Histogram(names.ENGINE_BATCH_SIZE,
                            bounds=np.array([1.0, 2.0, 4.0, 8.0, 16.0]))
        scalar = Histogram(names.ENGINE_BATCH_SECONDS,
                           bounds=np.array([1.0, 2.0, 4.0, 8.0, 16.0]))
        batched.observe_many(values)
        for value in values:
            scalar.observe(float(value))
        assert batched.bucket_counts == scalar.bucket_counts
        assert batched.count == scalar.count
        assert batched.sum == pytest.approx(scalar.sum)

    def test_observe_many_empty_is_noop(self):
        hist = Histogram(names.ENGINE_BATCH_SIZE)
        hist.observe_many(np.array([]))
        assert hist.count == 0

    def test_bad_bounds_rejected(self):
        with pytest.raises(ConfigurationError, match="non-empty"):
            Histogram(names.ENGINE_BATCH_SIZE, bounds=np.array([]))
        with pytest.raises(ConfigurationError, match="strictly increasing"):
            Histogram(names.ENGINE_BATCH_SIZE, bounds=np.array([1.0, 1.0]))

    def test_default_bounds_are_log2_sizes(self):
        hist = Histogram(names.ENGINE_BATCH_SIZE)
        assert hist.bounds[0] == 1.0
        assert len(hist.bucket_counts) == hist.bounds.size + 1


class TestNullRegistry:
    def test_nulls_are_shared_noop_singletons(self):
        a = NULL_REGISTRY.counter(names.SKETCH_INSERTS_TOTAL)
        b = NULL_REGISTRY.counter(names.SKETCH_QUERIES_TOTAL)
        assert a is b
        a.inc(100)
        NULL_REGISTRY.gauge(names.SKETCH_MEMORY_BITS).set(5)
        NULL_REGISTRY.histogram(names.ENGINE_BATCH_SIZE).observe(1.0)
        assert len(NULL_REGISTRY) == 0
        assert list(NULL_REGISTRY) == []
        assert NULL_REGISTRY.snapshot() == {
            "counters": [], "gauges": [], "histograms": []
        }


class TestSweepTraceRing:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigurationError, match=">= 1"):
            SweepTraceRing(0)

    def test_partial_fill_is_chronological(self):
        ring = SweepTraceRing(8)
        for i in range(3):
            ring.push(float(i), i, i * 10, 1)
        assert len(ring) == 3
        assert ring.total_pushed == 3
        assert [e["time"] for e in ring.events()] == [0.0, 1.0, 2.0]

    def test_wraparound_keeps_most_recent(self):
        ring = SweepTraceRing(4)
        for i in range(10):
            ring.push(float(i), i, 0, 1)
        assert len(ring) == 4
        assert ring.total_pushed == 10
        assert [e["time"] for e in ring.events()] == [6.0, 7.0, 8.0, 9.0]

    def test_arrays_dtypes_and_order(self):
        ring = SweepTraceRing(3)
        for i in range(5):
            ring.push(float(i), i + 1, i + 2, i + 3)
        arrays = ring.arrays()
        assert arrays["time"].dtype == np.float64
        for column in ("pointer", "cleaned", "steps"):
            assert arrays[column].dtype == np.int64
        assert list(arrays["time"]) == [2.0, 3.0, 4.0]
        assert list(arrays["pointer"]) == [3, 4, 5]

    def test_clear(self):
        ring = SweepTraceRing(4)
        ring.push(1.0, 1, 1, 1)
        ring.clear()
        assert len(ring) == 0
        assert ring.events() == []
        assert "held=0" in repr(ring)


class TestEventRingConcurrency:
    def test_sequence_numbers_are_assigned_in_push_order(self):
        ring = obs.LockedRing(capacity=4)
        for i in range(7):
            ring.push(obs.ObsEvent(time=float(i), severity="info",
                                   kind="seq", message=str(i)))
        numbered = ring.numbered()
        # After wrapping, the survivors are the most recent four, in
        # order, and each carries its global push index.
        assert [seq for seq, _ in numbered] == [3, 4, 5, 6]
        assert [e.message for _, e in numbered] == ["3", "4", "5", "6"]
        assert ring.total_pushed == 7

    def test_concurrent_writers_lose_and_tear_nothing(self):
        writers, per_writer = 8, 500
        ring = obs.LockedRing(capacity=64)
        start = threading.Barrier(writers)

        def hammer(wid: int) -> None:
            start.wait()
            for i in range(per_writer):
                ring.push(obs.ObsEvent(
                    time=float(i), severity="info", kind=f"w{wid}",
                    message=f"{wid}:{i}", fields={"wid": wid, "i": i}))

        threads = [threading.Thread(target=hammer, args=(w,))
                   for w in range(writers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        # No push was lost: the global counter saw every one.
        assert ring.total_pushed == writers * per_writer
        assert len(ring) == 64
        numbered = ring.numbered()
        # Sequence numbers are unique, strictly increasing, and drawn
        # from the valid range (the ring keeps *some* recent window —
        # which events survive depends on interleaving, but order and
        # integrity must hold).
        seqs = [seq for seq, _ in numbered]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)
        assert all(0 <= s < writers * per_writer for s in seqs)
        # No torn records: each event's fields agree with its message.
        for _, event in numbered:
            wid, i = event.fields["wid"], event.fields["i"]
            assert event.message == f"{wid}:{i}"
            assert event.kind == f"w{wid}"
            assert event.time == float(i)


def _populated_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter(names.SKETCH_INSERTS_TOTAL, "Items inserted.",
                labels={"sketch": "ClockBloomFilter"}).inc(42)
    reg.gauge(names.SKETCH_MEMORY_BITS, "Footprint.",
              labels={"sketch": "ClockBloomFilter"}).set(8192)
    hist = reg.histogram(names.ENGINE_BATCH_SECONDS, "Batch seconds.",
                         bounds=SECONDS_BOUNDS)
    hist.observe(0.001)
    hist.observe(0.5)
    hist.observe(1e9)  # overflow bucket
    return reg


class TestPrometheusExport:
    def test_round_trips_every_metric_kind(self):
        reg = _populated_registry()
        families = obs.parse_prometheus(obs.prometheus_text(reg))

        counter = families[names.SKETCH_INSERTS_TOTAL]
        assert counter["type"] == "counter"
        assert counter["help"] == "Items inserted."
        assert counter["samples"] == [
            (names.SKETCH_INSERTS_TOTAL,
             {"sketch": "ClockBloomFilter"}, 42.0),
        ]

        gauge = families[names.SKETCH_MEMORY_BITS]
        assert gauge["type"] == "gauge"
        assert gauge["samples"][0][2] == 8192.0

        hist = families[names.ENGINE_BATCH_SECONDS]
        assert hist["type"] == "histogram"
        buckets = {labels["le"]: value for series, labels, value
                   in hist["samples"] if series.endswith("_bucket")}
        assert buckets["+Inf"] == 3.0
        # Cumulative counts are non-decreasing in bound order.
        ordered = [buckets[le]
                   for le in sorted((k for k in buckets if k != "+Inf"),
                                    key=float)]
        assert ordered == sorted(ordered)
        sums = {series: value for series, labels, value in hist["samples"]
                if not series.endswith("_bucket")}
        assert sums[names.ENGINE_BATCH_SECONDS + "_count"] == 3.0
        assert sums[names.ENGINE_BATCH_SECONDS + "_sum"] == pytest.approx(
            0.501 + 1e9)

    def test_label_value_escaping_round_trips(self):
        reg = MetricsRegistry()
        tricky = 'line\nbreak "quoted" back\\slash'
        reg.counter(names.ENGINE_BATCHES_TOTAL,
                    labels={"path": tricky}).inc()
        families = obs.parse_prometheus(obs.prometheus_text(reg))
        ((_, labels, value),) = families[names.ENGINE_BATCHES_TOTAL]["samples"]
        assert labels["path"] == tricky
        assert value == 1.0

    def test_help_newline_escaping(self):
        reg = MetricsRegistry()
        reg.counter(names.ENGINE_BATCHES_TOTAL, "two\nlines").inc()
        text = obs.prometheus_text(reg)
        assert "two\\nlines" in text
        families = obs.parse_prometheus(text)
        assert families[names.ENGINE_BATCHES_TOTAL]["help"] == "two\nlines"

    def test_help_literal_backslash_n_round_trips(self):
        # A HELP string containing the two characters backslash+n must
        # come back as those characters, not a newline. (Chained
        # str.replace unescaping corrupts this: the escaped form
        # ``\\n`` has its tail ``\n`` rewritten to a newline first.)
        reg = MetricsRegistry()
        tricky = "literal \\n stays; real\nbreak; trailing slash \\"
        reg.counter(names.ENGINE_BATCHES_TOTAL, tricky).inc()
        families = obs.parse_prometheus(obs.prometheus_text(reg))
        assert families[names.ENGINE_BATCHES_TOTAL]["help"] == tricky

    @pytest.mark.parametrize("value", [
        "trailing backslash \\",
        "\\n literal, not newline",
        '\\" escaped-quote lookalike',
        "\\\\ double backslash",
        'all three: \\ "\n" \\n',
    ])
    def test_adversarial_label_values_round_trip(self, value):
        reg = MetricsRegistry()
        reg.counter(names.ENGINE_BATCHES_TOTAL,
                    labels={"path": value}).inc()
        families = obs.parse_prometheus(obs.prometheus_text(reg))
        ((_, labels, _),) = families[names.ENGINE_BATCHES_TOTAL]["samples"]
        assert labels["path"] == value


class TestJsonExport:
    def test_snapshot_round_trips_every_metric_kind(self):
        reg = _populated_registry()
        text = obs.snapshot_json(reg)
        rebuilt = obs.registry_from_snapshot(text)
        assert rebuilt.snapshot() == reg.snapshot()
        # And the rebuilt registry snapshots through JSON identically.
        assert json.loads(obs.snapshot_json(rebuilt)) == json.loads(text)

    def test_bucket_count_mismatch_rejected(self):
        reg = _populated_registry()
        snapshot = reg.snapshot()
        snapshot["histograms"][0]["counts"] = [1, 2]
        with pytest.raises(ConfigurationError, match="buckets"):
            obs.registry_from_snapshot(snapshot)

    def test_non_object_payload_rejected(self):
        with pytest.raises(ConfigurationError, match="JSON object"):
            obs.registry_from_snapshot([1, 2, 3])


class TestSwitchboard:
    def test_disabled_registry_is_the_null_singleton(self):
        obs.disable()
        assert obs.registry() is NULL_REGISTRY
        assert not obs.enabled()

    def test_enable_returns_live_registry(self):
        reg = obs.enable()
        assert obs.enabled()
        assert obs.registry() is reg
        reg.counter(names.SKETCH_INSERTS_TOTAL).inc()
        kept = obs.disable()
        assert kept is reg  # still readable after disable
        assert obs.registry() is NULL_REGISTRY

    def test_enable_fresh_discards_and_resume_keeps(self):
        first = obs.enable()
        first.counter(names.SKETCH_INSERTS_TOTAL).inc()
        obs.disable()
        resumed = obs.enable(fresh=False)
        assert resumed is first
        fresh = obs.enable(fresh=True)
        assert fresh is not first
        assert len(fresh) == 0

    def test_observed_scopes_enablement(self):
        assert not obs.enabled()
        with obs.observed() as reg:
            assert obs.enabled()
            assert obs.registry() is reg
        assert not obs.enabled()
        assert obs.registry() is NULL_REGISTRY

    def test_recorder_cache_does_not_leak_across_enables(self):
        with obs.observed() as first:
            runtime.record_insert("X")
        with obs.observed() as second:
            runtime.record_insert("X")
        for reg in (first, second):
            counter = reg.get(names.SKETCH_INSERTS_TOTAL,
                              labels={"sketch": "X"})
            assert counter is not None and counter.value == 1.0

    def test_ring_capacity_configurable(self):
        obs.enable(ring_capacity=2)
        ring = obs.sweep_ring()
        assert ring.capacity == 2

    def test_metrics_submodule_leaves_registry_callable(self):
        # Importing a submodule binds it on its package, so a submodule
        # named like the switchboard's registry() would replace it.
        # A fresh interpreter, so the metrics module loads lazily here.
        script = (
            "import repro.obs\n"
            "import repro.obs.metrics as metrics\n"
            "assert repro.obs.registry() is metrics.NULL_REGISTRY\n"
            "live = repro.obs.enable()\n"
            "assert isinstance(live, metrics.MetricsRegistry)\n"
            "assert repro.obs.registry() is live\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(Path(runtime.__file__).parents[2]),
                          env.get("PYTHONPATH")]))
        subprocess.run([sys.executable, "-c", script], env=env, check=True,
                       timeout=60)


class TestCatalogue:
    def test_docs_table_matches_the_catalogue(self):
        doc = (Path(__file__).resolve().parents[1] / "docs"
               / "observability.md").read_text(encoding="utf-8")
        rows = re.findall(r"^\| `(repro_\w+)` \| (\w+) \|", doc, re.M)
        assert len(rows) == len(set(rows))
        assert set(rows) == {(name, metric.kind)
                             for name, metric in names.CATALOGUE.items()}

    def test_series_registers_as_declared_with_its_own_labels(self):
        with obs.observed() as reg:
            runtime.series(names.SERVE_ITEMS_TOTAL,
                           {"tenant": "a", "op": "QUERY"}).inc()
            runtime.series(names.SERVE_CHECKPOINT_SECONDS).observe(0.5)
        items = reg.get(names.SERVE_ITEMS_TOTAL, labels={"tenant": "a"})
        spec = names.CATALOGUE[names.SERVE_ITEMS_TOTAL]
        assert (items.kind, items.help) == (spec.kind, spec.help)
        seconds = reg.get(names.SERVE_CHECKPOINT_SECONDS)
        assert list(seconds.bounds) == list(SECONDS_BOUNDS)

    def test_series_refuses_a_missing_label(self):
        with obs.observed():
            with pytest.raises(ConfigurationError, match="needs labels"):
                runtime.series(names.SERVE_COMMANDS_TOTAL, {"tenant": "a"})

    def test_recorder_memo_key_needs_every_label_value(self):
        with obs.observed():
            with pytest.raises(ConfigurationError, match="needs values"):
                runtime._SERIES["serve_cmd", "only-tenant"]

    def test_every_declared_metric_is_referenced_in_src(self):
        # A declared name nothing in src/ mentions is a series no code
        # path can emit; it must be deleted, not documented.
        root = Path(__file__).resolve().parents[1] / "src" / "repro"
        text = "\n".join(path.read_text(encoding="utf-8")
                         for path in root.rglob("*.py")
                         if path != root / "obs" / "names.py")
        constants = {value: key for key, value in vars(names).items()
                     if isinstance(value, str) and value in names.CATALOGUE}
        assert set(constants) == set(names.CATALOGUE)
        unread = sorted(name for name, const in constants.items()
                        if name not in text
                        and not re.search(rf"\b{const}\b", text))
        assert unread == []


class TestTimed:
    def test_context_manager_records_one_observation(self):
        with obs.observed() as reg:
            with obs.timed(names.BENCH_STAGE_SECONDS, {"stage": "unit"}):
                pass
        hist = reg.get(names.BENCH_STAGE_SECONDS, labels={"stage": "unit"})
        assert hist is not None
        assert hist.count == 1
        assert hist.sum >= 0.0

    def test_decorator_is_reentrant(self):
        @obs.timed(names.BENCH_STAGE_SECONDS, {"stage": "recurse"})
        def factorial(n):
            return 1 if n <= 1 else n * factorial(n - 1)

        with obs.observed() as reg:
            assert factorial(4) == 24
        hist = reg.get(names.BENCH_STAGE_SECONDS, labels={"stage": "recurse"})
        assert hist.count == 4

    def test_disabled_records_nothing(self):
        obs.disable()
        with obs.timed(names.BENCH_STAGE_SECONDS, {"stage": "off"}):
            pass
        assert obs.registry() is NULL_REGISTRY

    def test_enable_mid_block_does_not_record(self):
        # _active is latched on __enter__, so a toggle inside the block
        # cannot write a partial timing into the fresh registry.
        timer = obs.timed(names.BENCH_STAGE_SECONDS, {"stage": "latched"})
        with timer:
            reg = obs.enable()
        assert reg.get(names.BENCH_STAGE_SECONDS,
                       labels={"stage": "latched"}) is None


class TestHttpEndpoint:
    def test_scrapes_prometheus_and_json(self):
        reg = obs.enable()
        reg.counter(names.SKETCH_INSERTS_TOTAL).inc(3)
        with obs.MetricsServer(port=0) as server:
            text = urllib.request.urlopen(server.url, timeout=5).read()
            families = obs.parse_prometheus(text.decode("utf-8"))
            assert families[names.SKETCH_INSERTS_TOTAL]["samples"][0][2] == 3.0

            url = f"http://{server.host}:{server.port}/metrics.json"
            payload = json.loads(
                urllib.request.urlopen(url, timeout=5).read())
            assert payload["counters"][0]["value"] == 3.0

    def test_unknown_path_is_404(self):
        with obs.MetricsServer(port=0) as server:
            url = f"http://{server.host}:{server.port}/nope"
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(url, timeout=5)
            assert excinfo.value.code == 404

    @staticmethod
    def _get_json(server, path):
        url = f"http://{server.host}:{server.port}{path}"
        return json.loads(urllib.request.urlopen(url, timeout=5).read())

    def test_healthz_reports_liveness(self):
        with obs.MetricsServer(port=0) as server:
            payload = self._get_json(server, "/healthz")
        assert payload["status"] == "ok"
        assert payload["uptime_seconds"] >= 0.0

    def test_statusz_reports_vitals(self):
        reg = obs.enable(fresh=True)
        reg.counter(names.SKETCH_INSERTS_TOTAL).inc()
        with obs.MetricsServer(port=0) as server:
            payload = self._get_json(server, "/statusz")
        assert payload["status"] == "ok"
        assert payload["obs_enabled"] is True
        assert payload["registry_series"] == 1
        for ring in ("sweep", "events", "spans"):
            vitals = payload["rings"][ring]
            assert set(vitals) == {"held", "capacity", "total_pushed"}
        assert payload["trace_sample_every"] >= 0
        assert payload["flight_recorder_installed"] is False

    def test_trace_json_plain_and_chrome(self):
        from repro.obs import trace as otrace
        obs.enable(fresh=True)
        try:
            with otrace.span("endpoint.test", tag="x"):
                pass
            with obs.MetricsServer(port=0) as server:
                plain = self._get_json(server, "/trace.json")
                chrome = self._get_json(server,
                                        "/trace.json?format=chrome")
            assert [s["name"] for s in plain["spans"]] == ["endpoint.test"]
            (event,) = chrome["traceEvents"]
            assert event["ph"] == "X"
            assert event["name"] == "endpoint.test"
            assert event["args"]["tag"] == "x"
        finally:
            otrace.configure()


class TestSketchInstrumentation:
    def _ingest(self, **kwargs):
        bf = ClockBloomFilter(n=512, k=3, s=2, window=count_window(128),
                              seed=1, **kwargs)
        bf.insert_many(np.arange(400, dtype=np.uint64))
        return bf

    def test_engine_batch_and_insert_series(self):
        with obs.observed() as reg:
            bf = self._ingest()
            bf.insert(10**9)  # scalar path rides the same insert total
        labels = {"sketch": "ClockBloomFilter"}
        inserts = reg.get(names.SKETCH_INSERTS_TOTAL, labels=labels)
        assert inserts.value == 401.0
        batches = reg.get(names.ENGINE_BATCHES_TOTAL,
                          labels={"sketch": "ClockBloomFilter",
                                  "path": "fused"})
        assert batches is not None and batches.value == 1.0
        size_hist = reg.get(names.ENGINE_BATCH_SIZE, labels=labels)
        assert size_hist.count == 1 and size_hist.sum == 400.0

    def test_query_series(self):
        with obs.observed() as reg:
            bf = self._ingest()
            bf.contains(1)
            bf.contains_many(np.arange(10, dtype=np.uint64))
        queries = reg.get(names.SKETCH_QUERIES_TOTAL,
                          labels={"sketch": "ClockBloomFilter"})
        assert queries.value >= 2.0

    def test_sweep_ring_collects_batch_sweeps(self):
        with obs.observed():
            self._ingest()
            ring = obs.sweep_ring()
            assert ring.total_pushed >= 1
            events = ring.events()
            assert all(e["steps"] >= 0 for e in events)

    def test_metrics_publishes_gauges_and_occupancy(self):
        with obs.observed() as reg:
            bf = self._ingest()
            bf.metrics()
        labels = {"sketch": "ClockBloomFilter"}
        memory = reg.get(names.SKETCH_MEMORY_BITS, labels=labels)
        assert memory.value == float(bf.memory_bits())
        fill = reg.get(names.CLOCK_FILL_RATIO, labels=labels)
        assert 0.0 < fill.value <= 1.0
        occupancy = reg.get(names.CLOCK_CELL_VALUE, labels=labels)
        assert occupancy.count > 0

    def test_deferred_mode_reports_sweep_lag(self):
        with obs.observed() as reg:
            self._ingest(sweep_mode="deferred")
        lag = reg.get(names.CLOCK_SWEEP_LAG_STEPS)
        assert lag is not None
        assert lag.value >= 0.0

    def test_lock_metrics_from_thread_safe_wrapper(self):
        with obs.observed() as reg:
            shared = ThreadSafeSketch(
                ClockBloomFilter(n=128, k=3, s=2,
                                 window=count_window(64), seed=1))
            shared.insert(1)
            shared.contains(1)
        acquires = reg.get(names.LOCK_ACQUIRES_TOTAL)
        assert acquires is not None and acquires.value >= 2.0
        contention = reg.get(names.LOCK_CONTENTION_TOTAL)
        assert contention is None or contention.value <= acquires.value

    def test_disabled_ingest_registers_nothing(self):
        obs.disable()
        self._ingest()
        assert len(obs.registry()) == 0


class TestCli:
    def test_json_format_emits_full_catalogue(self, capsys):
        from repro.obs.__main__ import main

        assert main(["--items", "2000", "--window", "256",
                     "--memory", "16KB", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        name_set = {entry["name"]
                    for kind in payload.values() for entry in kind}
        assert name_set == {
            names.CLOCK_CELLS_CLEANED_TOTAL, names.CLOCK_CELL_VALUE,
            names.CLOCK_FILL_RATIO, names.CLOCK_SWEEPS_TOTAL,
            names.CLOCK_SWEEP_LAG_STEPS, names.CLOCK_SWEEP_STEPS_TOTAL,
            names.CLOCK_ZERO_CELLS,
            names.ENGINE_BATCHES_TOTAL, names.ENGINE_BATCH_ITEMS_TOTAL,
            names.ENGINE_BATCH_SECONDS, names.ENGINE_BATCH_SIZE,
            names.MONITOR_MEMORY_BITS, names.MONITOR_SPLIT_RATIO,
            names.MONITOR_TASKS,
            names.SKETCH_FILL_RATIO, names.SKETCH_INSERTS_TOTAL,
            names.SKETCH_MEMORY_BITS,
            names.TRACE_SPANS_TOTAL, names.TRACE_TRACES_TOTAL,
        }

    def test_prometheus_format_parses(self, capsys):
        from repro.obs.__main__ import main

        assert main(["--items", "2000", "--window", "256",
                     "--memory", "16KB", "--format", "prometheus"]) == 0
        families = obs.parse_prometheus(capsys.readouterr().out)
        assert names.ENGINE_BATCH_ITEMS_TOTAL in families

    def test_serve_exposes_the_catalogue_over_http(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(Path(runtime.__file__).parents[2]),
                          env.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.obs", "--items", "2000",
             "--window", "256", "--memory", "16KB", "--serve",
             "--port", "0", "--serve-seconds", "2"],
            stderr=subprocess.PIPE, text=True, env=env)
        try:
            line = proc.stderr.readline()
            url = re.search(r"serving (\S+)", line)
            assert url, f"no URL on stderr: {line!r}"
            text = urllib.request.urlopen(url.group(1), timeout=5).read()
        finally:
            proc.stderr.close()
            assert proc.wait(timeout=30) == 0
        families = obs.parse_prometheus(text.decode("utf-8"))
        assert names.ENGINE_BATCH_ITEMS_TOTAL in families
        assert set(families) <= set(names.CATALOGUE)

    @pytest.mark.parametrize("chunk", ["0", "-5"])
    def test_non_positive_chunk_is_a_usage_error(self, chunk, capsys):
        from repro.obs.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(["--items", "2000", "--chunk", chunk, "--format", "json"])
        assert exc.value.code == 2
        assert "--chunk" in capsys.readouterr().err

    def test_trace_crash_without_process_shards_fails_before_running(
            self, tmp_path, capsys):
        from repro.obs import flight, trace
        from repro.obs.__main__ import main

        try:
            with pytest.raises(SystemExit) as exc:
                main(["trace", "--items", "2000", "--crash",
                      "--flight-dir", str(tmp_path)])
        finally:
            flight.uninstall()
            trace.configure()
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "--crash needs --router process" in captured.err
        assert "span ring" not in captured.out

    def test_trace_exports_chrome_and_reads_a_flight_bundle(
            self, tmp_path, capsys):
        from repro.obs import flight, trace
        from repro.obs.__main__ import main

        chrome = tmp_path / "trace.json"
        try:
            assert main(["trace", "--items", "2000", "--window", "256",
                         "--memory", "16KB", "--chunk", "500",
                         "--tail", "3", "--chrome", str(chrome),
                         "--flight-dir", str(tmp_path)]) == 0
            out = capsys.readouterr().out
            bundle = flight.recorder().dump("cli-test")
        finally:
            flight.uninstall()
            trace.configure()
        assert "last 3 of" in out
        events = json.loads(chrome.read_text(encoding="utf-8"))
        assert names.SPAN_MONITOR_OBSERVE in {
            event["name"] for event in events["traceEvents"]}

        assert main(["trace", "--input", bundle, "--tail", "50"]) == 0
        out = capsys.readouterr().out
        assert "flight bundle: reason=cli-test" in out
        spans = [line for line in out.splitlines()
                 if names.SPAN_MONITOR_OBSERVE in line]
        assert len(spans) == 4


class TestHistogramQuantile:
    def _hist(self, bounds):
        return MetricsRegistry().histogram(
            names.AUDIT_ABS_ERROR, bounds=np.asarray(bounds, dtype=float))

    def test_empty_histogram_is_zero(self):
        assert self._hist([1.0, 2.0]).quantile(0.5) == 0.0

    def test_invalid_q_rejected(self):
        hist = self._hist([1.0, 2.0])
        for bad in (-0.1, 1.1):
            with pytest.raises(ConfigurationError, match="quantile"):
                hist.quantile(bad)

    def test_bucket_boundaries_are_exact(self):
        hist = self._hist([1.0, 2.0, 4.0, 8.0])
        hist.observe_many(np.array([1.0] * 4 + [3.0] * 4))
        # target q=0.5 lands exactly on the first bucket's upper edge.
        assert hist.quantile(0.5) == pytest.approx(1.0)
        assert hist.quantile(1.0) == pytest.approx(4.0)

    def test_monotone_in_q(self):
        hist = self._hist(SIZE_BOUNDS)
        rng = np.random.default_rng(7)
        hist.observe_many(rng.lognormal(mean=4.0, sigma=2.0, size=2000))
        grid = np.linspace(0.0, 1.0, 101)
        values = [hist.quantile(q) for q in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_first_bucket_interpolates_below_its_bound(self):
        hist = self._hist([8.0, 16.0])
        hist.observe(5.0)
        # Lower edge of the first bucket is taken as bound/2.
        assert 4.0 <= hist.quantile(0.5) <= 8.0
        assert hist.quantile(1.0) == pytest.approx(8.0)

    def test_overflow_bucket_clamps_to_last_bound(self):
        hist = self._hist([1.0, 2.0])
        hist.observe(100.0)
        assert hist.quantile(0.5) == 2.0
        assert hist.quantile(1.0) == 2.0

    def test_geometric_interpolation_in_log_buckets(self):
        hist = self._hist([4.0, 16.0])
        hist.observe_many(np.full(10, 8.0))  # all in the (4, 16] bucket
        # Geometric midpoint of (4, 16] is 8 — the right centre for
        # log-scale buckets (arithmetic would say 10).
        assert hist.quantile(0.5) == pytest.approx(8.0)

    def test_null_histogram_quantile(self):
        assert NULL_REGISTRY.histogram(names.AUDIT_ABS_ERROR).quantile(0.5) == 0.0

    def test_null_registry_get_returns_none(self):
        assert NULL_REGISTRY.get(names.AUDIT_ABS_ERROR) is None


class TestEventRing:
    def test_severity_validated(self):
        from repro.obs.events import ObsEvent

        with pytest.raises(ConfigurationError, match="severity"):
            ObsEvent(time=1.0, severity="panic", kind="x", message="m")

    def test_capacity_must_be_positive(self):
        from repro.obs.ring import LockedRing

        with pytest.raises(ConfigurationError):
            LockedRing(0)

    def test_wraparound_keeps_most_recent(self):
        from repro.obs.events import ObsEvent
        from repro.obs.ring import LockedRing

        ring = LockedRing(capacity=3)
        for i in range(5):
            ring.push(ObsEvent(time=float(i), severity="info",
                               kind="k", message=f"m{i}"))
        assert ring.total_pushed == 5
        assert len(ring) == 3
        assert [e.time for e in ring.entries()] == [2.0, 3.0, 4.0]
        dicts = [e.as_dict() for e in ring.entries()]
        assert dicts[-1]["message"] == "m4"

    def test_record_event_counts_and_pushes(self):
        reg = obs.enable()
        runtime.record_event(time=1.0, severity="warning", kind="audit-test",
                             message="boom", fields={"task": "span"})
        counter = reg.get(names.OBS_EVENTS_TOTAL,
                          labels={"severity": "warning", "kind": "audit-test"})
        assert counter is not None and counter.value == 1.0
        events = obs.event_ring().entries()
        assert len(events) == 1 and events[0].fields["task"] == "span"

    def test_record_event_disabled_skips_ring(self):
        obs.disable()
        before = obs.event_ring().total_pushed
        runtime.record_event(time=1.0, severity="info", kind="k", message="m")
        assert obs.event_ring().total_pushed == before


class TestRingsExposition:
    def _enable_with_traffic(self):
        reg = obs.enable()
        bf = ClockBloomFilter(n=512, k=3, s=2, window=count_window(128),
                              seed=1)
        bf.insert_many(np.arange(400, dtype=np.uint64))
        runtime.record_event(time=1.0, severity="info", kind="smoke",
                             message="hello")
        return reg

    def test_rings_snapshot_shape(self):
        self._enable_with_traffic()
        snap = obs.rings_snapshot()
        assert snap["sweep"]["total_pushed"] >= 1
        assert snap["events"]["total_pushed"] == 1
        assert snap["events"]["events"][0]["kind"] == "smoke"

    def test_snapshot_json_embeds_rings_and_round_trips(self):
        reg = self._enable_with_traffic()
        payload = json.loads(obs.snapshot_json(reg, rings=obs.rings_snapshot()))
        assert payload["rings"]["sweep"]["total_pushed"] >= 1
        assert payload["rings"]["events"]["events"][0]["message"] == "hello"
        # The rings key is exposition-only: registry round trips ignore it.
        rebuilt = obs.registry_from_snapshot(payload)
        assert rebuilt.get(names.SKETCH_INSERTS_TOTAL,
                           labels={"sketch": "ClockBloomFilter"}) is not None

    def test_http_json_includes_rings(self):
        self._enable_with_traffic()
        with obs.MetricsServer(port=0) as server:
            url = f"http://{server.host}:{server.port}/metrics.json"
            payload = json.loads(
                urllib.request.urlopen(url, timeout=5).read())
        assert payload["rings"]["sweep"]["capacity"] >= 1
        assert payload["rings"]["events"]["events"][0]["kind"] == "smoke"

    def test_cli_rings_flag_gates_embedding(self, capsys):
        from repro.obs.__main__ import main

        base_args = ["--items", "2000", "--window", "256",
                     "--memory", "16KB", "--format", "json"]
        assert main(base_args) == 0
        assert "rings" not in json.loads(capsys.readouterr().out)
        assert main(base_args + ["--rings"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rings"]["sweep"]["total_pushed"] >= 1


class TestServerRobustness:
    def test_concurrent_scrapes(self):
        import threading

        reg = obs.enable()
        reg.counter(names.SKETCH_INSERTS_TOTAL).inc(7)
        failures = []

        with obs.MetricsServer(port=0) as server:
            json_url = f"http://{server.host}:{server.port}/metrics.json"

            def scrape():
                try:
                    for _ in range(5):
                        text = urllib.request.urlopen(
                            server.url, timeout=5).read().decode("utf-8")
                        families = obs.parse_prometheus(text)
                        assert (families[names.SKETCH_INSERTS_TOTAL]
                                ["samples"][0][2] == 7.0)
                        payload = json.loads(urllib.request.urlopen(
                            json_url, timeout=5).read())
                        assert payload["counters"][0]["value"] == 7.0
                except Exception as exc:  # pragma: no cover - failure path
                    failures.append(exc)

            threads = [threading.Thread(target=scrape) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        assert not failures

    def test_port_zero_binds_distinct_ports(self):
        obs.enable()
        with obs.MetricsServer(port=0) as a, obs.MetricsServer(port=0) as b:
            assert a.port != 0 and b.port != 0
            assert a.port != b.port
            for server in (a, b):
                assert urllib.request.urlopen(
                    server.url, timeout=5).status == 200

    def test_clean_shutdown_and_restart(self):
        obs.enable()
        server = obs.MetricsServer(port=0).start()
        port = server.port
        assert urllib.request.urlopen(server.url, timeout=5).status == 200
        server.stop()
        with pytest.raises(urllib.error.URLError):
            urllib.request.urlopen(
                f"http://127.0.0.1:{port}/metrics", timeout=2)
        server.stop()  # double stop is a no-op
        # The same object can serve again on a fresh port.
        server.start()
        try:
            assert urllib.request.urlopen(
                server.url, timeout=5).status == 200
        finally:
            server.stop()
