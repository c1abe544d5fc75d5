"""Tests for ``repro.obs.flight`` — crash bundles and auto-dump hooks.

Ends with the end-to-end acceptance test: a shard worker crash at
``P=4`` over the process router must leave behind one JSON bundle
holding the stitched spans from all four shards, the event ring, and a
full metrics snapshot.
"""

import json
import os
import signal

import numpy as np
import pytest

from repro import ClockBloomFilter, count_window, obs
from repro.errors import ShardBackpressureError, ShardWorkerError
from repro.obs import flight, names
from repro.obs import trace
from repro.qa.sanitizer import SanitizerError
from repro.shard import ShardedSketch


@pytest.fixture(autouse=True)
def _flight_disarmed_after():
    yield
    flight.uninstall()
    obs.disable()
    trace.configure()


def read_bundle(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class TestFlightRecorder:
    def test_bundle_is_self_contained(self):
        reg = obs.enable(fresh=True)
        reg.counter(names.SKETCH_INSERTS_TOTAL).inc(5)
        with trace.span("pre.crash"):
            pass
        bundle = flight.FlightRecorder().bundle(
            "unit-test", ValueError("boom"))
        assert bundle["format"] == "repro-flight-1"
        assert bundle["reason"] == "unit-test"
        assert bundle["pid"] == os.getpid()
        assert bundle["error"]["type"] == "ValueError"
        assert bundle["error"]["message"] == "boom"
        assert bundle["trace"]["spans"][0]["name"] == "pre.crash"
        assert set(bundle["rings"]) >= {"sweep", "events"}
        counters = {c["name"]: c["value"]
                    for c in bundle["metrics"]["counters"]}
        assert counters[names.SKETCH_INSERTS_TOTAL] >= 5

    def test_shard_error_payload_carries_partial_results(self, tmp_path):
        rec = flight.FlightRecorder(str(tmp_path))
        err = ShardWorkerError("w2 died", failed={2: "crash"},
                              pending={1: 3})
        bundle = read_bundle(rec.dump("shard-worker", err))
        assert bundle["error"]["failed"] == {"2": "crash"}
        assert bundle["error"]["pending"] == {"1": 3}

    def test_dump_writes_prunes_and_counts(self, tmp_path):
        reg = obs.enable(fresh=True)
        rec = flight.FlightRecorder(str(tmp_path), keep=2)
        paths = [rec.dump(f"reason-{i}") for i in range(4)]
        assert rec.last_dump_path == paths[-1]
        assert os.path.basename(paths[-1]) == \
            f"flight-{os.getpid()}-0004-reason-3.json"
        survivors = sorted(os.listdir(tmp_path))
        assert survivors == [os.path.basename(p) for p in paths[-2:]]
        snap = reg.snapshot()
        dumped = {c["labels"]["reason"]: c["value"]
                  for c in snap["counters"]
                  if c["name"] == names.FLIGHT_DUMPS_TOTAL}
        assert dumped == {f"reason-{i}": 1 for i in range(4)}
        critical = [e for e in obs.event_ring().entries()
                    if e.kind == "flight-dump"]
        assert len(critical) == 4
        assert all(e.severity == "critical" for e in critical)

    def test_reason_is_sanitised_for_filenames(self, tmp_path):
        rec = flight.FlightRecorder(str(tmp_path))
        path = rec.dump("worker 3 / pipe: EOF?")
        assert os.path.basename(path).endswith("-worker-3-pipe-EOF.json")

    def test_directory_resolution_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv(flight.ENV_DIR, str(tmp_path / "env"))
        assert flight.FlightRecorder().directory == str(tmp_path / "env")
        assert flight.FlightRecorder(str(tmp_path / "arg")).directory == \
            str(tmp_path / "arg")
        monkeypatch.delenv(flight.ENV_DIR)
        assert flight.FlightRecorder().directory == flight.DEFAULT_DIRECTORY


class TestInstallAndHooks:
    def test_notify_crash_is_noop_until_installed(self, tmp_path):
        assert flight.recorder() is None
        assert flight.notify_crash("nothing", None) is None
        assert flight.last_dump_path() is None
        rec = flight.install(str(tmp_path))
        assert flight.recorder() is rec
        path = flight.notify_crash("manual", RuntimeError("x"))
        assert path is not None and os.path.exists(path)
        assert flight.last_dump_path() == path
        flight.uninstall()
        assert flight.notify_crash("again", None) is None

    def test_notify_crash_never_raises(self, tmp_path, monkeypatch):
        rec = flight.install(str(tmp_path))
        monkeypatch.setattr(
            rec, "dump",
            lambda *a, **k: (_ for _ in ()).throw(OSError("disk full")))
        assert flight.notify_crash("doomed", None) is None

    @pytest.mark.parametrize("make_error, reason", [
        (lambda: ShardWorkerError("w0 died", failed={0: "crash"}),
         "shard-worker"),
        (lambda: ShardBackpressureError("queue full"), "shard-backpressure"),
        (lambda: SanitizerError("epoch skew"), "sanitizer"),
    ])
    def test_raising_pipeline_errors_auto_dumps(self, tmp_path,
                                                make_error, reason):
        flight.install(str(tmp_path))
        with pytest.raises(type(make_error())):
            raise make_error()
        path = flight.last_dump_path()
        assert path is not None
        assert read_bundle(path)["reason"] == reason

    def test_raising_without_recorder_is_harmless(self):
        # Constructing the exception must not import or require the
        # flight module — merely raising stays side-effect free.
        with pytest.raises(ShardWorkerError):
            raise ShardWorkerError("nobody listening")

    def test_signal_handler_cuts_an_on_demand_bundle(self, tmp_path):
        previous = signal.getsignal(signal.SIGUSR1)
        flight.install(str(tmp_path), signum=signal.SIGUSR1)
        try:
            os.kill(os.getpid(), signal.SIGUSR1)
            path = flight.last_dump_path()
            assert path is not None
            assert read_bundle(path)["reason"] == "signal-" + \
                str(int(signal.SIGUSR1))
        finally:
            signal.signal(signal.SIGUSR1, previous)


class TestCrashAcceptance:
    def test_worker_crash_at_p4_dumps_a_stitched_bundle(self, tmp_path):
        obs.enable(fresh=True)
        trace.configure(capacity=4096)
        flight.install(str(tmp_path))
        proto = ClockBloomFilter(n=1024, k=3, s=2,
                                 window=count_window(1024), seed=11)
        with ShardedSketch(proto, shards=4, router="process") as sk:
            sk.insert_many(np.arange(2000, dtype=np.uint64))
            sk.merged()  # barrier: every worker has acked its spans
            sk.router.inject(0, "crash")
            with pytest.raises(ShardWorkerError):
                sk.router.drain()

        path = flight.last_dump_path()
        assert path is not None
        bundle = read_bundle(path)
        assert bundle["format"] == "repro-flight-1"
        assert bundle["reason"] == "shard-worker"
        assert bundle["error"]["type"] == "ShardWorkerError"
        assert "0" in bundle["error"]["failed"]

        spans = bundle["trace"]["spans"]
        by_name = {}
        for s in spans:
            by_name.setdefault(s["name"], []).append(s)
        # Spans from every worker process made it back and stitched
        # into the scatter trace.
        ingest = by_name[names.SPAN_SHARD_INGEST]
        assert {s["attrs"]["shard"] for s in ingest} == \
            {"0", "1", "2", "3"}
        assert len({s["pid"] for s in ingest}) == 4
        scatter, = by_name[names.SPAN_SHARD_SCATTER]
        assert {s["trace_id"] for s in ingest} == {scatter["trace_id"]}
        assert {s["parent_id"] for s in ingest} == {scatter["span_id"]}
        assert names.SPAN_SHARD_MERGE in by_name
        assert names.SPAN_SHARD_ADVANCE in by_name

        # The rest of the black box: event ring and metrics snapshot.
        assert "events" in bundle["rings"]
        counters = {c["name"] for c in bundle["metrics"]["counters"]}
        assert names.TRACE_SPANS_TOTAL in counters
