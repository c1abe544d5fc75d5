"""Sharded point queries gather the key's cells; ``merged()`` is the oracle.

A :class:`~repro.shard.ShardedSketch` answers ``query`` / ``query_many``
/ ``contains`` / ``contains_many`` from the key's cells on every
replica, combined by the kind's merge rule, and never builds a merged
sketch for them. These tests hold that path to the whole-sketch
``merged()`` view it replaces:

- a hypothesis differential over full-domain 64-bit ints and arbitrary
  Unicode keys, uneven frames and time gaps, on both routers at P = 2
  and 3, with sketches small enough that summed Count-Min counters
  saturate, time-span cells are stamped on several shards and a cell
  expires on one shard while another still holds it (pinned by
  :class:`TestCoverage`);
- a deterministic guard on the mechanism: on a process-router monitor,
  ``report()`` and the batch queries call no kind's ``snapshot()`` and
  rebuild no ``merged()`` view, while ``estimate()`` and ``snapshot()``
  still do;
- the barrier's telemetry: one ``report()`` after a batch records one
  ``repro_shard_merges_total`` increment and one
  ``repro_shard_merge_seconds`` observation, a synchronised one none.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    ClockBitmap,
    ClockBloomFilter,
    ClockCountMin,
    ClockTimeSpanSketch,
    ItemBatchMonitor,
    ShardedSketch,
    count_window,
    obs,
    time_window,
)
from repro.hashing import key_id
from repro.obs import names
from repro.shard import ShardSet

WINDOW = 8.0
KINDS = ("bloom", "bitmap", "countmin", "timespan")

KEYS = st.one_of(st.integers(-(2 ** 63), 2 ** 64 - 1), st.text(max_size=6))


def _monitor(router, shards, seed):
    """A sharded monitor of deliberately tiny sketches, one per kind."""
    window = time_window(WINDOW)
    monitor = ItemBatchMonitor(window, memory="1KB", seed=seed)
    prototypes = [
        ClockBloomFilter(n=48, k=3, s=2, window=window, seed=seed),
        ClockBitmap(n=24, s=3, window=window, seed=seed + 1),
        # 2-bit counters: summed counters saturate at 3.
        ClockCountMin(width=8, depth=3, s=3, window=window, counter_bits=2,
                      seed=seed + 2),
        ClockTimeSpanSketch(n=16, k=2, s=3, window=window, seed=seed + 3),
    ]
    monitor._adopt(prototypes)
    shard_set = ShardSet.cloned(prototypes, shards, seed=seed, router=router)
    monitor._adopt(shard_set.views(), shard_set)
    return monitor


@st.composite
def _streams(draw):
    """A key pool, absent probe keys and timed frames over the pool.

    Each frame starts after a gap of up to two windows, and its items
    arrive at non-decreasing times, so cells expire unevenly.
    """
    pool = draw(st.lists(KEYS, min_size=1, max_size=24))
    absent = draw(st.lists(KEYS, min_size=1, max_size=6))
    frames = []
    now = 1.0
    for _ in range(draw(st.integers(1, 6))):
        now += draw(st.integers(0, 8)) * WINDOW / 4
        picks = draw(st.lists(st.integers(0, len(pool) - 1),
                              min_size=1, max_size=40))
        keys, times = [], []
        for pick in picks:
            now += draw(st.sampled_from([0.0, 0.0, 0.25, 1.0]))
            keys.append(pool[pick])
            times.append(now)
        frames.append((keys, times))
    late = draw(st.integers(0, 6)) * WINDOW / 4
    return pool, absent, frames, late


def _fields(kind, answer):
    """``{field: array}`` of a batch answer."""
    if kind == "timespan":
        return {"active": answer.active, "span": answer.span,
                "begin": answer.begin}
    return {"size" if kind == "countmin" else "active": np.asarray(answer)}


def _check_batch(monitor, probe, router):
    for kind, view in zip(KINDS, monitor._sketches):
        oracle = view.merged()
        pairs = [("query_many", view.query_many(probe),
                  oracle.query_many(probe))]
        if kind == "bloom":
            pairs.append(("contains_many", view.contains_many(probe),
                          oracle.contains_many(probe)))
        for method, got, want in pairs:
            for field, values in _fields(kind, got).items():
                expected = _fields(kind, want)[field]
                for key, a, b in zip(probe, values, expected):
                    # NaN marks an inactive span in both answers.
                    assert a == b or (a != a and b != b), (
                        f"key {key!r}: {kind}.{method} {field} = {a}, "
                        f"merged view says {b} (router={router})")


#: The kind each report field is read from.
REPORT_FIELDS = {"active": "bloom", "size": "countmin", "span": "timespan",
                 "begin": "timespan"}


def _check_reports(monitor, probe, router, t=None):
    oracle = copy.copy(monitor)
    oracle._adopt([view.merged(t) for view in monitor._sketches])
    for key in probe:
        got, want = monitor.report(key, t), oracle.report(key, t)
        for field, kind in REPORT_FIELDS.items():
            assert getattr(got, field) == getattr(want, field), (
                f"key {key!r}: report {field} ({kind}) = "
                f"{getattr(got, field)}, merged views say "
                f"{getattr(want, field)} (router={router})")
        assert type(got.size) is type(want.size)


@pytest.mark.parametrize("router,examples", [("serial", 60),
                                             ("process", 25)])
@pytest.mark.parametrize("shards", [2, 3])
def test_gathered_answers_equal_the_merged_view(router, examples, shards):
    @settings(max_examples=examples, deadline=None)
    @given(stream=_streams(), seed=st.integers(0, 2 ** 16))
    def check(stream, seed):
        pool, absent, frames, late = stream
        probe = pool + absent
        monitor = _monitor(router, shards, seed)
        try:
            for keys, times in frames:
                monitor.observe_many(keys, times)
                _check_reports(monitor, probe, router)
                _check_batch(monitor, probe, router)
            _check_reports(monitor, probe, router,
                           t=monitor.activeness.now + late)
            _check_batch(monitor, probe, router)
        finally:
            monitor.close()

    check()


class TestCoverage:
    """Pinned streams that reach every case the differential targets."""

    def test_counters_saturate_and_stamps_land_on_both_shards(self):
        monitor = _monitor("serial", 2, seed=5)
        keys = list(range(40)) + ["α", "β", "γ"] * 6
        monitor.observe_many(keys, [1.0 + 0.1 * i for i in range(len(keys))])
        _, _, countmin, timespan = monitor._sketches
        countmin.merged()  # barrier: replicas at the query time
        counters = [r.counters.astype(np.int64) for r in countmin.replicas]
        assert (sum(counters) > countmin.counter_max).any()
        stamped = [r.timestamps > 0 for r in timespan.replicas]
        assert (stamped[0] & stamped[1]).any()

    def test_a_shared_cell_expires_on_one_shard_only(self):
        monitor = _monitor("serial", 2, seed=5)
        bloom = monitor.activeness
        deriver = bloom.replicas[0].deriver
        by_shard = {0: [], 1: []}
        for key in range(200):
            by_shard[bloom.selector.shard_of(key)].append(key)
        old, new = next(
            (a, b) for a in by_shard[0] for b in by_shard[1]
            if set(deriver.indexes(a)) & set(deriver.indexes(b)))
        cell = min(set(deriver.indexes(old)) & set(deriver.indexes(new)))
        monitor.observe_many([old], [1.0])
        monitor.observe_many([new], [6.0])
        _check_reports(monitor, [old, new], "serial", t=13.5)
        assert bloom.replicas[0].clock.values[cell] == 0
        assert bloom.replicas[1].clock.values[cell] > 0
        _check_batch(monitor, [old, new], "serial")


def _count_calls(monkeypatch, calls, owner, name):
    original = getattr(owner, name)

    def counting(self, *args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(owner, name, counting)


class TestNoMergedViewPerQuery:
    def test_process_router_queries_build_no_sketch(self, monkeypatch):
        monitor = ItemBatchMonitor.sharded(time_window(64.0), memory="16KB",
                                           seed=2, shards=2,
                                           router="process")
        try:
            keys = [f"key-{i}" for i in range(300)]
            monitor.observe_many(keys, np.linspace(1.0, 50.0, len(keys)))
            calls = {}
            for kind in (ClockBloomFilter, ClockBitmap, ClockCountMin,
                         ClockTimeSpanSketch):
                _count_calls(monkeypatch, calls, kind, "snapshot")
            _count_calls(monkeypatch, calls, ShardedSketch, "merged")

            assert monitor.report(keys[-1]).active
            assert not monitor.report("never-seen").active
            for view in monitor._sketches:
                view.query_many(keys[:50])
                view.query(keys[0])
            monitor.activeness.contains_many(keys[:50])
            assert monitor.activeness.contains(keys[-1])
            assert calls == {}

            monitor.active_batches()
            assert calls == {"merged": 1, "snapshot": 1}
            monitor.span_sketch.snapshot()
            assert calls == {"merged": 2, "snapshot": 3}
        finally:
            monitor.close()

    def test_contains_stays_a_bloom_filter_query(self):
        monitor = ItemBatchMonitor.sharded(time_window(64.0), memory="16KB",
                                           seed=2, shards=2)
        monitor.observe_many(["a"], [1.0])
        with pytest.raises(AttributeError):
            monitor.size_sketch.contains("a")
        assert monitor.activeness.contains(key_id("a"))


class TestMergeTelemetry:
    def test_one_barrier_per_unsynchronised_report(self):
        monitor = ItemBatchMonitor.sharded(count_window(1024), memory="16KB",
                                           seed=3, shards=2)
        # Only the activeness query of a report() runs the barrier; the
        # other tasks find the shard set synchronised.
        labels = {"sketch": "ClockBloomFilter"}
        with obs.observed() as reg:
            def merges():
                counter = reg.get(names.SHARD_MERGES_TOTAL, labels)
                hist = reg.get(names.SHARD_MERGE_SECONDS, labels)
                return (0.0 if counter is None else counter.value,
                        0 if hist is None else hist.count)

            monitor.observe_many([f"k{i}" for i in range(500)])
            assert merges() == (0.0, 0)
            assert monitor.report("k7").active
            assert merges() == (1.0, 1)
            assert monitor.report("k7").active
            assert merges() == (1.0, 1)
        assert [metric.labels for metric in reg
                if metric.name == names.SHARD_MERGES_TOTAL] == [labels]
