"""Property tests: the batch engine is bit-identical to the scalar path.

The refactor's core guarantee — ``insert_many(items, times)`` leaves
every sketch in exactly the state the equivalent loop of scalar
``insert`` calls would, for all four structures, both window kinds,
every sweep mode, and arbitrary interleavings of inserts and queries.
"Bit-identical" means the clock cells, the sketch cells (counters /
timestamps), the cleaner position, ``now``, and ``items_inserted`` all
match exactly, so subsequent queries cannot tell the paths apart.
"""

from contextlib import contextmanager

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
    count_window,
    time_window,
)
from repro.concurrent import ThreadSafeSketch
from repro.core.timespan import TimeSpanResult
from repro.engine import batch as engine_batch
from repro.serialize import dumps_sketch, loads_sketch
from repro.shard import ShardedSketch

SKETCHES = ["bf", "bm", "cm", "cm_cons", "ts"]

#: Exact sweep modes — bit-identical to the scalar loop by contract.
#: The deferred modes apply updates in window-sized chunks and are
#: deliberately approximate (Table 3's multi-thread column); their
#: chunked batch semantics are pinned in tests/test_chunked_inserts.py.
MODES = ["vector", "scalar"]


def build(kind: str, window, sweep_mode: str = "vector", seed: int = 7):
    if kind == "bf":
        return ClockBloomFilter(n=128, k=3, s=2, window=window, seed=seed,
                                sweep_mode=sweep_mode)
    if kind == "bm":
        return ClockBitmap(n=96, s=3, window=window, seed=seed,
                           sweep_mode=sweep_mode)
    if kind == "cm":
        return ClockCountMin(width=64, depth=3, s=3, window=window,
                             counter_bits=8, seed=seed,
                             sweep_mode=sweep_mode)
    if kind == "cm_cons":
        return ClockCountMin(width=64, depth=3, s=3, window=window,
                             counter_bits=8, seed=seed,
                             sweep_mode=sweep_mode, conservative=True)
    if kind == "ts":
        return ClockTimeSpanSketch(n=128, k=3, s=4, window=window,
                                   seed=seed, sweep_mode=sweep_mode)
    raise ValueError(kind)


def assert_identical(a, b):
    """Every piece of observable and internal state matches exactly."""
    np.testing.assert_array_equal(a.clock.values, b.clock.values)
    assert a.clock.steps_done == b.clock.steps_done
    assert a.clock.now == b.clock.now
    assert a.now == b.now
    assert a.items_inserted == b.items_inserted
    if hasattr(a, "counters"):
        np.testing.assert_array_equal(a.counters, b.counters)
    if hasattr(a, "timestamps"):
        np.testing.assert_array_equal(a.timestamps, b.timestamps)


@contextmanager
def fused_from_one():
    """Route every exact-mode batch, even of one item, through the fused
    path (hypothesis reruns a test body, so no function-scoped fixture)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine_batch, "MIN_FUSED", 1)
        yield


def scalar_replay(sketch, keys, times=None):
    if times is None:
        for key in keys:
            sketch.insert(key)
    else:
        for key, t in zip(keys, times):
            sketch.insert(key, float(t))


def keys_strategy():
    return st.lists(st.integers(0, 40), min_size=1, max_size=120)


def make_times(rng, n_keys, scale=1.0):
    """Non-decreasing positive float timestamps with repeated runs."""
    steps = rng.choice([0.0, 0.0, 0.25, 1.0, 7.0], size=n_keys)
    return (1.0 + np.cumsum(steps)) * scale


class TestBatchVsScalarLoop:
    """insert_many == the loop of insert, every sketch x mode x window."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("kind", SKETCHES)
    @given(keys=keys_strategy(), seed=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_count_window(self, kind, mode, keys, seed):
        window = count_window(32)
        batch = build(kind, window, mode, seed=3)
        scalar = build(kind, window, mode, seed=3)
        with fused_from_one():  # force the fused path where exact
            batch.insert_many(keys)
        scalar_replay(scalar, keys)
        assert_identical(batch, scalar)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("kind", SKETCHES)
    @given(keys=keys_strategy(), seed=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_time_window(self, kind, mode, keys, seed):
        window = time_window(16.0)
        rng = np.random.default_rng(seed)
        times = make_times(rng, len(keys))
        batch = build(kind, window, mode, seed=3)
        scalar = build(kind, window, mode, seed=3)
        with fused_from_one():
            batch.insert_many(keys, times)
        scalar_replay(scalar, keys, times)
        assert_identical(batch, scalar)

    @pytest.mark.parametrize("kind", SKETCHES)
    def test_default_threshold_small_batches(self, kind):
        """Below ``MIN_FUSED`` the engine loops — still identical."""
        batch = build(kind, count_window(32))
        scalar = build(kind, count_window(32))
        for chunk in (["a"], ["b", "c"], ["a", "a", "d"]):
            batch.insert_many(chunk)
            scalar_replay(scalar, chunk)
            assert_identical(batch, scalar)

    @pytest.mark.parametrize("kind", SKETCHES)
    def test_insert_is_the_batch_size_one_case(self, kind):
        one = build(kind, count_window(16))
        many = build(kind, count_window(16))
        for key in ["x", "y", "x", "z", "x"]:
            one.insert(key)
            many.insert_many([key])
            assert_identical(one, many)

    @pytest.mark.parametrize("kind", SKETCHES)
    def test_string_and_tuple_items(self, kind):
        keys = ["flow-1", ("src", 80), "flow-1", ("dst", 443), b"raw"]
        batch = build(kind, count_window(16))
        scalar = build(kind, count_window(16))
        with fused_from_one():
            batch.insert_many(keys)
        scalar_replay(scalar, keys)
        assert_identical(batch, scalar)


class TestDeferredModes:
    """Deferred sweeps batch their cleaning (approximate by design,
    pinned in test_chunked_inserts.py) — here we only require that the
    batch path is deterministic and keeps the stream bookkeeping in
    step with the scalar loop."""

    @pytest.mark.parametrize("mode", ["deferred", "deferred-scalar"])
    @pytest.mark.parametrize("kind", SKETCHES)
    def test_deterministic_and_bookkeeping(self, kind, mode):
        keys = [i % 17 for i in range(200)]
        a = build(kind, count_window(32), mode)
        b = build(kind, count_window(32), mode)
        a.insert_many(keys)
        b.insert_many(keys)
        assert_identical(a, b)
        scalar = build(kind, count_window(32), mode)
        scalar_replay(scalar, keys)
        assert a.now == scalar.now
        assert a.items_inserted == scalar.items_inserted


class TestInterleavings:
    """Randomized interleavings of batches, scalar inserts and queries."""

    @pytest.mark.parametrize("kind", SKETCHES)
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_random_interleaving_count(self, kind, seed):
        rng = np.random.default_rng(seed)
        batch = build(kind, count_window(24))
        scalar = build(kind, count_window(24))
        for _ in range(rng.integers(2, 6)):
            keys = list(rng.integers(0, 30, size=rng.integers(1, 60)))
            if rng.random() < 0.3:  # sprinkle scalar inserts between
                for key in keys:
                    batch.insert(key)
                    scalar.insert(key)
            else:
                with fused_from_one():
                    batch.insert_many(keys)
                scalar_replay(scalar, keys)
            probe = int(rng.integers(0, 30))
            if kind in ("bf",):
                assert batch.contains(probe) == scalar.contains(probe)
            elif kind in ("cm", "cm_cons", "ts"):
                assert batch.query(probe) == scalar.query(probe)
            assert_identical(batch, scalar)

    @pytest.mark.parametrize("kind", SKETCHES)
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_random_interleaving_time(self, kind, seed):
        rng = np.random.default_rng(seed)
        batch = build(kind, time_window(12.0))
        scalar = build(kind, time_window(12.0))
        now = 0.0
        for _ in range(rng.integers(2, 6)):
            keys = list(rng.integers(0, 30, size=rng.integers(1, 60)))
            steps = rng.choice([0.0, 0.5, 3.0], size=len(keys))
            times = now + 1.0 + np.cumsum(steps)
            now = float(times[-1])
            with fused_from_one():
                batch.insert_many(keys, times)
            scalar_replay(scalar, keys, times)
            assert_identical(batch, scalar)


#: Stream keys over the whole key domain: ints from -2^63 to 2^64 - 1,
#: bools, and any text, lone surrogates included.
ANY_KEY = st.one_of(
    st.integers(-2**63, 2**64 - 1), st.booleans(),
    st.text(st.characters(blacklist_categories=()), max_size=8))

#: The exact Python type of each kind's scalar answer.
SCALAR_TYPES = {"bf": bool, "bm": bool, "cm": int, "ts": TimeSpanResult}


class TestQueryMany:
    @pytest.mark.parametrize("shards", [1, 2], ids=["plain", "sharded"])
    @pytest.mark.parametrize("kind", ["bf", "bm", "cm", "ts"])
    @given(keys=st.lists(ANY_KEY, min_size=1, max_size=16),
           absent=st.lists(ANY_KEY, max_size=4))
    @settings(max_examples=25, deadline=None)
    def test_query_is_row_of_query_many(self, kind, shards, keys, absent):
        """A scalar answer is its key's row of the batch answer, as a
        plain Python value, on a plain and a serial-sharded sketch."""
        sketch = build(kind, count_window(32))
        if shards > 1:
            sketch = ShardedSketch(sketch, shards)
        sketch.insert_many(keys + keys[::2])
        queried = keys + absent
        batch = sketch.query_many(queried)
        assert len(batch) == len(queried)
        for i, key in enumerate(queried):
            single = sketch.query(key)
            assert type(single) is SCALAR_TYPES[kind]
            if kind == "ts":
                row = batch[i]
                assert (single.active, single.span, single.begin) == \
                    (row.active, row.span, row.begin)
            else:
                assert single == batch[i]
            if kind == "bf":
                assert sketch.contains(key) is single
        if kind == "bf":
            assert np.array_equal(sketch.contains_many(queried), batch)


class TestUpperLayers:
    def test_serialize_roundtrip_continues_identically(self):
        for kind in SKETCHES:
            a = build(kind, count_window(32))
            a.insert_many(list(range(50)))
            b = loads_sketch(dumps_sketch(a))
            assert_identical(a, b)
            a.insert_many([7, 8, 9] * 10)
            b.insert_many([7, 8, 9] * 10)
            assert_identical(a, b)

    def test_monitor_observe_many_matches_loop(self):
        loop = ItemBatchMonitor(count_window(64), memory="32KB", seed=1)
        bulk = ItemBatchMonitor(count_window(64), memory="32KB", seed=1)
        keys = [f"flow-{i % 9}" for i in range(120)]
        for key in keys:
            loop.observe(key)
        bulk.observe_many(keys)
        for a, b in zip(loop._sketches, bulk._sketches):
            assert_identical(a, b)
        assert loop.report("flow-3") == bulk.report("flow-3")

    def test_concurrent_chunked_matches_plain(self):
        plain = build("bf", count_window(64))
        wrapped = ThreadSafeSketch(build("bf", count_window(64)))
        keys = list(range(300))
        plain.insert_many(keys)
        wrapped.insert_many(keys, chunk_size=37)
        assert_identical(plain, wrapped.sketch)
        assert wrapped.contains_many(keys[-10:]).all()

    def test_concurrent_chunked_time_based(self):
        plain = build("ts", time_window(16.0))
        wrapped = ThreadSafeSketch(build("ts", time_window(16.0)))
        keys = list(range(100))
        times = 1.0 + np.arange(100) * 0.25
        plain.insert_many(keys, times)
        wrapped.insert_many(keys, times, chunk_size=13)
        assert_identical(plain, wrapped.sketch)


class TestFinisherFootprint:
    def test_a_small_frame_allocates_for_its_cells_not_the_sketch(self):
        # The fused finishers touch the cells a frame swept or hashed,
        # not every cell: one 32-key frame on a 64KB serving tenant
        # (46K clock cells across its four tasks) peaks well under the
        # ~1MB a whole-array rewrite of each clock allocates.
        import tracemalloc

        from repro.serve import TenantConfig

        monitor = TenantConfig(window_length=4096, memory="64KB",
                               seed=1).build_monitor()
        keys = [str(i) for i in range(2048)]
        for start in range(0, 2016, 32):
            monitor.observe_many(keys[start:start + 32])
        tracemalloc.start()
        try:
            monitor.observe_many(keys[2016:])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 300 * 1024, peak
