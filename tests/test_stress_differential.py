"""Randomised differential testing: every structure vs exact truth.

Hypothesis generates arbitrary small workloads (bursty, adversarial
orderings, repeated keys, long silences) and every structure is held to
its contract against the exact :class:`~repro.streams.BatchTracker`:

- activeness structures never false-negative on active batches;
- size/span structures never underestimate;
- estimators stay within loose but meaningful envelopes;
- the exact sweep modes agree with each other on final state.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    BatchTracker,
    ClockBitmap,
    ClockBloomFilter,
    ClockCountMin,
    ClockTimeSpanSketch,
    ShardedSketch,
    count_window,
    dumps_sketch,
    loads_sketch,
)
from repro.baselines import (
    IdealSlidingBloom,
    NaiveSizeSketch,
    NaiveTimeSpanSketch,
    Swamp,
    TimeOutBloomFilter,
    TimingBloomFilter,
)
from repro.hashing import key_id

# Keys from the whole domain the service accepts: ints of any size
# (past int64 and negative too) and arbitrary Unicode strings, lone
# surrogates included. A pool holds up to 26 keys with distinct key
# ids, so two keys never share cells by construction.
domain_keys = st.one_of(
    st.integers(),
    st.integers(min_value=2**63) | st.integers(max_value=-1),
    st.text(st.characters() | st.characters(categories=["Cs"]),
            max_size=12),
)
key_pools = st.lists(domain_keys, min_size=1, max_size=26,
                     unique_by=key_id)

# Workload: runs of repeated pool keys with variable run lengths — the
# batch structure every contract is about.
workloads = key_pools.flatmap(lambda pool: st.lists(
    st.tuples(st.integers(0, len(pool) - 1), st.integers(1, 6)),
    min_size=1, max_size=60,
).map(lambda runs: [pool[i] for i, length in runs for _ in range(length)]))


def _truth(keys, window):
    tracker = BatchTracker(window)
    for key in keys:
        tracker.observe(key)
    return tracker


class TestActivenessContracts:
    @given(keys=workloads, window=st.integers(4, 64), seed=st.integers(0, 20))
    @settings(max_examples=120, deadline=None)
    def test_bf_clock_no_false_negatives(self, keys, window, seed):
        w = count_window(window)
        sketch = ClockBloomFilter(n=128, k=2, s=3, window=w, seed=seed)
        for key in keys:
            sketch.insert(key)
        truth = _truth(keys, w)
        for key in truth.active_keys():
            assert sketch.contains(key)

    @given(keys=workloads, window=st.integers(4, 64), seed=st.integers(0, 20))
    @settings(max_examples=80, deadline=None)
    def test_timestamp_filters_no_false_negatives(self, keys, window, seed):
        w = count_window(window)
        truth = _truth(keys, w)
        for cls in (TimeOutBloomFilter, TimingBloomFilter):
            sketch = cls(n=256, k=2, window=w, seed=seed)
            for key in keys:
                sketch.insert(key)
            for key in truth.active_keys():
                assert sketch.contains(key)

    @given(keys=workloads, window=st.integers(4, 32), seed=st.integers(0, 20))
    @settings(max_examples=80, deadline=None)
    def test_ideal_is_exact_with_enough_bits(self, keys, window, seed):
        w = count_window(window)
        sketch = IdealSlidingBloom(n=4096, k=4, window=w, seed=seed)
        for key in keys:
            sketch.insert(key)
        truth = _truth(keys, w)
        for key in set(keys):
            # With 4096 bits for <= 26 keys, FPs are essentially gone:
            # the ideal filter answers exactly.
            assert sketch.contains(key) == truth.is_active(key)

    @given(keys=workloads, window=st.integers(4, 32))
    @settings(max_examples=80, deadline=None)
    def test_swamp_exact_with_wide_fingerprints(self, keys, window):
        w = count_window(window)
        swamp = Swamp(window_items=window, fingerprint_bits=64)
        for key in keys:
            swamp.insert(key)
        # SWAMP's window is "last w items" (ages 0..w-1 < w) — exactly
        # the library's strict activeness convention.
        truth = _truth(keys, w)
        for key in set(keys):
            assert swamp.ismember(key) == truth.is_active(key)


class TestSizeAndSpanContracts:
    @given(keys=workloads, window=st.integers(4, 64), seed=st.integers(0, 20))
    @settings(max_examples=100, deadline=None)
    def test_cm_clock_never_underestimates(self, keys, window, seed):
        w = count_window(window)
        sketch = ClockCountMin(width=64, depth=2, s=4, window=w, seed=seed)
        for key in keys:
            sketch.insert(key)
        truth = _truth(keys, w)
        for key in truth.active_keys():
            assert sketch.query(key) >= truth.size(key)

    @given(keys=workloads, window=st.integers(4, 64), seed=st.integers(0, 20))
    @settings(max_examples=100, deadline=None)
    def test_naive_size_never_underestimates(self, keys, window, seed):
        w = count_window(window)
        sketch = NaiveSizeSketch(width=64, depth=2, window=w, seed=seed)
        for key in keys:
            sketch.insert(key)
        truth = _truth(keys, w)
        for key in truth.active_keys():
            assert sketch.query(key) >= truth.size(key)

    @given(keys=workloads, window=st.integers(4, 64), seed=st.integers(0, 20))
    @settings(max_examples=100, deadline=None)
    def test_span_sketches_never_underestimate(self, keys, window, seed):
        w = count_window(window)
        clocked = ClockTimeSpanSketch(n=128, k=2, s=6, window=w, seed=seed)
        naive = NaiveTimeSpanSketch(n=128, k=2, window=w, seed=seed)
        for key in keys:
            clocked.insert(key)
            naive.insert(key)
        truth = _truth(keys, w)
        for key in truth.active_keys():
            true_span = truth.span(key)
            clocked_result = clocked.query(key)
            assert clocked_result.active
            assert clocked_result.span >= true_span
            naive_result = naive.query(key)
            if naive_result.active:
                assert naive_result.span >= true_span


class TestEstimatorEnvelopes:
    @given(keys=workloads, window=st.integers(8, 64), seed=st.integers(0, 20))
    @settings(max_examples=80, deadline=None)
    def test_bitmap_envelope(self, keys, window, seed):
        w = count_window(window)
        sketch = ClockBitmap(n=4096, s=6, window=w, seed=seed)
        for key in keys:
            sketch.insert(key)
        truth = _truth(keys, w).active_cardinality()
        estimate = sketch.estimate().value
        # At this load the bitmap is nearly exact; the error window can
        # only add, collisions can only merge a couple of cells.
        assert truth - 2 <= estimate <= truth + len(set(keys))


class TestSweepModeAgreement:
    @given(keys=workloads, window=st.integers(4, 64),
           s=st.integers(2, 6), seed=st.integers(0, 20))
    @settings(max_examples=100, deadline=None)
    def test_vector_equals_scalar_end_state(self, keys, window, s, seed):
        w = count_window(window)
        vec = ClockBloomFilter(n=64, k=2, s=s, window=w, seed=seed)
        sca = ClockBloomFilter(n=64, k=2, s=s, window=w, seed=seed,
                               sweep_mode="scalar")
        for key in keys:
            vec.insert(key)
            sca.insert(key)
        assert np.array_equal(vec.clock.values, sca.clock.values)


class TestShardedPathAgreement:
    """One fuzzed stream through three ingestion paths — scalar insert,
    batch engine, sharded router — held to pairwise agreement on every
    query type, with serialize round-trips of the merged state."""

    @given(keys=workloads, window=st.integers(4, 64),
           shards=st.integers(1, 4), seed=st.integers(0, 10))
    @settings(max_examples=60, deadline=None)
    def test_bloom_three_paths_agree(self, keys, window, shards, seed):
        w = count_window(window)
        def make():
            return ClockBloomFilter(n=128, k=2, s=3, window=w, seed=seed)
        scalar = make()
        for key in keys:
            scalar.insert(key)
        batch = make()
        batch.insert_many(keys)
        sharded = ShardedSketch(make, shards=shards, router="serial")
        sharded.insert_many(keys)
        probe = list(dict.fromkeys(keys))
        a = np.asarray(scalar.contains_many(probe))
        b = np.asarray(batch.contains_many(probe))
        c = np.asarray(sharded.contains_many(probe))
        assert np.array_equal(a, b)
        # The merge theorem: clock-only kinds are exactly the plain
        # sketch at ANY shard count, not only approximately.
        assert np.array_equal(b, c)
        restored = loads_sketch(dumps_sketch(sharded))
        assert np.array_equal(np.asarray(restored.contains_many(probe)), c)

    @given(keys=workloads, window=st.integers(4, 64),
           shards=st.integers(1, 4), seed=st.integers(0, 10))
    @settings(max_examples=40, deadline=None)
    def test_bitmap_three_paths_agree(self, keys, window, shards, seed):
        w = count_window(window)
        def make():
            return ClockBitmap(n=512, s=3, window=w, seed=seed)
        scalar = make()
        for key in keys:
            scalar.insert(key)
        batch = make()
        batch.insert_many(keys)
        sharded = ShardedSketch(make, shards=shards, router="serial")
        sharded.insert_many(keys)
        assert scalar.estimate().value == batch.estimate().value
        assert batch.estimate().value == sharded.estimate().value
        restored = loads_sketch(dumps_sketch(sharded))
        assert restored.estimate().value == sharded.estimate().value

    @given(keys=workloads, window=st.integers(4, 64),
           shards=st.integers(2, 4), seed=st.integers(0, 10))
    @settings(max_examples=40, deadline=None)
    def test_countmin_sharded_bracketed(self, keys, window, shards, seed):
        w = count_window(window)
        def make():
            return ClockCountMin(width=64, depth=2, s=3, window=w, seed=seed)
        scalar = make()
        for key in keys:
            scalar.insert(key)
        batch = make()
        batch.insert_many(keys)
        sharded = ShardedSketch(make, shards=shards, router="serial")
        sharded.insert_many(keys)
        truth = _truth(keys, w)
        probe = truth.active_keys()
        a = np.asarray(scalar.query_many(probe))
        b = np.asarray(batch.query_many(probe))
        c = np.asarray(sharded.query_many(probe))
        exact = np.asarray([truth.size(key) for key in probe])
        assert np.array_equal(a, b)
        # Key-partitioning removes cross-shard collisions, so the
        # merged count sits between the exact size and the plain one.
        assert np.all(exact <= c)
        assert np.all(c <= b)
        restored = loads_sketch(dumps_sketch(sharded))
        assert np.array_equal(np.asarray(restored.query_many(probe)), c)

    @given(keys=workloads, window=st.integers(4, 64),
           shards=st.integers(1, 4), seed=st.integers(0, 10))
    @settings(max_examples=40, deadline=None)
    def test_timespan_sharded_never_underestimates(self, keys, window,
                                                   shards, seed):
        w = count_window(window)
        def make():
            return ClockTimeSpanSketch(n=256, k=2, s=3, window=w, seed=seed)
        scalar = make()
        for key in keys:
            scalar.insert(key)
        sharded = ShardedSketch(make, shards=shards, router="serial")
        sharded.insert_many(keys)
        truth = _truth(keys, w)
        probe = truth.active_keys()
        result = sharded.query_many(probe)
        for i, key in enumerate(probe):
            assert result.active[i]
            assert result.span[i] >= truth.span(key) - 1e-9
        restored = loads_sketch(dumps_sketch(sharded))
        again = restored.query_many(probe)
        assert np.array_equal(np.asarray(again.span),
                              np.asarray(result.span), equal_nan=True)
