"""End-to-end integration tests: sketches vs exact ground truth on
realistic batch-patterned workloads, plus library-wide doctests."""

import doctest

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
import repro.baselines.cvs
import repro.baselines.ideal
import repro.baselines.naive_size
import repro.baselines.naive_timespan
import repro.baselines.swamp
import repro.baselines.tbf
import repro.baselines.tinytable
import repro.baselines.tobf
import repro.baselines.tsv
import repro.cache.policies
import repro.concurrent
import repro.core.activeness
import repro.core.base
import repro.core.cardinality
import repro.core.size
import repro.core.timespan
import repro.ext.adaptive
import repro.ext.similar
import repro.hashing.family
import repro.monitor
import repro.streams.groundtruth
import repro.units
from repro import (
    BatchTracker,
    ClockBitmap,
    ClockBloomFilter,
    ClockCountMin,
    ClockTimeSpanSketch,
    count_window,
    time_window,
)
from repro.datasets import caida_like


DOCTEST_MODULES = [
    repro,
    repro.units,
    repro.hashing.family,
    repro.core.base,
    repro.core.activeness,
    repro.core.cardinality,
    repro.core.timespan,
    repro.core.size,
    repro.streams.groundtruth,
    repro.monitor,
    repro.concurrent,
    repro.baselines.tobf,
    repro.baselines.tbf,
    repro.baselines.tsv,
    repro.baselines.cvs,
    repro.baselines.ideal,
    repro.baselines.naive_timespan,
    repro.baselines.naive_size,
    repro.baselines.swamp,
    repro.baselines.tinytable,
    repro.cache.policies,
    repro.ext.similar,
    repro.ext.adaptive,
]


@pytest.mark.parametrize("module", DOCTEST_MODULES,
                         ids=lambda m: m.__name__)
def test_doctests(module):
    result = doctest.testmod(module)
    assert result.failed == 0
    assert result.attempted > 0  # every listed module carries examples


class TestFourTasksAgainstTruth:
    """The quickstart scenario as an automated check."""

    @pytest.fixture(scope="class")
    def world(self):
        window = count_window(2048)
        stream = caida_like(n_items=30_000, window_hint=2048, seed=13)
        truth = BatchTracker(window)
        truth.observe_stream(stream)
        return window, stream, truth

    def test_activeness_no_false_negatives(self, world):
        window, stream, truth = world
        bf = ClockBloomFilter.from_memory("16KB", window, seed=1)
        bf.insert_many(stream.keys)
        for key in truth.active_keys():
            assert bf.contains(key)

    def test_activeness_low_fpr(self, world):
        window, stream, truth = world
        bf = ClockBloomFilter.from_memory("16KB", window, seed=1)
        bf.insert_many(stream.keys)
        inactive = truth.inactive_seen_keys()
        fps = sum(bf.contains(key) for key in inactive)
        assert fps / max(len(inactive), 1) < 0.1

    def test_cardinality_close(self, world):
        window, stream, truth = world
        bm = ClockBitmap.from_memory("16KB", window, seed=2)
        bm.insert_many(stream.keys)
        assert bm.estimate().value == pytest.approx(
            truth.active_cardinality(), rel=0.2
        )

    def test_sizes_never_underestimated(self, world):
        window, stream, truth = world
        cm = ClockCountMin.from_memory("64KB", window, seed=3)
        cm.insert_many(stream.keys)
        for key in truth.active_keys():
            assert cm.query(key) >= truth.size(key)

    def test_spans_never_underestimated(self, world):
        window, stream, truth = world
        ts = ClockTimeSpanSketch.from_memory("128KB", window, seed=4)
        ts.insert_many(stream.keys)
        for key in truth.active_keys():
            result = ts.query(key)
            assert result.active
            assert result.span >= truth.span(key)


class TestCountTimeEquivalence:
    """Count-based and time-based agree on a constant-rate stream."""

    def test_same_answers_at_unit_rate(self):
        keys = np.tile(np.arange(20), 50)
        times = np.arange(1.0, len(keys) + 1)
        cw = count_window(128)
        tw = time_window(128.0)
        bf_count = ClockBloomFilter(n=1024, k=3, s=2, window=cw, seed=9)
        bf_time = ClockBloomFilter(n=1024, k=3, s=2, window=tw, seed=9)
        bf_count.insert_many(keys)
        bf_time.insert_many(keys, times)
        for key in range(30):
            assert bf_count.contains(key) == bf_time.contains(key)


class TestRandomisedAgainstTruth:
    @given(seed=st.integers(0, 50))
    @settings(max_examples=25, deadline=None)
    def test_activeness_guarantee_random_workloads(self, seed):
        rng = np.random.default_rng(seed)
        window = count_window(64)
        keys = rng.integers(0, 40, size=500)
        bf = ClockBloomFilter(n=512, k=3, s=3, window=window, seed=seed)
        truth = BatchTracker(window)
        bf.insert_many(keys)
        for key in keys:
            truth.observe(int(key))
        for key in truth.active_keys():
            assert bf.contains(key)

    @given(seed=st.integers(0, 50))
    @settings(max_examples=15, deadline=None)
    def test_cardinality_never_below_truth_minus_bias(self, seed):
        rng = np.random.default_rng(seed)
        window = count_window(128)
        keys = rng.integers(0, 60, size=600)
        bm = ClockBitmap(n=4096, s=8, window=window, seed=seed)
        truth = BatchTracker(window)
        bm.insert_many(keys)
        for key in keys:
            truth.observe(int(key))
        # Error window can only add items; hash collisions subtract few
        # at this load, so the estimate brackets the truth loosely.
        assert bm.estimate().value == pytest.approx(
            truth.active_cardinality(), rel=0.35, abs=4
        )
