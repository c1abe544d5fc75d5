"""Property tests: whole-stream evaluation on time-based windows.

The count-based equivalences are covered per-structure; these pin the
float-schedule (time-based) paths, which the fig5e/6d/7d/8d experiments
rely on: BF+clock, BM+clock, TOBF and TSV fed through ``insert_many``
against the per-item ``insert`` loop (the kinds on the scalar sweep).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import TimeOutBloomFilter, TimestampVector
from repro.core.activeness import ClockBloomFilter
from repro.core.cardinality import ClockBitmap
from repro.timebase import time_window


def _timed_workload(seed, n):
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 50, size=n)
    times = np.cumsum(rng.exponential(1.0, size=n)) + 1.0
    return keys, times


class TestTimeBasedSnapshots:
    @given(seed=st.integers(0, 60), n=st.integers(1, 250),
           window=st.floats(2.0, 80.0), s=st.integers(2, 6))
    @settings(max_examples=60, deadline=None)
    def test_membership(self, scalar_reference, seed, n, window, s):
        keys, times = _timed_workload(seed, n)
        config = dict(n=128, k=2, s=s, window=time_window(window), seed=seed)
        bf = ClockBloomFilter(**config)
        bf.insert_many(keys, times)
        ref = scalar_reference(ClockBloomFilter, keys, times, **config)
        queries = np.arange(80)
        assert np.array_equal(bf.query_many(queries, t=float(times[-1])),
                              [ref.query(int(q)) for q in queries])

    @given(seed=st.integers(0, 60), n=st.integers(1, 250),
           window=st.floats(2.0, 80.0))
    @settings(max_examples=60, deadline=None)
    def test_cardinality(self, scalar_reference, seed, n, window):
        keys, times = _timed_workload(seed, n)
        config = dict(n=128, s=4, window=time_window(window), seed=seed)
        bm = ClockBitmap(**config)
        bm.insert_many(keys, times)
        ref = scalar_reference(ClockBitmap, keys, times, **config)
        assert (bm.estimate(t=float(times[-1])).value
                == ref.estimate().value)

    @given(seed=st.integers(0, 60), n=st.integers(1, 250),
           window=st.floats(2.0, 80.0))
    @settings(max_examples=60, deadline=None)
    def test_timestamp_filter(self, seed, n, window):
        keys, times = _timed_workload(seed, n)
        w = time_window(window)
        f = TimeOutBloomFilter(n=128, k=2, window=w, seed=seed)
        f.insert_many(keys, times)
        loop = TimeOutBloomFilter(n=128, k=2, window=w, seed=seed)
        for key, t in zip(keys, times):
            loop.insert(int(key), t=float(t))
        queries = np.arange(80)
        assert list(f.contains_many(queries, t=float(times[-1]))) == \
            [loop.contains(int(q)) for q in queries]

    @given(seed=st.integers(0, 60), n=st.integers(1, 250),
           window=st.floats(2.0, 80.0))
    @settings(max_examples=60, deadline=None)
    def test_tsv(self, seed, n, window):
        keys, times = _timed_workload(seed, n)
        w = time_window(window)
        tsv = TimestampVector(n=128, window=w, seed=seed)
        tsv.insert_many(keys, times)
        loop = TimestampVector(n=128, window=w, seed=seed)
        for key, t in zip(keys, times):
            loop.insert(int(key), t=float(t))
        assert (tsv.estimate(t=float(times[-1])).value
                == loop.estimate().value)
