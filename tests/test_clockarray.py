"""Tests for the clock cell array — the paper's core mechanism.

The two invariants of §3.2/§3.3 are enforced as properties:

1. no false expiry: a cell set at time t is non-zero at any query time
   strictly before t + T;
2. bounded staleness: a cell untouched since t is zero by
   t + T * (1 + 1/(2^s - 2)).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clockarray import ClockArray, dtype_for_bits
from repro.errors import ConfigurationError, TimeError
from repro.kernels.numpy_backend import snapshot_values, sweep_hits
from repro.timebase import count_window, time_window


class TestConstruction:
    def test_dtype_selection(self):
        assert dtype_for_bits(2) == np.uint8
        assert dtype_for_bits(8) == np.uint8
        assert dtype_for_bits(9) == np.uint16
        assert dtype_for_bits(17) == np.uint32
        assert dtype_for_bits(33) == np.uint64

    @pytest.mark.parametrize("s", [0, 1, 65])
    def test_clock_size_bounds(self, s):
        with pytest.raises(ConfigurationError):
            ClockArray(8, s, count_window(8))

    def test_cell_count_positive(self):
        with pytest.raises(ConfigurationError):
            ClockArray(0, 2, count_window(8))

    def test_unknown_sweep_mode(self):
        with pytest.raises(ConfigurationError):
            ClockArray(8, 2, count_window(8), sweep_mode="gpu")

    def test_initial_state(self):
        clock = ClockArray(16, 3, count_window(8))
        assert clock.max_value == 7
        assert clock.circles_per_window == 6
        assert np.all(clock.values == 0)
        assert clock.pointer == 0
        assert clock.memory_bits() == 48


class TestSweepSchedule:
    def test_total_steps_count_based_exact(self):
        clock = ClockArray(n=10, s=2, window=count_window(5))
        # n * (2^s - 2) / T = 10 * 2 / 5 = 4 steps per item.
        assert clock.total_steps_at(0) == 0
        assert clock.total_steps_at(1) == 4
        assert clock.total_steps_at(5) == 20  # one window = 2 circles

    def test_total_steps_time_based(self):
        clock = ClockArray(n=10, s=2, window=time_window(5.0))
        assert clock.total_steps_at(2.5) == 10

    def test_advance_moves_pointer(self):
        clock = ClockArray(n=10, s=2, window=count_window(5))
        clock.advance(1)
        assert clock.steps_done == 4
        assert clock.pointer == 4

    def test_time_cannot_go_backwards(self):
        clock = ClockArray(n=10, s=2, window=count_window(5))
        clock.advance(3)
        with pytest.raises(TimeError):
            clock.advance(2)

    def test_advance_is_idempotent_at_same_time(self):
        clock = ClockArray(n=10, s=2, window=count_window(5))
        clock.touch([0, 5])
        clock.advance(2)
        before = clock.values.copy()
        clock.advance(2)
        assert np.array_equal(clock.values, before)


class TestGuarantees:
    @given(
        n=st.integers(4, 200),
        s=st.integers(2, 8),
        window=st.integers(2, 100),
        cell_seed=st.integers(0, 10**6),
        set_time=st.integers(0, 500),
        age=st.integers(0, 99),
    )
    @settings(max_examples=200, deadline=None)
    def test_no_false_expiry_within_window(self, n, s, window, cell_seed,
                                           set_time, age):
        """A touched cell survives any query strictly within the window."""
        clock = ClockArray(n, s, count_window(window))
        cell = cell_seed % n
        clock.advance(set_time)
        clock.touch([cell])
        query_time = set_time + (age % window)  # < set_time + window
        clock.advance(query_time)
        assert clock.values[cell] > 0

    @given(
        n=st.integers(4, 200),
        s=st.integers(2, 8),
        window=st.integers(2, 100),
        cell_seed=st.integers(0, 10**6),
        set_time=st.integers(0, 500),
    )
    @settings(max_examples=200, deadline=None)
    def test_guaranteed_expiry_after_error_window(self, n, s, window,
                                                  cell_seed, set_time):
        """An untouched cell is zero once the error window has passed."""
        clock = ClockArray(n, s, count_window(window))
        cell = cell_seed % n
        clock.advance(set_time)
        clock.touch([cell])
        error_window = window / ((1 << s) - 2)
        expiry = set_time + math.ceil(window + error_window) + 1
        clock.advance(expiry)
        assert clock.values[cell] == 0

    def test_survives_exactly_at_window_edge(self):
        clock = ClockArray(16, 2, count_window(8))
        clock.advance(3)
        clock.touch([5])
        clock.advance(3 + 8)
        assert clock.values[5] > 0


class TestSweepModesAgree:
    @given(
        n=st.integers(4, 64),
        s=st.integers(2, 4),
        window=st.integers(2, 32),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_scalar_and_vector_identical(self, n, s, window, data):
        ops = data.draw(st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, n - 1)),
            min_size=1, max_size=30,
        ))
        vec = ClockArray(n, s, count_window(window), sweep_mode="vector")
        sca = ClockArray(n, s, count_window(window), sweep_mode="scalar")
        t = 0
        for dt, cell in ops:
            t += dt
            for clock in (vec, sca):
                clock.advance(t)
                clock.touch([cell])
        assert np.array_equal(vec.values, sca.values)

    def test_large_jump_equivalence(self):
        vec = ClockArray(16, 3, count_window(8), sweep_mode="vector")
        sca = ClockArray(16, 3, count_window(8), sweep_mode="scalar")
        for clock in (vec, sca):
            clock.touch([0, 7, 15])
            clock.advance(5)  # many full rounds plus remainder
        assert np.array_equal(vec.values, sca.values)


class TestExpireCallback:
    def test_callback_receives_expiring_cells(self):
        expired = []
        clock = ClockArray(8, 2, count_window(4),
                           on_expire=lambda idx: expired.extend(idx.tolist()))
        clock.touch([2])
        clock.advance(20)
        assert expired == [2]

    def test_callback_fires_once_per_expiry(self):
        expired = []
        clock = ClockArray(8, 2, count_window(4),
                           on_expire=lambda idx: expired.extend(idx.tolist()))
        clock.touch([3])
        clock.advance(20)
        clock.advance(40)
        assert expired.count(3) == 1

    def test_scalar_mode_callback(self):
        expired = []
        clock = ClockArray(8, 2, count_window(4), sweep_mode="scalar",
                           on_expire=lambda idx: expired.extend(idx.tolist()))
        clock.touch([1, 6])
        clock.advance(20)
        assert sorted(expired) == [1, 6]


class TestDeferredModes:
    @pytest.mark.parametrize("mode", ["deferred", "deferred-scalar"])
    def test_deferral_lags_at_most_one_circle(self, mode):
        clock = ClockArray(n=16, s=2, window=count_window(8), sweep_mode=mode)
        clock.touch([0])
        clock.advance(1)  # 4 steps pending < n: nothing swept yet
        assert clock.steps_done == 0
        clock.advance(4)  # 16 steps pending == n: sweeps now
        assert clock.steps_done == 16

    def test_is_deferred_flag(self):
        assert ClockArray(8, 2, count_window(4), sweep_mode="deferred").is_deferred
        assert not ClockArray(8, 2, count_window(4)).is_deferred

    @pytest.mark.parametrize("mode", ["deferred", "deferred-scalar"])
    def test_flush_catches_up(self, mode):
        clock = ClockArray(n=16, s=2, window=count_window(8), sweep_mode=mode)
        clock.touch([0])
        clock.advance(1)
        assert clock.steps_done == 0
        clock.flush()
        assert clock.steps_done == clock.total_steps_at(1)

    def test_deferred_guarantee_minus_one_circle(self):
        # Deferred cleaning weakens the window guarantee by at most one
        # circle (T/(2^s - 2)); ages strictly below T - circle are safe.
        clock = ClockArray(n=32, s=2, window=count_window(16),
                           sweep_mode="deferred")
        circle = 16 // (2**2 - 2)  # 8
        clock.advance(3)
        clock.touch([7])
        clock.advance(3 + (16 - circle) - 1)
        assert clock.values[7] > 0

    @given(
        n=st.integers(4, 64),
        s=st.integers(2, 6),
        window=st.integers(4, 64),
        set_time=st.integers(0, 200),
        age_seed=st.integers(0, 10**6),
    )
    @settings(max_examples=150, deadline=None)
    def test_deferred_weakened_guarantee_property(self, n, s, window,
                                                  set_time, age_seed):
        clock = ClockArray(n, s, count_window(window), sweep_mode="deferred")
        circle = window / ((1 << s) - 2)
        safe_horizon = int(window - circle)
        if safe_horizon <= 0:
            return
        age = age_seed % safe_horizon
        clock.advance(set_time)
        clock.touch([age_seed % n])
        clock.advance(set_time + age)
        assert clock.values[age_seed % n] > 0


class TestSnapshotHelpers:
    def test_sweep_hits_counts_cyclic_visits(self):
        # n=4: step j hits cell (j-1) mod 4.
        assert int(sweep_hits(4, 0, 4)) == 1
        assert int(sweep_hits(5, 0, 4)) == 2
        assert int(sweep_hits(0, 0, 4)) == 0
        assert int(sweep_hits(3, 3, 4)) == 0
        assert int(sweep_hits(4, 3, 4)) == 1

    @given(
        n=st.integers(2, 50),
        s=st.integers(2, 6),
        window=st.integers(2, 40),
        events=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 10**6)),
                        min_size=1, max_size=20),
        extra=st.integers(0, 10),
    )
    @settings(max_examples=150, deadline=None)
    def test_snapshot_matches_incremental(self, n, s, window, events, extra):
        """snapshot_values equals what the live array holds."""
        clock = ClockArray(n, s, count_window(window))
        t = 0
        last_set_steps = {}
        for dt, cell_seed in events:
            t += dt
            cell = cell_seed % n
            clock.advance(t)
            clock.touch([cell])
            last_set_steps[cell] = clock.total_steps_at(t)
        t_query = t + extra
        clock.advance(t_query)
        cells = np.array(sorted(last_set_steps), dtype=np.int64)
        sets = np.array([last_set_steps[c] for c in cells], dtype=np.int64)
        predicted = snapshot_values(sets, cells, n, clock.max_value,
                                    clock.total_steps_at(t_query))
        assert np.array_equal(predicted, clock.values[cells])


class TestReset:
    def test_reset_clears_everything(self):
        clock = ClockArray(8, 2, count_window(4))
        clock.touch([1, 2])
        clock.advance(3)
        clock.reset()
        assert np.all(clock.values == 0)
        assert clock.steps_done == 0
        assert clock.now == 0.0

    def test_repr(self):
        assert "ClockArray" in repr(ClockArray(8, 2, count_window(4)))
