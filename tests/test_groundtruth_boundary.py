"""Window-boundary semantics: ground truth and sketches at ``now - t == T``.

The library-wide convention is the *strict* inequality ``now - t < T``
for both batch extension and activeness (groundtruth module docstring):
at exactly ``now - t == T`` a batch is inactive and a new occurrence
starts a new batch. The clock guarantee brackets the sketch the same
way: cells written at ``t`` provably survive queries with
``now - t < T``, may linger through the residual error window
``T / (2^s - 2)``, and are provably gone at ``now - t >= T + residual``
(absent collisions). These tests pin every edge.
"""

import numpy as np
import pytest

from repro import ClockBloomFilter, count_window, time_window
from repro.core.params import error_window_length
from repro.errors import TimeError
from repro.streams.groundtruth import BatchTracker, split_active_inactive

T = 10.0


class TestTrackerBoundary:
    def test_active_strictly_inside_window_only(self):
        gt = BatchTracker(time_window(T))
        gt.observe("k", 0.0)
        assert gt.is_active("k", now=T - 1e-9)
        assert not gt.is_active("k", now=T)
        assert not gt.is_active("k", now=T + 1e-9)

    def test_span_and_size_none_exactly_at_t(self):
        gt = BatchTracker(time_window(T))
        gt.observe("k", 0.0)
        gt.observe("k", 1.0)
        # Activeness keys off the *last* occurrence (t=1), so the
        # boundary sits at now = last + T.
        assert gt.span("k", now=1.0 + T) is None
        assert gt.size("k", now=1.0 + T) is None
        assert gt.span("k", now=1.0 + T - 1e-9) == pytest.approx(1.0 + T - 1e-9)
        assert gt.size("k", now=1.0 + T - 1e-9) == 2

    def test_occurrence_exactly_t_later_starts_new_batch(self):
        gt = BatchTracker(time_window(T))
        gt.observe("k", 0.0)
        gt.observe("k", T)  # age == T: extension condition is strict
        state = gt.state("k")
        assert state.size == 1
        assert state.start == T
        assert state.batches_seen == 2

    def test_occurrence_just_inside_extends(self):
        gt = BatchTracker(time_window(T))
        gt.observe("k", 0.0)
        gt.observe("k", T - 1e-9)
        state = gt.state("k")
        assert state.size == 2
        assert state.batches_seen == 1

    def test_count_window_boundary(self):
        window = 5
        gt = BatchTracker(count_window(window))
        gt.observe("k")
        for filler in range(window - 1):
            gt.observe(("other", filler))
        # k arrived at count 1; now == window, age == window - 1 < T.
        assert gt.is_active("k")
        gt.observe(("other", "last"))
        # now == window + 1, age == window: exactly T, inactive.
        assert not gt.is_active("k")

    def test_cardinality_and_key_sets_agree_at_boundary(self):
        gt = BatchTracker(time_window(T))
        gt.observe("old", 0.0)
        gt.observe("edge", 5.0)
        gt.observe("fresh", 10.0)
        now = 5.0 + T  # "edge" is exactly T old
        active = set(gt.active_keys(now))
        inactive = set(gt.inactive_seen_keys(now))
        assert active == {"fresh"}
        assert inactive == {"old", "edge"}
        assert gt.active_cardinality(now) == 1

    def test_time_moving_backwards_rejected(self):
        gt = BatchTracker(time_window(T))
        gt.observe("k", 5.0)
        with pytest.raises(TimeError, match="backwards"):
            gt.observe("k", 4.0)


class TestPartitionKeys:
    def test_three_way_split_boundaries(self):
        gt = BatchTracker(time_window(T))
        residual = 2.0
        gt.observe("stale", 0.0)
        gt.observe("residual-edge", 0.0)
        gt.observe("residual-young", 0.0)
        gt.observe("active-edge", 0.0)
        gt.observe("active", 0.0)
        # Re-observe to spread the last-occurrence times.
        now = 20.0
        gt.observe("residual-edge", now - (T + residual) + 1e-9)
        gt.observe("residual-young", now - T)
        gt.observe("active-edge", now - T + 1e-9)
        gt.observe("active", now - 1.0)
        active, residual_keys, stale = gt.partition_keys(now,
                                                         residual=residual)
        assert set(active) == {"active-edge", "active"}
        # age == T lands in the residual stretch; age == T + residual
        # falls out of it (both boundaries strict on the young side).
        assert set(residual_keys) == {"residual-young", "residual-edge"}
        assert set(stale) == {"stale"}

    def test_zero_residual_matches_active_inactive_split(self):
        gt = BatchTracker(time_window(T))
        gt.observe("a", 0.0)
        gt.observe("b", 6.0)
        now = 12.0
        active, residual_keys, stale = gt.partition_keys(now)
        assert residual_keys == []
        assert set(active) == set(gt.active_keys(now))
        assert set(stale) == set(gt.inactive_seen_keys(now))


def _tracker_state(gt):
    return {key: vars(state) for key, state in gt._states.items()}


def _reference_state(keys, times, length):
    """The batch rule, one occurrence at a time: extend iff ``t - last < T``."""
    states = {}
    for key, t in zip(keys, times):
        state = states.get(key)
        if state is not None and t - state["last"] < length:
            state.update(last=t, size=state["size"] + 1)
        else:
            seen = 1 if state is None else state["batches_seen"] + 1
            states[key] = dict(start=t, last=t, size=1, batches_seen=seen)
    return states


class TestObserveMany:
    """``observe_many`` is the per-key batch rule, all or nothing."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_per_key_rule(self, seed):
        rng = np.random.default_rng(seed)
        # Few keys, so they repeat; gaps of 0 to 2T, so batches both
        # extend and restart, and equal times occur.
        keys = rng.integers(0, 12, size=400).tolist()
        gaps = rng.choice([0.0, 0.5, T - 1e-9, T, 2 * T], size=400,
                          p=[0.2, 0.5, 0.1, 0.1, 0.1])
        times = (1.0 + np.cumsum(gaps)).tolist()
        loop, batch = BatchTracker(time_window(T)), BatchTracker(time_window(T))
        for key, t in zip(keys, times):
            loop.observe(key, t)
        for lo in range(0, 400, 37):  # uneven batches
            batch.observe_many(keys[lo:lo + 37], times[lo:lo + 37])
        reference = _reference_state(keys, times, T)
        assert _tracker_state(batch) == _tracker_state(loop) == reference
        assert (batch.now, batch._items) == (loop.now, loop._items) \
            == (times[-1], 400)

    def test_count_window_matches_the_per_key_loop(self):
        keys = np.random.default_rng(9).integers(0, 5, size=60).tolist()
        loop, batch = BatchTracker(count_window(4)), BatchTracker(count_window(4))
        for key in keys:
            loop.observe(key)
        batch.observe_many(keys[:25])
        batch.observe_many(keys[25:])
        reference = _reference_state(keys, [float(i) for i in range(1, 61)], 4)
        assert _tracker_state(batch) == _tracker_state(loop) == reference
        assert (batch.now, batch._items) == (loop.now, loop._items) == (60, 60)

    def test_backwards_time_changes_nothing(self):
        gt = BatchTracker(time_window(T))
        gt.observe_many(["a", "b"], [1.0, 2.0])
        before = (_tracker_state(gt), gt.now, gt._items)
        for times in ([3.0, 1.5, 4.0], [1.0, 5.0, 6.0]):
            with pytest.raises(TimeError, match="backwards"):
                gt.observe_many(["a", "c", "b"], times)
            assert (_tracker_state(gt), gt.now, gt._items) == before


class TestSplitActiveInactive:
    def test_exact_boundary_is_inactive(self):
        keys = np.array([1, 2, 3], dtype=np.int64)
        times = np.array([0.0, 5.0, 10.0])
        active, inactive = split_active_inactive(keys, times, now=T,
                                                 window=time_window(T))
        # key 1 is exactly T old: strict inequality puts it inactive.
        assert inactive.tolist() == [1]
        assert active.tolist() == [2, 3]

    def test_uses_last_occurrence_per_key(self):
        keys = np.array([7, 7, 8], dtype=np.int64)
        times = np.array([0.0, 9.0, 0.0])
        active, inactive = split_active_inactive(keys, times, now=T,
                                                 window=time_window(T))
        assert active.tolist() == [7]
        assert inactive.tolist() == [8]

    def test_agrees_with_tracker_on_random_stream(self):
        rng = np.random.default_rng(11)
        keys = rng.integers(0, 50, size=400)
        times = np.sort(rng.uniform(0.0, 40.0, size=400))
        now = 40.0
        active, inactive = split_active_inactive(keys, times, now,
                                                 time_window(T))
        gt = BatchTracker(time_window(T))
        for key, t in zip(keys, times):
            gt.observe(int(key), float(t))
        assert set(active.tolist()) == set(gt.active_keys(now))
        assert set(inactive.tolist()) == set(gt.inactive_seen_keys(now))


class TestSketchAtErrorWindowEdge:
    """Cross-check the activeness sketch against the clock guarantee.

    A single key in an otherwise-empty filter has no collisions, so its
    answers are deterministic: active strictly inside the window, and
    provably expired once the residual error window has also passed.
    Between the two edges the clock is *allowed* to answer either way.
    """

    def test_count_window_edges(self):
        window = 64
        s = 2
        bf = ClockBloomFilter(n=4096, k=3, s=s, window=count_window(window))
        bf.insert(123)  # arrives at count 1
        residual = error_window_length(window, s)  # 64 / (2^2 - 2) = 32
        assert residual == 32.0
        # now - t == T - 1: strictly inside, the guarantee forbids a FN.
        assert bf.contains(123, t=window)
        # now - t == T: outside the guarantee; either answer is legal,
        # but the call itself must be well-defined.
        assert bf.contains(123, t=window + 1) in (True, False)
        # now - t == T + residual: the cleaner has provably expired it.
        assert not bf.contains(123, t=1 + window + int(residual))

    def test_time_window_edges(self):
        s = 2
        bf = ClockBloomFilter(n=4096, k=3, s=s, window=time_window(T))
        bf.insert(9, t=1.0)
        residual = error_window_length(T, s)  # T / 2
        assert bf.contains(9, t=1.0 + T - 1e-6)
        assert not bf.contains(9, t=1.0 + T + residual)

    def test_tracker_and_sketch_agree_inside_window(self):
        window = 32
        bf = ClockBloomFilter(n=8192, k=3, s=8, window=count_window(window))
        gt = BatchTracker(count_window(window))
        rng = np.random.default_rng(3)
        keys = rng.integers(0, 40, size=256)
        for key in keys:
            bf.insert(int(key))
            gt.observe(int(key))
        # No false negatives, ever: every truly active key tests positive.
        for key in gt.active_keys():
            assert bf.contains(int(key))
