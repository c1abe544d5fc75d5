"""The clock-invariant sanitizer: every check fires on injected damage.

Each test corrupts a sketch the way a real bug would (bad cell image,
stalled cleaner, erased cells) and asserts the sanitizer converts the
silent corruption into a :class:`SanitizerError` — plus the flip side:
healthy sketches run under the sanitizer with bit-identical results.
"""

import numpy as np
import pytest

from repro import ItemBatchMonitor
from repro.core import (KINDS, ClockBitmap, ClockBloomFilter, ClockCountMin,
                        ClockTimeSpanSketch)
from repro.qa import sanitizer
from repro.hashing import key_id
from repro.qa.sanitizer import SanitizerError
from repro.timebase import count_window, time_window


def _defining(cls, name):
    """The class in ``cls``'s MRO whose namespace defines ``name``."""
    return next(c for c in cls.__mro__ if name in vars(c))


def make_bf(**kwargs):
    return ClockBloomFilter(n=256, k=3, s=2, window=count_window(64), **kwargs)


class TestCellRange:
    def test_corrupted_cell_caught_on_next_operation(self):
        bf = make_bf(sanitize=True)
        bf.insert(1)
        bf.clock.values[0] = bf.clock.max_value + 1
        with pytest.raises(SanitizerError, match="out of range"):
            bf.insert(2)

    def test_check_clock_direct(self):
        bf = make_bf()
        bf.insert(1)
        bf.clock.values[0] = bf.clock.max_value + 1
        with pytest.raises(SanitizerError, match="out of range"):
            sanitizer.check_clock(bf.clock)

    def test_load_values_rejects_bad_images_even_unsanitized(self):
        from repro.errors import ConfigurationError
        bf = make_bf()
        image = np.full(bf.n, bf.clock.max_value + 1, dtype=np.int64)
        with pytest.raises(ConfigurationError):
            bf.clock.load_values(image)


class TestSweepMonotonicity:
    def test_pointer_moving_backwards_is_caught(self):
        bf = make_bf(sanitize=True)
        for key in range(8):
            bf.insert(key)
        assert bf.clock.steps_done > 0
        bf.clock._steps_done -= 1
        with pytest.raises(SanitizerError, match="moved backwards"):
            bf.clock.touch([0])


class TestCleaningCadence:
    def test_too_slow_sweep_is_caught(self):
        bf = make_bf(sanitize=True)
        for key in range(8):
            bf.insert(key)
        clock = bf.clock
        # Declare a much later time without having swept a single step:
        # the cleaner is now far behind its T/(2^s - 2) schedule.
        with pytest.raises(SanitizerError, match="cadence"):
            clock.sync_state(clock.now + 2 * bf.window.length,
                             clock.steps_done)

    def test_running_ahead_is_caught(self):
        bf = make_bf(sanitize=True)
        for key in range(8):
            bf.insert(key)
        clock = bf.clock
        with pytest.raises(SanitizerError, match="ahead"):
            clock.sync_state(clock.now, clock.steps_done + 10 * clock.n)

    def test_deferred_mode_may_lag_within_one_circle(self):
        bf = ClockBloomFilter(n=64, k=2, s=2, window=count_window(32),
                              sweep_mode="deferred", sanitize=True)
        bf.insert_many(np.arange(200, dtype=np.int64) % 40)
        assert bf.contains(39)


class TestNoFalseExpiry:
    def test_erased_cells_caught_by_scalar_query(self):
        bf = make_bf(sanitize=True)
        bf.insert(7)
        bf.clock.values[np.asarray(bf.deriver.indexes(7))] = 0
        with pytest.raises(SanitizerError, match="no-false-expiry"):
            bf.contains(7)

    @pytest.mark.parametrize("batch", [False, True])
    def test_erased_cells_caught_on_a_monitor(self, batch):
        """A monitor writes its tasks at times its stream clock resolved,
        past ``insert``/``insert_many``: those writes are checked too."""
        with sanitizer.sanitized():
            monitor = ItemBatchMonitor(count_window(64), memory="8KB")
            if batch:
                monitor.observe_many(["x", "flow"])
            else:
                monitor.observe("flow")
            bf = monitor.activeness
            bf.clock.values[np.asarray(bf.deriver.indexes(key_id("flow")))] = 0
            with pytest.raises(SanitizerError, match="no-false-expiry"):
                monitor.is_active("flow")

    @pytest.mark.parametrize("batch", [False, True])
    @pytest.mark.parametrize("task", ["size", "span"])
    def test_erased_task_cells_caught_on_a_monitor(self, task, batch):
        """Erased Count-Min counters and erased time-span cells read dead
        through the monitor's own per-key queries."""
        with sanitizer.sanitized():
            monitor = ItemBatchMonitor(count_window(64), memory="8KB")
            if batch:
                monitor.observe_many(["x", "flow"])
            else:
                monitor.observe("flow")
            if task == "size":
                monitor.size_sketch.counters[:] = 0
                query = monitor.batch_size
            else:
                ts = monitor.span_sketch
                ts.clock.values[ts._item_cells(key_id("flow"))] = 0
                query = monitor.batch_span
            with pytest.raises(SanitizerError, match="no-false-expiry"):
                query("flow")

    def test_erased_cells_caught_by_batch_query(self):
        bf = make_bf(sanitize=True)
        bf.insert_many(np.arange(10, dtype=np.int64))
        bf.clock.values[:] = 0
        with pytest.raises(SanitizerError, match="no-false-expiry"):
            bf.contains_many(np.arange(10, dtype=np.int64))

    def test_erased_counters_caught_by_countmin_query(self):
        cm = ClockCountMin(width=128, depth=3, s=4, window=count_window(64),
                           sanitize=True)
        cm.insert("key")
        cm.counters[:] = 0
        with pytest.raises(SanitizerError, match="no-false-expiry"):
            cm.query("key")

    def test_erased_cells_caught_by_timespan_query(self):
        ts = ClockTimeSpanSketch(n=256, k=2, s=8, window=count_window(64),
                                 sanitize=True)
        ts.insert("job")
        ts.clock.values[np.asarray(ts.deriver.indexes("job"))] = 0
        with pytest.raises(SanitizerError, match="no-false-expiry"):
            ts.query("job")

    def test_time_based_guarantee_horizon(self):
        bf = ClockBloomFilter(n=256, k=3, s=2, window=time_window(100.0),
                              sanitize=True)
        bf.insert("x", t=5.0)
        bf.clock.values[np.asarray(bf.deriver.indexes("x"))] = 0
        with pytest.raises(SanitizerError, match="no-false-expiry"):
            bf.contains("x", t=6.0)

    def test_genuine_expiry_is_not_flagged(self):
        bf = ClockBloomFilter(n=64, k=2, s=2, window=count_window(16),
                              sanitize=True)
        bf.insert(3)
        # Push far past the window: the item dies legitimately.
        for key in range(100, 180):
            bf.insert(key)
        assert bf.contains(3) in (True, False)  # no SanitizerError


class TestRoundTrip:
    def test_healthy_sketches_pass(self):
        for sketch in (make_bf(),
                       ClockBitmap(n=128, s=4, window=count_window(32)),
                       ClockCountMin(width=64, depth=2, s=4,
                                     window=count_window(32)),
                       ClockTimeSpanSketch(n=128, k=2, s=8,
                                           window=count_window(32))):
            for key in range(20):
                sketch.insert(key)
            sanitizer.check_sketch(sketch)

    def test_divergent_state_is_caught(self):
        bf = make_bf()
        bf.insert(1)
        # A fractional step count cannot survive dumps -> loads (the
        # payload stores an integer), so the round-trip check trips.
        bf.clock._steps_done = bf.clock.steps_done + 0.5
        with pytest.raises(SanitizerError, match="round-trip"):
            sanitizer.check_roundtrip(bf)


def _skip_if_globally_installed():
    """Some install-mechanics tests are unobservable when the conftest
    plugin (REPRO_SANITIZE=1) already holds a process-wide install."""
    if sanitizer._install_refs:
        pytest.skip("global sanitizer already installed for this run")


class TestInstallModes:
    def test_install_uninstall_restore_originals(self):
        _skip_if_globally_installed()
        owner = _defining(ClockBloomFilter, "_write_one")
        orig_insert = owner.__dict__["_write_one"]
        sanitizer.install()
        sanitizer.install()
        try:
            assert owner.__dict__["_write_one"] is not orig_insert
            sanitizer.uninstall()
            # Still installed: refcounted.
            assert owner.__dict__["_write_one"] is not orig_insert
        finally:
            sanitizer.uninstall()
        assert owner.__dict__["_write_one"] is orig_insert

    def test_install_wraps_every_kinds_writers(self):
        _skip_if_globally_installed()
        writers = [(kind, name) for kind in KINDS
                   for name in ("_write_one", "_write")]
        with sanitizer.sanitized():
            for kind, name in writers:
                assert hasattr(getattr(kind, name), "__wrapped__"), \
                    (kind.__name__, name)
        for kind, name in writers:
            assert not hasattr(getattr(kind, name), "__wrapped__")

    def test_install_wraps_every_kinds_readers(self):
        _skip_if_globally_installed()
        readers = [(kind, name) for kind in KINDS
                   for name in ("query", "query_many")]
        readers += [(ClockBloomFilter, "contains"),
                    (ClockBloomFilter, "contains_many")]
        with sanitizer.sanitized():
            for kind, name in readers:
                assert hasattr(getattr(kind, name), "__wrapped__"), \
                    (kind.__name__, name)
        for kind, name in readers:
            assert not hasattr(getattr(kind, name), "__wrapped__")

    def test_context_manager_catches_and_restores(self):
        orig_touch = type(make_bf().clock).__dict__["touch"]
        with sanitizer.sanitized():
            bf = make_bf()
            bf.insert(1)
            bf.clock.values[0] = bf.clock.max_value + 1
            with pytest.raises(SanitizerError):
                bf.insert(2)
        assert type(bf.clock).__dict__["touch"] is orig_touch

    def test_sanitize_kwarg_is_per_instance(self):
        _skip_if_globally_installed()
        checked = make_bf(sanitize=True)
        unchecked = make_bf()
        for bf in (checked, unchecked):
            bf.insert(1)
            bf.clock.values[0] = bf.clock.max_value + 1
        with pytest.raises(SanitizerError):
            checked.insert(2)
        unchecked.insert(2)  # silently keeps running: not wrapped

    def test_enabled_env_parsing(self, monkeypatch):
        for value, expect in (("1", True), ("true", True), ("on", True),
                              ("0", False), ("false", False), ("", False),
                              ("off", False), ("no", False)):
            monkeypatch.setenv(sanitizer.ENV_FLAG, value)
            assert sanitizer.enabled() is expect
        monkeypatch.delenv(sanitizer.ENV_FLAG)
        assert sanitizer.enabled() is False


class TestTransparency:
    def test_sanitized_results_are_bit_identical(self):
        keys = np.arange(500, dtype=np.int64) % 80
        plain = make_bf()
        plain.insert_many(keys)
        with sanitizer.sanitized():
            checked = make_bf()
            checked.insert_many(keys)
        assert np.array_equal(plain.clock.values, checked.clock.values)
        assert plain.clock.steps_done == checked.clock.steps_done
        assert plain.items_inserted == checked.items_inserted
