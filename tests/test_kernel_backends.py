"""Differential parity suite: the numpy kernels against the loop reference.

:mod:`repro.kernels.numpy_backend` is the library's one kernel
implementation; :mod:`repro.kernels.loops` restates its mutating
kernels as plain per-cell loops. Each case drives one deterministic
stream twice, once as is and once with the loop functions swapped in on
the ``numpy_backend`` module (the ``loop_kernels`` fixture), and
requires **bit-identical** cell values, side arrays, cleaner position,
expiry-callback logs and query answers. Every case also asserts which
primitives ran on each side: the kind's own fused finisher in the exact
sweep modes and the clock's sweep kernels wherever the clock sweeps
vectorised, so no case can compare the numpy kernels with themselves or
pass on a path that skipped the kernel it is meant to check.

The swap sees a call only if its call site reaches the kernel as an
attribute of ``numpy_backend``. ``TestOneImplementation`` imports every
``repro`` module and fails on one outside ``repro.kernels`` that defines
a function named after a primitive (a fork of the one implementation)
or holds a primitive in its globals (a ``from ... import`` binding,
which the swap and the e2e profiler cannot see).

The suite covers all four sketch kinds in every sweep mode that calls
the kernels, at cell widths spanning both cell dtypes. The
``deferred-scalar`` mode is left out: its sweeps are
``ClockArray._sweep_scalar`` and its batches take the unfused deferred
path, so it calls no kernel at all.

Also covered, with and without the swap: serialize round-trips, BF
merge identity and the time-span never-underestimate contract.
"""

import importlib
import pkgutil
from contextlib import nullcontext
from types import CodeType

import numpy as np
import pytest

import repro
from repro import (
    ClockBitmap,
    ClockBloomFilter,
    ClockCountMin,
    ClockTimeSpanSketch,
    count_window,
    time_window,
)
from repro.kernels import numpy_backend
from repro.serialize import dumps_sketch, loads_sketch

#: The numpy kernels as shipped, then the loop reference swapped in.
IMPLEMENTATIONS = ("numpy", "python")

SWEEP_MODES = ("vector", "scalar", "deferred")

#: Cell widths spanning both cell dtypes (uint8 and uint16).
S_VALUES = (2, 4, 8, 16)

KINDS = ("bf", "bm", "cm", "ts")

#: Each kind's closed-form batch finisher.
FUSE = {"bf": "fuse_touch", "bm": "fuse_touch", "cm": "fuse_countmin",
        "ts": "fuse_timespan"}

WINDOW = 256

#: Batch sizes straddling the fused cutover (engine.batch.MIN_FUSED = 12),
#: plus scalar singles, so fused, loop, and deferred paths all run.
BATCH_PLAN = (1, 7, 64, 3, 300, 16)


def build(kind: str, s: int, sweep_mode: str, window=None):
    window = window or count_window(WINDOW)
    if kind == "bf":
        return ClockBloomFilter(n=512, k=3, s=s, window=window, seed=5,
                                sweep_mode=sweep_mode)
    if kind == "bm":
        return ClockBitmap(n=512, s=s, window=window, seed=5,
                           sweep_mode=sweep_mode)
    if kind == "cm":
        return ClockCountMin(width=256, depth=3, s=s, window=window, seed=5,
                             sweep_mode=sweep_mode)
    if kind == "ts":
        return ClockTimeSpanSketch(n=512, k=3, s=s, window=window, seed=5,
                                   sweep_mode=sweep_mode)
    raise ValueError(kind)


def log_expiries(sketch):
    """Chain an expiry recorder onto the clock's on_expire hook."""
    log = []
    previous = sketch.clock.on_expire

    def hook(cells):
        log.append(np.sort(np.asarray(cells, dtype=np.int64)).tolist())
        if previous is not None:
            previous(cells)

    sketch.clock.on_expire = hook
    return log


def drive(kind: str, s: int, sweep_mode: str):
    """Run one deterministic mixed-batch stream on the current kernels."""
    sketch = build(kind, s, sweep_mode)
    expiries = log_expiries(sketch)
    rng = np.random.default_rng(1234)
    for size in BATCH_PLAN:
        keys = rng.integers(0, 300, size=size)
        if size == 3:  # sprinkle the scalar path between batches
            for key in keys:
                sketch.insert(int(key))
        else:
            sketch.insert_many(keys)
    return sketch, expiries, answers_of(kind, sketch,
                                        rng.integers(0, 400, size=64))


def answers_of(kind: str, sketch, query_keys):
    """The sketch's answers for ``query_keys``, as plain lists."""
    if kind == "bm":
        return (sketch.query_many(query_keys).tolist(),
                float(sketch.estimate()))
    if kind == "ts":
        res = sketch.query_many(query_keys)
        return (np.nan_to_num(res.span, nan=-1.0).tolist(),)
    if kind == "cm":
        return (np.asarray(sketch.query_many(query_keys)).tolist(),)
    return (sketch.query_many(query_keys).tolist(),)


def primitives(kind: str, s: int, sweep_mode: str, reference: bool):
    """The kernels one ``drive`` must run, by name."""
    ran = set()
    if sweep_mode != "deferred":
        # Exact modes finish large batches in closed form; the numpy
        # finisher counts sweep hits and decays the clock through the
        # sweep kernels (the plan's 300-item batch spans more than a
        # full circle at every width), the loop reference walks them.
        ran.add(FUSE[kind])
        if not reference:
            ran |= {"sweep_hits", "snapshot_values", "sweep", "decay_all",
                    "decrement_range"}
    if sweep_mode != "scalar":
        # The clock sweeps through the vector kernels; a sweep spanning
        # a full circle of cells (s=16, or a deferred catch-up) decays
        # every cell at once.
        ran |= {"sweep", "decrement_range"}
        if sweep_mode == "deferred" or s == 16:
            ran.add("decay_all")
    return ran


def state_of(sketch):
    st = {
        "dtype": str(sketch.clock.values.dtype),
        "values": sketch.clock.values.tobytes(),
        "steps": sketch.clock.steps_done,
        "now": sketch.now,
        "items": sketch.items_inserted,
        "cleaned": sketch.clock._cells_cleaned_total,
    }
    timestamps = getattr(sketch, "timestamps", None)
    if timestamps is not None:
        st["timestamps"] = timestamps.tobytes()
    counters = getattr(sketch, "counters", None)
    if counters is not None:
        st["counters"] = counters.tobytes()
    return st


def kernels_for(implementation, loop_kernels):
    """The context an implementation name runs under."""
    return loop_kernels() if implementation == "python" else nullcontext()


class TestBackendParity:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("sweep_mode", SWEEP_MODES)
    @pytest.mark.parametrize("s", S_VALUES)
    def test_bit_identical_state_and_side_effects(self, kind, sweep_mode, s,
                                                  numpy_kernels,
                                                  loop_kernels):
        with numpy_kernels() as numpy_calls:
            ref_sketch, ref_expiries, ref_answers = drive(kind, s, sweep_mode)
        with loop_kernels() as calls:
            sketch, expiries, answers = drive(kind, s, sweep_mode)
        case = (kind, sweep_mode, s)
        assert set(numpy_calls) == primitives(kind, s, sweep_mode, False), case
        assert set(calls) == primitives(kind, s, sweep_mode, True), case
        assert state_of(sketch) == state_of(ref_sketch), case
        assert expiries == ref_expiries, case
        assert answers == ref_answers, case

    @pytest.mark.parametrize("backend", IMPLEMENTATIONS)
    def test_merge_identity_under_every_backend(self, backend,
                                                loop_kernels):
        # BF/BM merge (element-wise max) must commute with the kernels:
        # the union built on either implementation equals the numpy one.
        def union():
            left = build("bf", 2, "vector")
            right = build("bf", 2, "vector")
            rng = np.random.default_rng(7)
            # Equal item counts keep the count-windowed clocks (and
            # their cleaning pointers) aligned, as merge requires.
            left.insert_many(rng.integers(0, 100, size=150))
            right.insert_many(rng.integers(100, 200, size=150))
            left.merge(right)
            return left.clock.values.copy()

        with kernels_for(backend, loop_kernels):
            merged = union()
        assert np.array_equal(merged, union())

    @pytest.mark.parametrize("backend", IMPLEMENTATIONS)
    def test_timespan_never_underestimates(self, backend, loop_kernels):
        with kernels_for(backend, loop_kernels):
            ts = build("ts", 8, "vector")
            keys = np.repeat(np.arange(10, dtype=np.int64), 10)
            ts.insert_many(keys, times=None)
            for key in range(10):
                first = np.flatnonzero(keys == key)[0] + 1.0
                last = np.flatnonzero(keys == key)[-1] + 1.0
                span = ts.query(int(key)).span
                assert span >= last - first


#: The cell widths of the window-split cases: ``max_value`` 15.
SPLIT_S = 4

#: Sweep steps ``d`` of each window-split case's last batch, from the
#: clock's cells ``n`` and cell maximum; the batch before it leaves the
#: cleaning pointer 20 cells before the end of the circle.
SPLIT_STEPS = {
    "wraps": lambda n, top: n // 4,               # d < n, past cell n - 1
    "rounds": lambda n, top: 5 * n // 2,          # n <= d < top * n
    "saturates": lambda n, top: (top + 1) * n + 7,  # d >= top * n
}

#: The re-touched key of the ``retouch`` case (outside the other keys).
RETOUCHED = 1000


def split_times(sketch, steps):
    """Arrival times at which ``sketch``'s clock reaches ``steps``."""
    clock = sketch.clock
    rate = clock.n * clock.circles_per_window / WINDOW
    return (np.asarray(steps, dtype=np.int64) + 0.5) / rate


def drive_split(kind: str, case: str):
    """One time-window stream whose last fused batch is ``case``.

    Returns the sketch, its expiry log, its answers and the last
    batch's sweep steps and their split ``(start cell, d)``.
    """
    sketch = build(kind, SPLIT_S, "vector", time_window(WINDOW))
    expiries = log_expiries(sketch)
    clock = sketch.clock
    n, top = clock.n, clock.max_value
    rng = np.random.default_rng(99)
    # Nearly every cell live, so a sweep slice off by one cell shows.
    first = np.linspace(1, 2 * n - 20, 1024).round()
    sketch.insert_many(rng.integers(0, 4000, size=1024),
                       times=split_times(sketch, first))
    start = clock.steps_done
    if case == "retouch":
        # The key, then others early on; nothing for long enough that
        # every cell expires; then the key twice more, so its second
        # touch finds its cells empty again.
        gap = (top + 1) * n
        keys = np.r_[RETOUCHED, rng.integers(0, 300, size=20),
                     RETOUCHED, RETOUCHED]
        steps = np.r_[start + 1, np.linspace(start + 2, start + 40, 20),
                      start + gap, start + gap + 5].round()
    else:
        keys = rng.integers(0, 300, size=32)
        steps = np.linspace(start, start + SPLIT_STEPS[case](n, top),
                            32).round()
    sketch.insert_many(keys, times=split_times(sketch, steps))
    query_keys = np.r_[np.arange(300), RETOUCHED]
    return (sketch, expiries, answers_of(kind, sketch, query_keys),
            (start % n, clock.steps_done - start))


class TestWindowSplit:
    """The fused finishers' sweep, split at the window's edges.

    Each case's last batch is fused; its sweep decays the whole clock
    by the full rounds and the partial circle by one or two slices.
    """

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("case", [*SPLIT_STEPS, "retouch"])
    def test_bit_identical_across_the_split(self, kind, case, numpy_kernels,
                                            loop_kernels):
        with numpy_kernels() as numpy_calls:
            ref, ref_expiries, ref_answers, (start, d) = drive_split(kind,
                                                                     case)
        with loop_kernels() as calls:
            sketch, expiries, answers, _ = drive_split(kind, case)
        n, top = ref.clock.n, ref.clock.max_value
        assert {"wraps": start + d > n and d < n,
                "rounds": n <= d < top * n,
                "saturates": d >= top * n,
                "retouch": d >= top * n}[case], (start, d)
        assert numpy_calls[FUSE[kind]] == calls[FUSE[kind]] == 2
        assert state_of(sketch) == state_of(ref)
        assert expiries == ref_expiries
        assert answers == ref_answers

    @pytest.mark.parametrize("backend", IMPLEMENTATIONS)
    def test_a_retouch_after_expiry_restarts_the_batch(self, backend,
                                                       loop_kernels):
        with kernels_for(backend, loop_kernels):
            ts = drive_split("ts", "retouch")[0]
            cm = drive_split("cm", "retouch")[0]
        # The time-span stamp resets to the second touch; the Count-Min
        # counters restart there, so the first touch is not counted.
        second_touch = split_times(ts, [ts.clock.steps_done - 5])[0]
        assert ts.query(RETOUCHED).begin == second_touch
        assert cm.query(RETOUCHED) == 2


class TestSerializeAgnosticism:
    @pytest.mark.parametrize("save_backend", IMPLEMENTATIONS)
    def test_round_trip_lands_on_the_restoring_default(self, save_backend,
                                                       loop_kernels):
        # A sketch saved from either implementation restores on the
        # numpy kernels with identical state and keeps working.
        rng = np.random.default_rng(3)
        with kernels_for(save_backend, loop_kernels):
            ts = build("ts", 8, "vector")
            ts.insert_many(rng.integers(0, 80, size=200))
            payload = dumps_sketch(ts)
            saved = state_of(ts)
        restored = loads_sketch(payload)
        assert state_of(restored) == saved
        restored.insert_many(rng.integers(0, 80, size=50))



def _defined_functions(code):
    """Names of every function, method and class whose body ``code`` holds."""
    for const in code.co_consts:
        if isinstance(const, CodeType):
            yield const.co_name
            yield from _defined_functions(const)


class TestOneImplementation:
    def test_no_module_outside_kernels_forks_or_binds_a_primitive(self):
        kernels = [getattr(numpy_backend, name)
                   for name in numpy_backend.__all__]
        found = []
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if info.name.startswith("repro.kernels") \
                    or info.name.rsplit(".", 1)[-1] == "__main__":
                continue
            module = importlib.import_module(info.name)
            found += [f"{info.name}: binds {name}"
                      for name, value in vars(module).items()
                      if any(value is kernel for kernel in kernels)]
            code = module.__spec__.loader.get_code(info.name)
            found += [f"{info.name}: defines {name}"
                      for name in _defined_functions(code)
                      if name in numpy_backend.__all__]
        assert found == []
