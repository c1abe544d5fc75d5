"""Shared fixtures for the test suite."""

import os
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from repro.kernels import loops, numpy_backend
from repro.qa import sanitizer
from repro.timebase import count_window, time_window

# The lint fixture corpus is deliberately full of violations (and one
# file of deliberate syntax errors); it is test *data*, not tests.
collect_ignore_glob = ["qa_fixtures/*"]


@pytest.fixture(scope="session", autouse=True)
def _repro_sanitizer():
    """Run the whole suite under the invariant sanitizer when asked.

    ``REPRO_SANITIZE=1 python -m pytest`` patches every ClockArray and
    sketch with runtime invariant checks for the session (see
    ``docs/qa.md``); without the flag this fixture is a no-op.
    """
    if not sanitizer.enabled():
        yield
        return
    sanitizer.install()
    try:
        yield
    finally:
        sanitizer.uninstall()


@contextmanager
def _counted_kernels(reference):
    """Count every call to a :mod:`repro.kernels.numpy_backend` primitive.

    Each primitive in the module's ``__all__`` is replaced on the module,
    which every call site reaches as a module attribute, by a counting
    wrapper. With ``reference`` the wrapper calls the namesake in
    :mod:`repro.kernels.loops` where there is one, else the numpy kernel.
    Yields a :class:`~collections.Counter` of calls per primitive, so a
    test can prove which kernels really ran.
    """
    calls = Counter()

    def counted(name):
        kernel = getattr(loops if reference and name in loops.__all__
                         else numpy_backend, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return kernel(*args, **kwargs)
        return call

    with pytest.MonkeyPatch.context() as patch:
        for name in numpy_backend.__all__:
            patch.setattr(numpy_backend, name, counted(name))
        yield calls


@pytest.fixture
def loop_kernels():
    """``with loop_kernels() as calls:`` runs on the loop reference."""
    return lambda: _counted_kernels(reference=True)


@pytest.fixture
def numpy_kernels():
    """``with numpy_kernels() as calls:`` counts the numpy kernels' calls."""
    return lambda: _counted_kernels(reference=False)


def _os_children():
    """Pids of every live (not zombie) process whose parent is this one."""
    me = os.getpid()
    children = set()
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == me and fields[0] != "Z":
            children.add(int(stat.parent.name))
    return children


@pytest.fixture
def os_children():
    """``os_children()`` lists this process's live children from /proc."""
    return _os_children


class FakeClock:
    """A monotonic time source the test drives by hand.

    Each read first adds ``tick`` (so deadline polls always make
    progress) and returns the current time; :meth:`advance` steps it
    forward. Negative ticks and steps are refused: a mock clock that
    can move backwards produces states no real monotonic clock can.
    """

    def __init__(self, start=0.0, tick=0.0):
        if tick < 0:
            raise ValueError(f"tick must be non-negative, got {tick}")
        self.t = float(start)
        self.tick = float(tick)

    def __call__(self):
        self.t += self.tick
        return self.t

    def advance(self, seconds):
        if seconds < 0:
            raise ValueError(f"clock step must be non-negative, got {seconds}")
        self.t += seconds


@pytest.fixture
def fake_clock():
    """The :class:`FakeClock` factory: ``fake_clock(start=, tick=)``."""
    return FakeClock


def _scalar_insert_loop(kind, keys, times=None, **config):
    """A ``kind`` fed ``keys`` by one ``insert`` per item on the scalar
    sweep: the reference the whole-stream ``insert_many`` path is held to."""
    sketch = kind(sweep_mode="scalar", **config)
    if times is None:
        for key in keys:
            sketch.insert(int(key))
    else:
        for key, t in zip(keys, times):
            sketch.insert(int(key), float(t))
    return sketch


@pytest.fixture(scope="session")
def scalar_reference():
    """``scalar_reference(kind, keys, times=None, **config)``: the
    per-item ``insert`` loop on the scalar sweep (session-scoped, so
    hypothesis tests may take it)."""
    return _scalar_insert_loop


@pytest.fixture
def small_count_window():
    """A small count-based window for unit tests."""
    return count_window(64)


@pytest.fixture
def small_time_window():
    """A small time-based window for unit tests."""
    return time_window(64.0)


@pytest.fixture
def rng():
    """A deterministic random generator."""
    return np.random.default_rng(12345)


@pytest.fixture
def batchy_keys(rng):
    """A key stream with explicit batch structure: runs of repeats.

    Keys appear in bursts of 3-8 consecutive occurrences with other
    keys interleaved, giving every structure real batches to chew on.
    """
    keys = []
    while len(keys) < 2000:
        key = int(rng.integers(0, 120))
        run = int(rng.integers(3, 9))
        keys.extend([key] * run)
    return np.asarray(keys[:2000], dtype=np.int64)
