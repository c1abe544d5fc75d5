"""Running the cleaning pointer on a real background thread.

The paper's deployment runs insertion and cleaning on separate threads
("we use an additional thread to circularly scan the whole array").
The library's lazy cleaner reproduces the schedule deterministically
for analysis; this module provides the live equivalent for time-based
deployments where expiry must happen on the wall clock even when no
operations arrive:

- :class:`ThreadSafeSketch` — wraps any Clock-sketch with a lock so the
  cleaner and application threads can share it (pass ``lock=None`` to
  run unsynchronised, the paper's Table 3 configuration).
- :class:`BackgroundCleaner` — a daemon thread that periodically
  advances the sketch's clock to the current time: the stream clock
  first, as a timed query would, then the cells, so every later
  operation sees the tick as the current time. The time source is
  injectable, so tests (and simulations) can drive it deterministically.

>>> import time
>>> from repro import ClockBloomFilter, time_window
>>> sketch = ClockBloomFilter(n=256, k=2, s=2, window=time_window(10.0))
>>> shared = ThreadSafeSketch(sketch)
>>> with BackgroundCleaner(shared, interval=0.001) as cleaner:
...     shared.insert("x", t=cleaner.now())
...     shared.contains("x", t=cleaner.now())
True
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable

from .errors import ConfigurationError, TimeError
from .obs import names as _names
from .obs import runtime as _obs
from .obs import trace as _trace

__all__ = ["ThreadSafeSketch", "BackgroundCleaner"]

#: Immutable configuration safe to forward from the wrapper without the
#: lock. Everything else must go through a locked method (or the caller
#: reaches for ``.sketch`` explicitly, accepting the race).
_FORWARDED_CONFIG = frozenset({
    "window", "n", "k", "s", "seed", "width", "depth", "conservative",
    "counter_bits", "counter_max", "max_value", "memory_bits",
})


class ThreadSafeSketch:
    """A lock-guarded facade over any Clock-sketch structure.

    Exposes the wrapped sketch's ``insert`` / ``contains`` / ``query`` /
    ``estimate`` under one lock, plus :meth:`advance_clock` for the
    background cleaner. With ``lock=None`` every call runs unguarded —
    the unsynchronised mode whose accuracy cost Table 3 (and ablation
    A3) measures.
    """

    def __init__(self, sketch: Any,
                 lock: "threading.Lock | bool | None" = True) -> None:
        self.sketch = sketch
        self._lock: "threading.Lock | None"
        if lock is True:
            self._lock = threading.Lock()
        elif lock is None or lock is False:
            self._lock = None
        else:
            self._lock = lock

    def _guarded(self, fn: Callable[..., Any], *args: Any,
                 **kwargs: Any) -> Any:
        lock = self._lock
        if lock is None:
            return fn(*args, **kwargs)
        if _obs.ENABLED:
            # Distinguish contended acquisitions: a failed non-blocking
            # attempt means another thread holds the lock, so time the
            # blocking wait that follows.
            if lock.acquire(blocking=False):
                _obs.record_lock(0.0, contended=False)
            else:
                started = time.perf_counter()
                with _trace.span(_names.SPAN_LOCK_WAIT):
                    lock.acquire()
                _obs.record_lock(time.perf_counter() - started,
                                 contended=True)
            try:
                return fn(*args, **kwargs)
            finally:
                lock.release()
        with lock:
            return fn(*args, **kwargs)

    def insert(self, item: Any, t: "float | None" = None) -> Any:
        """Locked :meth:`insert` on the wrapped sketch."""
        return self._guarded(self.sketch.insert, item, t)

    def insert_many(self, items: Any, times: Any = None,
                    chunk_size: int = 4096) -> None:
        """Batch ingestion, locking once per ``chunk_size`` items.

        Same bit-identical semantics as the wrapped sketch's
        ``insert_many``, but the lock is taken per chunk rather than
        per item (or per whole batch), so a cleaner or reader thread
        can interleave between chunks of a large batch. Lock waits are
        published per chunk through the usual ``repro_lock_*`` series.
        """
        if chunk_size <= 0:
            raise ConfigurationError(
                f"chunk_size must be positive, got {chunk_size}")
        total = len(items)
        for pos in range(0, total, chunk_size):
            end = min(pos + chunk_size, total)
            chunk_times = None if times is None else times[pos:end]
            self._guarded(self.sketch.insert_many, items[pos:end],
                          chunk_times)

    def contains(self, item: Any, t: "float | None" = None) -> Any:
        """Locked :meth:`contains` (activeness sketches)."""
        return self._guarded(self.sketch.contains, item, t)

    def contains_many(self, items: Any, t: "float | None" = None) -> Any:
        """Locked bulk :meth:`contains_many` (activeness sketches)."""
        return self._guarded(self.sketch.contains_many, items, t)

    def query_many(self, items: Any, t: "float | None" = None) -> Any:
        """Locked bulk :meth:`query_many` on the wrapped sketch."""
        return self._guarded(self.sketch.query_many, items, t)

    def query(self, item: Any, t: "float | None" = None) -> Any:
        """Locked :meth:`query` (span/size sketches)."""
        return self._guarded(self.sketch.query, item, t)

    def estimate(self, t: "float | None" = None,
                 strict: bool = False) -> Any:
        """Locked :meth:`estimate` (cardinality sketches)."""
        return self._guarded(self.sketch.estimate, t, strict)

    def advance_clock(self, now: float) -> None:
        """Locked clock advance — the cleaner thread's entry point.

        Moves the sketch's stream clock to ``now`` first, as a timed
        query does, then cleans its cells up to it: default-time reads
        answer at the tick, and an insert behind the tick is refused
        before any state moves. Out-of-order ticks (the application
        advanced time past the cleaner's last view) are ignored rather
        than raised, matching a real free-running cleaner.
        """
        def _advance() -> None:
            if now > self.sketch.now:
                self.sketch.stream_clock.query(now)
                self.sketch.clock.advance(now)
        self._guarded(_advance)

    def __getattr__(self, name: str) -> Any:
        # Deliberately lock-free, but only for the closed set of
        # immutable configuration reads in _FORWARDED_CONFIG. Anything
        # that mutates or reads mutable state has an explicit locked
        # method above; everything else is an AttributeError so mutable
        # internals (clock, engine, deriver) cannot leak out unlocked.
        if name not in _FORWARDED_CONFIG:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute "
                f"{name!r}; mutable sketch state is only reachable "
                f"through the locked methods (or `.sketch` explicitly)")
        return getattr(self.sketch, name)


class BackgroundCleaner:
    """A daemon thread advancing a sketch's clock on the wall clock.

    Parameters
    ----------
    sketch:
        A :class:`ThreadSafeSketch` (or anything with ``advance_clock``
        and a time-based ``window``).
    interval:
        Seconds between cleaning ticks.
    time_source:
        Callable returning the current stream time; defaults to a
        monotonic wall clock starting at 1.0 (stream times must be
        positive). Inject a fake for deterministic tests.
    """

    def __init__(self, sketch: Any, interval: float = 0.01,
                 time_source: "Callable[[], float] | None" = None) -> None:
        if interval <= 0:
            raise ConfigurationError(f"interval must be positive, got {interval}")
        window = getattr(sketch, "window", None)
        if window is not None and window.is_count_based:
            raise ConfigurationError(
                "a wall-clock cleaner needs a time-based window; "
                "count-based sketches clean per insertion"
            )
        self.sketch = sketch
        self.interval = float(interval)
        if time_source is None:
            origin = time.monotonic()
            time_source = lambda: time.monotonic() - origin + 1.0  # noqa: E731
        self.now: "Callable[[], float]" = time_source
        self._stop = threading.Event()
        self._thread: "threading.Thread | None" = None
        self.ticks = 0

    def start(self) -> "BackgroundCleaner":
        """Start the cleaning thread (idempotent)."""
        if self._thread is not None:
            return self
        self._stop.clear()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="clock-sketch-cleaner")
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.sketch.advance_clock(self.now())
            except TimeError:
                # The application raced time forward; next tick catches up.
                pass
            self.ticks += 1

    def stop(self) -> None:
        """Stop the cleaning thread and join it."""
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None

    @property
    def running(self) -> bool:
        """Is the cleaner thread alive?"""
        return self._thread is not None and self._thread.is_alive()

    def __enter__(self) -> "BackgroundCleaner":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
