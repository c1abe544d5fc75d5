"""Exact ground truth for item batch measurements.

:class:`BatchTracker` maintains, per key, the state of the *current*
batch (start time, last occurrence, size) and answers the four
measurement questions exactly. The library-wide batch convention is:

- an occurrence at ``t`` **extends** the current batch iff
  ``t - last < T`` (otherwise it starts a new batch), and
- a batch is **active** at ``now`` iff ``now - last < T``.

The two conditions use the same strict inequality, so a batch is active
precisely while a new occurrence would still extend it. This matches
the clock guarantee: cells written at ``t`` provably survive every
query with ``now - t < T``.

The module also provides vectorised whole-stream helpers used by the
accuracy experiments, which must classify hundreds of thousands of keys
as active/inactive at a query instant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError, TimeError
from ..timebase import WindowSpec


@dataclass
class BatchState:
    """Per-key state of the current (most recent) batch."""

    start: float
    last: float
    size: int
    batches_seen: int


class BatchTracker:
    """Exact online tracker of item batches under a window ``T``.

    Examples
    --------
    >>> from repro.timebase import count_window
    >>> gt = BatchTracker(count_window(3))
    >>> for key in ["a", "a", "b", "a"]:
    ...     gt.observe(key)
    >>> gt.is_active("a")
    True
    >>> gt.size("a")
    3
    """

    def __init__(self, window: WindowSpec):
        self.window = window
        self._states: "dict[object, BatchState]" = {}
        self._items = 0
        self._now = 0.0

    @property
    def now(self) -> float:
        """Latest stream time observed."""
        return self._now

    def observe(self, key, t=None) -> None:
        """Record an occurrence of ``key``."""
        self.observe_many([key], None if t is None else [t])

    def observe_many(self, keys, times=None) -> None:
        """Record occurrences of ``keys`` in order, all or none.

        ``times`` aligns with ``keys`` (``None`` for a count-based
        window). The whole batch is checked before any key is applied,
        so a batch whose times move backwards raises
        :class:`~repro.errors.TimeError` and changes nothing. Plain
        Python lists (from ``ndarray.tolist()``) are the fast input.
        """
        if self.window.is_count_based:
            if times is not None:
                raise TimeError("count-based tracker takes no timestamps")
            times = [float(i) for i in
                     range(self._items + 1, self._items + len(keys) + 1)]
        else:
            if times is None:
                raise TimeError("time-based tracker requires timestamps")
            if len(times) != len(keys):
                raise ConfigurationError(
                    f"{len(times)} times for {len(keys)} keys")
            previous = self._now
            for t in times:
                if t < previous:
                    raise TimeError(
                        f"time moved backwards: {t} < {previous}")
                previous = t
        states = self._states
        length = self.window.length
        now = self._now
        for key, t in zip(keys, times):
            now = float(t)
            state = states.get(key)
            if state is None:
                states[key] = BatchState(start=now, last=now, size=1,
                                         batches_seen=1)
            elif now - state.last < length:
                state.last = now
                state.size += 1
            else:
                states[key] = BatchState(start=now, last=now, size=1,
                                         batches_seen=state.batches_seen + 1)
        self._items += len(keys)
        self._now = now

    def observe_stream(self, stream) -> None:
        """Feed a whole :class:`~repro.streams.model.Stream`."""
        times = None if self.window.is_count_based or stream.times is None \
            else stream.times.tolist()
        self.observe_many(stream.keys.tolist(), times)

    # ------------------------------------------------------------------
    # Queries (all take an optional explicit "now")
    # ------------------------------------------------------------------

    def _resolve_now(self, now) -> float:
        return self._now if now is None else float(now)

    def is_active(self, key, now=None) -> bool:
        """Is the key's batch active at ``now``?"""
        state = self._states.get(key)
        if state is None:
            return False
        return self.window.contains(state.last, self._resolve_now(now))

    def span(self, key, now=None) -> "float | None":
        """Time since the batch started, or None when inactive."""
        state = self._states.get(key)
        now = self._resolve_now(now)
        if state is None or not self.window.contains(state.last, now):
            return None
        return now - state.start

    def size(self, key, now=None) -> "int | None":
        """Items in the active batch, or None when inactive."""
        state = self._states.get(key)
        if state is None or not self.window.contains(state.last, self._resolve_now(now)):
            return None
        return state.size

    def active_cardinality(self, now=None) -> int:
        """Number of active item batches (distinct active keys)."""
        now = self._resolve_now(now)
        contains = self.window.contains
        return sum(1 for state in self._states.values() if contains(state.last, now))

    def active_keys(self, now=None) -> list:
        """All keys whose batch is active at ``now``."""
        now = self._resolve_now(now)
        contains = self.window.contains
        return [k for k, st in self._states.items() if contains(st.last, now)]

    def inactive_seen_keys(self, now=None) -> list:
        """Keys seen before whose batches are now inactive.

        This is the paper's FPR query set: querying these, every
        positive answer is a false positive.
        """
        now = self._resolve_now(now)
        contains = self.window.contains
        return [k for k, st in self._states.items() if not contains(st.last, now)]

    def partition_keys(self, now=None, residual: float = 0.0):
        """Three-way key split: ``(active, residual, stale)`` at ``now``.

        ``active`` keys have a live batch (``now - last < T``).
        ``residual`` keys expired within the trailing ``residual``
        stretch (``T <= now - last < T + residual``) — with ``residual``
        set to the clock's error-window length ``T/(2^s - 2)``, these
        are the keys a correct sketch may *legitimately* still report
        active. ``stale`` keys expired before that: every positive
        answer on them is a genuine false positive. The accuracy
        auditor measures FP rates on the stale set only.
        """
        now = self._resolve_now(now)
        length = self.window.length
        active: list = []
        residual_keys: list = []
        stale: list = []
        for key, state in self._states.items():
            age = now - state.last
            if age < length:
                active.append(key)
            elif age < length + residual:
                residual_keys.append(key)
            else:
                stale.append(key)
        return active, residual_keys, stale

    def state(self, key) -> "BatchState | None":
        """The raw per-key batch state (None if never seen)."""
        return self._states.get(key)

    def keys_seen(self) -> int:
        """Number of distinct keys ever observed."""
        return len(self._states)


# ----------------------------------------------------------------------
# Vectorised whole-stream helpers
# ----------------------------------------------------------------------

def last_occurrences(keys: np.ndarray, times: np.ndarray):
    """Last occurrence time of every distinct key in a finished stream.

    Returns ``(unique_keys, last_times)`` aligned arrays.
    """
    keys = np.asarray(keys)
    times = np.asarray(times)
    unique, inverse = np.unique(keys, return_inverse=True)
    last = np.full(unique.shape, -np.inf, dtype=np.float64)
    np.maximum.at(last, inverse, times.astype(np.float64))
    return unique, last


def split_active_inactive(keys: np.ndarray, times: np.ndarray, now: float,
                          window: WindowSpec):
    """Partition a stream's distinct keys by activeness at ``now``.

    Returns ``(active_keys, inactive_keys)`` — the exact ground truth
    the FPR experiments need, computed vectorised.
    """
    unique, last = last_occurrences(keys, times)
    active_mask = (now - last) < window.length
    return unique[active_mask], unique[~active_mask]
