"""Fixed-size overwriting ring buffers: the sweep trace and a locked ring.

Every cleaning sweep emits one event — wall-clock timestamp, pointer
position after the sweep, number of cells cleaned, and steps executed —
into pre-allocated parallel columns. Pushing is an index write (no
allocation, no list growth); when the ring is full the oldest events
are overwritten, so a long run keeps only the most recent ``capacity``
sweeps. The columns are plain Python lists, not numpy arrays: a push
happens on the instrumented hot path, and four list item writes are an
order of magnitude cheaper than four numpy scalar stores. Tests and
the bench harness read the events back in chronological order via
:meth:`SweepTraceRing.events` (or as numpy arrays via
:meth:`SweepTraceRing.arrays`, converted on demand).

:class:`LockedRing` holds whole objects instead (structured events,
finished spans): those are orders of magnitude rarer than sweeps but
arrive from many threads at once, so its pushes are serialised.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError

__all__ = ["SweepTraceRing", "SweepEvent", "LockedRing"]

#: One decoded trace event (plain dict keys, JSON-friendly).
SweepEvent = Dict[str, float]


class SweepTraceRing:
    """Overwriting ring of the most recent ``capacity`` sweep events."""

    def __init__(self, capacity: int = 1024):
        if capacity < 1:
            raise ConfigurationError(
                f"ring capacity must be >= 1, got {capacity}"
            )
        self.capacity = int(capacity)
        self._time = [0.0] * self.capacity
        self._pointer = [0] * self.capacity
        self._cleaned = [0] * self.capacity
        self._steps = [0] * self.capacity
        self._next = 0
        self._total = 0

    def push(self, time: float, pointer: int, cleaned: int, steps: int) -> None:
        """Record one sweep event, overwriting the oldest when full."""
        i = self._next
        self._time[i] = time
        self._pointer[i] = pointer
        self._cleaned[i] = cleaned
        self._steps[i] = steps
        self._next = (i + 1) % self.capacity
        self._total += 1

    def __len__(self) -> int:
        """Events currently held (≤ capacity)."""
        return min(self._total, self.capacity)

    @property
    def total_pushed(self) -> int:
        """Events ever pushed, including those already overwritten."""
        return self._total

    def _order(self) -> "List[int]":
        size = len(self)
        if self._total <= self.capacity:
            return list(range(size))
        # Full and wrapped: oldest surviving event sits at _next.
        return [(i + self._next) % self.capacity for i in range(size)]

    def arrays(self) -> "Dict[str, np.ndarray]":
        """Chronological copies of the event columns as numpy arrays."""
        order = self._order()
        return {
            "time": np.array([self._time[i] for i in order],
                             dtype=np.float64),
            "pointer": np.array([self._pointer[i] for i in order],
                                dtype=np.int64),
            "cleaned": np.array([self._cleaned[i] for i in order],
                                dtype=np.int64),
            "steps": np.array([self._steps[i] for i in order],
                              dtype=np.int64),
        }

    def events(self) -> "List[SweepEvent]":
        """Chronological list of events as plain dicts."""
        return [
            {
                "time": float(self._time[i]),
                "pointer": int(self._pointer[i]),
                "cleaned": int(self._cleaned[i]),
                "steps": int(self._steps[i]),
            }
            for i in self._order()
        ]

    def clear(self) -> None:
        """Drop all events (buffers stay allocated)."""
        self._next = 0
        self._total = 0

    def __repr__(self) -> str:
        return (
            f"SweepTraceRing(capacity={self.capacity}, "
            f"held={len(self)}, total_pushed={self._total})"
        )


class LockedRing:
    """Thread-safe overwriting ring of the most recent ``capacity`` entries.

    Same semantics as :class:`SweepTraceRing` — pushes overwrite the
    oldest entry once full, ``total_pushed`` keeps counting, read-back
    is chronological — but pushes may come from many threads (engine
    threads, lock waiters, the auditor, the ack-absorbing parent), so
    every push and read holds the lock. Lost or torn records would show
    up as gaps or inversions in :meth:`numbered`.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ConfigurationError(
                f"ring capacity must be >= 1, got {capacity}"
            )
        self.capacity = int(capacity)
        self._entries: "List[Optional[Any]]" = [None] * self.capacity
        self._next = 0
        self._total = 0
        self._lock = threading.Lock()

    def push(self, entry: Any) -> None:
        """Record one entry, overwriting the oldest when full."""
        with self._lock:
            i = self._next
            self._entries[i] = entry
            self._next = (i + 1) % self.capacity
            self._total += 1

    def __len__(self) -> int:
        """Entries currently held (≤ capacity)."""
        return min(self._total, self.capacity)

    @property
    def total_pushed(self) -> int:
        """Entries ever pushed, including those already overwritten."""
        return self._total

    def numbered(self) -> "List[Tuple[int, Any]]":
        """Chronological ``(seq, entry)`` pairs, ``seq`` being the
        entry's push index (0 for the first entry ever pushed)."""
        with self._lock:
            size = min(self._total, self.capacity)
            start = self._next if self._total > self.capacity else 0
            first = self._total - size
            return [(first + i, self._entries[(start + i) % self.capacity])
                    for i in range(size)]

    def entries(self) -> "List[Any]":
        """The held entries, oldest first."""
        return [entry for _seq, entry in self.numbered()]

    def clear(self) -> None:
        """Drop all entries (buffer stays allocated)."""
        with self._lock:
            self._entries = [None] * self.capacity
            self._next = 0
            self._total = 0

    def __repr__(self) -> str:
        return (f"LockedRing(capacity={self.capacity}, held={len(self)}, "
                f"total_pushed={self._total})")
