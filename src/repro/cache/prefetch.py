"""Prefetching from periodical item batches (paper §1.1, case 1).

"By observing the starting time and time span of each item batch, we
are able to find item batches with periodical patterns. Therefore,
prefetching an item from a periodical item batch into the cache can
realize cache hit for all items in this item batch."

Two pieces:

- :class:`PeriodicityDetector` — watches batch *starts* (via a
  BF+clock: a batch starts when an arriving item's batch was inactive)
  and keeps a short history of start times per key, flagging keys whose
  inter-batch gaps are stable (low relative spread). Memory is bounded
  by tracking at most ``max_tracked`` keys, evicting the stalest.
- :class:`PrefetchingCache` — a cache that, on every access, asks the
  detector which keys are due within a lookahead horizon and inserts
  them ahead of demand; the first access of each predicted batch then
  hits instead of missing.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..core.activeness import ClockBloomFilter
from ..errors import ConfigurationError
from ..timebase import WindowSpec
from .policies import LRUCache

__all__ = ["PeriodicityDetector", "PrefetchingCache"]


class PeriodicityDetector:
    """Finds keys whose batches recur on a stable period.

    Parameters
    ----------
    window:
        The batch threshold ``T`` (batch starts are detected with a
        BF+clock under this window).
    history:
        Batch start times kept per key (the period needs >= 3).
    tolerance:
        Maximum relative spread (max gap / min gap - 1) for the gaps to
        count as periodic.
    max_tracked:
        Bound on per-key history entries kept (stalest evicted).
    """

    def __init__(self, window: WindowSpec, history: int = 4,
                 tolerance: float = 0.25, max_tracked: int = 4096,
                 memory="8KB", seed: int = 0):
        if history < 3:
            raise ConfigurationError("history must be >= 3 batch starts")
        if tolerance <= 0:
            raise ConfigurationError("tolerance must be positive")
        self.window = window
        self.history = int(history)
        self.tolerance = float(tolerance)
        self.max_tracked = int(max_tracked)
        self.active = ClockBloomFilter.from_memory(memory, window, seed=seed)
        self._starts: "dict[object, deque]" = {}
        #: Each tracked key's period, recomputed only when its starts
        #: change (the only time it can): ``due_keys`` reads every
        #: tracked key on every check.
        self._periods: "dict[object, float | None]" = {}
        self._clock = 0.0

    def observe(self, key, t=None) -> None:
        """Feed one access; records a batch start when one begins."""
        starts_batch = not self.active.contains(key, t)
        self.active.insert(key, t)
        now = self.active.now
        self._clock = now
        if not starts_batch:
            return
        starts = self._starts.get(key)
        if starts is None:
            if len(self._starts) >= self.max_tracked:
                self._evict_stalest()
            starts = deque(maxlen=self.history)
            self._starts[key] = starts
        starts.append(now)
        self._periods[key] = self._period_of(starts)

    def _evict_stalest(self) -> None:
        stalest = min(self._starts, key=lambda k: self._starts[k][-1])
        del self._starts[stalest]
        del self._periods[stalest]

    def period(self, key) -> "float | None":
        """The key's batch period, or None when not periodic (yet)."""
        return self._periods.get(key)

    def _period_of(self, starts: deque) -> "float | None":
        if len(starts) < 3:
            return None
        gaps = np.diff(np.asarray(starts, dtype=np.float64))
        low, high = float(gaps.min()), float(gaps.max())
        if low <= 0 or high / low - 1.0 > self.tolerance:
            return None
        return float(gaps.mean())

    def periodic_keys(self) -> list:
        """All keys currently classified as periodic."""
        return [key for key in self._starts if self.period(key) is not None]

    def due_keys(self, lookahead: float, limit: "int | None" = None) -> list:
        """Keys whose next batch is predicted within ``lookahead``.

        A key is due when ``next_start = last_start + period`` falls in
        ``(now, now + lookahead]`` — slightly-late predictions (up to
        half a period) are included so jitter does not starve them.
        Results are ordered most-imminent first; ``limit`` truncates,
        which callers with small caches use to avoid prefetch thrash.
        """
        due = []
        now = self._clock
        for key, starts in self._starts.items():
            period = self._periods[key]
            if period is None:
                continue
            next_start = starts[-1] + period
            if now - period / 2 <= next_start <= now + lookahead:
                due.append((next_start, key))
        due.sort()
        keys = [key for _start, key in due]
        return keys if limit is None else keys[:limit]


class PrefetchingCache:
    """A cache that prefetches predicted periodic batches.

    Wraps an inner cache (LRU by default); on every access it also asks
    the :class:`PeriodicityDetector` which keys are due within
    ``lookahead`` and warms them. Prefetch insertions do not count as
    demand accesses in the hit statistics.
    """

    def __init__(self, capacity: int, window: WindowSpec,
                 lookahead: "float | None" = None, detector=None,
                 inner=None, check_interval: int = 16, seed: int = 0):
        self.inner = inner if inner is not None else LRUCache(capacity)
        self.detector = (detector if detector is not None
                         else PeriodicityDetector(window, seed=seed))
        self.lookahead = (lookahead if lookahead is not None
                          else window.length)
        # Scanning the tracked keys on every access would be O(keys)
        # per item; amortise by scanning once per `check_interval`
        # accesses (the lookahead horizon absorbs the delay).
        self.check_interval = max(1, int(check_interval))
        # Warming more keys than a fraction of the cache per scan would
        # evict the prefetches (and the demand set) before they pay off.
        self.prefetch_budget = max(1, capacity // 4)
        self.prefetches = 0
        self._since_check = 0

    def __len__(self) -> int:
        return len(self.inner)

    def access(self, key) -> bool:
        """Demand access: returns True on a hit, then prefetches."""
        hit = self.inner.access(key)
        self.detector.observe(key)
        self._since_check += 1
        if self._since_check >= self.check_interval:
            self._since_check = 0
            resident = self.inner.contents()
            for due in self.detector.due_keys(self.lookahead,
                                              limit=self.prefetch_budget):
                if due not in resident:
                    self.inner.access(due)  # warm it; miss not counted
                    self.prefetches += 1
        return hit

    def contents(self) -> set:
        """The set of resident keys."""
        return self.inner.contents()
