"""APT detection (paper §1.1, case 3).

"APT features in small size per batch, long time gap between every two
batches, and a large number of batches in total." The detector tracks
three signals per flow, all sketch-based:

- batch activeness (BF+clock) to notice when a new batch *starts*;
- batch size (CM+clock) to check batches stay small;
- a plain (unclocked) Count-Min of how many batches each flow has
  started over the stream's lifetime.

A flow becomes suspicious when its lifetime batch count crosses
``min_batches`` while its current batch size has never exceeded
``max_batch_size``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.activeness import ClockBloomFilter
from ..core.size import ClockCountMin
from ..hashing import IndexDeriver
from ..timebase import WindowSpec

__all__ = ["AptDetector", "SuspiciousFlow"]


class _PlainCountMin:
    """A minimal unclocked Count-Min used for lifetime batch counts."""

    def __init__(self, width: int, depth: int, seed: int):
        import numpy as np
        self.width = width
        self.depth = depth
        self.counters = np.zeros(width * depth, dtype=np.int64)
        self.deriver = IndexDeriver(
            n=width, k=1, seed=tuple(seed + 7919 * row for row in range(depth)))

    def add(self, item) -> None:
        # One cell per row: the cells are distinct.
        self.counters[self.deriver.indexes(item)] += 1

    def query(self, item) -> int:
        return int(self.counters[self.deriver.indexes(item)].min())


@dataclass(frozen=True)
class SuspiciousFlow:
    """A flow flagged as a potential APT channel."""

    key: object
    time: float
    batches: int
    last_batch_size: int


class AptDetector:
    """Flags low-and-slow flows: many small batches over a long period.

    Examples
    --------
    >>> from repro.timebase import count_window
    >>> det = AptDetector(count_window(4), min_batches=3, max_batch_size=2)
    >>> flagged = []
    >>> for _ in range(3):                   # 3 separate tiny batches
    ...     flagged += det.observe("c2-host")
    ...     for filler in range(6):          # gap > T of other traffic
    ...         _ = det.observe(f"bg-{filler}")
    >>> [f.key for f in flagged]
    ['c2-host']
    """

    def __init__(self, window: WindowSpec, min_batches: int = 5,
                 max_batch_size: int = 4, memory="16KB", seed: int = 0):
        self.window = window
        self.min_batches = int(min_batches)
        self.max_batch_size = int(max_batch_size)
        self.active = ClockBloomFilter.from_memory(memory, window, seed=seed)
        self.size_sketch = ClockCountMin.from_memory(memory, window,
                                                     seed=seed + 1)
        self.batch_counts = _PlainCountMin(width=2048, depth=3, seed=seed + 2)
        self._flagged: set = set()
        self._oversized: set = set()

    def observe(self, key, t=None) -> "list[SuspiciousFlow]":
        """Feed one packet; returns newly-flagged flows (0 or 1)."""
        starts_batch = not self.active.contains(key, t)
        self.active.insert(key, t)
        self.size_sketch.insert(key, t)
        if starts_batch:
            self.batch_counts.add(key)
        size = self.size_sketch.query(key)
        if size > self.max_batch_size:
            # A fat batch disqualifies the flow from the low-and-slow
            # profile permanently — otherwise every chunky flow would
            # look small again at the first packet of its next batch.
            # CM+clock only overestimates, so under heavy collisions
            # this errs toward missing, never toward false alarms; size
            # the sketch memory for the expected load.
            self._oversized.add(key)
            return []
        batches = self.batch_counts.query(key)
        eligible = (
            batches >= self.min_batches
            and key not in self._flagged
            and key not in self._oversized
        )
        if not eligible:
            return []
        self._flagged.add(key)
        return [SuspiciousFlow(key=key, time=self.active.now,
                               batches=batches, last_batch_size=size)]

    def flagged_flows(self) -> set:
        """All flows flagged so far."""
        return set(self._flagged)
