"""The "Ideal" curve: a Bloom filter with perfect expiry (§6.2).

The paper's ideal baseline "artificially eliminates the error window":
at query time only the items that truly arrived within ``(t - T, t]``
are in a plain Bloom filter of the full memory budget. Any remaining
false positives are pure hash collisions — the floor every
sliding-window filter is chasing.

The implementation keeps the exact window as a deque (the oracle) and a
*counting* shadow of the Bloom filter so expired items can be removed;
memory is accounted as the plain ``n``-bit filter, because the counters
are only the simulation device for the oracle's deletions.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..core.params import optimal_k_membership
from ..hashing import IndexDeriver
from ..timebase import WindowSpec
from ..units import parse_memory
from .base import KeyedBaseline

__all__ = ["IdealSlidingBloom"]


class IdealSlidingBloom(KeyedBaseline):
    """A Bloom filter over exactly the in-window items (oracle expiry).

    Examples
    --------
    >>> from repro.timebase import count_window
    >>> f = IdealSlidingBloom(n=512, k=4, window=count_window(2))
    >>> f.insert("a"); f.insert("b"); f.insert("c")
    >>> f.contains("a")  # expired: only the last 2 items are present
    False
    """

    _READS = ("counters",)

    def __init__(self, n: int, k: int, window: WindowSpec, seed: int = 0):
        super().__init__(window)
        self.k = int(k)
        self.counters = np.zeros(n, dtype=np.int32)
        self.deriver = IndexDeriver(n=n, k=k, seed=seed)
        self.seed = seed
        self._window_events: deque = deque()  # (time, index-row)

    @classmethod
    def from_memory(cls, memory, window: WindowSpec, k: "int | None" = None,
                    seed: int = 0) -> "IdealSlidingBloom":
        """Build the ideal filter for a budget of ``n`` 1-bit cells."""
        bits = parse_memory(memory)
        n = max(1, bits)  # one bit per cell
        if k is None:
            # Optimal k for the true load (no error window: s -> infinity
            # limit of the §5.1 formula is simply n ln2 / T).
            k = optimal_k_membership(n, window.length, s=30)
        return cls(n=n, k=k, window=window, seed=seed)

    @property
    def n(self) -> int:
        """Number of (bit) cells."""
        return len(self.counters)

    def _catch_up(self, now: float) -> None:
        """Remove the items the window no longer holds at ``now``."""
        events = self._window_events
        length = self.window.length
        while events and not (now - events[0][0] < length):
            _t, row = events.popleft()
            self.counters[row] -= 1

    def _write_cells(self, cells, now: float) -> None:
        """Add the item: count its cells and remember when it arrived."""
        self.counters[cells] += 1
        self._window_events.append((now, cells))

    @staticmethod
    def _answer(now, counters):
        # Membership against exactly the in-window items.
        return (counters > 0).all(axis=1)

    #: Is the item's batch active? The membership names of
    #: ``query``/``query_many``.
    contains = KeyedBaseline.query
    contains_many = KeyedBaseline.query_many

    def memory_bits(self) -> int:
        """Accounted footprint: the plain n-bit Bloom filter."""
        return self.n

    def __repr__(self) -> str:
        return f"IdealSlidingBloom(n={self.n}, k={self.k}, window={self.window})"
