"""Time-Out Bloom Filter (Kong et al., ICOIN 2006) — paper §2.1.1.

An array of full 64-bit timestamps. Insertion writes the current time
into the ``k`` hashed cells; a query reports the batch active only if
*all* ``k`` cells hold a timestamp inside the window. The 64-bit cells
make TOBF memory-hungry: at equal budgets it affords 64x fewer cells
than a plain Bloom filter, which is why BF+clock dominates it.
"""

from __future__ import annotations

import numpy as np

from ..core.base import ClockSketchBase
from ..core.params import cells_for_memory
from ..hashing import IndexDeriver
from ..timebase import WindowSpec
from ..units import parse_memory

__all__ = ["TimeOutBloomFilter"]

#: The paper's §6.2 configuration uses full 64-bit timestamps.
TIMESTAMP_BITS = 64


class TimeOutBloomFilter(ClockSketchBase):
    """TOBF: a Bloom filter of raw timestamps.

    Examples
    --------
    >>> from repro.timebase import count_window
    >>> f = TimeOutBloomFilter(n=256, k=4, window=count_window(16))
    >>> f.insert("x")
    >>> f.contains("x")
    True
    """

    def __init__(self, n: int, k: int, window: WindowSpec, seed: int = 0):
        super().__init__(window)
        self.k = int(k)
        # -inf marks "never written"; any real stream time is newer.
        self.cells = np.full(n, -np.inf, dtype=np.float64)
        self.deriver = IndexDeriver(n=n, k=k, seed=seed)
        self.seed = seed

    @classmethod
    def from_memory(cls, memory, window: WindowSpec, k: int = 4,
                    seed: int = 0) -> "TimeOutBloomFilter":
        """Build a TOBF fitting a budget of 64-bit timestamp cells."""
        bits = parse_memory(memory)
        n = cells_for_memory(bits, TIMESTAMP_BITS)
        return cls(n=n, k=k, window=window, seed=seed)

    @property
    def n(self) -> int:
        """Number of timestamp cells."""
        return len(self.cells)

    def insert(self, item, t=None) -> None:
        """Stamp the item's cells with the current time."""
        now = self._insert_time(t)
        self.cells[self.deriver.indexes(item)] = now

    def insert_many(self, keys, times=None) -> None:
        """Insert an array of integer keys (bulk-hashed).

        Order within the array is respected, so later occurrences of a
        cell win — matching per-item insertion exactly.
        """
        keys = np.asarray(keys)
        matrix = self.deriver.bulk(keys)
        if self.window.is_count_based:
            start = self.items_inserted
            stamp = np.arange(start + 1, start + len(keys) + 1, dtype=np.float64)
        else:
            stamp = np.asarray(times, dtype=np.float64)
        if len(stamp):
            self.stream_clock.commit(len(keys), stamp[-1])
        flat = matrix.ravel()
        np.maximum.at(self.cells, flat, np.repeat(stamp, self.k))

    def contains(self, item, t=None) -> bool:
        """Is the item's batch active? All k cells must be in-window."""
        now = self._query_time(t)
        stamps = self.cells[self.deriver.indexes(item)]
        return bool(np.all(now - stamps < self.window.length))

    def contains_many(self, keys, t=None) -> np.ndarray:
        """Vectorised :meth:`contains` over an integer key array."""
        now = self._query_time(t)
        matrix = self.deriver.bulk(np.asarray(keys))
        return np.all(now - self.cells[matrix] < self.window.length, axis=1)

    def memory_bits(self) -> int:
        """Accounted footprint: ``n`` cells of 64 bits."""
        return self.n * TIMESTAMP_BITS

    def __repr__(self) -> str:
        return f"TimeOutBloomFilter(n={self.n}, k={self.k}, window={self.window})"
