"""Timestamp-Vector (Kim & O'Hallaron, GLOBECOM 2003) — paper §2.1.2.

An array of ``n`` 64-bit timestamps with a single hash function.
Insertion stamps one cell with the current time; the number of *stale*
cells ``z`` (never written, or written more than ``T`` ago) plays the
role of the zero count in linear counting, giving the estimate
``n * ln(n / z)`` for the number of distinct items in the window.
"""

from __future__ import annotations

import numpy as np

from ..core.base import ClockSketchBase
from ..core.cardinality import CardinalityEstimate, linear_counting_estimate
from ..core.params import cells_for_memory
from ..hashing import IndexDeriver
from ..timebase import WindowSpec
from ..units import parse_memory

__all__ = ["TimestampVector"]

#: §6.3: "we use 64-bit timestamp for TSV".
TIMESTAMP_BITS = 64


class TimestampVector(ClockSketchBase):
    """TSV: linear counting over a timestamp array.

    Examples
    --------
    >>> from repro.timebase import count_window
    >>> tsv = TimestampVector(n=4096, window=count_window(512))
    >>> for key in range(100):
    ...     tsv.insert(key)
    >>> 80 < tsv.estimate().value < 125
    True
    """

    def __init__(self, n: int, window: WindowSpec, seed: int = 0):
        super().__init__(window)
        self.cells = np.full(n, -np.inf, dtype=np.float64)
        self.deriver = IndexDeriver(n=n, k=1, seed=seed)
        self.seed = seed

    @classmethod
    def from_memory(cls, memory, window: WindowSpec,
                    seed: int = 0) -> "TimestampVector":
        """Build a TSV fitting a budget of 64-bit timestamp cells."""
        bits = parse_memory(memory)
        n = cells_for_memory(bits, TIMESTAMP_BITS)
        return cls(n=n, window=window, seed=seed)

    @property
    def n(self) -> int:
        """Number of timestamp cells."""
        return len(self.cells)

    def insert(self, item, t=None) -> None:
        """Stamp the item's cell with the current time."""
        now = self._insert_time(t)
        self.cells[self.deriver.indexes(item)[0]] = now

    def insert_many(self, keys, times=None) -> None:
        """Insert an array of integer keys (bulk-hashed)."""
        keys = np.asarray(keys)
        cells = self.deriver.bulk_single(keys)
        if self.window.is_count_based:
            start = self.items_inserted
            stamp = np.arange(start + 1, start + len(keys) + 1, dtype=np.float64)
        else:
            stamp = np.asarray(times, dtype=np.float64)
        if len(stamp):
            self.stream_clock.commit(len(keys), stamp[-1])
        np.maximum.at(self.cells, cells, stamp)

    def estimate(self, t=None, strict: bool = False) -> CardinalityEstimate:
        """Linear-counting estimate of active distinct items at ``t``."""
        now = self._query_time(t)
        stale = int(np.count_nonzero(now - self.cells >= self.window.length))
        return linear_counting_estimate(stale, self.n, strict)

    def memory_bits(self) -> int:
        """Accounted footprint: ``n`` cells of 64 bits."""
        return self.n * TIMESTAMP_BITS

    def __repr__(self) -> str:
        return f"TimestampVector(n={self.n}, window={self.window})"
