"""Timestamp-Vector (Kim & O'Hallaron, GLOBECOM 2003) — paper §2.1.2.

An array of ``n`` 64-bit timestamps with a single hash function.
Insertion stamps one cell with the current time; the number of *stale*
cells ``z`` (never written, or written more than ``T`` ago) plays the
role of the zero count in linear counting, giving the estimate
``n * ln(n / z)`` for the number of distinct items in the window.
"""

from __future__ import annotations

import numpy as np

from ..core.cardinality import CardinalityEstimate, linear_counting_estimate
from ..core.params import cells_for_memory
from ..timebase import WindowSpec
from ..units import parse_memory
from .base import TIMESTAMP_BITS, TimestampCells

__all__ = ["TimestampVector"]


class TimestampVector(TimestampCells):
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
        super().__init__(n, 1, window, seed)

    @classmethod
    def from_memory(cls, memory, window: WindowSpec,
                    seed: int = 0) -> "TimestampVector":
        """Build a TSV fitting a budget of 64-bit timestamp cells."""
        bits = parse_memory(memory)
        n = cells_for_memory(bits, TIMESTAMP_BITS)
        return cls(n=n, window=window, seed=seed)

    def estimate(self, t=None, strict: bool = False) -> CardinalityEstimate:
        """Linear-counting estimate of active distinct items at ``t``."""
        now = self._query_time(t)
        stale = int(np.count_nonzero(now - self.cells >= self.window.length))
        return linear_counting_estimate(stale, self.n, strict)

    def __repr__(self) -> str:
        return f"TimestampVector(n={self.n}, window={self.window})"
