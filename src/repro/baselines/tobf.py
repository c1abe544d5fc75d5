"""Time-Out Bloom Filter (Kong et al., ICOIN 2006) — paper §2.1.1.

An array of full 64-bit timestamps. Insertion writes the current time
into the ``k`` hashed cells; a query reports the batch active only if
*all* ``k`` cells hold a timestamp inside the window. The 64-bit cells
make TOBF memory-hungry: at equal budgets it affords 64x fewer cells
than a plain Bloom filter, which is why BF+clock dominates it.
"""

from __future__ import annotations

from ..core.params import cells_for_memory
from ..timebase import WindowSpec
from ..units import parse_memory
from .base import TIMESTAMP_BITS, KeyedBaseline, TimestampCells

__all__ = ["TimeOutBloomFilter"]


class TimeOutBloomFilter(TimestampCells, KeyedBaseline):
    """TOBF: a Bloom filter of raw timestamps.

    Examples
    --------
    >>> from repro.timebase import count_window
    >>> f = TimeOutBloomFilter(n=256, k=4, window=count_window(16))
    >>> f.insert("x")
    >>> f.contains("x")
    True
    """

    _READS = ("cells",)

    @classmethod
    def from_memory(cls, memory, window: WindowSpec, k: int = 4,
                    seed: int = 0) -> "TimeOutBloomFilter":
        """Build a TOBF fitting a budget of 64-bit timestamp cells."""
        bits = parse_memory(memory)
        n = cells_for_memory(bits, TIMESTAMP_BITS)
        return cls(n=n, k=k, window=window, seed=seed)

    def _answer(self, now, stamps):
        # Active iff all k cells were written inside the window.
        return (now - stamps < self.window.length).all(axis=1)

    #: Is the item's batch active? The membership names of
    #: ``query``/``query_many``.
    contains = KeyedBaseline.query
    contains_many = KeyedBaseline.query_many

    def __repr__(self) -> str:
        return f"TimeOutBloomFilter(n={self.n}, k={self.k}, window={self.window})"
