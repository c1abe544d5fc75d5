"""The naive clock-free batch-size baseline (paper §6.5).

A Count-Min layout in which every counter carries a 64-bit ``t_l``
("last visited") timestamp instead of an ``s``-bit clock. Insertion
checks the gap: above ``T`` means the counter belongs to a finished
batch, so it restarts at 1; otherwise it increments. Querying takes
the minimum over the ``d`` hashed counters of cells that are still
in-window (stale cells count as zero). The 64-bit timestamps eat the
memory budget that CM+clock spends on counters, which is Figure 11b's
comparison.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from ..hashing import IndexDeriver
from ..timebase import WindowSpec
from ..units import parse_memory
from .base import KeyedBaseline

__all__ = ["NaiveSizeSketch"]

#: 64-bit timestamp per counter (plus the counter itself).
TIMESTAMP_BITS = 64
DEFAULT_COUNTER_BITS = 16


class NaiveSizeSketch(KeyedBaseline):
    """The §6.5 naive batch-size baseline (timestamps instead of clocks).

    Examples
    --------
    >>> from repro.timebase import count_window
    >>> cm = NaiveSizeSketch(width=128, depth=3, window=count_window(64))
    >>> for _ in range(5):
    ...     cm.insert("key")
    >>> cm.query("key")
    5
    """

    _READS = ("counters", "last_visit")

    def __init__(self, width: int, depth: int, window: WindowSpec,
                 counter_bits: int = DEFAULT_COUNTER_BITS, seed: int = 0):
        super().__init__(window)
        if depth < 1:
            raise ConfigurationError(f"depth must be >= 1, got {depth}")
        self.width = int(width)
        self.depth = int(depth)
        self.counter_bits = int(counter_bits)
        self.counter_max = (1 << counter_bits) - 1
        size = self.width * self.depth
        self.counters = np.zeros(size, dtype=np.uint32)
        self.last_visit = np.full(size, -np.inf, dtype=np.float64)
        # The same rows and hashes as CM+clock: one flat cell per row.
        self.deriver = IndexDeriver(
            n=self.width, k=1,
            seed=tuple(seed + 1000003 * row for row in range(self.depth)))
        self.seed = seed

    @classmethod
    def from_memory(cls, memory, window: WindowSpec, depth: int = 3,
                    counter_bits: int = DEFAULT_COUNTER_BITS,
                    seed: int = 0) -> "NaiveSizeSketch":
        """Build a sketch fitting a budget of ``d*w*(b+64)`` bits."""
        bits = parse_memory(memory)
        width = bits // (depth * (counter_bits + TIMESTAMP_BITS))
        if width < 1:
            raise ConfigurationError(
                f"memory budget {bits} bits cannot hold one cell per row"
            )
        return cls(width=width, depth=depth, window=window,
                   counter_bits=counter_bits, seed=seed)

    def _write_cells(self, cells, now: float) -> None:
        """Increment the item's counters, restarting stale ones at 1."""
        length = self.window.length
        counters = self.counters
        last = self.last_visit
        for flat in cells:
            if now - last[flat] >= length:
                counters[flat] = 1
            elif counters[flat] < self.counter_max:
                counters[flat] += 1
            last[flat] = now

    def _answer(self, now, counters, last_visit):
        # The minimum over the d counters, a stale counter reading 0.
        live = now - last_visit < self.window.length
        return np.where(live, counters, 0).min(axis=1).astype(np.int64)

    def memory_bits(self) -> int:
        """Accounted footprint: ``d*w`` cells of ``b + 64`` bits."""
        return self.width * self.depth * (self.counter_bits + TIMESTAMP_BITS)

    def __repr__(self) -> str:
        return (
            f"NaiveSizeSketch(width={self.width}, depth={self.depth}, "
            f"b={self.counter_bits}, window={self.window})"
        )
