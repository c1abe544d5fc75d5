"""The naive clock-free time-span baseline (paper §6.4).

Each of the ``n`` cells holds two 64-bit timestamps: ``t_l``, the last
time the cell was visited, and ``t_sr``, the recorded start of the
batch occupying it. Insertion refreshes ``t_l`` and resets ``t_sr``
when the cell looks expired (gap above ``T``); querying picks the
earliest ``t_l`` among the ``k`` hashed cells (call it ``t_f``) —
active batches must satisfy ``t_cur - t_f < T`` — and returns the
latest ``t_sr`` among the cells achieving ``t_f``.

Like BF-ts+clock, the naive scheme answers exactly or overestimates the
span; it simply pays 64 bits of "clock" per cell where the Clock-sketch
pays ``s``, which is the whole comparison of Figure 10b.
"""

from __future__ import annotations

import numpy as np

from ..core.params import cells_for_memory
from ..core.timespan import TimeSpanBatchResult
from ..hashing import IndexDeriver
from ..timebase import WindowSpec
from ..units import parse_memory
from .base import KeyedBaseline

__all__ = ["NaiveTimeSpanSketch"]

#: Two 64-bit timestamps per cell.
CELL_BITS = 128


class NaiveTimeSpanSketch(KeyedBaseline):
    """The §6.4 naive time-span baseline (timestamps instead of clocks).

    Examples
    --------
    >>> from repro.timebase import count_window
    >>> ts = NaiveTimeSpanSketch(n=256, k=2, window=count_window(64))
    >>> for _ in range(10):
    ...     ts.insert("job")
    >>> ts.query("job").span
    9.0
    """

    _READS = ("last_visit", "batch_start")

    def __init__(self, n: int, k: int, window: WindowSpec, seed: int = 0):
        super().__init__(window)
        self.k = int(k)
        self.last_visit = np.full(n, -np.inf, dtype=np.float64)
        self.batch_start = np.zeros(n, dtype=np.float64)
        self.deriver = IndexDeriver(n=n, k=k, seed=seed)
        self.seed = seed

    @classmethod
    def from_memory(cls, memory, window: WindowSpec, k: int = 2,
                    seed: int = 0) -> "NaiveTimeSpanSketch":
        """Build a sketch fitting a budget of 128-bit cells."""
        bits = parse_memory(memory)
        n = cells_for_memory(bits, CELL_BITS)
        return cls(n=n, k=k, window=window, seed=seed)

    @property
    def n(self) -> int:
        """Number of (t_l, t_sr) cell pairs."""
        return len(self.last_visit)

    def _write_cells(self, cells, now: float) -> None:
        """Refresh the item's cells; restart stale ones."""
        stale = now - self.last_visit[cells] >= self.window.length
        self.batch_start[cells[stale]] = now
        self.last_visit[cells] = now

    def _answer(self, now, visits, starts) -> TimeSpanBatchResult:
        # ``t_f`` is the earliest last-visit among the k cells, the
        # batch is active iff ``t_cur - t_f < T``, and ``begin`` is the
        # latest recorded start among the cells achieving ``t_f``;
        # inactive items hold NaN in both float arrays.
        t_f = visits.min(axis=1)
        active = now - t_f < self.window.length
        begin = np.where(visits == t_f[:, None], starts, -np.inf).max(axis=1)
        begin[~active] = np.nan
        return TimeSpanBatchResult(active=active, span=now - begin,
                                   begin=begin)

    def memory_bits(self) -> int:
        """Accounted footprint: ``n`` cells of 128 bits."""
        return self.n * CELL_BITS

    def __repr__(self) -> str:
        return f"NaiveTimeSpanSketch(n={self.n}, k={self.k}, window={self.window})"
