"""BF-ts+clock — item batch time span (paper §4.3).

A Bloom filter whose cells each carry an ``s``-bit clock cell *and* a
64-bit timestamp sketch cell. The timestamp records the arrival of the
first item of the batch currently occupying the cell: it is written
only when the cell is empty (timestamp zero) and erased when the clock
expires. Querying an active batch returns ``t_cur - t_begin`` where
``t_begin`` is the *newest* of the ``k`` hashed timestamps — collisions
can only make a cell's timestamp older than the batch start, so taking
the newest yields an answer that is either exact or an overestimate of
the span (never an underestimate of ``t_begin``).

Timestamp zero is the "empty" sentinel, so stream times must be
positive; count-based streams (items at times 1, 2, ...) satisfy this
automatically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..hashing import IndexDeriver
from ..kernels import numpy_backend as _kernels
from ..timebase import WindowSpec
from ..units import parse_memory
from .base import ClockSketchKind
from .clockarray import ClockArray
from .params import cells_for_memory

__all__ = ["ClockTimeSpanSketch", "TimeSpanResult", "TimeSpanBatchResult"]

#: §5.3/§6.4: the optimal clock width lies in [8, 64] and is 8 at the
#: paper's reference configuration (M = 128 KB, W = 4096).
DEFAULT_S_TIMESPAN = 8

#: The paper stores 64-bit timestamps (t = 64 in §5.3).
TIMESTAMP_BITS = 64


@dataclass(frozen=True)
class TimeSpanResult:
    """Answer to a time-span query.

    ``active`` is False when any hashed clock is zero (batch inactive);
    ``span``/``begin`` are then None.
    """

    active: bool
    span: "float | None" = None
    begin: "float | None" = None


@dataclass(frozen=True)
class TimeSpanBatchResult:
    """Vectorised answer to a batch of time-span queries.

    Arrays align with the queried items: ``active`` is boolean;
    ``span``/``begin`` are float64 and hold NaN where the batch is
    inactive. Indexing (or ``item(i)``, as on a numpy answer) yields
    the scalar :class:`TimeSpanResult` for one item.
    """

    active: np.ndarray
    span: np.ndarray
    begin: np.ndarray

    def __len__(self) -> int:
        return len(self.active)

    def __getitem__(self, i: int) -> TimeSpanResult:
        if not self.active[i]:
            return TimeSpanResult(active=False)
        return TimeSpanResult(
            active=True, span=float(self.span[i]), begin=float(self.begin[i])
        )

    item = __getitem__


class ClockTimeSpanSketch(ClockSketchKind):
    """Clock-sketch for item batch time span (BF-ts+clock).

    Examples
    --------
    >>> from repro.timebase import count_window
    >>> ts = ClockTimeSpanSketch(n=512, k=2, s=8, window=count_window(64))
    >>> for _ in range(10):
    ...     ts.insert("job-7")
    >>> ts.query("job-7").span
    9.0
    """

    _CONFIG = ("n", "k", "s", "seed")
    _CELL_FIELDS = ("timestamps",)
    _TASK = "span"
    _positive_times = True

    def __init__(self, n: int, k: int, s: int, window: WindowSpec,
                 seed: int = 0, sweep_mode: str = "vector",
                 sanitize: bool = False):
        super().__init__(window)
        self.s = int(s)
        self.k = int(k)
        self.timestamps = np.zeros(n, dtype=np.float64)
        self.clock = ClockArray(
            n, s, window, on_expire=self._clear_cells, sweep_mode=sweep_mode
        )
        self.deriver = IndexDeriver(n=n, k=k, seed=seed)
        self.seed = seed
        if sanitize:
            from ..qa.sanitizer import sanitize_sketch
            sanitize_sketch(self)

    def _clear_cells(self, expired: np.ndarray) -> None:
        self.timestamps[expired] = 0.0

    @classmethod
    def from_memory(cls, memory, window: WindowSpec, k: int = 2,
                    s: int = DEFAULT_S_TIMESPAN, seed: int = 0,
                    sweep_mode: str = "vector") -> "ClockTimeSpanSketch":
        """Build a sketch that fits a memory budget of clock+timestamp cells."""
        bits = parse_memory(memory)
        n = cells_for_memory(bits, s + TIMESTAMP_BITS)
        return cls(n=n, k=k, s=s, window=window, seed=seed, sweep_mode=sweep_mode)

    @property
    def n(self) -> int:
        """Number of (clock, timestamp) cell pairs."""
        return self.clock.n

    def _apply(self, rows, stamps) -> None:
        """Touch, and stamp the cells the run finds empty.

        First writer wins: one item stamps its empty cells with its
        time; in a chunk an empty cell takes the earliest stamp that
        hits it, a per-cell minimum.
        """
        timestamps = self.timestamps
        empty = timestamps[rows] == 0.0
        if rows.ndim == 1:
            timestamps[rows[empty]] = stamps
        else:
            fresh = rows[empty]
            timestamps[fresh] = np.inf
            np.minimum.at(timestamps, fresh,
                          np.broadcast_to(stamps, rows.shape)[empty])
        self.clock.touch(rows)

    def _fuse(self, rows, steps, stamps, end_steps: int,
              count_cleaned: bool) -> int:
        k = rows.shape[1]
        return _kernels.fuse_timespan(
            self.clock, self.timestamps, rows.ravel(), np.repeat(steps, k),
            np.repeat(stamps, k), end_steps, count_cleaned=count_cleaned)

    @staticmethod
    def _answer(now, values, timestamps) -> TimeSpanBatchResult:
        # Active iff all k clocks are non-zero, with ``begin`` the
        # newest of the hashed timestamps and ``span = t - begin``;
        # inactive items hold NaN in both float arrays.
        active = values.all(axis=1)
        begin = timestamps.max(axis=1)
        begin[~active] = np.nan
        return TimeSpanBatchResult(active=active, span=now - begin,
                                   begin=begin)

    @staticmethod
    def _union(values, timestamps) -> tuple:
        """Clocks max; stamps first-writer-wins.

        A cell live on both sides keeps the *older* (minimum) of the
        two stamps, and a cell live on one side keeps that side's
        stamp. First-writer-wins is the only direction that preserves
        the span contract: a cell's stamp may only ever be **older**
        than the start of any batch currently using it (exactly as
        collisions already behave within one sketch), so the per-key
        maximum over ``k`` merged stamps still never starts after the
        true batch begin, and spans stay overestimates. Taking the
        newer stamp instead could report a span *shorter* than the
        truth whenever two shards' batches collide in a cell.
        """
        first = np.where(timestamps > 0.0, timestamps, np.inf).min(axis=0)
        first[first == np.inf] = 0.0
        return values.max(axis=0), first

    def memory_bits(self) -> int:
        """Accounted footprint: ``n`` cells of ``s + 64`` bits."""
        return self.n * (self.s + TIMESTAMP_BITS)

    def _metric_extras(self) -> dict:
        return {"k": self.k, "s": self.s,
                "stamped_cells": int(np.count_nonzero(self.timestamps))}

    def __repr__(self) -> str:
        return (
            f"ClockTimeSpanSketch(n={self.n}, k={self.k}, s={self.s}, "
            f"window={self.window})"
        )
