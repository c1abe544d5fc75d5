"""CM+clock — item batch size (paper §4.4).

A Count-Min sketch of ``d`` rows by ``w`` counters, each counter paired
with an ``s``-bit clock cell. Every occurrence increments the ``d``
hashed counters and refreshes their clocks; when a clock expires the
counter is erased, so a counter only ever accumulates occurrences of
the *current* batches mapping to it. The size estimate is the usual
Count-Min minimum over the ``d`` rows, which (within the window
guarantee) never underestimates the true batch size.
"""

from __future__ import annotations

import numpy as np

from ..engine import BatchEngine
from ..errors import ConfigurationError
from ..hashing import IndexDeriver, key_id, key_ids
from ..timebase import WindowSpec
from ..units import parse_memory
from .base import ClockSketchBase
from .clockarray import ClockArray

__all__ = ["ClockCountMin"]

#: §6.5 uses 16-bit counters (b = 16 in §5.4).
DEFAULT_COUNTER_BITS = 16

#: §5.4/§6.5: the optimal clock width is 3-4 at small memory and 8 at
#: 64 KB+; 4 is a safe default.
DEFAULT_S_SIZE = 4


class ClockCountMin(ClockSketchBase):
    """Clock-sketch for item batch size (CM+clock).

    Parameters
    ----------
    width:
        Counters per row (``w``).
    depth:
        Number of rows (``d``, the paper's ``k``).
    s:
        Bits per clock cell.
    window:
        The sliding window ``T``.
    counter_bits:
        Counter width ``b``; counters saturate at ``2^b - 1`` instead of
        overflowing.
    conservative:
        Enable conservative update (Estan & Varghese): an insert only
        increments the hashed counters that equal the current minimum,
        which keeps the estimate an overestimate while shrinking
        collision error — a classic Count-Min refinement the paper
        leaves on the table (measured in the A5 ablation).
    sanitize:
        Wrap this instance with the runtime invariant checks of
        :mod:`repro.qa.sanitizer` (see ``docs/qa.md``).

    Examples
    --------
    >>> from repro.timebase import count_window
    >>> cm = ClockCountMin(width=256, depth=3, s=4, window=count_window(64))
    >>> for _ in range(5):
    ...     cm.insert("key")
    >>> cm.query("key")
    5
    """

    _CONFIG = ("width", "depth", "s", "counter_bits", "seed", "conservative")
    #: A conservative and a plain sketch count on the same cells.
    _MERGE_FREE = ("conservative",)
    _CELL_FIELDS = ("counters",)
    _TASK = "size"

    def __init__(self, width: int, depth: int, s: int, window: WindowSpec,
                 counter_bits: int = DEFAULT_COUNTER_BITS, seed: int = 0,
                 sweep_mode: str = "vector", conservative: bool = False,
                 sanitize: bool = False):
        super().__init__(window)
        self.conservative = bool(conservative)
        if depth < 1:
            raise ConfigurationError(f"depth must be >= 1, got {depth}")
        if not 1 <= counter_bits <= 32:
            raise ConfigurationError(
                f"counter bits must be in 1..32, got {counter_bits}"
            )
        self.width = int(width)
        self.depth = int(depth)
        self.s = int(s)
        self.counter_bits = int(counter_bits)
        self.counter_max = (1 << counter_bits) - 1
        # Counters are stored flat, row-major, sharing index space with
        # the clock array so one cleaning pointer sweeps everything.
        self.counters = np.zeros(self.width * self.depth, dtype=np.uint32)
        self.clock = ClockArray(
            self.width * self.depth, s, window,
            on_expire=self._clear_cells, sweep_mode=sweep_mode,
        )
        # One independent hash family per row, as in a classic CM sketch.
        self._derivers = [
            IndexDeriver(n=self.width, k=1, seed=seed + 1000003 * row)
            for row in range(self.depth)
        ]
        self.seed = seed
        self.engine = BatchEngine(self)
        if sanitize:
            from ..qa.sanitizer import sanitize_sketch
            sanitize_sketch(self)

    def _clear_cells(self, expired: np.ndarray) -> None:
        self.counters[expired] = 0

    @classmethod
    def from_memory(cls, memory, window: WindowSpec, depth: int = 3,
                    s: int = DEFAULT_S_SIZE,
                    counter_bits: int = DEFAULT_COUNTER_BITS, seed: int = 0,
                    sweep_mode: str = "vector",
                    conservative: bool = False) -> "ClockCountMin":
        """Build a sketch fitting a memory budget of ``d*w*(s+b)`` bits."""
        bits = parse_memory(memory)
        width = bits // (depth * (s + counter_bits))
        if width < 1:
            raise ConfigurationError(
                f"memory budget {bits} bits cannot hold one counter per row"
            )
        return cls(width=width, depth=depth, s=s, window=window,
                   counter_bits=counter_bits, seed=seed,
                   sweep_mode=sweep_mode, conservative=conservative)

    def _flat_indexes(self, item) -> "list[int]":
        kid = key_id(item)
        return [
            row * self.width + deriver.indexes(kid)[0]
            for row, deriver in enumerate(self._derivers)
        ]

    def _bump(self, flats) -> None:
        """Increment the selected counters (saturating, maybe conservative)."""
        counters = self.counters
        counter_max = self.counter_max
        if self.conservative:
            floor = min(counters[flat] for flat in flats)
            target = min(floor + 1, counter_max)
            for flat in flats:
                if counters[flat] < target:
                    counters[flat] = target
        else:
            for flat in flats:
                if counters[flat] < counter_max:
                    counters[flat] += 1

    def _flat_matrix(self, items) -> np.ndarray:
        """``(N, depth)`` flat cell indexes for a batch of items."""
        offsets = np.arange(self.depth, dtype=np.int64) * self.width
        ids = key_ids(items)
        columns = np.stack([d.bulk_single(ids) for d in self._derivers], axis=1)
        return columns + offsets[None, :]

    def insert(self, item, t=None) -> None:
        """Record an occurrence of ``item``, growing its batch counters.

        Semantically the batch-size-1 case of :meth:`insert_many`
        (bit-identical final state, property-tested).
        """
        now = self._insert_time(t)
        self.clock.advance(now)
        flats = self._flat_indexes(item)
        self._bump(flats)
        self.clock.touch(flats)

    def insert_many(self, items, times=None) -> None:
        """Insert a batch of items through the batch engine.

        Accepts integer key arrays or any sequence of hashable items;
        bit-identical to a loop of :meth:`insert` calls on the exact
        sweep modes (conservative update, being order-dependent, always
        replays the per-item loop). With a deferred cleaner and plain
        updates, inserts are chunk-vectorised: within one cleaning
        circle the counter increments commute, so whole chunks go
        through ``np.add.at`` — the stand-in for the paper's
        SIMD+thread mode.
        """
        self.engine.ingest_countmin(self._flat_matrix(items), times,
                                    items=items)

    def query(self, item, t=None) -> int:
        """Estimated size of the item's active batch (0 when inactive)."""
        now = self._query_time(t)
        self.clock.advance(now)
        return int(min(self.counters[flat] for flat in self._flat_indexes(item)))

    def query_many(self, items, t=None) -> np.ndarray:
        """Vectorised :meth:`query` over a batch of items."""
        return self._read_many(items, t)

    _query_index = _flat_matrix

    @staticmethod
    def _answer(now, values, counters) -> np.ndarray:
        # The Count-Min minimum over the d rows.
        return np.min(counters, axis=1).astype(np.int64)

    def _union(self, values, counters) -> tuple:
        """Clocks max; counters sum.

        Each side counted disjoint occurrences, so per-row counters add
        (saturating at the counter ceiling instead of wrapping), and a
        counter whose merged clock is zero (both sides expired) is
        erased. The merged estimate stays an overestimate of the truth;
        see ``docs/sharding.md`` for the exact-vs-conservative bounds.
        """
        merged = values.max(axis=0)
        summed = counters.sum(axis=0, dtype=np.int64)
        np.minimum(summed, self.counter_max, out=summed)
        summed[merged == 0] = 0
        return merged, summed

    def memory_bits(self) -> int:
        """Accounted footprint: ``d * w`` cells of ``s + b`` bits."""
        return self.width * self.depth * (self.s + self.counter_bits)

    def _metric_extras(self) -> dict:
        counters = self.counters
        return {
            "s": self.s,
            "depth": self.depth,
            "width": self.width,
            "live_counters": int(np.count_nonzero(counters)),
            "saturated_counters": int(np.count_nonzero(
                counters >= self.counter_max)),
        }

    def __repr__(self) -> str:
        return (
            f"ClockCountMin(width={self.width}, depth={self.depth}, "
            f"s={self.s}, b={self.counter_bits}, window={self.window})"
        )
