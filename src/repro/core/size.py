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

from ..errors import ConfigurationError
from ..hashing import IndexDeriver
from ..kernels import numpy_backend as _kernels
from ..timebase import WindowSpec
from ..units import parse_memory
from .base import ClockSketchKind
from .clockarray import ClockArray

__all__ = ["ClockCountMin"]

#: §6.5 uses 16-bit counters (b = 16 in §5.4).
DEFAULT_COUNTER_BITS = 16

#: §5.4/§6.5: the optimal clock width is 3-4 at small memory and 8 at
#: 64 KB+; 4 is a safe default.
DEFAULT_S_SIZE = 4


class ClockCountMin(ClockSketchKind):
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
        # One independently seeded row per hash, as in a classic CM
        # sketch: the deriver places row r's cell in [r*w, (r+1)*w).
        self.deriver = IndexDeriver(
            n=self.width, k=1,
            seed=tuple(seed + 1000003 * row for row in range(self.depth)))
        self.seed = seed
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

    @property
    def _commutes(self) -> bool:
        # Conservative update reads the counters it is about to bump.
        return not self.conservative

    def _apply(self, rows, stamps) -> None:
        """Bump the counters, saturating at the ceiling, then touch.

        A conservative bump (one item: it never commutes) raises only
        the item's smallest counters. A plain run adds each cell's hit
        count; one item's cells are distinct, a chunk's may repeat.
        ``min(c, max - hits) + hits`` is ``min(c + hits, max)`` without
        the sum that could wrap a 32-bit counter.
        """
        counters = self.counters
        if self.conservative:
            count = counters[rows]
            counters[rows] = np.maximum(
                count, min(int(count.min()) + 1, self.counter_max))
        else:
            cells, hits = ((rows, 1) if rows.ndim == 1
                           else np.unique(rows, return_counts=True))
            counters[cells] = np.minimum(
                counters[cells], self.counter_max - hits) + hits
        self.clock.touch(rows)

    def _fuse(self, rows, steps, stamps, end_steps: int,
              count_cleaned: bool) -> int:
        return _kernels.fuse_countmin(
            self.clock, self.counters, self.counter_max, rows.ravel(),
            np.repeat(steps, rows.shape[1]), end_steps,
            count_cleaned=count_cleaned)

    @staticmethod
    def _answer(now, values, counters) -> np.ndarray:
        # The Count-Min minimum over the d rows: the estimated size of
        # the item's active batch (0 when inactive).
        return counters.min(axis=1).astype(np.int64)

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
