"""What a baseline declares, and the one write and read path it shares.

A baseline is a :class:`~repro.core.base.ClockSketchBase`: its
``insert``/``insert_many`` resolve and check times on its
:class:`~repro.core.base.StreamClock` once, call its writers, and
commit once, by the same rules as the four kinds. A batch with a
refused time, or with ``times`` where the window takes none, moves
nothing. A baseline declares only:

- its write rule, ``_write_cells(cells, now)``: one item's cells at an
  already resolved arrival time;
- its expiry, ``_catch_up(now)``, if it runs one of its own (TBF's
  cleaning scan, CVS's random decay, the Ideal filter's oracle); it
  runs before each write and each read, so each keeps the time it
  last caught up to;
- for the five that answer per key (:class:`KeyedBaseline`), the arrays
  its answer reads (``_READS``) and the answer over those cells
  (``_answer``). ``query``/``query_many`` then come from
  :class:`~repro.core.base.ClockSketchReader`, as for the kinds; the
  three membership filters alias them as ``contains``/``contains_many``.

:class:`TimestampCells` is TOBF's and TSV's cell array; its batch write
is one order-free ``np.maximum.at`` instead of the per-item loop.
"""

from __future__ import annotations

from typing import ClassVar

import numpy as np

from ..core.base import ClockSketchBase, ClockSketchReader
from ..hashing import IndexDeriver
from ..obs import runtime as _obs
from ..timebase import WindowSpec

__all__ = ["Baseline", "KeyedBaseline", "TimestampCells"]

#: TOBF and TSV store full 64-bit timestamps (§6.2, §6.3).
TIMESTAMP_BITS = 64


class Baseline(ClockSketchBase):
    """A baseline's writers, built from its ``_write_cells`` rule."""

    def _catch_up(self, now: float) -> None:
        """Expire what ``now`` expires; by default expiry is read from
        the cells' stamps at query time, so there is nothing to run."""

    def _write_rows(self, rows: np.ndarray, times: np.ndarray) -> None:
        """Write a batch's cell rows at their arrival times: one
        catch-up and one ``_write_cells`` per item, in arrival order."""
        for cells, now in zip(rows, times.tolist()):
            self._catch_up(now)
            self._write_cells(cells, now)

    def _write_one(self, item, now: float) -> None:
        """Write one item at its resolved arrival time (scalar path)."""
        self._catch_up(now)
        self._write_cells(self._item_cells(item), now)
        if _obs.ENABLED:
            _obs.record_insert(type(self).__name__)

    def _write(self, items, times: np.ndarray) -> None:
        """Write a batch at its resolved arrival times, hashed in bulk."""
        self._write_rows(self._batch_cells(items), times)
        if _obs.ENABLED:
            _obs.record_insert(type(self).__name__, len(times))


class KeyedBaseline(Baseline, ClockSketchReader):
    """A baseline that answers per key through the kinds' read path."""

    #: The cell arrays ``_answer`` reads, in its argument order.
    _READS: ClassVar[tuple[str, ...]] = ()

    @property
    def _kind(self):
        # A baseline's reads apply its own rules.
        return self

    def _read(self, idx, now) -> tuple:
        """The cells at ``idx``, caught up to ``now``."""
        self._catch_up(now)
        return tuple(getattr(self, name)[idx] for name in self._READS)


class TimestampCells(Baseline):
    """``n`` full 64-bit timestamps, each the time its cell was last
    written: TOBF's cells, and TSV's as their ``k = 1`` case.

    Times never decrease, so a cell's last write is its latest one: a
    batch lands in one order-free ``np.maximum.at``, the per-item
    loop's state without the loop.
    """

    def __init__(self, n: int, k: int, window: WindowSpec, seed: int = 0):
        super().__init__(window)
        self.k = int(k)
        # -inf marks "never written"; any real stream time is newer.
        self.cells = np.full(n, -np.inf, dtype=np.float64)
        self.deriver = IndexDeriver(n=n, k=k, seed=seed)
        self.seed = seed

    @property
    def n(self) -> int:
        """Number of timestamp cells."""
        return len(self.cells)

    def _write_cells(self, cells, now: float) -> None:
        self.cells[cells] = now

    def _write_rows(self, rows: np.ndarray, times: np.ndarray) -> None:
        np.maximum.at(self.cells, rows.ravel(),
                      np.repeat(times, rows.shape[1]))

    def memory_bits(self) -> int:
        """Accounted footprint: ``n`` cells of 64 bits."""
        return self.n * TIMESTAMP_BITS
