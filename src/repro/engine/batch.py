"""Batch-ingestion engine shared by all four Clock-sketch variants.

:class:`BatchEngine` is the one place that knows how to turn "a batch
of items with their arrival times" into sketch state. Every sketch owns
an engine and hands it pre-hashed cell indexes; the engine resolves the
batch's arrival times in bulk (:meth:`ClockSketchBase._insert_times_many`),
picks an application strategy, and commits the sketch's temporal
bookkeeping once the batch is applied:

- **fused** (exact sweep modes, batches of :data:`MIN_FUSED`
  or more): closed-form application through the fused kernels
  (``fuse_*`` in :mod:`repro.kernels.numpy_backend`) — bit-identical
  to the scalar loop, no per-item Python work;
- **loop** (exact modes, small batches): the reference per-item
  interleaving of ``advance`` and cell writes;
- **deferred** (deferred sweep modes): the one-cleaning-circle chunked
  scatter path, preserving those modes' documented relaxed-window
  semantics exactly.

Order-dependent updates that have no closed form — Count-Min's
conservative update — always take the loop path, so ``insert_many``
stays exactly equal to the equivalent ``insert`` loop there too.

The engine holds no state a checkpoint needs, so serialisation of a
sketch ignores it entirely.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from ..errors import TimeError
from ..kernels import numpy_backend as _kernels
from ..obs import names as _names
from ..obs import runtime as _obs
from ..obs import trace as _trace

__all__ = ["BatchEngine", "MIN_FUSED"]

#: Smallest batch routed through the fused closed-form path. Below
#: this, the numpy setup (argsort, segment bookkeeping) costs more than
#: the per-item loop it replaces; the cutover is deliberately low
#: because both paths produce bit-identical state.
MIN_FUSED = 16


class BatchEngine:
    """Applies whole insert batches to one sketch.

    Parameters
    ----------
    sketch:
        The owning :class:`~repro.core.base.ClockSketchBase` instance.
        The engine reads its window, clock, and side arrays, and is the
        only writer of its temporal counters during a batch.
    """

    __slots__ = ("sketch", "tap")

    def __init__(self, sketch):
        self.sketch = sketch
        #: Optional audit tap: ``tap(items, times_arr)`` called once per
        #: batch with the original stream items and their resolved
        #: arrival times, *before* the batch is applied (and outside the
        #: timed section, so engine latency histograms stay pure).
        #: Installed by ``ItemBatchMonitor.audited()``; None costs one
        #: attribute check per batch.
        self.tap = None

    # ------------------------------------------------------------------
    # Shared plumbing
    # ------------------------------------------------------------------

    def _commit(self, times_arr: np.ndarray) -> None:
        """Record a fully-applied batch in the sketch's bookkeeping."""
        sketch = self.sketch
        sketch._items_inserted += len(times_arr)
        sketch._now = float(times_arr[-1])

    def _finish_fused(self, times_arr: np.ndarray, end_steps: int,
                      cleaned: int = 0) -> None:
        """Adopt the fused end state: cleaner position plus commit."""
        self.sketch.clock.sync_state(float(times_arr[-1]), end_steps,
                                     cleaned=cleaned)
        self._commit(times_arr)

    def _record(self, count: int, path: str, started: float) -> None:
        """Publish one applied batch to the obs registry (enabled only).

        ``record_batch`` counts the items into the sketch insert totals
        too, so this is a single recorder call per batch.
        """
        _obs.record_batch(type(self.sketch).__name__, count, path,
                          perf_counter() - started)

    def _ingest_loop(self, times_arr: np.ndarray, apply_one) -> None:
        """Reference path: per-item advance + cell writes, then commit.

        This is the library's one deliberate scalar loop over a stream
        batch — the semantic ground truth the fused path is
        property-tested against.
        """
        clock = self.sketch.clock
        for i, now in enumerate(times_arr):  # sketchlint: scalar-ok
            now = float(now)
            clock.advance(now)
            apply_one(i, now)
        self._commit(times_arr)

    def _ingest_deferred(self, times_arr: np.ndarray, scatter) -> None:
        """Deferred-mode path: one-cleaning-circle chunked scatters.

        Within one cleaning circle, touch order cannot affect deferred
        sweeps, so each chunk is committed, advanced, and scattered
        wholesale — the pure-Python stand-in for the paper's
        unsynchronised SIMD cleaning thread. Semantics (including the
        relaxed window guarantee at its edge) match the sweep mode's
        documentation; this path predates the engine and is preserved
        verbatim.
        """
        sketch = self.sketch
        clock = sketch.clock
        chunk = max(1, int(sketch.window.length) // clock.circles_per_window)
        total = len(times_arr)
        pos = 0
        while pos < total:
            end = min(pos + chunk, total)
            sketch._items_inserted += end - pos
            sketch._now = float(times_arr[end - 1])
            clock.advance(sketch._now)
            scatter(pos, end)
            pos = end

    # ------------------------------------------------------------------
    # Per-structure ingestion
    # ------------------------------------------------------------------

    def ingest_touch(self, index_matrix: np.ndarray, times=None,
                     items=None) -> None:
        """Batch of plain clock touches (BF+clock, BM+clock).

        ``index_matrix`` is ``(N, k)`` cell indexes in arrival order
        (bitmaps pass ``k = 1``); ``times`` follows ``insert_many``'s
        contract; ``items`` is the original stream batch, forwarded to
        the audit tap when one is installed.
        """
        sketch = self.sketch
        clock = sketch.clock
        count = len(index_matrix)
        times_arr = sketch._insert_times_many(count, times)
        if not count:
            return
        if self.tap is not None and items is not None:
            self.tap(items, times_arr)
        started = perf_counter() if _obs.ENABLED else 0.0
        with _trace.child_span(_names.SPAN_ENGINE_BATCH) as sp:
            if clock.is_deferred:

                def scatter(pos, end):
                    clock.touch(index_matrix[pos:end].ravel())

                self._ingest_deferred(times_arr, scatter)
                path = "deferred"
            elif count >= MIN_FUSED:
                steps = clock.step_targets(times_arr)
                end_steps = int(steps[-1])
                cleaned = _kernels.fuse_touch(
                    clock,
                    index_matrix.ravel(),
                    np.repeat(steps, index_matrix.shape[1]),
                    end_steps,
                    count_cleaned=_obs.ENABLED,
                )
                self._finish_fused(times_arr, end_steps, cleaned)
                path = "fused"
            else:
                self._ingest_loop(
                    times_arr, lambda i, now: clock.touch(index_matrix[i])
                )
                path = "loop"
            if sp.recording:
                sp.set("sketch", type(sketch).__name__)
                sp.set("path", path)
                sp.set("items", count)
        if _obs.ENABLED:
            self._record(count, path, started)

    def ingest_timespan(self, index_matrix: np.ndarray, times=None,
                        items=None) -> None:
        """Batch of touches plus first-writer timestamps (BF-ts+clock)."""
        sketch = self.sketch
        clock = sketch.clock
        timestamps = sketch.timestamps
        count = len(index_matrix)
        times_arr = sketch._insert_times_many(count, times)
        if not count:
            return
        if times_arr[0] <= 0:
            raise TimeError("time-span sketch requires positive stream times")
        if self.tap is not None and items is not None:
            self.tap(items, times_arr)
        k = index_matrix.shape[1]
        started = perf_counter() if _obs.ENABLED else 0.0
        with _trace.child_span(_names.SPAN_ENGINE_BATCH) as sp:
            if clock.is_deferred:

                def scatter(pos, end):
                    stamps = times_arr[pos:end]
                    flats = index_matrix[pos:end].ravel()
                    # First-writer-wins per cell: the minimum arrival
                    # time of the chunk's writers, applied only to empty
                    # cells (working over the chunk's unique cells keeps
                    # this O(chunk)).
                    uniq, inverse = np.unique(flats, return_inverse=True)
                    firsts = np.full(uniq.size, np.inf, dtype=np.float64)
                    np.minimum.at(firsts, inverse, np.repeat(stamps, k))
                    empty = timestamps[uniq] == 0.0
                    timestamps[uniq[empty]] = firsts[empty]
                    clock.touch(flats)

                self._ingest_deferred(times_arr, scatter)
                path = "deferred"
            elif count >= MIN_FUSED:
                steps = clock.step_targets(times_arr)
                end_steps = int(steps[-1])
                cleaned = _kernels.fuse_timespan(
                    clock,
                    timestamps,
                    index_matrix.ravel(),
                    np.repeat(steps, k),
                    np.repeat(times_arr, k),
                    end_steps,
                    count_cleaned=_obs.ENABLED,
                )
                self._finish_fused(times_arr, end_steps, cleaned)
                path = "fused"
            else:

                def apply_one(i, now):
                    row = index_matrix[i]
                    clock.touch(row)
                    for cell in row:
                        if timestamps[cell] == 0.0:
                            timestamps[cell] = now

                self._ingest_loop(times_arr, apply_one)
                path = "loop"
            if sp.recording:
                sp.set("sketch", type(sketch).__name__)
                sp.set("path", path)
                sp.set("items", count)
        if _obs.ENABLED:
            self._record(count, path, started)

    def ingest_countmin(self, flat_matrix: np.ndarray, times=None,
                        items=None) -> None:
        """Batch of counter bumps plus touches (CM+clock).

        Conservative update inspects the counters it is about to bump,
        making it order-dependent with no closed form — it always takes
        the loop path, so batch and scalar results stay exactly equal.
        """
        sketch = self.sketch
        clock = sketch.clock
        counters = sketch.counters
        count = len(flat_matrix)
        times_arr = sketch._insert_times_many(count, times)
        if not count:
            return
        if self.tap is not None and items is not None:
            self.tap(items, times_arr)
        started = perf_counter() if _obs.ENABLED else 0.0
        with _trace.child_span(_names.SPAN_ENGINE_BATCH) as sp:
            if clock.is_deferred and not sketch.conservative:
                counter_max = sketch.counter_max

                def scatter(pos, end):
                    flats = flat_matrix[pos:end].ravel()
                    # uint32 counters cannot wrap at these chunk sizes;
                    # clamp only the touched cells back to the ceiling.
                    np.add.at(counters, flats, 1)
                    touched = np.unique(flats)
                    over = touched[counters[touched] > counter_max]
                    if over.size:
                        counters[over] = counter_max
                    clock.touch(flats)

                self._ingest_deferred(times_arr, scatter)
                path = "deferred"
            elif not sketch.conservative and count >= MIN_FUSED:
                steps = clock.step_targets(times_arr)
                end_steps = int(steps[-1])
                cleaned = _kernels.fuse_countmin(
                    clock,
                    counters,
                    sketch.counter_max,
                    flat_matrix.ravel(),
                    np.repeat(steps, flat_matrix.shape[1]),
                    end_steps,
                    count_cleaned=_obs.ENABLED,
                )
                self._finish_fused(times_arr, end_steps, cleaned)
                path = "fused"
            else:

                def apply_one(i, now):
                    row = flat_matrix[i]
                    sketch._bump(row)
                    clock.touch(row)

                self._ingest_loop(times_arr, apply_one)
                path = "loop"
            if sp.recording:
                sp.set("sketch", type(sketch).__name__)
                sp.set("path", path)
                sp.set("items", count)
        if _obs.ENABLED:
            self._record(count, path, started)
