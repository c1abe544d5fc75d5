"""Batch-ingestion engine shared by all four Clock-sketch variants.

:class:`BatchEngine` is the one place that knows how to turn "a batch
of items with their arrival times" into sketch state. Every sketch owns
an engine and hands :meth:`BatchEngine.ingest` its pre-hashed cells
and the arrival times its stream clock resolved
(:meth:`~repro.core.base.StreamClock.ingest`, which also commits the
batch once every writer has applied it); the engine picks an
application strategy. What a write does beside the clock is the
kind's own rule (:class:`~repro.core.base.ClockSketchKind`): ``_apply``
writes a run of items no sweep step separates, ``_fuse`` is its closed
form.

- **fused** (exact sweep modes, batches of :data:`MIN_FUSED`
  or more): the kind's ``_fuse``, a call into the fused kernels
  (``fuse_*`` in :mod:`repro.kernels.numpy_backend`) — bit-identical
  to the scalar loop, no per-item Python work. A kernel decays the
  clock in place by the batch's sweep steps (a whole-array pass only
  for the full circles the batch spans) and rewrites only the cells
  the batch touched;
- **loop** (exact modes, small batches): the reference per-item
  interleaving of ``advance`` and ``_apply``;
- **deferred** (deferred sweep modes): one ``_apply`` per
  one-cleaning-circle chunk, preserving those modes' documented
  relaxed-window semantics exactly.

Writes that do not commute (``_commutes`` false: Count-Min's
conservative update, which reads the counters it is about to bump)
always take the loop path, so ``insert_many`` stays exactly equal to
the equivalent ``insert`` loop there too.

The engine holds no state a checkpoint needs, so serialisation of a
sketch ignores it entirely.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from ..obs import names as _names
from ..obs import runtime as _obs
from ..obs import trace as _trace

__all__ = ["BatchEngine", "MIN_FUSED"]

#: Smallest batch routed through the fused closed-form path. Below
#: this, the numpy setup (touch sort, segment bookkeeping, the sweep
#: passes) costs more than the per-item loop it replaces. Measured on
#: the serving tenant's four-task monitor (64KB, window 4096, 12K caida
#: string keys per run, 2-CPU container), items/s fused vs loop, median
#: of 5 runs (10 at 8): 1 key 1.4K vs 3.2K, 4 keys 6.9K vs 8.4K, 8 keys
#: 12.4K vs 14.4K, 10 keys 15.9K vs 15.1K, 12 keys 22.6K vs 17.8K (the
#: fused path won all 5 runs), 16 keys 24.1K vs 18.8K. Both paths
#: produce bit-identical state, so only speed sets the cutover.
MIN_FUSED = 12


class BatchEngine:
    """Applies whole insert batches to one sketch.

    Parameters
    ----------
    sketch:
        The owning :class:`~repro.core.base.ClockSketchKind` instance.
        The engine reads its window and clock and applies its write
        rules.
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

    def ingest(self, cells: np.ndarray, times_arr: np.ndarray,
               items=None) -> None:
        """Apply a non-empty batch: ``cells`` is its ``(N, k)`` cell matrix.

        Rows are in arrival order (bitmaps pass ``k = 1``); ``times_arr``
        holds the items' resolved, validated arrival times; ``items`` is
        the original stream batch, forwarded to the audit tap when one
        is installed.
        """
        sketch = self.sketch
        clock = sketch.clock
        count = len(cells)
        if self.tap is not None and items is not None:
            self.tap(items, times_arr)
        started = perf_counter() if _obs.ENABLED else 0.0
        with _trace.child_span(_names.SPAN_ENGINE_BATCH) as sp:
            if sketch._commutes and clock.is_deferred:
                self._ingest_deferred(cells, times_arr)
                path = "deferred"
            elif sketch._commutes and count >= MIN_FUSED:
                steps = clock.step_targets(times_arr)
                end_steps = int(steps[-1])
                cleaned = sketch._fuse(cells, steps, times_arr, end_steps,
                                       _obs.ENABLED)
                clock.sync_state(float(times_arr[-1]), end_steps,
                                 cleaned=cleaned)
                path = "fused"
            else:
                self._ingest_loop(cells, times_arr)
                path = "loop"
            if sp.recording:
                sp.set("sketch", type(sketch).__name__)
                sp.set("path", path)
                sp.set("items", count)
        if _obs.ENABLED:
            _obs.record_batch(type(sketch).__name__, count, path,
                              perf_counter() - started)

    def _ingest_loop(self, cells: np.ndarray, times_arr: np.ndarray) -> None:
        """Reference path: per-item advance + ``_apply``.

        This is the library's one deliberate scalar loop over a stream
        batch — the semantic ground truth the fused path is
        property-tested against.
        """
        clock = self.sketch.clock
        apply = self.sketch._apply
        for row, now in zip(cells, times_arr):  # sketchlint: scalar-ok
            now = float(now)
            clock.advance(now)
            apply(row, now)

    def _ingest_deferred(self, cells: np.ndarray,
                         times_arr: np.ndarray) -> None:
        """Deferred-mode path: one ``_apply`` per cleaning-circle chunk.

        Within one cleaning circle, touch order cannot affect deferred
        sweeps, so each chunk is advanced and applied
        wholesale — the pure-Python stand-in for the paper's
        unsynchronised SIMD cleaning thread. Semantics (including the
        relaxed window guarantee at its edge) match the sweep mode's
        documentation.
        """
        sketch = self.sketch
        clock = sketch.clock
        chunk = max(1, int(sketch.window.length) // clock.circles_per_window)
        total = len(times_arr)
        pos = 0
        while pos < total:
            end = min(pos + chunk, total)
            clock.advance(float(times_arr[end - 1]))
            sketch._apply(cells[pos:end], times_arr[pos:end, None])
            pos = end
