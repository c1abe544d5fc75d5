"""The clock cell array and its cleaning pointer (paper §3.2).

A :class:`ClockArray` is ``n`` cells of ``s`` bits each, viewed as a
cyclic queue. Inserting an item sets its hashed cells to the maximum
value ``2^s - 1``; a cleaning pointer sweeps the array decrementing each
cell it passes, completing one full circle every ``T / (2^s - 2)`` time
units — i.e. ``2^s - 2`` circles per window. Zero is reserved as the
"invalid/empty" flag: when a cell decrements to zero, the information in
the attached sketch cell is expired.

Guarantees (the paper's core invariants, enforced by tests):

- *No false expiry*: a cell set at time ``t`` is swept at most
  ``2^s - 2`` times before ``t + T``, so it stays non-zero throughout
  the window.
- *Bounded staleness*: by ``t + T * (1 + 1/(2^s - 2))`` the cell has
  been swept ``2^s - 1`` times and is guaranteed zero — the residual
  ``T / (2^s - 2)`` is the paper's *error window*.

The cleaner is driven lazily: callers ``advance(now)`` before every
insert or query, and the array performs exactly the sweep steps the
paper's background thread would have performed by then. Count-based
windows use exact integer arithmetic, so the schedule is deterministic.

Two sweep implementations with identical semantics are provided:
``vector`` (numpy range operations — the stand-in for the paper's SIMD
cleaning) and ``scalar`` (a per-cell Python loop, the stand-in for the
paper's plain single-thread cleaning). Table 3's throughput comparison
is the ratio between them.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigurationError, TimeError
from ..kernels import numpy_backend as _kernels
from ..obs import runtime as _obs
from ..timebase import WindowSpec

__all__ = ["ClockArray", "circles_per_window_for", "dtype_for_bits",
           "max_value_for"]

#: Step counts (and count-based step products) must stay below this.
_STEP_LIMIT = 2**63


def max_value_for(s: int) -> int:
    """Maximum value of an ``s``-bit clock cell, ``2^s - 1``.

    The one place the repo computes this constant — everything outside
    :mod:`clockarray` goes through here (or an instance's
    ``max_value``) instead of repeating the bit arithmetic.
    """
    return (1 << s) - 1


def circles_per_window_for(s: int) -> int:
    """Cleaning circles per window for ``s``-bit cells, ``2^s - 2``.

    The cleaner sweeps one full circle every ``T / (2^s - 2)`` time
    units — the paper's error window denominator.
    """
    return (1 << s) - 2


def dtype_for_bits(s: int) -> np.dtype:
    """Smallest unsigned numpy dtype that can hold an ``s``-bit value."""
    if s <= 8:
        return np.dtype(np.uint8)
    if s <= 16:
        return np.dtype(np.uint16)
    if s <= 32:
        return np.dtype(np.uint32)
    return np.dtype(np.uint64)


class ClockArray:
    """An ``s``-bit clock cell array with a lazily-driven cleaning pointer.

    Parameters
    ----------
    n:
        Number of clock cells.
    s:
        Bits per clock cell, ``2..64``. The paper requires ``s >= 2``
        because the sweep period is ``T / (2^s - 2)``.
    window:
        The :class:`~repro.timebase.WindowSpec` the array must preserve.
    on_expire:
        Optional callback invoked with a numpy array of cell indexes
        whose clocks just reached zero (used to clear sketch cells).
    sweep_mode:
        ``"vector"`` (numpy, default), ``"scalar"`` (Python loop),
        ``"deferred"`` (vectorised sweeps executed only once a full
        circle of work has accumulated — the stand-in for the paper's
        unsynchronised SIMD cleaning thread), or ``"deferred-scalar"``
        (same deferral, scalar sweeps — the unsynchronised cleaning
        thread *without* SIMD).

        The deferred modes trade the window guarantee at its edge, just
        like the paper's synchronisation-free threads: because a batched
        sweep can replay steps that nominally preceded a recent touch,
        a cell's effective protection shrinks by up to one cleaning
        circle — ages below ``T - T/(2^s - 2)`` are still guaranteed
        preserved, and staleness remains bounded by one extra circle.
        The exact modes (``vector``/``scalar``) preserve the full
        guarantee.
    """

    def __init__(self, n: int, s: int, window: WindowSpec, on_expire=None,
                 sweep_mode: str = "vector"):
        if not 2 <= s <= 64:
            raise ConfigurationError(f"clock cell size s must be in 2..64, got {s}")
        if n <= 0:
            raise ConfigurationError(f"cell count must be positive, got {n}")
        if sweep_mode not in ("vector", "scalar", "deferred", "deferred-scalar"):
            raise ConfigurationError(f"unknown sweep mode {sweep_mode!r}")
        self.n = int(n)
        self.s = int(s)
        self.window = window
        self.max_value = max_value_for(s)
        self.circles_per_window = circles_per_window_for(s)
        self.values = np.zeros(self.n, dtype=dtype_for_bits(s))
        self.on_expire = on_expire
        self.sweep_mode = sweep_mode
        self._steps_done = 0
        self._now = 0.0
        # Sweep telemetry: plain ints maintained unconditionally (the
        # obs registry/ring only sees them while enabled).
        self._sweeps_done = 0
        self._cells_cleaned_total = 0
        # Exact integer scheduling is possible for count-based windows.
        self._count_based = window.is_count_based
        self._window_length = window.length

    # ------------------------------------------------------------------
    # Sweep scheduling
    # ------------------------------------------------------------------

    def total_steps_at(self, now) -> int:
        """Total sweep steps the cleaner has performed by time ``now``."""
        if self._count_based:
            return (int(now) * self.n * self.circles_per_window) // int(self._window_length)
        return math.floor(now * self.n * self.circles_per_window / self._window_length)

    def reaches(self, now) -> bool:
        """Does the sweep schedule have a step target at finite ``now``?

        The batch kernels keep step counts in int64, so a time whose
        step count (for count-based windows, the product
        ``count * n * circles`` the count is scaled by) reaches 2^63, or
        overflows float to infinity, has none.
        """
        if self._count_based:
            return int(now) * self.n * self.circles_per_window < _STEP_LIMIT
        return now * self.n * self.circles_per_window / self._window_length \
            < _STEP_LIMIT

    def step_targets(self, times: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`total_steps_at` over an array of times.

        Bit-identical to calling :meth:`total_steps_at` per element:
        count-based windows use the same exact integer arithmetic, and
        time-based windows perform the identical sequence of float64
        operations before flooring.
        """
        times = np.asarray(times, dtype=np.float64)
        if self._count_based:
            counts = times.astype(np.int64)
            return (counts * self.n * self.circles_per_window) // int(self._window_length)
        raw = times * self.n * self.circles_per_window / self._window_length
        return np.floor(raw).astype(np.int64)

    @property
    def now(self) -> float:
        """The latest time the array has been advanced to."""
        return self._now

    @property
    def steps_done(self) -> int:
        """Total sweep steps performed so far."""
        return self._steps_done

    @property
    def pointer(self) -> int:
        """Current position of the cleaning pointer."""
        return self._steps_done % self.n

    def advance(self, now) -> None:
        """Run the cleaning pointer forward to time ``now``.

        Raises :class:`~repro.errors.TimeError` if ``now`` moves
        backwards — streams are monotone.
        """
        if now < self._now:
            raise TimeError(f"time moved backwards: {now} < {self._now}")
        target = self.total_steps_at(now)
        self._now = now
        delta = target - self._steps_done
        if delta <= 0:
            return
        if self.sweep_mode.startswith("deferred") and delta < self.n:
            # Let the "background thread" fall behind by up to one
            # circle before doing any work.
            if _obs.ENABLED:
                _obs.record_sweep_deferral(delta)
            return
        cleaned_before = self._cells_cleaned_total
        if self.sweep_mode in ("scalar", "deferred-scalar"):
            self._sweep_scalar(delta)
        else:
            self._sweep_vector(delta)
        self._steps_done = target
        self._sweeps_done += 1
        if _obs.ENABLED:
            _obs.record_sweep(
                self._now, self.pointer,
                self._cells_cleaned_total - cleaned_before, delta,
            )

    @property
    def is_deferred(self) -> bool:
        """True when cleaning is batched behind the insert path."""
        return self.sweep_mode.startswith("deferred")

    def sync_state(self, now, steps_done: int, cleaned: int = 0) -> None:
        """Adopt an externally computed cleaner position.

        The batch engine's fused kernels (``fuse_*``) sweep a whole
        batch's steps over the cells at once, interleaved with its
        touches in closed form, and the engine then declares the end
        state here instead of replaying the steps through
        :meth:`advance`. ``cleaned`` reports how many cells the batch
        expired, keeping the sweep telemetry consistent with the
        incremental path.
        """
        if now < self._now:
            raise TimeError(f"time moved backwards: {now} < {self._now}")
        self._now = now
        if steps_done > self._steps_done:
            steps = int(steps_done) - self._steps_done
            self._steps_done = int(steps_done)
            self._sweeps_done += 1
            self._cells_cleaned_total += int(cleaned)
            if _obs.ENABLED:
                _obs.record_sweep(self._now, self.pointer, int(cleaned), steps)

    def flush(self) -> None:
        """Force a deferred cleaner to catch up to the current time."""
        target = self.total_steps_at(self._now)
        delta = target - self._steps_done
        if delta > 0:
            cleaned_before = self._cells_cleaned_total
            if self.sweep_mode == "deferred-scalar":
                self._sweep_scalar(delta)
            else:
                self._sweep_vector(delta)
            self._steps_done = target
            self._sweeps_done += 1
            if _obs.ENABLED:
                _obs.record_sweep(
                    self._now, self.pointer,
                    self._cells_cleaned_total - cleaned_before, delta,
                )

    def _emit_expired(self, expired: np.ndarray) -> None:
        if expired.size:
            self._cells_cleaned_total += int(expired.size)
            if self.on_expire is not None:
                self.on_expire(expired)

    def _sweep_vector(self, delta: int) -> None:
        """Perform ``delta`` sweep steps through the vector kernels.

        One ``on_expire`` call per pass that expired cells, in pass
        order (the full rounds, then each slice of the partial circle).
        """
        for expired in _kernels.sweep(self.values, self._steps_done, delta,
                                      self.max_value):
            self._emit_expired(expired)

    def _sweep_scalar(self, delta: int) -> None:
        """Perform ``delta`` sweep steps one cell at a time (reference)."""
        values = self.values
        n = self.n
        pos = self._steps_done % n
        expired = []
        for _ in range(delta):
            v = values[pos]
            if v > 0:
                values[pos] = v - 1
                if v == 1:
                    expired.append(pos)
            pos += 1
            if pos == n:
                pos = 0
        if expired:
            self._emit_expired(np.asarray(expired, dtype=np.int64))

    # ------------------------------------------------------------------
    # Cell access
    # ------------------------------------------------------------------

    def touch(self, indexes) -> None:
        """Set the given cells to the maximum clock value (an insert)."""
        self.values[indexes] = self.max_value

    def load_values(self, image) -> None:
        """Adopt a complete cell image, validating shape and range.

        The write-API twin of reading ``values``: a merge computes the
        union image, a clone copies one, and deserialisation restores
        saved ones — all land here instead of writing the buffer
        directly, so an out-of-range or mis-shaped image is rejected
        before it can corrupt the array.
        """
        # Keep the caller's dtype so the range check sees the image as
        # handed in, before any cast could wrap it.
        image = np.asarray(image)  # sketchlint: dtype-ok
        if image.shape != (self.n,):
            raise ConfigurationError(
                f"cell image shape {image.shape} does not match "
                f"({self.n},)"
            )
        if image.size and (int(image.max()) > self.max_value
                           or int(image.min()) < 0):
            raise ConfigurationError(
                f"cell image holds values outside [0, {self.max_value}]"
            )
        self.values[:] = image.astype(self.values.dtype)

    def bind_buffer(self, view: np.ndarray) -> None:
        """Adopt an external array as the cell buffer (shared memory).

        ``view`` must be a 1-D array of exactly ``n`` cells in this
        array's dtype — typically a numpy view over a shard's anonymous
        shared mapping, so a shard worker can mutate cells the parent
        process reads. The current cell image
        is copied into the view before it is adopted, so binding is
        state-preserving.
        """
        if not isinstance(view, np.ndarray):
            raise ConfigurationError("bind_buffer requires a numpy array view")
        if view.shape != (self.n,) or view.dtype != self.values.dtype:
            raise ConfigurationError(
                f"buffer view {view.dtype}{view.shape} does not match "
                f"{self.values.dtype}({self.n},)"
            )
        view[:] = self.values
        self.values = view

    def count_zero(self) -> int:
        """Number of cells currently at zero (used by bitmap estimation)."""
        return int(np.count_nonzero(self.values == 0))

    def memory_bits(self) -> int:
        """Accounted footprint: ``n`` cells of ``s`` bits."""
        return self.n * self.s

    # ------------------------------------------------------------------
    # Sweep telemetry
    # ------------------------------------------------------------------

    @property
    def sweeps_done(self) -> int:
        """Sweep executions so far (advance/flush/fused batches that did work)."""
        return self._sweeps_done

    @property
    def cells_cleaned_total(self) -> int:
        """Cells expired (decremented to zero) by cleaning so far."""
        return self._cells_cleaned_total

    @property
    def sweep_lag(self) -> int:
        """Steps the cleaner is behind the ideal cadence at the current time.

        Exact sweep modes are always caught up after an operation
        (lag 0); deferred modes let the lag grow to just under one
        circle (``n`` steps) before sweeping.
        """
        return self.total_steps_at(self._now) - self._steps_done

    def fill_ratio(self) -> float:
        """Fraction of cells currently non-zero."""
        return float(np.count_nonzero(self.values)) / self.n

    def sweep_telemetry(self) -> dict:
        """One-call snapshot of the cleaner's bookkeeping."""
        return {
            "sweeps_done": self._sweeps_done,
            "steps_done": self._steps_done,
            "cells_cleaned_total": self._cells_cleaned_total,
            "pointer": self.pointer,
            "sweep_lag": self.sweep_lag,
            "fill_ratio": self.fill_ratio(),
            "zero_cells": self.count_zero(),
        }

    def reset(self) -> None:
        """Clear all cells and rewind the cleaner to time zero."""
        self.values[:] = 0
        self._steps_done = 0
        self._now = 0.0
        self._sweeps_done = 0
        self._cells_cleaned_total = 0

    def __repr__(self) -> str:
        return (
            f"ClockArray(n={self.n}, s={self.s}, window={self.window}, "
            f"mode={self.sweep_mode!r})"
        )
