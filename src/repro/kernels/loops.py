"""Loop-form reference kernels: the differential twin of the numpy kernels.

Each function here has the name and signature of its counterpart in
:mod:`repro.kernels.numpy_backend` (``decay_all``, ``decrement_range``,
``fuse_touch``, ``fuse_timespan``, ``fuse_countmin``) and computes the
same result as explicit per-cell and per-touch loops over int64/float64
working copies. The numpy kernels derive a batch's effect in closed
form over sorted touch segments; these walk it in arrival order, so the
two are independent statements of one semantics.

Nothing in the library calls this module. The kernel parity suite
swaps these functions in for the numpy ones with ``monkeypatch.setattr``
on ``numpy_backend`` and asserts bit-identical sketch state, expiry logs
and query answers. The per-touch recurrences below are the sequential
form of the segment reconstruction in
:mod:`repro.kernels.numpy_backend` (see the comments on each kernel).
Interpreter-slow by design.
"""

from __future__ import annotations

from typing import Any

import numpy as np

__all__ = ["decay_all", "decrement_range", "fuse_countmin",
           "fuse_timespan", "fuse_touch"]


def _hits(m: int, c: int, n: int) -> int:
    # Scalar form of sweep_hits: steps in [1, m] that hit cell c.
    if m >= c + 1:
        return (m - 1 - c) // n + 1
    return 0


def decay_all(values: np.ndarray, rounds: int) -> np.ndarray:
    """Every cell loses ``rounds`` (clamped at zero); returns expiries."""
    work = values.astype(np.int64)
    expired: list[int] = []
    for c in range(work.shape[0]):
        v = work[c]
        if v > 0:
            v2 = v - rounds
            if v2 < 0:
                v2 = 0
            work[c] = v2
            if v2 == 0:
                expired.append(c)
    values[:] = work.astype(values.dtype)
    return np.asarray(expired, dtype=np.int64)


def decrement_range(values: np.ndarray, a: int, b: int) -> np.ndarray:
    """One sweep pass over cells ``a..b-1``; returns absolute expiries."""
    work = values[a:b].astype(np.int64)
    expired: list[int] = []
    for c in range(work.shape[0]):
        v = work[c]
        if v > 0:
            work[c] = v - 1
            if v == 1:
                expired.append(a + c)
    values[a:b] = work.astype(values.dtype)
    return np.asarray(expired, dtype=np.int64)


def _final_values(old: np.ndarray, last: np.ndarray, start_steps: int,
                  end_steps: int, max_value: int, n: int) -> np.ndarray:
    # Closed-form final value per cell: touched cells decay from
    # max_value at their last touch, untouched cells from their
    # pre-batch value.
    final = np.zeros(n, dtype=np.int64)
    for c in range(n):
        if last[c] >= 0:
            v = max_value - (_hits(end_steps, c, n) - _hits(last[c], c, n))
        else:
            v = old[c] - (_hits(end_steps, c, n) - _hits(start_steps, c, n))
        if v < 0:
            v = 0
        final[c] = v
    return final


def _commit(clock: Any, old: np.ndarray, final: np.ndarray,
            count_cleaned: bool) -> int:
    # `cleaned` counts live-before/zero-after cells, which equals
    # nonzero(before) - nonzero(after) + born.
    clock.load_values(final)
    if not count_cleaned:
        return 0
    return sum(1 for c in range(old.shape[0]) if old[c] > 0 and final[c] == 0)


def fuse_touch(clock: Any, cells: np.ndarray, steps: np.ndarray,
               end_steps: int, count_cleaned: bool = False) -> int:
    """Fused batch of plain clock touches, one touch at a time."""
    n = clock.n
    old = clock.values.astype(np.int64)
    last = np.full(n, -1, dtype=np.int64)
    for c, s in zip(cells.tolist(), steps.tolist()):
        if s > last[c]:
            last[c] = s
    final = _final_values(old, last, clock.steps_done, end_steps,
                          clock.max_value, n)
    return _commit(clock, old, final, count_cleaned)


def fuse_timespan(clock: Any, timestamps: np.ndarray, cells: np.ndarray,
                  steps: np.ndarray, stamps: np.ndarray, end_steps: int,
                  count_cleaned: bool = False) -> int:
    """Fused batch of touches plus first-writer timestamps."""
    n = clock.n
    max_value = clock.max_value
    start_steps = clock.steps_done
    old = clock.values.astype(np.int64)
    last = np.full(n, -1, dtype=np.int64)
    ts_new = np.zeros(n, dtype=np.float64)
    # Walk the touches in arrival order; a touch finds its cell empty
    # iff the decrements since the previous touch (or since the batch
    # started) cover the value held then — exactly then it resets the
    # first-writer timestamp to its own stamp.
    for c, s, stamp in zip(cells.tolist(), steps.tolist(), stamps.tolist()):
        prev = last[c]
        if prev < 0:
            decs = _hits(s, c, n) - _hits(start_steps, c, n)
            if decs >= old[c]:
                ts_new[c] = stamp
            else:
                ts_new[c] = timestamps[c]
        else:
            decs = _hits(s, c, n) - _hits(prev, c, n)
            if decs >= max_value:
                ts_new[c] = stamp
        last[c] = s
    final = _final_values(old, last, start_steps, end_steps, max_value, n)
    for c in range(n):
        if final[c] == 0:
            timestamps[c] = 0.0
        elif last[c] >= 0:
            timestamps[c] = ts_new[c]
    return _commit(clock, old, final, count_cleaned)


def fuse_countmin(clock: Any, counters: np.ndarray, counter_max: int,
                  cells: np.ndarray, steps: np.ndarray, end_steps: int,
                  count_cleaned: bool = False) -> int:
    """Fused batch of saturating counter bumps plus touches."""
    n = clock.n
    max_value = clock.max_value
    start_steps = clock.steps_done
    old = clock.values.astype(np.int64)
    ctr = counters.astype(np.int64)
    last = np.full(n, -1, dtype=np.int64)
    # Same empty-at-touch recurrence as `fuse_timespan`; a reset
    # restarts the count at 1 (this touch), otherwise the touch
    # increments. Per-touch clamping at counter_max equals the numpy
    # kernel's end-clamp because the count only grows within a batch.
    for c, s in zip(cells.tolist(), steps.tolist()):
        prev = last[c]
        if prev < 0:
            decs = _hits(s, c, n) - _hits(start_steps, c, n)
            held = old[c]
        else:
            decs = _hits(s, c, n) - _hits(prev, c, n)
            held = max_value
        if decs >= held:
            ctr[c] = 1
        else:
            ctr[c] = ctr[c] + 1
        if ctr[c] > counter_max:
            ctr[c] = counter_max
        last[c] = s
    final = _final_values(old, last, start_steps, end_steps, max_value, n)
    ctr[final == 0] = 0
    counters[:] = ctr.astype(counters.dtype)
    return _commit(clock, old, final, count_cleaned)
