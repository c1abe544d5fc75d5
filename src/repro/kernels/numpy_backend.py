"""The numeric hot-path kernels: the library's one implementation.

Every per-cell and per-batch primitive the sketches compute lives here
as a module-level function: closed-form sweep-hit counting
(:func:`sweep_hits`, :func:`snapshot_values`), the vector sweep passes
(:func:`decay_all`, :func:`decrement_range`), the fused batch finishers
(:func:`fuse_touch`, :func:`fuse_timespan`, :func:`fuse_countmin`) and
the shard scatter fan-out (:func:`scatter_by_shard`). Callers reach them
as attributes of this module (``_kernels.fuse_touch(...)``), never
through a ``from ... import`` binding, so the parity suite can swap in
the loop reference of :mod:`repro.kernels.loops` and a profiler can wrap
them by name.

The closed-form math (the paper's snapshot trick, applied
incrementally): between two consecutive touches of a cell the sweep
only ever decrements it (clamped at zero), so the cell's value after a
batch is fully determined by (a) its value when the batch started,
(b) the sweep-step numbers at which the batch touched it, and (c) the
sweep-step count at the end of the batch. :func:`sweep_hits` counts
decrements over any step interval in closed form, which turns a whole
batch into grouped scatter operations:

- every cell decays by its hit count over the batch interval;
- touched cells are rewritten from their *last* touch
  (:func:`snapshot_values`);
- expiry side effects (timestamp / counter clearing) are reconstructed
  per cell from the hit counts *between* consecutive touches — a cell
  expired in a gap iff the gap contains at least ``2^s - 1`` hits.

The fused finishers apply only to the exact sweep modes (``vector`` /
``scalar``), where the cleaner is fully caught up before every
operation; the deferred modes keep their chunked path (see
:mod:`repro.engine.batch`), matching their documented relaxed
guarantee. ``on_expire`` callbacks are *not* invoked by the finishers —
callers hand in the side arrays and the kernels update them directly,
which is exactly what the callbacks would have done.
"""

from __future__ import annotations

from typing import Any

import numpy as np

__all__ = [
    "decay_all",
    "decrement_range",
    "fuse_countmin",
    "fuse_timespan",
    "fuse_touch",
    "scatter_by_shard",
    "snapshot_values",
    "sweep_hits",
]


# ----------------------------------------------------------------------
# Closed-form sweep arithmetic (from repro.core.clockarray)
# ----------------------------------------------------------------------

def sweep_hits(total_steps: int | np.ndarray, cells: int | np.ndarray,
               n: int) -> np.ndarray:
    """How many times each cell was decremented within the first steps.

    With sweep steps numbered ``1, 2, ...`` (step ``j`` decrements cell
    ``(j - 1) mod n``), returns the number of steps in ``[1, total_steps]``
    that hit ``cells``. Vectorised over numpy arrays; also accepts
    scalars.
    """
    m = np.asarray(total_steps, dtype=np.int64)
    c = np.asarray(cells, dtype=np.int64)
    return np.where(m >= c + 1, (m - 1 - c) // n + 1, 0)


def snapshot_values(
    set_steps: np.ndarray,
    cells: np.ndarray,
    n: int,
    max_value: int,
    query_steps: int,
) -> np.ndarray:
    """Closed-form clock value of each cell at query time.

    ``set_steps[i]`` is the cleaner's total step count when cell
    ``cells[i]`` was last set to ``max_value``; ``query_steps`` is the
    total step count at query time. Equals what the incremental
    :class:`~repro.core.clockarray.ClockArray` would hold — the
    cross-check is a property test.
    """
    decs = sweep_hits(query_steps, cells, n) - sweep_hits(set_steps, cells, n)
    return np.maximum(max_value - decs, 0)


# ----------------------------------------------------------------------
# Vector sweep passes (from ClockArray._sweep_vector)
# ----------------------------------------------------------------------

def decay_all(values: np.ndarray, rounds: int) -> np.ndarray:
    """Decrement every cell ``rounds`` times (clamped at zero).

    Mutates ``values`` in place and returns the indexes of cells that
    were live before and are zero after (ascending). The caller clamps
    ``rounds`` at the cell maximum so the subtrahend stays inside the
    cell dtype.
    """
    was_positive = values > 0
    np.subtract(values, np.minimum(values, values.dtype.type(rounds)),
                out=values)
    return np.flatnonzero(was_positive & (values == 0))


def decrement_range(values: np.ndarray, a: int, b: int) -> np.ndarray:
    """Decrement (clamped at zero) cells ``a..b-1`` once.

    Mutates ``values`` in place and returns the *absolute* indexes of
    cells this pass expired (ascending).
    """
    seg = values[a:b]
    positive = seg > 0
    seg[positive] -= 1
    expired = np.flatnonzero(positive & (seg == 0))
    if expired.size:
        return expired + a
    return expired


# ----------------------------------------------------------------------
# Fused batch finishers
# ----------------------------------------------------------------------

def _cleaned_prelude(clock: Any, touched: np.ndarray, final: np.ndarray,
                     count_cleaned: bool) -> "int | None":
    """First half of the cleaned-cell count; call *before* load_values.

    ``cleaned`` (cells live before the batch, zero after) satisfies

        cleaned = nonzero(before) - nonzero(after) + born

    where ``born`` — cells empty before but live after — can only be
    touched cells, so it needs just the per-touched-cell arrays.
    Counting ``nonzero`` on ``clock.values`` (the small cell dtype, not
    the int64 working copies) keeps this to a fraction of a full
    boolean-mask pass. Only runs when the caller asks for the count
    (the engine passes ``count_cleaned=_obs.ENABLED``) — otherwise the
    fused paths report 0 cleaned and the clock's
    ``cells_cleaned_total`` stays a sweep-path-only statistic.
    """
    if not count_cleaned:
        return None
    nz_before = int(np.count_nonzero(clock.values))
    born = int(np.count_nonzero(final[clock.values.take(touched) == 0]))
    return nz_before + born


def _cleaned_result(clock: Any, prelude: "int | None") -> int:
    """Second half of the cleaned-cell count; call *after* load_values."""
    if prelude is None:
        return 0
    return prelude - int(np.count_nonzero(clock.values))


def _decayed_values(clock: Any,
                    end_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """All-cell values after sweeping to ``end_steps``, before touches.

    Returns ``(old, decayed)`` as int64 arrays: the pre-batch values and
    the values every cell would hold at the end of the batch if the
    batch touched nothing.
    """
    n = clock.n
    cells = np.arange(n, dtype=np.int64)
    hits = sweep_hits(end_steps, cells, n) - sweep_hits(clock.steps_done, cells, n)
    old = clock.values.astype(np.int64)
    return old, np.maximum(old - hits, 0)


class _TouchSegments:
    """Per-cell runs of one batch's touch events, in arrival order.

    ``cells``/``steps`` are flat, aligned, with ``steps`` non-decreasing
    (arrival order). A stable sort by cell yields one contiguous segment
    per touched cell whose events stay chronological; the attributes
    expose everything the side-effect reconstruction needs:

    ``order``        the stable sort permutation (maps flat → sorted);
    ``seg_first`` / ``seg_last``   sorted-index bounds of each segment;
    ``seg_cells``    the cell each segment describes;
    ``last_reset``   sorted index of the segment's last touch that found
                     the cell empty (``-1``: the cell was continuously
                     occupied since before the batch);
    ``final_values`` each touched cell's clock value at ``end_steps``.
    """

    def __init__(self, clock: Any, cells: np.ndarray, steps: np.ndarray,
                 old_values: np.ndarray, end_steps: int) -> None:
        n = clock.n
        order = np.argsort(cells, kind="stable")
        sc = cells[order]
        ss = steps[order]
        first = np.empty(sc.size, dtype=bool)
        first[0] = True
        first[1:] = sc[1:] != sc[:-1]
        seg_first = np.flatnonzero(first)
        seg_last = np.append(seg_first[1:], sc.size) - 1
        seg_id = np.cumsum(first) - 1

        hits_at = sweep_hits(ss, sc, n)
        # A touch finds its cell empty iff the decrements since the
        # previous touch (or since the batch started, for the first
        # touch) cover the value the cell held then.
        empty = np.empty(sc.size, dtype=bool)
        empty[1:] = (hits_at[1:] - hits_at[:-1]) >= clock.max_value
        f = seg_first
        empty[f] = (hits_at[f] - sweep_hits(clock.steps_done, sc[f], n)) \
            >= old_values[sc[f]]
        last_reset = np.full(seg_first.size, -1, dtype=np.int64)
        where = np.flatnonzero(empty)
        np.maximum.at(last_reset, seg_id[where], where)

        self.order = order
        self.seg_first = seg_first
        self.seg_last = seg_last
        self.seg_cells = sc[seg_first]
        self.last_reset = last_reset
        self.final_values = snapshot_values(
            ss[seg_last], self.seg_cells, n, clock.max_value, end_steps
        )


def fuse_touch(clock: Any, cells: np.ndarray, steps: np.ndarray,
               end_steps: int, count_cleaned: bool = False) -> int:
    """Fused batch of plain clock touches (BF+clock / BM+clock).

    ``cells``/``steps`` are flat aligned arrays in arrival order with
    non-decreasing ``steps``. Only the clock values are rewritten; the
    caller commits the cleaner position afterwards. With
    ``count_cleaned`` true, returns the number of cells the batch left
    expired (live before, zero after) so the caller can keep the
    clock's sweep telemetry consistent; otherwise returns 0 and skips
    the extra nonzero passes.
    """
    old, decayed = _decayed_values(clock, end_steps)
    last_set = np.full(clock.n, -1, dtype=np.int64)
    np.maximum.at(last_set, cells, steps)
    touched = np.flatnonzero(last_set >= 0)
    snap = snapshot_values(
        last_set[touched], touched, clock.n, clock.max_value, end_steps
    )
    decayed[touched] = snap
    prelude = _cleaned_prelude(clock, touched, snap, count_cleaned)
    clock.load_values(decayed)
    return _cleaned_result(clock, prelude)


def fuse_timespan(clock: Any, timestamps: np.ndarray, cells: np.ndarray,
                  steps: np.ndarray, stamps: np.ndarray,
                  end_steps: int, count_cleaned: bool = False) -> int:
    """Fused batch for BF-ts+clock: touches plus first-writer timestamps.

    ``stamps`` aligns with ``cells``/``steps`` and carries each touch's
    arrival time. Reproduces the scalar rule exactly: a touch writes its
    time only when the cell is empty, and expiry (including expiry that
    happens *between* touches of this batch) erases the timestamp.
    Returns the number of cells the batch left expired (see
    :func:`fuse_touch`).
    """
    old, decayed = _decayed_values(clock, end_steps)
    segs = _TouchSegments(clock, cells, steps, old, end_steps)
    seg_cells = segs.seg_cells

    has_reset = segs.last_reset >= 0
    sorted_stamps = stamps[segs.order]
    ts_new = np.where(
        has_reset,
        sorted_stamps[np.maximum(segs.last_reset, 0)],
        timestamps[seg_cells],
    )
    ts_new[segs.final_values == 0] = 0.0

    touched_mask = np.zeros(clock.n, dtype=bool)
    touched_mask[seg_cells] = True
    dead = ~touched_mask & (old > 0) & (decayed == 0)
    timestamps[dead] = 0.0
    timestamps[seg_cells] = ts_new

    decayed[seg_cells] = segs.final_values
    prelude = _cleaned_prelude(clock, seg_cells, segs.final_values,
                               count_cleaned)
    clock.load_values(decayed)
    return _cleaned_result(clock, prelude)


def fuse_countmin(clock: Any, counters: np.ndarray, counter_max: int,
                  cells: np.ndarray, steps: np.ndarray,
                  end_steps: int, count_cleaned: bool = False) -> int:
    """Fused batch for CM+clock: saturating counter bumps plus touches.

    Each touch increments its cell's counter (clamped at
    ``counter_max``); expiry — before, between, or after the batch's
    touches — clears the counter, so a cell's final count is the number
    of touches since its last expiry, plus its pre-batch count if it
    never expired. Returns the number of cells the batch left expired
    (see :func:`fuse_touch`).
    """
    old, decayed = _decayed_values(clock, end_steps)
    segs = _TouchSegments(clock, cells, steps, old, end_steps)
    seg_cells = segs.seg_cells

    has_reset = segs.last_reset >= 0
    seg_len = segs.seg_last - segs.seg_first + 1
    base = np.where(has_reset, 0, counters[seg_cells].astype(np.int64))
    since = np.where(has_reset, segs.seg_last - segs.last_reset + 1, seg_len)
    ctr_new = np.minimum(base + since, counter_max)
    ctr_new[segs.final_values == 0] = 0

    touched_mask = np.zeros(clock.n, dtype=bool)
    touched_mask[seg_cells] = True
    dead = ~touched_mask & (old > 0) & (decayed == 0)
    counters[dead] = 0
    counters[seg_cells] = ctr_new.astype(counters.dtype)

    decayed[seg_cells] = segs.final_values
    prelude = _cleaned_prelude(clock, seg_cells, segs.final_values,
                               count_cleaned)
    clock.load_values(decayed)
    return _cleaned_result(clock, prelude)


# ----------------------------------------------------------------------
# Shard scatter fan-out
# ----------------------------------------------------------------------

def scatter_by_shard(items: np.ndarray, times_arr: np.ndarray,
                     shard_ids: np.ndarray,
                     ) -> "list[tuple[int, np.ndarray, np.ndarray]]":
    """Split one batch into per-shard ``(shard, items, times)`` tuples.

    ``items`` is the batch's key-id array; ``shard_ids`` aligns with it
    (one routing id per item, from
    :class:`~repro.hashing.ShardSelector`); ``times_arr`` holds the
    already-resolved global arrival times. Only shards that actually
    receive items appear in the result, in ascending shard order; the
    concatenation of all sub-batches in time order is exactly the input
    batch.

    The receiving shards come from ``bincount``, not ``np.unique``: the
    latter imports ``numpy.ma`` on its first call, which would land in
    the parent after the shard workers fork (dirtying pages they share).
    """
    shard_ids = np.asarray(shard_ids, dtype=np.int64)
    out: "list[tuple[int, Any, np.ndarray]]" = []
    for shard in np.flatnonzero(np.bincount(shard_ids)):
        mask = shard_ids == shard
        out.append((int(shard), items[mask], times_arr[mask]))
    return out
