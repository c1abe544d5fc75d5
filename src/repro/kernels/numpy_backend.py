"""The numeric hot-path kernels: the library's one implementation.

Every per-cell and per-batch primitive the sketches compute lives here
as a module-level function: closed-form sweep-hit counting
(:func:`sweep_hits`, :func:`snapshot_values`), the vector sweep passes
(:func:`decay_all`, :func:`decrement_range`, split by :func:`sweep`),
the fused batch finishers (:func:`fuse_touch`, :func:`fuse_timespan`,
:func:`fuse_countmin`) and the shard scatter fan-out
(:func:`scatter_by_shard`). Callers reach them as attributes of this
module (``_kernels.fuse_touch(...)``), never through a ``from ...
import`` binding, so the parity suite can swap in the loop reference of
:mod:`repro.kernels.loops` and a profiler can wrap them by name.

The fused finishers (the paper's snapshot trick, applied
incrementally) change only the cells the cleaning pointer swept and the
cells the batch touched. Each reads the touched cells' pre-batch state,
decays the clock in place by the batch's sweep steps (:func:`sweep`),
clears the side arrays of the cells that sweep expired, and writes each
touched cell's end-of-batch value, rebuilt from its *last* touch by
:func:`snapshot_values`, through a view. Expiry *between* touches of
one batch is reconstructed per touched cell from closed-form hit counts
(:func:`sweep_hits`): a touch found its cell empty iff the hits since
the previous touch cover the value the cell held then.

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
    "sweep",
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


def sweep(values: np.ndarray, steps_done: int, steps: int,
          max_value: int) -> list[np.ndarray]:
    """Run the cleaning pointer ``steps`` sweep steps on, in place.

    The steps after ``steps_done`` start at cell ``steps_done mod n``.
    The split is a Python-int ``divmod``, exact for any step count:
    every cell loses the full rounds (:func:`decay_all`, clamped at
    ``max_value`` so the subtrahend fits the cell dtype), then the
    partial circle is one :func:`decrement_range` slice, or two when it
    wraps past cell ``n - 1``. Returns each pass's expired cells, in
    pass order.
    """
    n = values.shape[0]
    rounds, rest = divmod(steps, n)
    expired = []
    if rounds:
        expired.append(decay_all(values, min(rounds, max_value)))
    if rest:
        start = steps_done % n
        end = start + rest
        expired.append(decrement_range(values, start, min(end, n)))
        if end > n:
            expired.append(decrement_range(values, 0, end - n))
    return expired


# ----------------------------------------------------------------------
# Fused batch finishers
# ----------------------------------------------------------------------

def _sweep_and_write(clock: Any, touched: np.ndarray, final: np.ndarray,
                     end_steps: int,
                     count_cleaned: bool) -> tuple[list[np.ndarray], int]:
    """Sweep the clock to ``end_steps``, then write ``final`` to ``touched``.

    Returns the cells the sweep expired (see :func:`sweep`) and, when
    ``count_cleaned``, the cells the batch left expired (live before,
    zero after): the sweep's expiries less the touched cells it emptied
    but a touch left live, since a touched cell the sweep left live
    ends live too. Otherwise the count is 0 (the engine passes
    ``count_cleaned=_obs.ENABLED``) and the clock's
    ``cells_cleaned_total`` stays a sweep-path-only statistic.
    """
    values = clock.values
    if count_cleaned:
        before = values[touched]
    expired = sweep(values, clock.steps_done, end_steps - clock.steps_done,
                    clock.max_value)
    cleaned = 0
    if count_cleaned:
        revived = (before > 0) & (values[touched] == 0) & (final > 0)
        cleaned = sum(cells.size for cells in expired) \
            - int(np.count_nonzero(revived))
    values[touched] = final
    return expired, cleaned


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

    Reads the touched cells' pre-batch values from the clock, so build
    it before the batch's sweep moves them.
    """

    def __init__(self, clock: Any, cells: np.ndarray, steps: np.ndarray,
                 end_steps: int) -> None:
        n = clock.n
        # Cell ids below 2^16 sort as uint16, which numpy's stable sort
        # radix-sorts: the same permutation, several times faster.
        order = np.argsort(cells.astype(np.uint16) if n <= 1 << 16
                           else cells, kind="stable")
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
        held = clock.values[sc[f]].astype(np.int64)
        empty[f] = (hits_at[f] - sweep_hits(clock.steps_done, sc[f], n)) \
            >= held
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
    clock's sweep telemetry consistent; otherwise returns 0.
    """
    last_set = np.full(clock.n, -1, dtype=np.int64)
    np.maximum.at(last_set, cells, steps)
    touched = np.flatnonzero(last_set >= 0)
    final = snapshot_values(
        last_set[touched], touched, clock.n, clock.max_value, end_steps
    )
    return _sweep_and_write(clock, touched, final, end_steps,
                            count_cleaned)[1]


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
    segs = _TouchSegments(clock, cells, steps, end_steps)
    seg_cells = segs.seg_cells
    ts_new = np.where(
        segs.last_reset >= 0,
        stamps[segs.order[np.maximum(segs.last_reset, 0)]],
        timestamps[seg_cells],
    )
    ts_new[segs.final_values == 0] = 0.0

    expired, cleaned = _sweep_and_write(clock, seg_cells, segs.final_values,
                                        end_steps, count_cleaned)
    for dead in expired:
        timestamps[dead] = 0.0
    timestamps[seg_cells] = ts_new
    return cleaned


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
    segs = _TouchSegments(clock, cells, steps, end_steps)
    seg_cells = segs.seg_cells
    has_reset = segs.last_reset >= 0
    seg_len = segs.seg_last - segs.seg_first + 1
    base = np.where(has_reset, 0, counters[seg_cells].astype(np.int64))
    since = np.where(has_reset, segs.seg_last - segs.last_reset + 1, seg_len)
    ctr_new = np.minimum(base + since, counter_max)
    ctr_new[segs.final_values == 0] = 0

    expired, cleaned = _sweep_and_write(clock, seg_cells, segs.final_values,
                                        end_steps, count_cleaned)
    for dead in expired:
        counters[dead] = 0
    counters[seg_cells] = ctr_new.astype(counters.dtype)
    return cleaned


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
