"""Shared plumbing for the four Clock-sketch applications.

Each application (activeness, cardinality, time span, size) is a
classic sketch whose cells carry ``s``-bit clock cells, driven by one
:class:`~repro.core.clockarray.ClockArray`. Two base classes split the
work:

- :class:`ClockSketchBase` holds the temporal conventions, which the
  baselines and the sharded facade share:

  - **Count-based** windows: the ``i``-th inserted item arrives at time
    ``i`` (1-based); ``insert`` takes no timestamp and queries default
    to "after the latest insert".
  - **Time-based** windows: every ``insert`` must carry a timestamp,
    and queries may carry one (defaulting to the latest time seen).

- :class:`ClockSketchKind` is the base of the four kinds. A kind
  declares its fields, cell arrays, merge, answer and write rules once;
  the kind base builds ``insert``/``insert_many``, ``snapshot``,
  ``merge`` and ``metrics`` from them.

The cleaning pointer is advanced lazily to the operation's time before
the operation executes, which reproduces the paper's concurrent
cleaning thread deterministically.
"""

from __future__ import annotations

import math
from typing import ClassVar

import numpy as np

from ..engine import BatchEngine
from ..errors import ConfigurationError, TimeError
from ..kernels import numpy_backend as _kernels
from ..obs import runtime as _obs
from ..timebase import WindowSpec


class ClockSketchBase:
    """Temporal bookkeeping shared by the kinds, the baselines and the
    sharded facade."""

    #: Sharding escape hatch: a count-based sketch normally derives item
    #: times from its own insert counter, but a shard replica sees only
    #: a subsequence of the stream and must be told each item's *global*
    #: arrival position. The shard router flips this flag on its
    #: replicas so ``_insert_times_many`` accepts an explicit ``times``
    #: array even for count-based windows (validated, non-decreasing);
    #: plain sketches keep rejecting one.
    _accepts_global_times = False

    #: Insert times must be positive: the time-span kind's stamp 0
    #: marks an empty cell. A sharded facade copies its kind's flag.
    _positive_times = False

    def __init__(self, window: WindowSpec):
        self.window = window
        self._items_inserted = 0
        self._now = 0.0

    @property
    def items_inserted(self) -> int:
        """Number of items inserted so far."""
        return self._items_inserted

    @property
    def now(self) -> float:
        """The current stream time (item count or timestamp)."""
        return self._now

    def _insert_time(self, t) -> float:
        """Resolve and record the time of an insert.

        Stream times are non-decreasing: ``t`` equal to the current time
        is explicitly allowed (ties are routine — batches of items often
        share one timestamp); a time :meth:`_check_insert_times` refuses
        raises :class:`~repro.errors.TimeError` before anything moves.
        """
        if self.window.is_count_based:
            if t is not None:
                raise TimeError(
                    "count-based sketches take no insert timestamp; "
                    "time is the item count"
                )
            self._items_inserted += 1
            self._now = float(self._items_inserted)
            if _obs.ENABLED:
                _obs.record_insert(type(self).__name__)
            return self._now
        if t is None:
            raise TimeError("time-based sketches require an insert timestamp")
        self._check_insert_times(t, t)
        self._items_inserted += 1
        self._now = float(t)
        if _obs.ENABLED:
            _obs.record_insert(type(self).__name__)
        return self._now

    def _insert_times_many(self, count: int, times) -> np.ndarray:
        """Resolve a whole batch of insert times in one vectorised pass.

        The array twin of :meth:`_insert_time`: applies the same
        temporal rules to ``count`` items at once and returns the
        per-item arrival times as ``float64``, *without* mutating the
        sketch — callers commit the batch once it is applied, so a
        rejected batch leaves the sketch untouched.

        Count-based windows take ``times=None`` (items arrive at
        consecutive counts); time-based windows require a finite,
        non-decreasing ``times`` array whose first entry is not before
        the current time. Ties — runs of equal timestamps — are allowed, exactly as
        in the scalar path.
        """
        if self.window.is_count_based:
            if times is not None and not self._accepts_global_times:
                raise TimeError(
                    "count-based sketches take no insert timestamp; "
                    "time is the item count"
                )
            if times is not None:
                # A shard replica receiving global arrival positions:
                # validate exactly like the time-based path so the step
                # schedule stays the plain sketch's integer arithmetic.
                resolved = np.asarray(times, dtype=np.float64)
                if resolved.ndim != 1 or resolved.shape[0] != count:
                    raise ConfigurationError(
                        f"times must align with the {count} items, "
                        f"got shape {resolved.shape}"
                    )
                if count:
                    if resolved[0] <= self._now:
                        raise TimeError(
                            f"global arrival positions must advance: "
                            f"{resolved[0]} <= {self._now}"
                        )
                    if np.any(resolved[1:] <= resolved[:-1]):
                        raise TimeError(
                            "global arrival positions must be strictly "
                            "increasing within a batch"
                        )
                return resolved
            start = self._items_inserted
            return np.arange(start + 1, start + count + 1, dtype=np.float64)
        if times is None:
            raise ConfigurationError("time-based insert_many requires times")
        resolved = np.asarray(times, dtype=np.float64)
        if resolved.ndim != 1 or resolved.shape[0] != count:
            raise ConfigurationError(
                f"times must align with the {count} items, "
                f"got shape {resolved.shape}"
            )
        if count:
            if not np.isfinite(resolved).all():
                raise TimeError("insert times must be finite")
            self._check_insert_times(float(resolved[0]), float(resolved[-1]))
            if np.any(resolved[1:] < resolved[:-1]):
                raise TimeError(
                    "insert times must be non-decreasing within a batch"
                )
        return resolved

    def _check_insert_times(self, first, last) -> None:
        """Raise :class:`~repro.errors.TimeError` unless a time-based
        run of inserts from ``first`` to ``last`` can be applied.

        The one insert-time rule: the scalar and batch paths run it, and
        so does a monitor over all its tasks, before any state moves.
        ``last`` must be finite and reachable (:meth:`_check_time`);
        ``first`` may equal the current time but not precede it, and
        must be positive where the kind needs it (``_positive_times``).
        """
        self._check_time(last, "insert")
        if first < self._now:
            raise TimeError(
                f"time moved backwards: {first} < {self._now} "
                "(equal timestamps are allowed; strictly smaller are not)"
            )
        if self._positive_times and first <= 0:
            raise TimeError("time-span sketch requires positive stream times")

    def _schedule_clock(self):
        """The clock array whose sweep schedule this sketch's times drive."""
        return getattr(self, "clock", None)

    def _check_time(self, t, what: str) -> None:
        """Raise :class:`~repro.errors.TimeError` unless ``t`` is finite
        and the sweep schedule has a step target for it (see
        :meth:`~repro.core.clockarray.ClockArray.reaches`). Runs before
        any state moves."""
        if not math.isfinite(t):
            raise TimeError(f"{what} time must be finite, got {t}")
        clock = self._schedule_clock()
        if clock is not None and not clock.reaches(t):
            raise TimeError(
                f"{what} time {t} is out of range: its sweep step count "
                "overflows"
            )

    def _query_time(self, t) -> float:
        """Resolve the time of a query (defaults to the latest time).

        An explicit future ``t`` fast-forwards the structure: for
        count-based windows it also advances the item counter, so later
        inserts continue from the queried instant (the stream idled).
        """
        if t is None:
            if _obs.ENABLED:
                _obs.record_query(type(self).__name__)
            return self._now
        self._check_time(t, "query")
        if self.window.is_count_based and t != int(t):
            raise TimeError(f"count-based query time must be an integer, got {t}")
        if t < self._now:
            raise TimeError(f"time moved backwards: {t} < {self._now}")
        self._now = float(t)
        if self.window.is_count_based:
            self._items_inserted = max(self._items_inserted, int(t))
        if _obs.ENABLED:
            _obs.record_query(type(self).__name__)
        return self._now


class ClockSketchKind(ClockSketchBase):
    """The base of the four kinds: one declaration per kind.

    A kind declares its constructor fields, its cell arrays beside the
    clock, its merge rule once (``_union``: ``merge`` applies it to
    whole arrays, a sharded query to a key's gathered cells), its
    answer formula once (``_answer``), its write rule once (``_apply``
    and its closed form ``_fuse``) and its ``metrics`` task and fields.
    The rule defaults are the Bloom filter's; a bitmap is its k = 1
    case.
    """

    #: Constructor fields besides ``window`` and ``sweep_mode``: what a
    #: snapshot or a checkpoint rebuilds the sketch from.
    _CONFIG: ClassVar[tuple[str, ...]] = ()

    #: Fields of ``_CONFIG`` that choose an update rule, not the cell
    #: layout, so :meth:`merge` accepts sketches that differ in them.
    _MERGE_FREE: ClassVar[tuple[str, ...]] = ()

    #: Per-cell arrays beside the clock cells (``counters``, ...).
    _CELL_FIELDS: ClassVar[tuple[str, ...]] = ()

    #: The ``task`` that :meth:`metrics` reports.
    _TASK: ClassVar[str] = ""

    #: Do a run's writes commute, so the engine may apply a whole batch
    #: in closed form (``_fuse``) or a deferred chunk in one ``_apply``?
    #: Only conservative Count-Min, which reads the counters it is
    #: about to bump, replays its items one by one.
    _commutes = True

    def __init__(self, window: WindowSpec):
        super().__init__(window)
        self.engine = BatchEngine(self)

    def _cells(self, idx) -> tuple:
        """The cell images at ``idx``: clock values, then each field."""
        return (self.clock.values[idx],
                *(getattr(self, name)[idx] for name in self._CELL_FIELDS))

    def _item_cells(self, item) -> np.ndarray:
        """One item's cells, as an int64 array."""
        return np.asarray(self.deriver.indexes(item), dtype=np.int64)

    def _batch_cells(self, items) -> np.ndarray:
        """``(N, k)`` cells of a batch, row-identical to :meth:`_item_cells`."""
        return self.deriver.bulk(items)

    def _apply(self, rows, stamps) -> None:
        """Write a run of items that no sweep step separates.

        ``rows`` is one item's cells (the scalar insert and the engine's
        loop) or an ``(m, k)`` chunk of them in arrival order (a
        deferred chunk); ``stamps`` is the items' arrival time(s),
        broadcastable against ``rows``. The default writes nothing
        beside the clock: a touch.
        """
        self.clock.touch(rows)

    def _fuse(self, rows, steps, stamps, end_steps: int,
              count_cleaned: bool) -> int:
        """Closed form of a whole batch's ``advance``/``_apply`` loop.

        ``rows`` is the ``(N, k)`` cell matrix; ``steps`` and ``stamps``
        are each item's sweep-step target and arrival time. Returns the
        cells the batch left expired (0 unless ``count_cleaned``).
        """
        return _kernels.fuse_touch(
            self.clock, rows.ravel(), np.repeat(steps, rows.shape[1]),
            end_steps, count_cleaned=count_cleaned)

    def insert(self, item, t=None) -> None:
        """Record one occurrence of ``item`` (at time ``t`` if time-based).

        The batch-size-1 case of :meth:`insert_many` (bit-identical
        final state, property-tested), kept as a direct scalar path so
        single-item callers skip the batch machinery.
        """
        now = self._insert_time(t)
        self.clock.advance(now)
        self._apply(self._item_cells(item), now)

    def insert_many(self, items, times=None) -> None:
        """Insert a batch of items through the batch engine.

        ``items`` may be an integer key array (fully vectorised
        hashing) or any sequence of hashable stream items. ``times`` is
        required for time-based windows and must be non-decreasing.
        The final state is bit-identical to the equivalent loop of
        :meth:`insert` calls on the exact sweep modes; with a deferred
        cleaner, inserts are chunk-vectorised under that mode's relaxed
        window guarantee.
        """
        self.engine.ingest(self._batch_cells(items), times, items)

    @staticmethod
    def _union(values) -> tuple:
        """Merge cell images stacked one per sketch along axis 0.

        With clock cells a Bloom filter's bit-OR becomes an element-wise
        max: a cell is live in the union iff it is live on either side,
        and its remaining lifetime is its newest writer's. For a bitmap
        a cell is zero in the union iff it is zero on both sides, so a
        later ``estimate`` applies the §4.2 estimator ``-n ln(u/n)`` to
        the union's zero count: the standard post-union linear-counting
        estimate, which deduplicates batches several workers saw instead
        of summing their estimates.
        """
        return (values.max(axis=0),)

    @staticmethod
    def _answer(now, values):
        # Active iff every hashed clock of the item is non-zero.
        return np.all(values > 0, axis=1)

    def _read_many(self, items, t):
        """Advance to the query time, then answer from the items' cells."""
        now = self._query_time(t)
        self.clock.advance(now)
        return self._answer(now, *self._cells(self._batch_cells(items)))

    def snapshot(self):
        """Deep copy of the current state (cells, cleaner, bookkeeping).

        The copy is detached: mutating either sketch never affects the
        other. Shard routers snapshot one replica and :meth:`merge` the
        rest into it to build a global view.
        """
        clone = type(self)(window=self.window,
                           sweep_mode=self.clock.sweep_mode,
                           **{name: getattr(self, name)
                              for name in self._CONFIG})
        self._copy_state_into(clone)
        return clone

    def merge(self, other):
        """Fold ``other`` in by the kind's union (paper §7); returns ``self``.

        Workers measuring disjoint substreams of one logical stream merge
        their sketches at a synchronisation point instead of sharing
        state per item. The unions are conservative:

        - clock cells merge by element-wise **max**: an item active on
          either side stays active in the union, and no clock is newer
          than its newest writer, so the window guarantee carries over;
        - the kind's cell arrays merge by its :meth:`_union`: Count-Min
          counters **sum** (each worker counted disjoint occurrences),
          time-span stamps are **first-writer-wins** (the older stamp
          survives on cells live on both sides), keeping spans
          overestimates.

        Both sketches must share a cell layout (the window and every
        ``_CONFIG`` field outside ``_MERGE_FREE``: same cells, hashes,
        seed) and a cleaning-pointer position, i.e. both synchronised
        to a common stream time, the Flink-style barrier the paper
        envisions. ``snapshot()`` first to keep ``self``.

        Examples
        --------
        >>> from repro import ClockBloomFilter, time_window
        >>> w = time_window(100.0)
        >>> f1 = ClockBloomFilter(n=256, k=3, s=2, window=w, seed=5)
        >>> f2 = ClockBloomFilter(n=256, k=3, s=2, window=w, seed=5)
        >>> f1.insert("left", t=1.0); f2.insert("right", t=2.0)
        >>> f1.contains("right", t=3.0); f2.contains("right", t=3.0)
        False
        True
        >>> merged = f1.merge(f2)
        >>> merged.contains("left"), merged.contains("right")
        (True, True)
        """
        self._merge_check(other)
        self._merge_commit(other)
        return self

    def _merge_check(self, other) -> None:
        """Validate that ``other`` is structurally merge-compatible."""
        if type(other) is not type(self):
            raise ConfigurationError(
                f"cannot merge {type(self).__name__} with "
                f"{type(other).__name__}"
            )
        for attr in (*self._CONFIG, "window"):
            if attr in self._MERGE_FREE:
                continue
            va, vb = getattr(self, attr), getattr(other, attr)
            if va != vb:
                raise ConfigurationError(
                    f"cannot merge: {attr} differs ({va} != {vb})"
                )
        if self.clock.steps_done != other.clock.steps_done:
            raise ConfigurationError(
                "cannot merge: cleaning pointers disagree "
                f"({self.clock.steps_done} != {other.clock.steps_done} "
                "steps); synchronise both sketches to the same stream "
                "time first"
            )

    def _merge_commit(self, other) -> None:
        """Union the cell state and temporal bookkeeping of ``other``.

        The kind's :meth:`_union` combines both sides' whole cell images;
        the clock image lands through the validating
        :meth:`~repro.core.clockarray.ClockArray.load_values`, the entry
        point the runtime sanitizer checks. The merged
        sketch counts both sides' items and sits at the later of the two
        stream times.
        """
        whole = slice(None)
        values, *fields = self._union(*map(
            np.stack, zip(self._cells(whole), other._cells(whole))))
        self.clock.load_values(values)
        for name, image in zip(self._CELL_FIELDS, fields):
            getattr(self, name)[:] = image
        if other.clock.now > self.clock.now:
            self.clock.sync_state(other.clock.now, self.clock.steps_done)
        self._now = max(self._now, other._now)
        self._items_inserted += other._items_inserted

    def _copy_state_into(self, clone) -> None:
        """Copy clock cells, cell arrays and temporal bookkeeping into a
        pristine clone with the same configuration.

        Clock images go through the validating
        :meth:`~repro.core.clockarray.ClockArray.load_values` /
        :meth:`~repro.core.clockarray.ClockArray.sync_state` entry
        points, never raw buffer writes.
        """
        clone.clock.load_values(self.clock.values)
        clone.clock.sync_state(self.clock.now, self.clock.steps_done)
        for name in self._CELL_FIELDS:
            getattr(clone, name)[:] = getattr(self, name)
        clone._now = self._now
        clone._items_inserted = self._items_inserted

    def memory_bits(self) -> int:
        """Accounted footprint in bits (clock cells only, per §4.1)."""
        return self.clock.memory_bits()

    def metrics(self) -> dict:
        """Operational snapshot; publishes gauges while obs is enabled.

        Reads the current cell state without advancing the clock (a
        metrics scrape must not perturb the structure), so a kind's
        figures, such as the bitmap's estimate, reflect the last
        operation's time.
        """
        name = type(self).__name__
        bits = self.memory_bits()
        fill = self.clock.fill_ratio()
        if _obs.ENABLED:
            _obs.publish_sketch(name, bits, fill)
            _obs.sample_clock(self.clock, labels={"sketch": name})
        return {"task": self._TASK, "sketch": name, "memory_bits": bits,
                "items_inserted": self.items_inserted, "fill_ratio": fill,
                **self._metric_extras(),
                "sweep": self.clock.sweep_telemetry()}

    def _metric_extras(self) -> dict:
        """The kind's own :meth:`metrics` fields."""
        return {}
