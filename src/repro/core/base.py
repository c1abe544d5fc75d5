"""Shared plumbing for the four Clock-sketch applications.

Each application (activeness, cardinality, time span, size) is a
classic sketch whose cells carry ``s``-bit clock cells, driven by one
:class:`~repro.core.clockarray.ClockArray`. Three classes split the
work:

- :class:`StreamClock` holds a stream's time and item count and the
  temporal rules, in one place for every sketch that reads it:

  - **Count-based** windows: the ``i``-th inserted item arrives at time
    ``i`` (1-based); ``insert`` takes no timestamp and queries default
    to "after the latest insert".
  - **Time-based** windows: every ``insert`` must carry a timestamp,
    and queries may carry one (defaulting to the latest time seen).

- :class:`ClockSketchBase` reads its time from a stream clock, which
  the baselines and the sharded facade share with the kinds; it builds
  ``insert``/``insert_many`` from a writer's ``_write_one``/``_write``,
  and a key's cells (``_item_cells``/``_batch_cells``) from the one
  :class:`~repro.hashing.indexing.IndexDeriver` of a sketch that has a
  ``deriver``.
- :class:`ClockSketchReader` writes the one read path, ``query`` /
  ``query_many``, for the kinds, the per-key baselines and the sharded
  facade: only where the cells come from differs.
- :class:`ClockSketchKind` is the base of the four kinds. A kind
  declares its fields, cell arrays, merge, answer and write rules once;
  the kind base builds its writers, ``snapshot``, ``merge`` and
  ``metrics`` from them.

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


_COUNT_TAKES_NO_TIME = ("count-based sketches take no insert timestamp; "
                        "time is the item count")


class StreamClock:
    """One stream's time and item count, and the one copy of its rules.

    A standalone sketch owns one; a monitor's tasks share one, and so
    do a shard set's slots, so every task answers at one time and a
    batch lands at one position on all of them. Every time is checked
    against each sketch the clock drives (``sketches``): it must be
    finite and reachable by that sketch's sweep schedule
    (:meth:`~repro.core.clockarray.ClockArray.reaches`), and positive
    where a driven kind needs it (``_positive_times``). A time one
    schedule refuses moves none of them.

    Stream times are non-decreasing: a time equal to the current one is
    allowed (ties are routine, batches of items often share one
    timestamp). A batch is resolved before any writer runs and
    committed once after all of them (:meth:`ingest`).
    """

    def __init__(self, window: WindowSpec, sketches=()):
        self.window = window
        self.now = 0.0
        self.items = 0
        #: The sketches whose sweep schedules bound every time.
        self.sketches = []
        self.positive = False
        #: A shard replica: count-based, yet told each item's *global*
        #: arrival position, since it sees only a subsequence of the
        #: stream. The routers set it so :meth:`resolve` accepts an
        #: explicit, strictly increasing ``times`` array.
        self.replica = False
        for sketch in sketches:
            self.drive(sketch)

    def drive(self, sketch) -> None:
        """Bound every later time by ``sketch``'s schedule too."""
        self.sketches.append(sketch)
        self.positive = self.positive or sketch._positive_times

    @classmethod
    def shared(cls, sketches) -> "StreamClock":
        """One clock, at the first sketch's position, that every sketch
        in ``sketches`` now reads."""
        clock = cls(sketches[0].window, sketches)
        clock.now, clock.items = sketches[0].now, sketches[0].items_inserted
        for sketch in sketches:
            sketch.stream_clock = clock
        return clock

    def ingest(self, writers, items, times) -> None:
        """Resolve a batch's times once, write it through every writer
        (``_write``), then commit it once."""
        resolved = self.resolve(len(items), times)
        if len(resolved):
            for writer in writers:
                writer._write(items, resolved)
            self.commit(len(resolved), resolved[-1])

    def ingest_one(self, writers, item, t) -> None:
        """The one-item :meth:`ingest`, through each ``_write_one``."""
        now = self.resolve_one(t)
        for writer in writers:
            writer._write_one(item, now)
        self.commit(1, now)

    def commit(self, count: int, last) -> None:
        """Record ``count`` applied items, the last arriving at ``last``."""
        self.items += count
        self.now = float(last)

    def resolve_one(self, t) -> float:
        """The arrival time of one insert at ``t``; moves nothing."""
        if self.window.is_count_based:
            if t is not None:
                raise TimeError(_COUNT_TAKES_NO_TIME)
            return float(self.items + 1)
        if t is None:
            raise TimeError("time-based sketches require an insert timestamp")
        self.check_insert(t, t)
        return float(t)

    def resolve(self, count: int, times) -> np.ndarray:
        """A batch's per-item arrival times as ``float64``; moves nothing.

        Count-based windows take ``times=None`` (items arrive at
        consecutive counts); time-based windows require a finite,
        non-decreasing ``times`` array whose first entry is not before
        the current time.
        """
        if self.window.is_count_based and times is None:
            start = self.items
            return np.arange(start + 1, start + count + 1, dtype=np.float64)
        if times is None:
            raise ConfigurationError("time-based insert_many requires times")
        if self.window.is_count_based and not self.replica:
            raise TimeError(_COUNT_TAKES_NO_TIME)
        resolved = np.asarray(times, dtype=np.float64)
        if resolved.ndim != 1 or resolved.shape[0] != count:
            raise ConfigurationError(
                f"times must align with the {count} items, "
                f"got shape {resolved.shape}"
            )
        if not count:
            return resolved
        if self.window.is_count_based:
            # A replica's global arrival positions keep the step
            # schedule the plain sketch's integer arithmetic.
            if resolved[0] <= self.now:
                raise TimeError(
                    f"global arrival positions must advance: "
                    f"{resolved[0]} <= {self.now}"
                )
            if np.any(resolved[1:] <= resolved[:-1]):
                raise TimeError(
                    "global arrival positions must be strictly "
                    "increasing within a batch"
                )
            return resolved
        if not np.isfinite(resolved).all():
            raise TimeError("insert times must be finite")
        self.check_insert(float(resolved[0]), float(resolved[-1]))
        if np.any(resolved[1:] < resolved[:-1]):
            raise TimeError("insert times must be non-decreasing within a batch")
        return resolved

    def check_insert(self, first, last) -> None:
        """Raise :class:`~repro.errors.TimeError` unless a time-based
        run of inserts from ``first`` to ``last`` can be applied:
        ``last`` passes :meth:`check`, ``first`` may equal the current
        time but not precede it, and is positive where a driven kind
        needs it."""
        self.check(last, "insert")
        if first < self.now:
            raise TimeError(
                f"time moved backwards: {first} < {self.now} "
                "(equal timestamps are allowed; strictly smaller are not)"
            )
        if self.positive and first <= 0:
            raise TimeError("time-span sketch requires positive stream times")

    def check(self, t, what: str) -> None:
        """Raise :class:`~repro.errors.TimeError` unless ``t`` is finite
        and every driven sweep schedule has a step target for it."""
        if not math.isfinite(t):
            raise TimeError(f"{what} time must be finite, got {t}")
        for sketch in self.sketches:
            if not sketch.clock.reaches(t):
                raise TimeError(
                    f"{what} time {t} is out of range: its sweep step "
                    "count overflows"
                )

    def query(self, t) -> float:
        """Resolve a query's time (defaults to the current time).

        An explicit later ``t`` fast-forwards the stream, for every
        sketch the clock drives or, if any refuses it, for none: a
        count-based stream's item count rises with it, so later inserts
        continue from the queried instant (the stream idled). Each
        sketch's cells catch up at its next operation.
        """
        if t is None:
            return self.now
        self.check(t, "query")
        if self.window.is_count_based and t != int(t):
            raise TimeError(f"count-based query time must be an integer, got {t}")
        if t < self.now:
            raise TimeError(f"time moved backwards: {t} < {self.now}")
        self.now = float(t)
        if self.window.is_count_based:
            self.items = max(self.items, int(t))
        return self.now


class ClockSketchBase:
    """Temporal bookkeeping shared by the kinds, the baselines and the
    sharded facade: each reads its time from its :class:`StreamClock`."""

    #: Insert times must be positive: the time-span kind's stamp 0
    #: marks an empty cell.
    _positive_times = False

    def __init__(self, window: WindowSpec):
        self.window = window
        self.stream_clock = StreamClock(window)

    @property
    def items_inserted(self) -> int:
        """Number of items inserted so far."""
        return self.stream_clock.items

    @property
    def now(self) -> float:
        """The current stream time (item count or timestamp)."""
        return self.stream_clock.now

    def insert(self, item, t=None) -> None:
        """Record one occurrence of ``item`` (at time ``t`` if time-based).

        The batch-size-1 case of :meth:`insert_many` (bit-identical
        final state, property-tested), kept as a direct scalar path so
        single-item callers skip the batch machinery.
        """
        self.stream_clock.ingest_one((self,), item, t)

    def insert_many(self, items, times=None) -> None:
        """Insert a batch of items.

        ``items`` may be an integer key array (fully vectorised
        hashing) or any sequence of hashable stream items. ``times`` is
        required for time-based windows and must be non-decreasing.
        The final state is bit-identical to the equivalent loop of
        :meth:`insert` calls on the exact sweep modes; with a deferred
        cleaner, inserts are chunk-vectorised under that mode's relaxed
        window guarantee.
        """
        self.stream_clock.ingest((self,), items, times)

    def _item_cells(self, item) -> np.ndarray:
        """One item's cells from the sketch's ``deriver``, as an int64
        array."""
        return np.asarray(self.deriver.indexes(item), dtype=np.int64)

    def _batch_cells(self, items) -> np.ndarray:
        """``(N, cells per item)`` cells of a batch, row-identical to
        :meth:`_item_cells`."""
        return self.deriver.bulk(items)

    def _query_time(self, t) -> float:
        """Resolve a query's time on the stream clock (see
        :meth:`StreamClock.query`)."""
        now = self.stream_clock.query(t)
        if _obs.ENABLED:
            _obs.record_query(type(self).__name__)
        return now


class ClockSketchReader(ClockSketchBase):
    """The one read path (paper §4.1-4.4): take the query time, read the
    key's cells at that time, apply the kind's answer formula.

    A reader declares where its cells come from (``_read``) and whose
    rules apply (``_kind``: cell layout, ``_answer``). A kind or a
    baseline reads its own cells; a sharded view reads the union of its
    replicas' cells, of which a plain sketch is the one-replica case.
    """

    def query(self, item, t=None):
        """The answer for one item at time ``t`` (default: now).

        Row 0 of :meth:`query_many`'s answer, from the item's cells
        hashed on the scalar path, as a plain Python value: ``bool``
        (activeness, and a bitmap's live cell), ``int`` (size) or a
        :class:`~repro.core.timespan.TimeSpanResult`.
        """
        now = self._query_time(t)
        kind = self._kind
        return kind._answer(
            now, *self._read(kind._item_cells(item)[None], now)).item(0)

    def query_many(self, items, t=None):
        """The answers for a batch of items at time ``t``: one row each."""
        now = self._query_time(t)
        kind = self._kind
        return kind._answer(now, *self._read(kind._batch_cells(items), now))


class ClockSketchKind(ClockSketchReader):
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
        self.stream_clock.drive(self)
        self.engine = BatchEngine(self)

    def _cells(self, idx) -> tuple:
        """The cell images at ``idx``: clock values, then each field."""
        return (self.clock.values[idx],
                *[getattr(self, name)[idx] for name in self._CELL_FIELDS])

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

    def _write_one(self, item, now: float) -> None:
        """Write one item at its resolved arrival time (scalar path)."""
        self.clock.advance(now)
        self._apply(self._item_cells(item), now)
        if _obs.ENABLED:
            _obs.record_insert(type(self).__name__)

    def _write(self, items, times: np.ndarray) -> None:
        """Write a batch at its resolved arrival times through the
        batch engine."""
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
        return values.all(axis=1)

    @property
    def _kind(self):
        # A kind's reads apply its own rules.
        return self

    def _read(self, idx, now) -> tuple:
        """The cells at ``idx`` cleaned up to ``now``: one replica's union."""
        self.clock.advance(now)
        return self._cells(idx)

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
        self.stream_clock.commit(other.items_inserted,
                                 max(self.now, other.now))

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
        clone.stream_clock.now = self.now
        clone.stream_clock.items = self.items_inserted

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
