"""Shared plumbing for the four Clock-sketch applications.

Each application (activeness, cardinality, time span, size) is a
classic sketch whose cells carry ``s``-bit clock cells, driven by one
:class:`~repro.core.clockarray.ClockArray`. This base class centralises
the temporal conventions:

- **Count-based** windows: the ``i``-th inserted item arrives at time
  ``i`` (1-based); ``insert`` takes no timestamp and queries default to
  "after the latest insert".
- **Time-based** windows: every ``insert`` must carry a timestamp, and
  queries may carry one (defaulting to the latest time seen).

The cleaning pointer is advanced lazily to the operation's time before
the operation executes, which reproduces the paper's concurrent
cleaning thread deterministically.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigurationError, TimeError
from ..obs import runtime as _obs
from ..timebase import WindowSpec


class ClockSketchBase:
    """Temporal bookkeeping shared by all Clock-sketch variants."""

    #: Sharding escape hatch: a count-based sketch normally derives item
    #: times from its own insert counter, but a shard replica sees only
    #: a subsequence of the stream and must be told each item's *global*
    #: arrival position. The shard router flips this flag on its
    #: replicas so ``_insert_times_many`` accepts an explicit ``times``
    #: array even for count-based windows (validated, non-decreasing);
    #: plain sketches keep rejecting one.
    _accepts_global_times = False

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
        share one timestamp); a strictly smaller ``t``, NaN, an infinity
        or a time past the sweep schedule's range (:meth:`_check_time`)
        raises :class:`~repro.errors.TimeError`.
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
        self._check_time(t, "insert")
        if t < self._now:
            raise TimeError(
                f"time moved backwards: {t} < {self._now} "
                "(equal timestamps are allowed; strictly smaller are not)"
            )
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
            if resolved[0] < self._now:
                raise TimeError(
                    f"time moved backwards: {resolved[0]} < {self._now} "
                    "(equal timestamps are allowed; strictly smaller are not)"
                )
            if np.any(resolved[1:] < resolved[:-1]):
                raise TimeError(
                    "insert times must be non-decreasing within a batch"
                )
            self._check_time(float(resolved[-1]), "insert")
        return resolved

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

    # ------------------------------------------------------------------
    # Merge / snapshot plumbing (shared by all four sketches)
    # ------------------------------------------------------------------

    def _merge_check(self, other, attrs) -> None:
        """Validate that ``other`` is structurally merge-compatible.

        Merging requires an identical configuration (same cells,
        hashes, seed, window) and cleaning pointers at the same
        position — i.e. both sketches synchronised to a common stream
        time, the Flink-style barrier of paper §7.
        """
        if type(other) is not type(self):
            raise ConfigurationError(
                f"cannot merge {type(self).__name__} with "
                f"{type(other).__name__}"
            )
        for attr in attrs:
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
        """Union the clock state and temporal bookkeeping of ``other``.

        Clock cells merge by element-wise max through the validating
        :meth:`~repro.core.clockarray.ClockArray.merge_max`; the merged
        sketch counts both sides' items and sits at the later of the
        two stream times.
        """
        self.clock.merge_max(other.clock.values)
        if other.clock.now > self.clock.now:
            self.clock.sync_state(other.clock.now, self.clock.steps_done)
        self._now = max(self._now, other._now)
        self._items_inserted += other._items_inserted

    def _copy_state_into(self, clone) -> None:
        """Copy clock cells and temporal bookkeeping into a fresh clone.

        Used by each sketch's ``snapshot()``: ``clone`` must be a
        pristine instance with the same configuration. Cell images go
        through the validating
        :meth:`~repro.core.clockarray.ClockArray.load_values` /
        :meth:`~repro.core.clockarray.ClockArray.sync_state` entry
        points, never raw buffer writes.
        """
        clone.clock.load_values(self.clock.values)
        clone.clock.sync_state(self.clock.now, self.clock.steps_done)
        clone._now = self._now
        clone._items_inserted = self._items_inserted

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
