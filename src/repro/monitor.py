"""One-stop item-batch monitoring: all four measurements, one object.

:class:`ItemBatchMonitor` bundles the four Clock-sketch structures
behind a single ``observe``/``report`` interface with a shared window
and a single memory budget, split across the tasks the caller enables.
This is the "framework" face of the library: applications that want
item-batch telemetry without assembling sketches by hand (the examples
and §1.1 use cases) start here.

>>> from repro import ItemBatchMonitor, count_window
>>> monitor = ItemBatchMonitor(count_window(64), memory="32KB", seed=1)
>>> for _ in range(5):
...     monitor.observe("flow-7")
>>> monitor.is_active("flow-7")
True
>>> monitor.batch_size("flow-7")
5
>>> report = monitor.report("flow-7")
>>> (report.active, report.size, report.span)
(True, 5, 4.0)
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import membership_fpr
from .core import (
    ClockBitmap,
    ClockBloomFilter,
    ClockCountMin,
    ClockTimeSpanSketch,
)
from .errors import ConfigurationError
from .hashing import key_id, key_ids
from .obs import names as _names
from .obs import runtime as _obs
from .obs import trace as _trace
from .timebase import WindowSpec
from .units import parse_memory

__all__ = ["ItemBatchMonitor", "BatchReport"]

#: Default share of the memory budget per enabled task. Activeness and
#: cardinality cells are tiny (s bits), so most of the budget goes to
#: the counter/timestamp tasks, mirroring the paper's per-task budgets.
DEFAULT_SPLIT = {
    "activeness": 0.1,
    "cardinality": 0.1,
    "size": 0.4,
    "span": 0.4,
}


@dataclass(frozen=True)
class BatchReport:
    """Everything the monitor knows about one item's batch."""

    key: object
    active: bool
    size: "int | None"
    span: "float | None"
    begin: "float | None"


class ItemBatchMonitor:
    """All four item-batch measurements behind one interface.

    Parameters
    ----------
    window:
        The batch threshold ``T`` (count- or time-based).
    memory:
        Total budget (bytes or ``"32KB"``), split across enabled tasks.
    tasks:
        Iterable of task names to enable, from ``{"activeness",
        "cardinality", "size", "span"}``. Defaults to all four.
    split:
        Optional ``{task: fraction}`` overriding the budget split;
        fractions are renormalised over the enabled tasks.
    """

    TASKS = ("activeness", "cardinality", "size", "span")

    #: Task name → the attribute holding that task's sketch.
    _TASK_ATTRS = {
        "activeness": "activeness",
        "cardinality": "cardinality",
        "size": "size_sketch",
        "span": "span_sketch",
    }

    def __init__(self, window: WindowSpec, memory="64KB", tasks=None,
                 split=None, seed: int = 0):
        self.window = window
        enabled = tuple(tasks) if tasks is not None else self.TASKS
        unknown = set(enabled) - set(self.TASKS)
        if unknown:
            raise ConfigurationError(f"unknown tasks: {sorted(unknown)}")
        if not enabled:
            raise ConfigurationError("enable at least one task")
        self.tasks = enabled

        weights = dict(DEFAULT_SPLIT)
        if split:
            weights.update(split)
        total_weight = sum(weights[t] for t in enabled)
        # The effective split: renormalised over the enabled task
        # subset, so it always sums to 1.0 — this is what operators see
        # in repr()/memory_report().
        self.split = {t: weights[t] / total_weight for t in enabled}
        bits = parse_memory(memory)
        budget = {t: int(bits * weights[t] / total_weight) for t in enabled}
        self.budget_bits = dict(budget)

        self.activeness = None
        self.cardinality = None
        self.size_sketch = None
        self.span_sketch = None
        if "activeness" in enabled:
            self.activeness = ClockBloomFilter.from_memory(
                budget["activeness"] // 8, window, seed=seed)
        if "cardinality" in enabled:
            self.cardinality = ClockBitmap.from_memory(
                budget["cardinality"] // 8, window, seed=seed + 1)
        if "size" in enabled:
            self.size_sketch = ClockCountMin.from_memory(
                budget["size"] // 8, window, seed=seed + 2)
        if "span" in enabled:
            self.span_sketch = ClockTimeSpanSketch.from_memory(
                budget["span"] // 8, window, seed=seed + 3)
        self.seed = seed
        self._adopt([s for s in (self.activeness, self.cardinality,
                                 self.size_sketch, self.span_sketch)
                     if s is not None])
        self._auditor = None

    @classmethod
    def sharded(cls, window: WindowSpec, memory="64KB", tasks=None,
                split=None, seed: int = 0, *, shards: int = 2,
                router: str = "serial", queue_capacity=None,
                timeout=None, time_source=None):
        """A monitor whose tasks share one key-partitioned shard set.

        Builds the ordinary per-task structures from ``memory`` (the
        *per-shard* budget — accuracy tracks a single shard's size, see
        :meth:`~repro.shard.ShardedSketch.shard_memory_bits`), then
        clones them into one :class:`~repro.shard.ShardSet` of
        ``shards`` partitions routed by one shard hash at ``seed``:
        each batch is hashed for routing and scattered once, and every
        shard applies its sub-batch to all of its tasks. Each task
        attribute becomes a :class:`~repro.shard.ShardedSketch` view of
        its slot. ``router="process"`` runs one worker process per
        shard, owning every task of that shard; call :meth:`close` (or
        use the monitor as a context manager) to release them. One
        shard on the serial router is the plain monitor itself.
        """
        monitor = cls(window, memory=memory, tasks=tasks, split=split,
                      seed=seed)
        if int(shards) == 1 and router == "serial":
            return monitor
        from .shard import ShardSet

        shard_set = ShardSet.cloned(
            monitor._sketches, shards, seed=seed, router=router,
            queue_capacity=queue_capacity, timeout=timeout,
            time_source=time_source,
        )
        monitor._adopt(shard_set.views(), shard_set)
        return monitor

    def _adopt(self, sketches, shard_set=None) -> None:
        """Install one built structure per enabled task, in task order.

        With ``shard_set`` the structures are its views: they share one
        ingest path, so the monitor feeds only the first.
        """
        for task, sketch in zip(self.tasks, sketches):
            setattr(self, self._TASK_ATTRS[task], sketch)
        self._sketches = list(sketches)
        self._writers = self._sketches
        self.shards = 1
        if shard_set is not None:
            self._writers = self._sketches[:1]
            self.shards = shard_set.shards

    def close(self) -> None:
        """Release the shard set's worker pool, if any. Idempotent."""
        for sketch in self._sketches:
            close = getattr(sketch, "close", None)
            if close is not None:
                close()

    def __enter__(self) -> "ItemBatchMonitor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def audited(self, sample_rate: float = 0.01, every_items=None,
                seed=None, predictor=None, detector=None):
        """Attach a live accuracy auditor; returns the auditor.

        Installs a :class:`~repro.obs.audit.ShadowAuditor` on the batch
        engine's ingest tap: a hash-sampled fraction of keys is tracked
        exactly, and every ``every_items`` stream items the sampled keys
        are replayed against the live sketches to measure observed
        error, compare it against the analytic prediction, and raise
        drift alerts. See ``docs/observability.md``.
        """
        from .obs.audit import ShadowAuditor
        from .shard import ShardedSketch

        if any(isinstance(s, ShardedSketch) for s in self._sketches):
            raise ConfigurationError(
                "auditing a sharded monitor is not supported: the ingest "
                "tap lives on each shard's worker-side engine, so a "
                "parent-side auditor would sample nothing; audit an "
                "unsharded monitor at the same per-shard configuration "
                "instead"
            )
        auditor = ShadowAuditor(
            self, sample_rate=sample_rate, every_items=every_items,
            seed=self.seed if seed is None else seed,
            predictor=predictor, detector=detector,
        )
        self._auditor = auditor
        # Tap only the first sketch's engine: every enabled structure
        # sees the same batches, so one tap per monitor batch suffices.
        self._sketches[0].engine.tap = auditor.ingest
        return auditor

    @property
    def auditor(self):
        """The attached :class:`ShadowAuditor`, or None."""
        return self._auditor

    def observe(self, key, t=None) -> None:
        """Record one occurrence of ``key`` in every enabled structure."""
        kid = key_id(key)
        if t is not None and not self.window.is_count_based:
            self._check_reach(t)
        for sketch in self._writers:
            sketch.insert(kid, t)
        auditor = self._auditor
        if auditor is not None:
            # The scalar path bypasses the batch engine (and its tap),
            # so feed the sampler directly with the resolved time.
            auditor.ingest_one(kid, self._sketches[0].now)
            if auditor.due:
                auditor.audit()

    def observe_many(self, keys, times=None) -> None:
        """Record a batch of occurrences through every bulk path.

        Semantically identical to calling :meth:`observe` per item
        (the batch engine is bit-identical to the scalar path), but
        maps each key to its id once and applies the updates vectorized.
        """
        with _trace.span(_names.SPAN_MONITOR_OBSERVE) as sp:
            ids = key_ids(keys)
            if sp.recording:
                sp.set("items", len(ids))
                sp.set("sketches", len(self._sketches))
            if times is not None and not self.window.is_count_based:
                # Validate once, as floats, before any task moves.
                times = self._sketches[0]._insert_times_many(len(ids), times)
                if len(times):
                    self._check_reach(float(times[-1]))
            for sketch in self._writers:
                sketch.insert_many(ids, times)
            auditor = self._auditor
            if auditor is not None and auditor.due:
                auditor.audit()

    def _check_reach(self, t) -> None:
        """Reject ``t`` if any task's sweep schedule cannot reach it.

        Tasks differ in cells and circles, so one time can overflow one
        task's step count and not another's; checking every task first
        keeps an insert all-or-nothing.
        """
        for sketch in self._sketches:
            sketch._check_time(t, "insert")

    def observe_stream(self, stream) -> None:
        """Feed a whole :class:`~repro.streams.Stream` (bulk paths)."""
        times = stream.times if not self.window.is_count_based else None
        self.observe_many(stream.keys, times)

    def _require(self, attribute, task):
        sketch = getattr(self, attribute)
        if sketch is None:
            raise ConfigurationError(f"task {task!r} is not enabled")
        return sketch

    def is_active(self, key, t=None) -> bool:
        """Is the key's batch active? (Needs the activeness task.)"""
        return self._require("activeness", "activeness").contains(key_id(key), t)

    def active_batches(self, t=None) -> float:
        """Estimated number of active batches. (Cardinality task.)"""
        return self._require("cardinality", "cardinality").estimate(t).value

    def batch_size(self, key, t=None) -> int:
        """Estimated size of the key's active batch. (Size task.)"""
        return self._require("size_sketch", "size").query(key_id(key), t)

    def batch_span(self, key, t=None):
        """Span result for the key's batch. (Span task.)"""
        return self._require("span_sketch", "span").query(key_id(key), t)

    def report(self, key, t=None) -> BatchReport:
        """Combined answer from every enabled per-key task."""
        kid = key_id(key)
        active = (self.activeness.contains(kid, t)
                  if self.activeness is not None else None)
        size = (self.size_sketch.query(kid)
                if self.size_sketch is not None else None)
        span = begin = None
        if self.span_sketch is not None:
            result = self.span_sketch.query(kid)
            if result.active:
                span, begin = result.span, result.begin
            elif active is None:
                active = False
        if active is None:
            active = span is not None
        if not active:
            size, span, begin = None, None, None
        return BatchReport(key=key, active=bool(active), size=size,
                           span=span, begin=begin)

    def predicted_fpr(self) -> "float | None":
        """§5.1's predicted activeness FPR at this configuration.

        For a sharded monitor the accuracy-relevant size is one
        shard's footprint (every replica spans the full cell space and
        the merged view behaves like a single shard-sized filter), so
        the prediction uses ``shard_memory_bits`` when the task is a
        :class:`~repro.shard.ShardedSketch`.
        """
        if self.activeness is None:
            return None
        bits = getattr(self.activeness, "shard_memory_bits",
                       self.activeness.memory_bits)()
        return membership_fpr(bits, self.window.length, self.activeness.s,
                              k=self.activeness.k)

    def memory_bits(self) -> int:
        """Total accounted footprint of the enabled structures."""
        return sum(s.memory_bits() for s in self._sketches)

    def memory_report(self) -> dict:
        """Per-task memory accounting: split fractions, budgets, actuals.

        ``split`` is the effective (renormalised) fraction per enabled
        task and always sums to 1.0; ``budget_bits`` is each task's
        slice of the configured budget; ``actual_bits`` is what the
        built structure really occupies (cell-count rounding makes it
        ≤ its budget).
        """
        actual = {
            task: getattr(self, self._TASK_ATTRS[task]).memory_bits()
            for task in self.tasks
        }
        return {
            "total_bits": self.memory_bits(),
            "split": dict(self.split),
            "budget_bits": dict(self.budget_bits),
            "actual_bits": actual,
        }

    def metrics(self) -> dict:
        """Aggregated operational snapshot across every enabled task.

        Returns the monitor's memory accounting plus each enabled
        sketch's :meth:`metrics` dict; while :mod:`repro.obs` is
        enabled, also publishes the monitor gauges (footprint, task
        count, split ratios) and each sketch's gauges to the registry.
        """
        per_task = {
            task: getattr(self, self._TASK_ATTRS[task]).metrics()
            for task in self.tasks
        }
        if _obs.ENABLED:
            _obs.publish_monitor(self.memory_bits(), self.split)
        return {
            "tasks": list(self.tasks),
            "memory_bits": self.memory_bits(),
            "split": dict(self.split),
            "budget_bits": dict(self.budget_bits),
            "per_task": per_task,
        }

    def __repr__(self) -> str:
        split = ", ".join(
            f"{task}={self.split[task]:.2f}" for task in self.tasks
        )
        return (
            f"ItemBatchMonitor(window={self.window}, tasks={self.tasks}, "
            f"memory={self.memory_bits() // 8192}KB, split=({split}))"
        )
