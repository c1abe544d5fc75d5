"""Shard sets and the sharded-sketch facade: key-partitioned ingestion.

A :class:`ShardSet` splits one logical stream into ``P`` key
partitions. Each shard holds one replica per *slot* — one slot per
sketch the set carries: a standalone :class:`ShardedSketch` has one, a
sharded :class:`~repro.monitor.ItemBatchMonitor` one per enabled task.
Replicas are exact clones of their slot's prototype (same
configuration, same hash seeds). Every item routes to exactly one shard
by a *dedicated* shard hash (seeded independently of the index hashes,
so routing never correlates with cell placement; see
:mod:`repro.hashing.sharding`), computed and scattered once per batch
for all slots. Each slot is read through a :class:`ShardedSketch`
view, whose queries are answered from a merged global view built by
element-wise clock union (paper §7's mergeability):

- **activeness / cardinality** (clock cells only): with every replica's
  cleaning pointer synchronised to the query time, the element-wise max
  of the per-shard clock values is *exactly* the cell image the plain
  unsharded sketch would hold — so a sharded Bloom filter or bitmap is
  bit-identical to its plain twin at any shard count.
- **size**: per-key counters add across shards but each key lives in
  one shard, so summed counters over-count only through per-shard
  collisions — the merged estimate stays within the plain sketch's
  one-sided error band (truth ≤ sharded ≤ plain-worst-case).
- **time span**: first-writer-wins — timestamps merge by *min* over
  live shards, the only direction that preserves the never-underestimate
  span contract (an element-wise max could shrink a span when two
  shards' keys collide in one cell; see ``docs/sharding.md``).

Two routers execute the fan-out: :class:`SerialShardRouter` applies
sub-batches inline (zero concurrency, useful as the differential-test
oracle), and :class:`~repro.shard.workers.ProcessShardRouter` drains
them through one worker process per shard over shared memory, each
worker applying its sub-batches to every slot of its shard.
"""

from __future__ import annotations

import copy
from time import perf_counter
from typing import Any

import numpy as np

from ..core.base import ClockSketchBase
from ..core import ClockBitmap, ClockBloomFilter, ClockCountMin, ClockTimeSpanSketch
from ..errors import ConfigurationError
from ..hashing import ShardSelector, key_ids
from ..kernels import numpy_backend as _kernels
from ..obs import names as _names
from ..obs import runtime as _obs
from ..obs import trace as _trace

__all__ = ["SerialShardRouter", "ShardSet", "ShardedSketch"]

#: Default bound on each process worker's command queue (commands, not
#: items).
DEFAULT_QUEUE_CAPACITY = 16

#: Default seconds a process-router dispatch/barrier may wait before
#: declaring back-pressure or a dead worker.
DEFAULT_TIMEOUT = 30.0

_SHARDABLE = (ClockBloomFilter, ClockBitmap, ClockCountMin, ClockTimeSpanSketch)

#: Immutable replica configuration the facade forwards verbatim.
#: Mutable state (clock, counters, timestamps, engine) is deliberately
#: absent: with a process router it lives in shared memory that workers
#: may still be writing.
_FORWARDED_CONFIG = frozenset({
    "window", "n", "k", "s", "seed", "width", "depth", "conservative",
    "counter_bits", "counter_max", "max_value",
})


def advance_replica(replica: Any, now: float, flush: bool) -> None:
    """The barrier step for one replica: clean up to ``now``.

    Advances the clock, flushes a deferred sweep backlog when ``flush``
    (merge validity requires every cleaning pointer at the same
    position; a single shard skips it so that ``P=1`` stays
    bit-identical to a plain sketch even in deferred modes), and raises
    the replica's stream time. Both routers run exactly this step.
    """
    clock = replica.clock
    if now > clock.now:
        clock.advance(now)
    if flush and clock.is_deferred:
        clock.flush()
    if now > replica._now:
        replica._now = float(now)


class SerialShardRouter:
    """In-process router: applies each shard's sub-batch inline.

    The zero-concurrency reference implementation of the router
    protocol (``ingest`` / ``barrier`` / ``queue_depth`` / ``close``):
    sub-batches execute immediately on the caller's thread, so a
    serial-routed shard set is deterministic and serves as the oracle
    the process-backed router is differentially tested against.
    ``replicas`` is shard-major: shard ``p`` owns ``replicas[p * slots:
    (p + 1) * slots]``.
    """

    kind = "serial"

    def __init__(self, replicas: "list[Any]", slots: int = 1) -> None:
        self.replicas = list(replicas)
        self.slots = int(slots)
        self.shards = len(self.replicas) // self.slots
        for replica in self.replicas:
            replica._accepts_global_times = True

    def ingest(self, shard: int, items: Any, times: np.ndarray,
               ctx: Any = None) -> None:
        # ``ctx`` (a propagated span context) is part of the router
        # protocol but unused here: inline execution means the replicas'
        # engine spans already parent naturally under the caller's span.
        slots = self.slots
        for replica in self.replicas[shard * slots:(shard + 1) * slots]:
            replica.insert_many(items, times)

    def barrier(self, now: float, ctx: Any = None) -> None:
        """Synchronise every replica's cleaner to the query time."""
        flush = self.shards > 1
        for replica in self.replicas:
            advance_replica(replica, now, flush)

    def queue_depth(self, shard: int) -> int:
        return 0

    def close(self) -> None:
        pass


class ShardSet:
    """``P`` key partitions of ``S`` sketches: one shard hash, one router.

    Parameters
    ----------
    replicas:
        One list per slot, holding that slot's replica on every shard
        in shard order (``replicas[slot][shard]``).
    seed:
        The routing seed (salted by :class:`~repro.hashing.ShardSelector`);
        defaults to the first replica's seed.
    router:
        ``"serial"`` (inline, deterministic) or ``"process"`` (one
        worker process per shard, owning every slot of it).
    queue_capacity, timeout, time_source:
        Forwarded to :class:`~repro.shard.workers.ProcessShardRouter`
        (ignored by the serial router); ``None`` takes its default.

    The set carries the one stream clock all its slots share; read and
    feed it through :meth:`views`.
    """

    def __init__(self, replicas: "list[list[Any]]", *,
                 seed: "int | None" = None, router: str = "serial",
                 queue_capacity: "int | None" = None,
                 timeout: "float | None" = None,
                 time_source: Any = None) -> None:
        self.slots = len(replicas)
        self.shards = len(replicas[0]) if replicas else 0
        if not self.shards or any(len(r) != self.shards for r in replicas):
            raise ConfigurationError(
                "every slot needs one replica per shard, got "
                f"{[len(r) for r in replicas]}"
            )
        first = replicas[0][0]
        # The routers take them shard-major: shard p owns
        # flat[p * slots:(p + 1) * slots], one replica per slot.
        flat = [by_shard[p] for p in range(self.shards)
                for by_shard in replicas]
        self.selector = ShardSelector(
            self.shards, seed=first.seed if seed is None else seed)
        #: Each slot's clock array, read only for its immutable sweep
        #: schedule (cells, circles, window) through ``reaches``; the
        #: cell values are the router's to write.
        self.schedules = [by_shard[0].clock for by_shard in replicas]
        self.router: Any
        if router == "serial":
            self.router = SerialShardRouter(flat, self.slots)
        elif router == "process":
            # Loaded only here: the serial path never needs the worker
            # pool.
            from .workers import ProcessShardRouter

            self.router = ProcessShardRouter(
                flat, slots=self.slots, queue_capacity=DEFAULT_QUEUE_CAPACITY
                if queue_capacity is None else queue_capacity,
                timeout=DEFAULT_TIMEOUT if timeout is None else timeout,
                time_source=time_source,
            )
        else:
            raise ConfigurationError(
                f"unknown router {router!r}; use 'serial' or 'process'"
            )
        self.now = 0.0
        self.items_inserted = 0
        #: Bumped by every ingest; merged views cache per version.
        self.version = 0
        self._synced: "tuple[int, float] | None" = None

    @classmethod
    def cloned(cls, prototypes: "list[Any]", shards: int,
               **options: Any) -> "ShardSet":
        """A fresh set: ``shards`` clones of each pristine prototype."""
        for prototype in prototypes:
            if not isinstance(prototype, _SHARDABLE):
                raise ConfigurationError(
                    "prototype must be one of the four clock sketches, "
                    f"got {type(prototype).__name__}"
                )
        shards = int(shards)
        if shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {shards}")
        if any(p.items_inserted or p.clock.steps_done or p.now
               for p in prototypes):
            raise ConfigurationError(
                "prototype must be pristine (no inserts, cleaner at "
                "step 0); pass a factory or a freshly built sketch"
            )
        # In-memory copies: every replica owns its arrays (the process
        # router then binds them into its shard's block).
        return cls([[copy.deepcopy(prototype) for _ in range(shards)]
                    for prototype in prototypes], **options)

    def views(self) -> "list[ShardedSketch]":
        """One :class:`ShardedSketch` per slot, in slot order."""
        views = []
        for slot in range(self.slots):
            view = ShardedSketch.__new__(ShardedSketch)
            view._bind(self, slot)
            views.append(view)
        return views

    def barrier(self, now: float, ctx: Any = None) -> None:
        """Synchronise every shard to ``now`` — once per ingest version,
        however many slots are queried."""
        if self._synced != (self.version, now):
            self.router.barrier(now, ctx=ctx)
            self._synced = (self.version, now)

    def close(self) -> None:
        self.router.close()


class ShardedSketch(ClockSketchBase):
    """One slot of a :class:`ShardSet`, presented as a plain sketch.

    Parameters
    ----------
    prototype:
        A *pristine* sketch instance (no inserts, cleaner at step 0) —
        or a zero-argument factory returning one — defining the
        per-shard configuration. Each shard gets an exact clone.
    shards:
        Number of partitions ``P`` (>= 1).
    router:
        ``"serial"`` (inline, deterministic) or ``"process"`` (one
        worker process per shard over shared memory).
    queue_capacity, timeout, time_source:
        Forwarded to :class:`~repro.shard.workers.ProcessShardRouter`
        (ignored by the serial router).

    Constructed directly, the facade is the single slot of its own
    set. The facade exposes the full sketch API — ``insert`` /
    ``insert_many`` route by shard hash and feed *every* slot of the
    set (the slots measure one stream); ``query`` / ``query_many`` /
    ``contains`` / ``contains_many`` / ``estimate`` are answered from a
    cached merged view of this slot (rebuilt after the next insert or
    at a new query time). Use as a context manager to release worker
    processes.
    """

    def __init__(self, prototype: Any, shards: int = 2, *,
                 router: str = "serial",
                 queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
                 timeout: float = DEFAULT_TIMEOUT,
                 time_source: Any = None) -> None:
        if callable(prototype) and not isinstance(prototype, _SHARDABLE):
            prototype = prototype()
        self._bind(ShardSet.cloned(
            [prototype], shards, router=router,
            queue_capacity=queue_capacity, timeout=timeout,
            time_source=time_source,
        ), 0)

    def _bind(self, shard_set: ShardSet, slot: int) -> None:
        self.shard_set = shard_set
        self.slot = slot
        # Shared by every slot of the set.
        self.router = shard_set.router
        self.selector = shard_set.selector
        self.shards = shard_set.shards
        self.window = self.replicas[0].window
        self._cache: Any = None
        self._cache_version = -1

    # The stream clock lives on the set: every slot shares it.

    @property
    def _now(self) -> float:
        return self.shard_set.now

    @_now.setter
    def _now(self, value: float) -> None:
        self.shard_set.now = value

    @property
    def _items_inserted(self) -> int:
        return self.shard_set.items_inserted

    @_items_inserted.setter
    def _items_inserted(self, value: int) -> None:
        self.shard_set.items_inserted = value

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def insert(self, item: Any, t: "float | None" = None) -> None:
        """Insert one item: a one-item :meth:`insert_many`."""
        self.insert_many([item], None if t is None else [t])

    def insert_many(self, items: Any, times: Any = None) -> None:
        """Insert a batch: resolve times once, scatter by shard hash.

        Keys become their uint64 ids first, so routing, scatter and the
        worker hand-off move one array. Each shard's sub-batch preserves
        stream order and carries the items' *global* arrival times, so
        every replica cleans on the plain sketch's exact schedule.
        """
        items = key_ids(items)
        count = len(items)
        times_arr = self._insert_times_many(count, times)
        if not count:
            return
        shard_set = self.shard_set
        router = self.router
        with _trace.span(_names.SPAN_SHARD_SCATTER) as sp:
            if sp.recording:
                sp.set("items", count)
                sp.set("shards", shard_set.shards)
            shard_ids = shard_set.selector.shards_of(items)
            for shard, sub_items, sub_times in \
                    _kernels.scatter_by_shard(items, times_arr, shard_ids):
                router.ingest(shard, sub_items, sub_times, ctx=sp.ctx)
                if _obs.ENABLED:
                    _obs.record_shard_route(shard, int(sub_times.shape[0]),
                                            router.queue_depth(shard))
        shard_set.items_inserted += count
        shard_set.now = float(times_arr[-1])
        shard_set.version += 1
        if _obs.ENABLED:
            _obs.record_insert(type(self).__name__, count)

    # ------------------------------------------------------------------
    # Merged global view
    # ------------------------------------------------------------------

    def merged(self, t: "float | None" = None) -> Any:
        """The global sketch at time ``t``: barrier, snapshot, union.

        Synchronises every shard to the query time (for the process
        router this is the flush-and-ack barrier, run once for all
        slots), snapshots this slot's shard-0 replica and merges the
        rest in. The view is cached until the next insert or a later
        query time; it is a plain sketch — every query method on it
        works as usual.
        """
        now = self._query_time(t)
        shard_set = self.shard_set
        cache = self._cache
        if cache is not None and self._cache_version == shard_set.version \
                and cache.now == now:
            return cache
        started = perf_counter()
        with _trace.span(_names.SPAN_SHARD_MERGE) as sp:
            if sp.recording:
                sp.set("shards", shard_set.shards)
            shard_set.barrier(now, ctx=sp.ctx)
            replicas = self.replicas
            view = replicas[0].snapshot()
            for other in replicas[1:]:
                view.merge(other)
            if sp.recording:
                sp.set("kind", type(view).__name__)
        view._now = float(now)
        view._items_inserted = self._items_inserted
        if _obs.ENABLED:
            _obs.record_shard_merge(type(view).__name__, shard_set.shards,
                                    perf_counter() - started)
        self._cache = view
        self._cache_version = shard_set.version
        return view

    def snapshot(self, t: "float | None" = None) -> Any:
        """A detached copy of the merged global sketch at time ``t``."""
        return self.merged(t).snapshot()

    # ------------------------------------------------------------------
    # Queries (delegate to the merged view)
    # ------------------------------------------------------------------

    def query(self, item: Any, t: "float | None" = None) -> Any:
        """Query the merged global view for one item."""
        return self.merged(t).query(item)

    def query_many(self, items: Any, t: "float | None" = None) -> Any:
        """Query the merged global view for a batch of items."""
        return self.merged(t).query_many(items)

    def contains(self, item: Any, t: "float | None" = None) -> bool:
        """Membership query on the merged view (Bloom-filter kinds)."""
        return self.merged(t).contains(item)

    def contains_many(self, items: Any,
                      t: "float | None" = None) -> np.ndarray:
        """Batch membership query on the merged view."""
        return self.merged(t).contains_many(items)

    def estimate(self, t: "float | None" = None,
                 strict: bool = False) -> float:
        """Cardinality estimate from the merged view (bitmap kind)."""
        return self.merged(t).estimate(strict=strict)

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------

    @property
    def replicas(self) -> "list[Any]":
        """This slot's per-shard replica sketches (read-only use)."""
        shard_set = self.shard_set
        return shard_set.router.replicas[self.slot::shard_set.slots]

    @property
    def clock(self) -> Any:
        """The merged view's clock (plain sketches expose ``.clock``)."""
        return self.merged().clock

    def _schedule_clock(self) -> Any:
        # Every replica sweeps on the plain sketch's schedule; no merge.
        return self.shard_set.schedules[self.slot]

    def memory_bits(self) -> int:
        """Total accounted footprint across all shards, in bits."""
        return sum(r.memory_bits() for r in self.replicas)

    def shard_memory_bits(self) -> int:
        """One shard's footprint — the *accuracy-relevant* size.

        The merged view's error behaviour equals a single shard-sized
        sketch (every shard holds the full cell space), so analytic
        predictions must use this, not :meth:`memory_bits`.
        """
        return self.replicas[0].memory_bits()

    def metrics(self) -> "dict[str, Any]":
        """Structural metrics for the facade and each shard."""
        replicas = self.replicas
        return {
            "sketch": type(self).__name__,
            "kind": type(replicas[0]).__name__,
            "shards": self.shards,
            "router": self.router.kind,
            "memory_bits": self.memory_bits(),
            "shard_memory_bits": self.shard_memory_bits(),
            "items_inserted": self._items_inserted,
            "queue_depths": [self.router.queue_depth(p)
                             for p in range(self.shards)],
        }

    def __getattr__(self, name: str) -> Any:
        # Configuration attributes (n, k, s, width, ...) delegate to the
        # shard-0 replica so callers can introspect a ShardedSketch like
        # a plain sketch. Only the closed _FORWARDED_CONFIG set is
        # forwarded: with a process router the replica is backed by
        # shared memory that worker processes may still be writing, so
        # mutable state (clock, counters, engine) must go through the
        # barrier-synchronised query path, never raw delegation.
        if name not in _FORWARDED_CONFIG:
            raise AttributeError(name)
        shard_set = self.__dict__.get("shard_set")
        if shard_set is None:
            raise AttributeError(name)
        return getattr(shard_set.router.replicas[self.slot], name)

    def close(self) -> None:
        """Release the set's router resources (worker processes and
        their queues) — for every slot.

        Idempotent; the facade remains queryable afterwards — the
        replicas keep reading their final state from the shard blocks.
        """
        self.shard_set.close()

    def __enter__(self) -> "ShardedSketch":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        kind = type(self.replicas[0]).__name__
        return (f"ShardedSketch(kind={kind}, shards={self.shards}, "
                f"router={self.router.kind!r}, "
                f"items={self._items_inserted})")
