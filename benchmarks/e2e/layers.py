"""Per-layer accounting for the traced run.

The traced server wraps public callables by dotted name before the
service starts (:meth:`Recorder.install`). Each wrapper counts calls,
items and self time: its duration minus the time of wrapped calls
nested inside it. A target that no longer exists is skipped and
reported absent, so the benchmark keeps running on commits that moved
or removed a layer. :func:`layer_metrics` turns one load-phase snapshot
into the named per-layer metrics; fractions are of server wall time, so
they compare across hosts.
"""

from __future__ import annotations

import asyncio
import importlib
import inspect
import os
import statistics
import weakref
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple


def _len_arg(args: "Tuple[Any, ...]", result: Any) -> int:
    return len(args[1])


def _request_keys(args: "Tuple[Any, ...]", result: Any) -> int:
    return len(getattr(result, "keys", ()) or ())


def _file_bytes(args: "Tuple[Any, ...]", result: Any) -> int:
    return os.path.getsize(result)


@dataclass(frozen=True)
class Target:
    """One wrapped callable and what its wrapper records."""

    name: str
    #: ``items(args, result)``: work units of one successful call.
    items: "Optional[Callable[[Tuple[Any, ...], Any], int]]" = None
    #: Keep every call's duration (for percentiles).
    samples: bool = False
    #: Extra bookkeeping, see :meth:`Recorder._enter`.
    hook: str = ""


_SERVE = "repro.serve."
_SHARD = "repro.shard."
_KERNELS = "repro.kernels.numpy_backend."
_ENGINE = "repro.engine.batch.BatchEngine."

TARGETS: "Tuple[Target, ...]" = (
    Target(_SERVE + "protocol.parse_frame", _request_keys, hook="mark"),
    Target(_SERVE + "protocol.encode"),
    Target(_SERVE + "service.IngestService._process"),
    Target(_SERVE + "tenants.Tenant.ingest", _len_arg, hook="gap"),
    Target(_SERVE + "tenants.Tenant.query", hook="gap"),
    Target(_SERVE + "checkpoint.CheckpointManager.write", _file_bytes,
           samples=True),
    Target("repro.monitor.ItemBatchMonitor.observe_many", _len_arg),
    Target("repro.hashing.indexing.IndexDeriver.base_hashes_many", _len_arg),
    Target("repro.hashing.sharding.ShardSelector.shards_of", _len_arg),
    Target("repro.hashing.family.BobHashFamily.hash_many", _len_arg,
           hook="instances"),
    Target("repro.hashing.family.BobHashFamily.base64"),
    Target(_SHARD + "router.ShardedSketch.insert_many", _len_arg),
    Target(_SHARD + "router.ShardedSketch.merged", hook="merge"),
    Target(_SHARD + "router.SerialShardRouter.ingest"),
    Target(_SHARD + "router.SerialShardRouter.barrier", hook="barrier"),
    Target(_SHARD + "workers.ProcessShardRouter.ingest"),
    Target(_SHARD + "workers.ProcessShardRouter.barrier", hook="barrier"),
    Target(_KERNELS + "scatter_by_shard"),
    Target(_ENGINE + "ingest_touch"),
    Target(_ENGINE + "ingest_timespan"),
    Target(_ENGINE + "ingest_countmin"),
    Target(_KERNELS + "fuse_touch"),
    Target(_KERNELS + "fuse_timespan"),
    Target(_KERNELS + "fuse_countmin"),
    Target(_KERNELS + "sweep_hits"),
    Target(_KERNELS + "NumpyKernelBackend.decay_all"),
    Target("repro.core.clockarray.ClockArray.advance"),
    Target("repro.obs.trace.record_spans", hook="spans"),
)

#: Worker-side span whose durations make ``worker.engine_frac``.
ENGINE_SPAN = "engine.batch"
_QUERY = _SERVE + "tenants.Tenant.query"


def resolve(dotted: str) -> "Tuple[Any, str, Callable[..., Any]]":
    """``(owner, attribute, callable)`` for a dotted name.

    The longest importable prefix is the module; the rest is an
    attribute path inside it. Raises :class:`LookupError` when any part
    is missing.
    """
    parts = dotted.split(".")
    owner: Any = None
    cut = len(parts) - 1
    while cut > 0 and owner is None:
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            cut -= 1
    if owner is None:
        raise LookupError(f"no importable module in {dotted!r}")
    for part in parts[cut:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            raise LookupError(f"{dotted!r}: no attribute {part!r}")
    value = getattr(owner, parts[-1], None)
    # Static and class methods would lose their binding when replaced
    # by a plain function, so only plain functions and methods qualify.
    raw = inspect.getattr_static(owner, parts[-1], None)
    if not inspect.isfunction(value) \
            or isinstance(raw, (staticmethod, classmethod)):
        raise LookupError(f"{dotted!r} is not a plain function or method")
    return owner, parts[-1], value


class Recorder:
    """Counts calls, items and self time per wrapped target."""

    def __init__(self) -> None:
        #: Off in forked shard workers, whose numbers nobody reads.
        self.on = True
        self.absent: "List[str]" = []
        self.targets: "Dict[str, Target]" = {}
        #: One ``[nested seconds, target name]`` per active wrapped call.
        self._stack: "List[List[Any]]" = []
        self._marks: "Dict[int, float]" = {}
        self._barriers = 0
        self._families: "weakref.WeakSet[Any]" = weakref.WeakSet()
        self.reset()

    def reset(self) -> None:
        # name -> [calls, items, total seconds, self seconds]
        self.stats: "Dict[str, List[float]]" = {
            name: [0, 0, 0.0, 0.0] for name in self.targets}
        self.samples: "Dict[str, List[float]]" = {
            name: [] for name, t in self.targets.items() if t.samples}
        self.lock_waits: "List[float]" = []
        self.query_merges: "List[float]" = []
        self.worker_spans: "Dict[str, float]" = {}
        self.started = perf_counter()

    def install(self, targets: "Tuple[Target, ...]" = TARGETS) -> None:
        """Wrap every target that exists; list the others as absent."""
        for target in targets:
            try:
                owner, attr, fn = resolve(target.name)
            except LookupError:
                self.absent.append(target.name)
                continue
            self.targets[target.name] = target
            wrap = (self._wrap_async if inspect.iscoroutinefunction(fn)
                    else self._wrap)
            setattr(owner, attr, wrap(target, fn))
        self.reset()

    # -- hooks -------------------------------------------------------

    def _task_key(self) -> int:
        try:
            return id(asyncio.current_task())
        except RuntimeError:
            return 0

    def _enter(self, target: Target, args: "Tuple[Any, ...]") -> Any:
        """Per-hook bookkeeping at call entry; returns a token for
        :meth:`_leave`.

        ``gap``: the time since ``parse_frame`` returned on this task
        (the tenant-lock wait). ``instances``: remember the hash family.
        ``spans``: sum the durations of spans shipped back by workers.
        ``barrier``/``merge``: tell merged-view rebuilds that a query
        waited for from cache hits and checkpoint barriers.
        """
        hook = target.hook
        if hook == "gap":
            marked = self._marks.pop(self._task_key(), None)
            if marked is not None:
                self.lock_waits.append(perf_counter() - marked)
        elif hook == "instances":
            self._families.add(args[0])
        elif hook == "spans":
            pid = os.getpid()
            for span in args[0]:
                if span.get("pid") != pid:
                    name = str(span.get("name"))
                    self.worker_spans[name] = (
                        self.worker_spans.get(name, 0.0)
                        + float(span.get("duration", 0.0)))
        elif hook == "barrier":
            self._barriers += 1
        elif hook == "merge":
            return self._barriers
        return None

    def _leave(self, target: Target, token: Any, elapsed: float) -> None:
        if target.hook == "mark":
            self._marks[self._task_key()] = perf_counter()
        elif target.hook == "merge" and self._barriers > token \
                and any(frame[1] == _QUERY for frame in self._stack):
            self.query_merges.append(elapsed)

    # -- wrappers ----------------------------------------------------

    def _wrap(self, target: Target, fn: "Callable[..., Any]"
              ) -> "Callable[..., Any]":
        name = target.name
        stack = self._stack
        recorder = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not recorder.on:
                return fn(*args, **kwargs)
            token = recorder._enter(target, args) if target.hook else None
            frame = [0.0, name]
            stack.append(frame)
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                row = recorder.stats[name]
                row[0] += 1
                row[2] += elapsed
                row[3] += elapsed - frame[0]
                if target.samples:
                    recorder.samples[name].append(elapsed)
            if target.items is not None:
                row[1] += target.items(args, result)
            if target.hook:
                recorder._leave(target, token, elapsed)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def _wrap_async(self, target: Target, fn: "Callable[..., Any]"
                    ) -> "Callable[..., Any]":
        # A coroutine yields to other tasks, so it cannot sit on the
        # self-time stack; it records its total duration only.
        name = target.name
        recorder = self

        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            started = perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                row = recorder.stats[name]
                row[0] += 1
                row[2] += perf_counter() - started

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def snapshot(self) -> "Dict[str, Any]":
        """Everything recorded since the last snapshot, then reset."""
        snap = {
            "wall": perf_counter() - self.started,
            "stats": self.stats,
            "samples": self.samples,
            "lock_waits": self.lock_waits,
            "query_merges": self.query_merges,
            "worker_spans": self.worker_spans,
            "memo_entries": sum(len(getattr(f, "_cache", None) or ())
                                for f in list(self._families)),
            "absent": list(self.absent),
        }
        self.reset()
        return snap


# ----------------------------------------------------------------------
# Snapshot -> named per-layer metrics
# ----------------------------------------------------------------------

def _median_ms(values: "List[float]") -> float:
    return statistics.median(values) * 1e3 if values else 0.0


def layer_metrics(snap: "Dict[str, Any]") -> "Dict[str, float]":
    """The per-layer metrics of one load phase, from its snapshot."""
    stats = snap["stats"]
    wall = snap["wall"]

    def row(suffix: str) -> "List[float]":
        for name, value in stats.items():
            if name.endswith(suffix):
                return value
        return [0, 0, 0.0, 0.0]

    def calls(*names: str) -> float:
        return sum(row(n)[0] for n in names)

    def total(*names: str) -> float:
        return sum(row(n)[2] for n in names)

    def frac(*names: str) -> float:
        return sum(row(n)[3] for n in names) / wall

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    frames = calls("Tenant.ingest")
    keys = row("Tenant.ingest")[1]
    decode = row("protocol.parse_frame")
    hashed = row("BobHashFamily.hash_many")[1]
    lookup3 = calls("BobHashFamily.base64")
    merges = snap["query_merges"]
    writes = snap["samples"].get(_SERVE + "checkpoint.CheckpointManager.write",
                                 [])
    return {
        "protocol.decode_frac": frac("protocol.parse_frame"),
        "protocol.decode_us_per_key": ratio(decode[3] * 1e6, decode[1]),
        "protocol.encode_frac": frac("protocol.encode"),
        "serve.frame_overhead_frac": max(0.0, (
            total("IngestService._process") - total("protocol.parse_frame")
            - total("Tenant.ingest", "Tenant.query")) / wall),
        "serve.lock_wait_ms_p50": _median_ms(snap["lock_waits"]),
        "monitor.fanout_frac": frac("ItemBatchMonitor.observe_many"),
        "hashing.frac": frac("IndexDeriver.base_hashes_many",
                             "ShardSelector.shards_of",
                             "BobHashFamily.hash_many",
                             "BobHashFamily.base64"),
        "hashing.passes_per_frame": ratio(
            calls("IndexDeriver.base_hashes_many"), frames),
        "hashing.lookup3_per_key": ratio(lookup3, keys),
        "hashing.memo_hit_ratio": (max(0.0, 1.0 - lookup3 / hashed)
                                   if hashed else 0.0),
        "hashing.memo_entries": float(snap["memo_entries"]),
        "shard.scatter_frac": frac("numpy_backend.scatter_by_shard",
                                   "ShardedSketch.insert_many"),
        "shard.ipc_wait_frac": frac("ProcessShardRouter.ingest",
                                    "ProcessShardRouter.barrier"),
        "shard.merges_per_query": ratio(len(merges), calls("Tenant.query")),
        "shard.merge_ms_p50": _median_ms(merges),
        "worker.engine_frac": snap["worker_spans"].get(ENGINE_SPAN, 0.0)
        / wall,
        "engine.frac": frac("BatchEngine.ingest_touch",
                            "BatchEngine.ingest_timespan",
                            "BatchEngine.ingest_countmin"),
        "kernels.fuse_frac": frac("numpy_backend.fuse_touch",
                                  "numpy_backend.fuse_timespan",
                                  "numpy_backend.fuse_countmin"),
        "kernels.sweep_frac": frac("numpy_backend.sweep_hits",
                                   "NumpyKernelBackend.decay_all"),
        "clock.advance_frac": frac("ClockArray.advance"),
        "checkpoint.writes": float(len(writes)),
        "checkpoint.ms_p50": _median_ms(writes),
        "checkpoint.ms_max": max(writes) * 1e3 if writes else 0.0,
        "checkpoint.bytes": ratio(row("CheckpointManager.write")[1],
                                  len(writes)),
    }
