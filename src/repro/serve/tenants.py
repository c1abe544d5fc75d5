"""Per-tenant state: configuration, monitors, admission, quarantine.

Every tenant owns an independent :class:`~repro.monitor.ItemBatchMonitor`
built through :meth:`~repro.monitor.ItemBatchMonitor.sharded` — its own
window, memory budget, seed, shard count and router — so one tenant's
traffic, faults, and accuracy never bleed into another's. The
:class:`TenantManager` enforces admission control (tenant cap,
auto-create policy) and carries the quarantine discipline: a tenant
whose engine raised :class:`~repro.errors.ShardWorkerError` is marked
quarantined and every later command fails fast with the typed
:class:`~repro.errors.TenantQuarantinedError` instead of wedging the
connection or the event loop.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from ..core.params import error_window_length
from ..errors import (
    AdmissionError,
    ShardWorkerError,
    TenantQuarantinedError,
    TimeError,
    UnknownTenantError,
)
from ..monitor import ItemBatchMonitor
from ..obs import runtime as _obs
from ..timebase import WindowKind, WindowSpec

__all__ = ["TenantConfig", "Tenant", "TenantManager"]


@dataclass(frozen=True)
class TenantConfig:
    """One tenant's engine configuration (JSON-round-trippable).

    ``checkpoint_every`` is a cadence in *stream* units — items for
    count-based windows, stream time for time-based ones. The default
    (``None``) derives the sweep-circle cadence: the smallest enabled
    sketch error window ``T / (2^s - 2)``, so a restart restores to a
    state at most one error window behind the stream (see
    ``docs/serving.md``).
    """

    window_length: float = 4096
    window_kind: str = "count"
    memory: "int | str" = "64KB"
    tasks: "Optional[Tuple[str, ...]]" = None
    split: "Optional[Tuple[Tuple[str, float], ...]]" = None
    seed: int = 0
    shards: int = 1
    router: str = "serial"
    queue_capacity: "Optional[int]" = None
    timeout: "Optional[float]" = None
    max_batch: int = 65536
    checkpoint_every: "Optional[float]" = None

    def window(self) -> WindowSpec:
        return WindowSpec(length=self.window_length,
                          kind=WindowKind(self.window_kind))

    def build_monitor(self, time_source: Any = None) -> ItemBatchMonitor:
        """A fresh monitor at this configuration (one serial shard is
        the plain monitor)."""
        return ItemBatchMonitor.sharded(
            self.window(), memory=self.memory, tasks=self.tasks,
            split=dict(self.split) if self.split else None, seed=self.seed,
            shards=self.shards, router=self.router,
            queue_capacity=self.queue_capacity, timeout=self.timeout,
            time_source=time_source,
        )

    def cadence(self, monitor: ItemBatchMonitor) -> float:
        """Checkpoint cadence in stream units (items or time)."""
        if self.checkpoint_every is not None:
            return float(self.checkpoint_every)
        return min(error_window_length(self.window_length, sketch.s)
                   for sketch in monitor._sketches)

    def to_meta(self) -> "Dict[str, Any]":
        """A JSON-safe mapping that :meth:`from_meta` reverses."""
        return {
            "window_length": self.window_length,
            "window_kind": self.window_kind,
            "memory": self.memory,
            "tasks": list(self.tasks) if self.tasks else None,
            "split": [list(pair) for pair in self.split]
            if self.split else None,
            "seed": self.seed,
            "shards": self.shards,
            "router": self.router,
            "queue_capacity": self.queue_capacity,
            "timeout": self.timeout,
            "max_batch": self.max_batch,
            "checkpoint_every": self.checkpoint_every,
        }

    @classmethod
    def from_meta(cls, meta: "Mapping[str, Any]") -> "TenantConfig":
        tasks = meta.get("tasks")
        split = meta.get("split")
        return cls(
            window_length=meta["window_length"],
            window_kind=meta["window_kind"],
            memory=meta["memory"],
            tasks=tuple(tasks) if tasks else None,
            split=tuple((str(k), float(v)) for k, v in split)
            if split else None,
            seed=int(meta["seed"]),
            shards=int(meta["shards"]),
            router=str(meta["router"]),
            queue_capacity=meta.get("queue_capacity"),
            timeout=meta.get("timeout"),
            max_batch=int(meta.get("max_batch", 65536)),
            checkpoint_every=meta.get("checkpoint_every"),
        )


class Tenant:
    """One tenant's live engine plus its service-side bookkeeping."""

    def __init__(self, name: str, config: TenantConfig,
                 monitor: ItemBatchMonitor, *,
                 restored_from: "Optional[str]" = None) -> None:
        self.name = name
        self.config = config
        self.monitor = monitor
        #: Serialises commands and checkpoints for this tenant on the
        #: event loop (commands for different tenants interleave freely).
        self.lock = asyncio.Lock()
        self.quarantine_reason: "Optional[str]" = None
        self.commands = 0
        self.items = 0
        self.restored_from = restored_from
        self.last_checkpoint_position = self.position
        self.checkpoints_written = 0

    @property
    def position(self) -> float:
        """The tenant's stream position (items for count windows,
        stream time otherwise)."""
        return float(self.monitor.stream_clock.now)

    @property
    def quarantined(self) -> bool:
        return self.quarantine_reason is not None

    def ensure_healthy(self) -> None:
        if self.quarantine_reason is not None:
            raise TenantQuarantinedError(
                f"tenant {self.name!r} is quarantined: "
                f"{self.quarantine_reason}")

    def quarantine(self, exc: BaseException) -> None:
        """Fence the tenant off after an engine failure."""
        self.quarantine_reason = f"{type(exc).__name__}: {exc}"
        if _obs.ENABLED:
            _obs.record_serve_quarantine(self.name)
            _obs.record_event(self.position, "critical", "serve.quarantine",
                              self.quarantine_reason,
                              fields={"tenant": self.name})

    def _check_times_kind(self, times: "Optional[List[float]]") -> None:
        """Refuse timestamps the window kind does not take (or needs).

        Only these two checks live here, to give the mistake the
        ``time-error`` wire code. The times themselves (length, order,
        not before the stream position) are validated once by the
        monitor before any task moves, so a rejected batch stays
        all-or-nothing and accepted commands replay exactly against a
        differential in-process monitor.
        """
        if self.config.window().is_count_based:
            if times is not None:
                raise TimeError("count-based tenant takes no timestamps")
        elif times is None:
            raise TimeError("time-based tenant requires timestamps")

    def ingest(self, keys: "List[Any]",
               times: "Optional[List[float]]") -> int:
        """Apply one accepted batch to every enabled structure."""
        self.ensure_healthy()
        if len(keys) > self.config.max_batch:
            raise AdmissionError(
                f"batch of {len(keys)} exceeds tenant {self.name!r}'s "
                f"{self.config.max_batch}-item cap")
        self._check_times_kind(times)
        try:
            self.monitor.observe_many(keys, times)
        except ShardWorkerError as exc:
            self.quarantine(exc)
            raise
        self.items += len(keys)
        self.commands += 1
        return len(keys)

    def query(self, key: Any, t: "Optional[float]" = None
              ) -> "Dict[str, Any]":
        """The combined per-key report at ``t`` (default: the stream
        position), as wire-ready fields."""
        self.ensure_healthy()
        try:
            report = self.monitor.report(key, t)
        except ShardWorkerError as exc:
            self.quarantine(exc)
            raise
        self.commands += 1
        return {
            "key": report.key,
            "active": report.active,
            "size": report.size,
            "span": report.span,
            "begin": report.begin,
        }

    def stats(self) -> "Dict[str, Any]":
        """Operational snapshot (the ``STATS`` response body)."""
        return {
            "tenant": self.name,
            "position": self.position,
            "items": self.items,
            "commands": self.commands,
            "quarantined": self.quarantine_reason,
            "tasks": list(self.monitor.tasks),
            "shards": self.monitor.shards,
            "memory_bits": self.monitor.memory_bits(),
            "checkpoints_written": self.checkpoints_written,
            "last_checkpoint_position": self.last_checkpoint_position,
            "restored_from": self.restored_from,
        }

    def close(self) -> None:
        self.monitor.close()


class TenantManager:
    """Owns the tenant map: admission, lookup, lifecycle.

    Parameters
    ----------
    default_config:
        Configuration for auto-created tenants (when ``auto_create``).
    tenants:
        Explicit per-tenant configurations; these names always exist
        (created lazily on first use) regardless of ``auto_create``.
    max_tenants:
        Admission cap on resident tenants.
    auto_create:
        Whether an unknown tenant name creates a tenant on first use
        (with ``default_config``) or fails with ``unknown-tenant``.
    time_source:
        Injectable clock forwarded to process-router shard workers.
    """

    def __init__(self, default_config: "Optional[TenantConfig]" = None,
                 tenants: "Optional[Mapping[str, TenantConfig]]" = None,
                 *, max_tenants: int = 64, auto_create: bool = True,
                 time_source: Any = None) -> None:
        self.default_config = default_config or TenantConfig()
        self.configs: "Dict[str, TenantConfig]" = dict(tenants or {})
        self.max_tenants = int(max_tenants)
        self.auto_create = bool(auto_create)
        self.time_source = time_source
        self._tenants: "Dict[str, Tenant]" = {}

    def __len__(self) -> int:
        return len(self._tenants)

    def __iter__(self) -> "Iterable[Tenant]":
        return iter(list(self._tenants.values()))

    def config_for(self, name: str) -> TenantConfig:
        config = self.configs.get(name)
        if config is not None:
            return config
        if not self.auto_create:
            raise UnknownTenantError(
                f"unknown tenant {name!r} (auto-create is disabled)")
        return self.default_config

    def peek(self, name: str) -> "Optional[Tenant]":
        return self._tenants.get(name)

    def get(self, name: str) -> Tenant:
        """The resident tenant, creating it if admission allows."""
        tenant = self._tenants.get(name)
        if tenant is not None:
            return tenant
        config = self.config_for(name)
        if len(self._tenants) >= self.max_tenants:
            raise AdmissionError(
                f"tenant limit reached ({self.max_tenants}); "
                f"cannot admit {name!r}")
        monitor = config.build_monitor(time_source=self.time_source)
        return self.adopt(Tenant(name, config, monitor))

    def adopt(self, tenant: Tenant) -> Tenant:
        """Install an already-built tenant (restore path)."""
        self._tenants[tenant.name] = tenant
        if _obs.ENABLED:
            _obs.publish_serve_tenants(len(self._tenants))
        return tenant

    def stats(self) -> "Dict[str, Any]":
        return {
            "tenants": len(self._tenants),
            "max_tenants": self.max_tenants,
            "auto_create": self.auto_create,
            "names": sorted(self._tenants),
            "quarantined": sorted(t.name for t in self._tenants.values()
                                  if t.quarantined),
        }

    def close(self) -> None:
        """Release every tenant's engine resources. Idempotent."""
        for tenant in self._tenants.values():
            tenant.close()
