"""Rolling tenant checkpoints: atomic writes, torn-file-safe restore.

One checkpoint is a single zip archive holding ``meta.json`` (format
tag, tenant name, :class:`~repro.serve.tenants.TenantConfig` mapping,
stream position) plus one :mod:`repro.serialize` ``.npz`` payload per
enabled task — sharded tasks flatten per shard, so a sharded tenant
restores as one shard set with its whole worker pool. Writes go to a
dot-prefixed temporary file in the tenant's directory and land via
``os.replace``, so a reader never observes a half-written *current*
checkpoint; a file torn by a crash mid-write (or mid-rename on a
non-atomic filesystem) fails zip validation and the loader falls back
to the previous intact generation rather than half-loading. The newest
``keep`` generations are retained.
"""

from __future__ import annotations

import json
import os
import zipfile
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..errors import CheckpointError
from ..monitor import ItemBatchMonitor
from ..obs import runtime as _obs
from ..serialize import dumps_sketch, loads_replicas
from ..shard import ShardSet
from .tenants import Tenant, TenantConfig

__all__ = ["CheckpointManager", "RestoredState", "CHECKPOINT_FORMAT"]

#: Format tag embedded in every archive; bumped on layout changes and
#: whenever keys move to other cells (``-2``: one key id per key).
CHECKPOINT_FORMAT = "repro-ckpt-2"

_PREFIX = "ckpt-"
_SUFFIX = ".zip"


class RestoredState:
    """A successfully loaded checkpoint: the rebuilt monitor + context."""

    def __init__(self, monitor: ItemBatchMonitor, config: TenantConfig,
                 meta: "Dict[str, Any]", path: Path,
                 fell_back: bool) -> None:
        self.monitor = monitor
        self.config = config
        self.meta = meta
        self.path = path
        #: True when newer checkpoint files existed but were corrupt,
        #: so this state is an older intact generation.
        self.fell_back = fell_back


class CheckpointManager:
    """Writes and restores per-tenant checkpoint generations.

    Parameters
    ----------
    root:
        Directory holding one sub-directory per tenant.
    keep:
        Number of checkpoint generations retained per tenant (>= 1);
        keeping more than one is what makes torn-file fallback possible.
    hooks:
        Optional test-only fault-injection points, by name:
        ``"pre_replace"`` is called with the temporary path after the
        archive is fully written but *before* the atomic rename — a
        hook that truncates the file simulates a crash mid-publish.
    """

    def __init__(self, root: "str | os.PathLike[str]", *, keep: int = 3,
                 hooks: "Optional[Mapping[str, Callable[..., None]]]" = None
                 ) -> None:
        if keep < 1:
            raise CheckpointError(f"keep must be >= 1, got {keep}")
        self.root = Path(root)
        self.keep = int(keep)
        self.hooks = dict(hooks or {})

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def tenant_dir(self, name: str) -> Path:
        return self.root / name

    def checkpoints(self, name: str) -> "List[Path]":
        """Intact-candidate checkpoint files, oldest first."""
        directory = self.tenant_dir(name)
        if not directory.is_dir():
            return []
        return sorted(p for p in directory.iterdir()
                      if p.name.startswith(_PREFIX)
                      and p.name.endswith(_SUFFIX))

    def _next_sequence(self, name: str) -> int:
        existing = self.checkpoints(name)
        if not existing:
            return 1
        last = existing[-1].name[len(_PREFIX):-len(_SUFFIX)]
        return int(last) + 1

    def write(self, tenant: Tenant) -> Path:
        """Snapshot one tenant atomically; returns the published path.

        The monitor must be externally quiesced (the service holds the
        tenant's lock): serialising a sharded task barriers its worker
        pool, so the archive holds every shard's state at one point.
        """
        started = perf_counter()
        monitor = tenant.monitor
        directory = self.tenant_dir(tenant.name)
        directory.mkdir(parents=True, exist_ok=True)
        seq = self._next_sequence(tenant.name)
        final = directory / f"{_PREFIX}{seq:08d}{_SUFFIX}"
        tmp = directory / f".tmp-{final.name}"
        meta = {
            "format": CHECKPOINT_FORMAT,
            "tenant": tenant.name,
            "sequence": seq,
            "config": tenant.config.to_meta(),
            "tasks": list(monitor.tasks),
            "position": tenant.position,
            "items": tenant.items,
        }
        try:
            with zipfile.ZipFile(tmp, "w", zipfile.ZIP_STORED) as archive:
                archive.writestr("meta.json", json.dumps(meta, indent=2))
                for task in monitor.tasks:
                    sketch = getattr(monitor,
                                     ItemBatchMonitor._TASK_ATTRS[task])
                    archive.writestr(f"task_{task}.npz",
                                     dumps_sketch(sketch))
            pre_replace = self.hooks.get("pre_replace")
            if pre_replace is not None:
                pre_replace(tmp)
            os.replace(tmp, final)
        except OSError as exc:
            tmp.unlink(missing_ok=True)
            raise CheckpointError(
                f"cannot write checkpoint for {tenant.name!r}: {exc}"
            ) from exc
        self._prune(tenant.name)
        tenant.last_checkpoint_position = tenant.position
        tenant.checkpoints_written += 1
        if _obs.ENABLED:
            _obs.record_serve_checkpoint(tenant.name,
                                         perf_counter() - started)
        return final

    def _prune(self, name: str) -> None:
        for stale in self.checkpoints(name)[:-self.keep]:
            stale.unlink(missing_ok=True)

    # ------------------------------------------------------------------
    # Restoring
    # ------------------------------------------------------------------

    def tenant_names(self) -> "List[str]":
        """Tenants that have at least one checkpoint file on disk."""
        if not self.root.is_dir():
            return []
        return sorted(p.name for p in self.root.iterdir()
                      if p.is_dir() and self.checkpoints(p.name))

    def restore(self, name: str,
                config: "Optional[TenantConfig]" = None
                ) -> "Optional[RestoredState]":
        """Load the newest intact checkpoint, falling back on damage.

        Candidates are tried newest-first; a torn or otherwise invalid
        archive is skipped (recorded as an observability event) and the
        next older generation is tried. Returns ``None`` when no intact
        checkpoint exists. A checkpoint either loads completely or not
        at all — the monitor is assembled only after every task payload
        has deserialised.
        """
        candidates = self.checkpoints(name)
        fell_back = False
        for path in reversed(candidates):
            try:
                monitor, cfg, meta = self._load(path, config)
            except (zipfile.BadZipFile, CheckpointError, KeyError,
                    ValueError, OSError) as exc:
                fell_back = True
                if _obs.ENABLED:
                    _obs.record_event(
                        0.0, "warning", "serve.checkpoint_fallback",
                        f"skipping damaged checkpoint {path.name}: {exc}",
                        fields={"tenant": name})
                continue
            return RestoredState(monitor, cfg, meta, path, fell_back)
        return None

    def _load(self, path: Path,
              config: "Optional[TenantConfig]"
              ) -> "tuple[ItemBatchMonitor, TenantConfig, Dict[str, Any]]":
        with zipfile.ZipFile(path) as archive:
            damage = archive.testzip()
            if damage is not None:
                raise CheckpointError(
                    f"{path.name}: CRC mismatch in {damage!r}")
            meta = json.loads(archive.read("meta.json"))
            if meta.get("format") != CHECKPOINT_FORMAT:
                raise CheckpointError(
                    f"{path.name}: unknown format {meta.get('format')!r}")
            tasks = meta["tasks"]
            parts = [loads_replicas(archive.read(f"task_{task}.npz"))
                     for task in tasks]
        cfg = config if config is not None \
            else TenantConfig.from_meta(meta["config"])
        monitor = _assemble_monitor(cfg, tasks, parts)
        return monitor, cfg, meta


def _assemble_monitor(
        config: TenantConfig, tasks: "List[str]",
        parts: "List[Tuple[List[Any], float, int]]") -> ItemBatchMonitor:
    """Rebuild a monitor around already-restored task replicas.

    ``parts`` holds, per task, its replicas plus the stream time and
    item count (see :func:`~repro.serialize.loads_replicas`). The
    constructor builds throwaway plain sketches (cheap: no worker pools
    are started on this path) which are immediately replaced: a
    one-shard serial tenant adopts each task's single replica as a
    plain sketch; any other tenant comes back as one shard set over
    every task's replicas, a process pool restarted with one worker per
    shard.
    """
    monitor = ItemBatchMonitor(
        config.window(), memory=config.memory, tasks=tuple(tasks),
        split=dict(config.split) if config.split else None,
        seed=config.seed)
    shards = int(config.shards)
    if any(len(replicas) != shards for replicas, _, _ in parts):
        raise CheckpointError(
            f"checkpoint replica counts do not match {shards} shard(s)")
    if shards == 1 and config.router == "serial":
        monitor._adopt([replicas[0] for replicas, _, _ in parts])
        return monitor
    shard_set = ShardSet(
        [replicas for replicas, _, _ in parts], seed=config.seed,
        router=config.router, queue_capacity=config.queue_capacity,
        timeout=config.timeout)
    stream = shard_set.stream_clock
    _, stream.now, stream.items = parts[0]
    monitor._adopt(shard_set.views(), shard_set)
    return monitor
