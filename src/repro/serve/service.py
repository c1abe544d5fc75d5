"""The asyncio TCP front door over per-tenant sharded monitors.

:class:`IngestService` accepts newline-delimited JSON frames
(:mod:`repro.serve.protocol`), dispatches them against
:class:`~repro.serve.tenants.TenantManager` state, and answers every
frame with exactly one response line — malformed input, admission
rejections, backpressure and engine faults all come back as typed
error responses, never as a silently dropped connection or a wedged
event loop. A background task sweeps tenants on their sweep-circle
cadence and publishes rolling checkpoints through
:class:`~repro.serve.checkpoint.CheckpointManager`; on restart the
service rehydrates every tenant from its newest intact checkpoint, so
a crash loses at most one error window of stream state.

Concurrency model: one coroutine per connection; commands against the
same tenant serialise on that tenant's lock (ingest order is part of
the sketch contract), while distinct tenants interleave freely.
Sketch work itself runs inline on the event loop — the engine is
vectorised numpy that outruns the socket layer, and keeping it inline
means the per-tenant ordering is the arrival order on the wire.
"""

from __future__ import annotations

import asyncio
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional, Set

from ..errors import BadFrameError, CheckpointError
from ..obs import runtime as _obs
from . import protocol
from .tenants import Tenant, TenantConfig, TenantManager

if TYPE_CHECKING:  # loaded at run time only when checkpointing is on
    from .checkpoint import CheckpointManager

__all__ = ["IngestService"]

#: Wall-clock seconds between background checkpoint-cadence sweeps.
DEFAULT_CHECKPOINT_POLL = 0.25


class IngestService:
    """The multi-tenant ingestion server.

    Parameters
    ----------
    default_config:
        Engine configuration for auto-created tenants.
    tenants:
        Explicit per-tenant configurations (always admitted by name).
    host, port:
        Bind address; ``port=0`` picks a free port (read it back from
        :attr:`port` after :meth:`start`).
    checkpoint_dir:
        Root directory for rolling checkpoints; ``None`` disables
        checkpointing (the ``CHECKPOINT`` op then fails typed).
    keep:
        Checkpoint generations retained per tenant.
    max_tenants, auto_create:
        Admission policy (see :class:`TenantManager`).
    max_frame_bytes:
        Hard cap on one protocol line; longer frames answer
        ``bad-frame`` and drop the connection.
    checkpoint_poll:
        Wall-clock cadence of the background sweep that *checks* each
        tenant's stream-position cadence (the loss bound itself is in
        stream units, so tests may call :meth:`checkpoint_due`
        directly and never wait on real time).
    time_source:
        Injectable clock forwarded to process-router shard workers.
    checkpoint_hooks:
        Test-only fault-injection hooks for the checkpoint pipeline.
    """

    def __init__(self, default_config: "Optional[TenantConfig]" = None,
                 tenants: "Optional[Mapping[str, TenantConfig]]" = None,
                 *, host: str = "127.0.0.1", port: int = 0,
                 checkpoint_dir: "Optional[str]" = None, keep: int = 3,
                 max_tenants: int = 64, auto_create: bool = True,
                 max_frame_bytes: int = protocol.MAX_FRAME_BYTES,
                 checkpoint_poll: float = DEFAULT_CHECKPOINT_POLL,
                 time_source: Any = None,
                 checkpoint_hooks: "Optional[Mapping[str, Any]]" = None
                 ) -> None:
        self.tenants = TenantManager(
            default_config, tenants, max_tenants=max_tenants,
            auto_create=auto_create, time_source=time_source)
        self.host = host
        self._requested_port = int(port)
        self.max_frame_bytes = int(max_frame_bytes)
        self.checkpoint_poll = float(checkpoint_poll)
        self.checkpoints: "Optional[CheckpointManager]" = None
        if checkpoint_dir is not None:
            from . import checkpoint

            self.checkpoints = checkpoint.CheckpointManager(
                checkpoint_dir, keep=keep, hooks=checkpoint_hooks)
        self._server: "Optional[asyncio.AbstractServer]" = None
        self._checkpoint_task: "Optional[asyncio.Task[None]]" = None
        self._writers: "Set[asyncio.StreamWriter]" = set()
        self._conn_tasks: "Set[asyncio.Task[None]]" = set()
        self.connections_total = 0
        #: Per-tenant outcome of the most recent :meth:`restore_tenants`.
        self.restore_outcomes: "Dict[str, str]" = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` after :meth:`start`)."""
        if self._server is not None and self._server.sockets:
            return int(self._server.sockets[0].getsockname()[1])
        return self._requested_port

    async def start(self) -> "IngestService":
        """Restore checkpointed tenants, bind, and begin serving."""
        if self._server is not None:
            return self
        self.restore_tenants()
        self._server = await asyncio.start_server(
            self._handle, self.host, self._requested_port,
            limit=self.max_frame_bytes)
        if self.checkpoints is not None:
            self._checkpoint_task = asyncio.create_task(
                self._checkpoint_loop(), name="repro-serve-checkpoint")
        return self

    def restore_tenants(self) -> "Dict[str, str]":
        """Rehydrate every tenant with an intact checkpoint on disk.

        Returns ``{tenant: outcome}`` with outcomes ``restored``
        (newest generation), ``fallback`` (an older intact generation;
        newer files were damaged) or ``fresh`` (no intact checkpoint —
        the tenant starts empty on first use).
        """
        outcomes: "Dict[str, str]" = {}
        if self.checkpoints is None:
            return outcomes
        for name in self.checkpoints.tenant_names():
            explicit = self.tenants.configs.get(name)
            restored = self.checkpoints.restore(name, explicit)
            if restored is None:
                outcome = "fresh"
            else:
                outcome = "fallback" if restored.fell_back else "restored"
                tenant = Tenant(name, restored.config, restored.monitor,
                                restored_from=str(restored.path))
                self.tenants.adopt(tenant)
            outcomes[name] = outcome
            if _obs.ENABLED:
                _obs.record_serve_restore(name, outcome)
        self.restore_outcomes = outcomes
        return outcomes

    async def stop(self, *, final_checkpoint: bool = True) -> None:
        """Graceful shutdown: quiesce, optionally checkpoint, release."""
        if self._checkpoint_task is not None:
            self._checkpoint_task.cancel()
            try:
                await self._checkpoint_task
            except asyncio.CancelledError:
                pass
            self._checkpoint_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in list(self._writers):
            writer.close()
        if self._conn_tasks:
            # Handlers observe the transport close as EOF and return;
            # waiting here keeps loop teardown from cancelling them.
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        if final_checkpoint and self.checkpoints is not None:
            for tenant in self.tenants:
                if tenant.quarantined or tenant.items == 0:
                    continue
                async with tenant.lock:
                    try:
                        self.checkpoints.write(tenant)
                    except (CheckpointError, OSError) as exc:
                        self._note_checkpoint_failure(tenant, exc)
        self.tenants.close()

    async def abort(self) -> None:
        """Simulated crash: drop everything, write nothing."""
        await self.stop(final_checkpoint=False)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        self.connections_total += 1
        self._writers.add(writer)
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        if _obs.ENABLED:
            _obs.record_serve_connection(1, len(self._writers))
        try:
            await self._serve_lines(reader, writer)
        finally:
            self._writers.discard(writer)
            if task is not None:
                self._conn_tasks.discard(task)
            if _obs.ENABLED:
                _obs.record_serve_connection(-1, len(self._writers))
            writer.close()

    async def _serve_lines(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        while True:
            try:
                line = await reader.readline()
            except (asyncio.LimitOverrunError, ValueError) as exc:
                # Frame past the configured cap: the stream cannot be
                # resynchronised, so answer typed and hang up.
                await self._send(writer, protocol.error_response(
                    BadFrameError(
                        f"frame exceeds {self.max_frame_bytes} bytes: "
                        f"{exc}")))
                return
            if not line.endswith(b"\n"):
                # EOF — clean close or a mid-frame disconnect; either
                # way there is no complete frame left to answer.
                return
            payload = await self._process(line.rstrip(b"\r\n"))
            if not await self._send(writer, payload):
                return
            if not payload.get("ok") \
                    and payload["error"]["code"] == "bad-frame":
                # After unparseable bytes the frame boundary is
                # untrustworthy; close so the client re-syncs.
                return

    async def _send(self, writer: asyncio.StreamWriter,
                    payload: "Dict[str, Any]") -> bool:
        try:
            writer.write(protocol.encode(payload))
            await writer.drain()
        except (ConnectionError, RuntimeError) as exc:
            # Peer vanished mid-response: nothing to answer, nothing to
            # corrupt — surface it to the event log and drop the line.
            if _obs.ENABLED:
                _obs.record_event(0.0, "info", "serve.client_gone",
                                  f"write failed: {exc}")
            return False
        return True

    async def _process(self, line: bytes) -> "Dict[str, Any]":
        """One frame in, one response object out. Never raises."""
        try:
            request = protocol.parse_frame(line)
            payload = await self._dispatch(request)
        except Exception as exc:  # noqa: BLE001 - every fault answers typed
            payload = protocol.error_response(exc)
            if _obs.ENABLED:
                code = payload["error"]["code"]
                _obs.record_serve_error(code)
                if code == "internal":
                    _obs.record_event(0.0, "critical", "serve.internal",
                                      f"{type(exc).__name__}: {exc}")
        return payload

    async def _dispatch(self, request: protocol.Request
                        ) -> "Dict[str, Any]":
        op = request.op
        if op == "PING":
            return protocol.ok_response("PING")
        if op == "STATS" and request.tenant is None:
            return protocol.ok_response("STATS", service=self.stats())
        assert request.tenant is not None  # parse_frame guarantees it
        tenant = self.tenants.get(request.tenant)
        async with tenant.lock:
            if op == "INSERT":
                times = None if request.t is None else [request.t]
                count = tenant.ingest([request.key], times)
                payload = protocol.ok_response(
                    op, count=count, position=tenant.position)
            elif op == "INSERT_BATCH":
                count = tenant.ingest(request.keys, request.times)
                payload = protocol.ok_response(
                    op, count=count, position=tenant.position)
            elif op == "QUERY":
                payload = protocol.ok_response(
                    op, **tenant.query(request.key, request.t))
            elif op == "STATS":
                payload = protocol.ok_response(op, tenant=tenant.stats())
            else:  # CHECKPOINT
                path = self._checkpoint_locked(tenant)
                payload = protocol.ok_response(
                    op, path=str(path), position=tenant.position)
        if _obs.ENABLED:
            items = payload.get("count", 0) if op.startswith("INSERT") else 0
            _obs.record_serve_command(tenant.name, op, items)
        return payload

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def _checkpoint_locked(self, tenant: Tenant) -> Any:
        """Write one checkpoint; caller holds the tenant's lock."""
        if self.checkpoints is None:
            raise CheckpointError(
                "checkpointing is disabled (no checkpoint_dir configured)")
        tenant.ensure_healthy()
        return self.checkpoints.write(tenant)

    async def checkpoint_due(self, *, force: bool = False) -> "Dict[str, str]":
        """One cadence sweep: checkpoint every tenant that has advanced
        at least its sweep-circle cadence since its last checkpoint
        (every non-empty healthy tenant, when ``force``)."""
        written: "Dict[str, str]" = {}
        if self.checkpoints is None:
            return written
        for tenant in self.tenants:
            if tenant.quarantined or tenant.items == 0:
                continue
            cadence = tenant.config.cadence(tenant.monitor)
            behind = tenant.position - tenant.last_checkpoint_position
            if not force and behind < cadence:
                continue
            async with tenant.lock:
                try:
                    path = self.checkpoints.write(tenant)
                except (CheckpointError, OSError) as exc:
                    self._note_checkpoint_failure(tenant, exc)
                    continue
            written[tenant.name] = str(path)
        return written

    async def _checkpoint_loop(self) -> None:
        while True:
            await asyncio.sleep(self.checkpoint_poll)
            await self.checkpoint_due()

    def _note_checkpoint_failure(self, tenant: Tenant,
                                 exc: BaseException) -> None:
        """A failed background checkpoint must not kill the sweep —
        the previous generation stays valid; record and move on."""
        if _obs.ENABLED:
            _obs.record_event(
                tenant.position, "warning", "serve.checkpoint_failed",
                f"{tenant.name}: {type(exc).__name__}: {exc}",
                fields={"tenant": tenant.name})

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> "Dict[str, Any]":
        manager = self.tenants.stats()
        manager.update({
            "connections_open": len(self._writers),
            "connections_total": self.connections_total,
            "checkpointing": self.checkpoints is not None,
        })
        return manager

    async def __aenter__(self) -> "IngestService":
        return await self.start()

    async def __aexit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        await self.stop()
