"""Network-facing multi-tenant ingestion service.

The front door over the sketch engine: an asyncio TCP server speaking
a newline-delimited JSON line/batch protocol (``INSERT`` /
``INSERT_BATCH`` / ``QUERY`` / ``STATS`` / ``CHECKPOINT`` / ``PING``)
over per-tenant
:meth:`~repro.monitor.ItemBatchMonitor.sharded` monitors, each with an
independent window, memory budget, and shard layout. Admission control
and engine backpressure surface as typed protocol errors; rolling
checkpoints bound restart loss to one error window. See
``docs/serving.md`` for the protocol specification, tenancy model,
checkpoint guarantees, and failure matrix.

>>> import asyncio
>>> from repro.serve import IngestService, TenantConfig
>>> async def demo():
...     async with IngestService(TenantConfig(window_length=64,
...                                           memory="16KB")) as svc:
...         reader, writer = await asyncio.open_connection(
...             svc.host, svc.port)
...         writer.write(b'{"op":"INSERT","tenant":"t0","key":"k"}\\n')
...         return (await reader.readline())
>>> b'"ok":true' in asyncio.run(demo())
True
"""

from typing import TYPE_CHECKING, Any

from .protocol import (
    ERROR_CODES,
    MAX_FRAME_BYTES,
    OPS,
    Request,
    encode,
    error_response,
    ok_response,
    parse_frame,
)
from .service import IngestService
from .tenants import Tenant, TenantConfig, TenantManager

if TYPE_CHECKING:
    from .checkpoint import CHECKPOINT_FORMAT, CheckpointManager, RestoredState

__all__ = [
    "IngestService",
    "TenantConfig",
    "Tenant",
    "TenantManager",
    "CheckpointManager",
    "RestoredState",
    "CHECKPOINT_FORMAT",
    "OPS",
    "ERROR_CODES",
    "MAX_FRAME_BYTES",
    "Request",
    "parse_frame",
    "encode",
    "ok_response",
    "error_response",
]

#: Names loaded from :mod:`repro.serve.checkpoint` on first use: a
#: service without a checkpoint directory never needs it (nor the
#: serialisation and shard modules behind it).
_CHECKPOINT_NAMES = ("CheckpointManager", "RestoredState",
                     "CHECKPOINT_FORMAT")


def __getattr__(name: str) -> Any:
    if name in _CHECKPOINT_NAMES:
        from . import checkpoint
        return getattr(checkpoint, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
