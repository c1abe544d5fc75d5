"""The newline-delimited JSON line protocol.

One frame = one UTF-8 JSON object terminated by ``\\n``. Requests name
an operation (``op``) and, except for ``PING`` and service-wide
``STATS``, a tenant. Responses are single JSON object lines:
``{"ok": true, "op": ..., ...}`` on success, or
``{"ok": false, "error": {"code", "message", "retryable"}}`` on
failure. Error codes are a closed vocabulary (:data:`ERROR_CODES`) and
part of the wire contract — see ``docs/serving.md`` for the full
specification and failure matrix.

This module is pure: it parses and validates frames into
:class:`Request` values and renders responses, raising only the typed
:class:`~repro.errors.ProtocolError` family. Everything stateful
(tenants, sketches, checkpoints) lives in :mod:`repro.serve.service`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..errors import (
    BadFrameError,
    ProtocolError,
    ReproError,
    ShardBackpressureError,
    ShardWorkerError,
    TimeError,
)

__all__ = [
    "OPS",
    "ERROR_CODES",
    "MAX_FRAME_BYTES",
    "Request",
    "parse_frame",
    "encode",
    "ok_response",
    "error_response",
    "error_fields",
]

#: The protocol's operation vocabulary.
OPS = frozenset({
    "INSERT", "INSERT_BATCH", "QUERY", "STATS", "CHECKPOINT", "PING",
})

#: The closed error-code vocabulary (wire contract).
ERROR_CODES = frozenset({
    "bad-frame",        # not a parseable protocol line; connection closes
    "bad-request",      # well-formed frame, invalid fields / unknown op
    "unknown-tenant",   # tenant does not exist and cannot be auto-created
    "admission",        # tenant limit or per-request batch cap exceeded
    "quarantined",      # tenant engine failed earlier; commands fail fast
    "backpressure",     # shard queue full past deadline; retryable
    "worker-failed",    # shard worker died mid-command; tenant quarantined
    "time-error",       # timestamp contract violated (backwards, missing)
    "internal",         # unexpected server-side failure
})

#: Default maximum frame length (bytes, newline included).
MAX_FRAME_BYTES = 1 << 20

#: Tenant names are path-safe identifiers (they become checkpoint
#: directory names and metric label values).
_TENANT_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-")
_TENANT_MAX = 64


@dataclass(frozen=True)
class Request:
    """One validated protocol request."""

    op: str
    tenant: Optional[str] = None
    key: Any = None
    keys: "List[Any]" = field(default_factory=list)
    times: "Optional[List[float]]" = None
    t: Optional[float] = None


def _require_tenant(obj: "Dict[str, Any]") -> str:
    tenant = obj.get("tenant")
    if not isinstance(tenant, str) or not tenant:
        raise ProtocolError("'tenant' must be a non-empty string")
    if len(tenant) > _TENANT_MAX or not set(tenant) <= _TENANT_CHARS:
        raise ProtocolError(
            f"tenant name must match [A-Za-z0-9_.-]{{1,{_TENANT_MAX}}}")
    return tenant


def _valid_key(key: Any) -> Any:
    if isinstance(key, bool) or not isinstance(key, (str, int)):
        raise ProtocolError("keys must be strings or integers")
    if isinstance(key, str) and len(key) > 4096:
        raise ProtocolError("string keys are capped at 4096 characters")
    return key


def _valid_time(value: Any, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(f"{name!r} must be a number")
    try:
        stamp = float(value)
    except OverflowError:  # a JSON int past float range
        raise ProtocolError(f"{name!r} must be finite") from None
    if not math.isfinite(stamp):
        raise ProtocolError(f"{name!r} must be finite")
    return stamp


def parse_frame(line: bytes, *, max_batch: int = 65536) -> Request:
    """Parse and validate one frame into a :class:`Request`.

    Raises :class:`~repro.errors.BadFrameError` when the frame is not a
    JSON object line at all, :class:`~repro.errors.ProtocolError` (code
    ``bad-request``) when it is but its fields are invalid.
    """
    try:
        text = line.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise BadFrameError(f"frame is not valid UTF-8: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise BadFrameError(f"frame is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise BadFrameError(
            f"frame must be a JSON object, got {type(obj).__name__}")

    op = obj.get("op")
    if not isinstance(op, str):
        raise ProtocolError("missing or non-string 'op'")
    if op not in OPS:
        raise ProtocolError(
            f"unknown op {op!r}; expected one of {sorted(OPS)}")

    if op == "PING":
        return Request(op=op)
    if op == "STATS":
        tenant = _require_tenant(obj) if "tenant" in obj else None
        return Request(op=op, tenant=tenant)

    tenant = _require_tenant(obj)
    if op in ("INSERT", "QUERY"):
        if "key" not in obj:
            raise ProtocolError(f"{op} requires 'key'")
        key = _valid_key(obj["key"])
        t = _valid_time(obj["t"], "t") if obj.get("t") is not None else None
        return Request(op=op, tenant=tenant, key=key, t=t)
    if op == "INSERT_BATCH":
        keys = obj.get("keys")
        if not isinstance(keys, list) or not keys:
            raise ProtocolError("INSERT_BATCH requires a non-empty "
                                "'keys' list")
        if len(keys) > max_batch:
            raise ProtocolError(
                f"batch of {len(keys)} exceeds the {max_batch}-item cap",
                code="admission")
        keys = [_valid_key(k) for k in keys]
        times: "Optional[List[float]]" = None
        if obj.get("times") is not None:
            raw = obj["times"]
            if not isinstance(raw, list) or len(raw) != len(keys):
                raise ProtocolError(
                    "'times' must be a list as long as 'keys'")
            times = [_valid_time(v, "times[i]") for v in raw]
        return Request(op=op, tenant=tenant, keys=keys, times=times)
    # CHECKPOINT
    return Request(op=op, tenant=tenant)


def encode(payload: "Dict[str, Any]") -> bytes:
    """Render one response object as a wire frame."""
    return (json.dumps(payload, separators=(",", ":"),
                       default=str) + "\n").encode("utf-8")


def ok_response(op: str, **fields: Any) -> "Dict[str, Any]":
    """A success response for ``op`` with extra result fields."""
    payload: "Dict[str, Any]" = {"ok": True, "op": op}
    payload.update(fields)
    return payload


def error_fields(exc: BaseException) -> "Dict[str, Any]":
    """Map an exception onto the wire error vocabulary.

    The :class:`~repro.errors.ProtocolError` family carries its own
    code; engine faults reuse the shard fault discipline —
    backpressure is the one retryable code, a dead worker is not.
    """
    if isinstance(exc, ProtocolError):
        code, retryable = exc.code, exc.retryable
    elif isinstance(exc, ShardBackpressureError):
        code, retryable = "backpressure", True
    elif isinstance(exc, ShardWorkerError):
        code, retryable = "worker-failed", False
    elif isinstance(exc, TimeError):
        code, retryable = "time-error", False
    elif isinstance(exc, ReproError):
        code, retryable = "bad-request", False
    else:
        code, retryable = "internal", False
    return {"code": code, "message": str(exc) or type(exc).__name__,
            "retryable": retryable}


def error_response(exc: BaseException) -> "Dict[str, Any]":
    """A failure response wrapping :func:`error_fields`."""
    return {"ok": False, "error": error_fields(exc)}
