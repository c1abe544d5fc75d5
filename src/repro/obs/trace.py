"""Sampled, ring-buffered span tracing for the ingestion pipeline.

Where the metrics registry answers *how much* and the audit plane *how
accurate*, spans answer *where one specific batch spent its time* once
it enters :meth:`~repro.monitor.ItemBatchMonitor.observe_many` and fans
out across engines, locks, and shard workers. A span is a
context-managed timed region with an id, a parent, and a small
attribute payload::

    with trace.span(names.SPAN_SHARD_SCATTER) as sp:
        if sp.recording:
            sp.set("items", count)
        ...

Spans follow the switchboard discipline of :mod:`repro.obs.runtime`:
while ``_obs.ENABLED`` is off (and no worker capture is active),
:func:`span` hands back the shared :data:`NULL_SPAN` — one module-flag
check and one ``ContextVar`` read, no allocation. While on, finished
spans land in a :class:`~repro.obs.ring.LockedRing` (the event ring's
class: pushes come from many threads) and are counted into
``repro_trace_spans_total``; sampling is per *trace*, 1-in-N roots
(``sample_every``), and an unsampled root suppresses its whole subtree.

Cross-process propagation: the sharded facade passes the live scatter
span's :attr:`Span.ctx` down the router's command queues; each worker
wraps command handling in :func:`capture`, which forces span recording
(regardless of the worker's own switchboard), parents the worker's
spans at the remote context, and collects them as dicts. The dicts ride
back to the parent on the ack queue, where the guarded
:func:`record_spans` stitches them into the parent's ring — one trace
per batch, spanning every worker process.

The enabled-mode cost is held to the same <10% budget as the metrics
layer: the ``trace`` plane of :mod:`repro.bench.experiments.overhead`,
enforced by ``benchmarks/bench_overhead.py``.
"""

from __future__ import annotations

import itertools
import os
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from time import perf_counter
from time import time as _wall_time
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from ..errors import ConfigurationError
from . import runtime as _rt
from .ring import LockedRing

__all__ = [
    "Span",
    "Tracer",
    "NULL_SPAN",
    "span",
    "child_span",
    "capture",
    "record_spans",
    "configure",
    "tracer",
    "snapshot",
    "chrome_trace",
]

#: A propagated span context: ``(trace_id, span_id)``.
SpanContext = Tuple[str, str]

DEFAULT_CAPACITY = 2048
#: Record 1 in N root spans (1 = every trace). 0 turns tracing off
#: entirely, even while the switchboard is enabled.
DEFAULT_SAMPLE_EVERY = 1

#: Process-unique id source; ids embed the pid so spans stitched across
#: worker processes can never collide.
_IDS = itertools.count(1)

#: Sentinel stored in :data:`_CURRENT` while an *unsampled* trace is
#: active: children see it and drop out immediately instead of making
#: fresh (and possibly divergent) sampling decisions.
_UNSAMPLED = object()

#: The active span context of this thread/task: ``None`` (no trace),
#: :data:`_UNSAMPLED`, or a ``(trace_id, span_id)`` tuple.
_CURRENT: "ContextVar[Any]" = ContextVar("repro-trace-current", default=None)


class _CaptureState:
    """Worker-side capture: a remote parent context plus a span sink."""

    __slots__ = ("trace_id", "parent_id", "sink")

    def __init__(self, ctx: SpanContext,
                 sink: "List[Dict[str, Any]]") -> None:
        self.trace_id = str(ctx[0])
        self.parent_id = str(ctx[1])
        self.sink = sink


#: The active capture state (workers only); forces span recording even
#: while the local switchboard is off.
_CAPTURE: "ContextVar[Optional[_CaptureState]]" = ContextVar(
    "repro-trace-capture", default=None)


def _new_id() -> str:
    return f"{os.getpid():x}-{next(_IDS):x}"


class _SpanBase:
    """The no-op span surface; :class:`Span` overrides everything."""

    __slots__ = ()

    #: Whether this span is being recorded (attribute sets are kept).
    recording = False

    @property
    def ctx(self) -> "Optional[SpanContext]":
        """Propagatable ``(trace_id, span_id)``, or None when inactive."""
        return None

    def set(self, key: str, value: Any) -> None:
        """Attach one attribute (dropped unless :attr:`recording`)."""

    def __enter__(self) -> "_SpanBase":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        return False


#: Shared inert span returned while tracing is off; all methods no-op.
NULL_SPAN = _SpanBase()


class _UnsampledRoot(_SpanBase):
    """Root of a trace the sampler declined: marks the context so the
    whole subtree is dropped, then restores it on exit."""

    __slots__ = ("_token",)

    def __init__(self, token: Any) -> None:
        self._token = token

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        _CURRENT.reset(self._token)
        return False


class Span(_SpanBase):
    """One recorded, context-managed timed region."""

    __slots__ = ("name", "trace_id", "span_id", "parent_id", "attrs",
                 "start", "duration", "status", "_t0", "_tracer", "_token")

    recording = True

    def __init__(self, tracer: "Tracer", name: str, trace_id: str,
                 parent_id: "Optional[str]",
                 attrs: "Dict[str, Any]") -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = _new_id()
        self.parent_id = parent_id
        self.attrs = attrs
        self.status = "ok"
        self.start = _wall_time()
        self.duration = 0.0
        self._t0 = perf_counter()
        self._tracer = tracer
        self._token = _CURRENT.set((trace_id, self.span_id))

    @property
    def ctx(self) -> "Optional[SpanContext]":
        return (self.trace_id, self.span_id)

    def set(self, key: str, value: Any) -> None:
        self.attrs[key] = value

    def as_dict(self) -> "Dict[str, Any]":
        """JSON-friendly image of the finished span."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "duration": self.duration,
            "status": self.status,
            "pid": os.getpid(),
            "thread": threading.get_ident(),
            "attrs": dict(self.attrs),
        }

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        if exc_type is not None:
            self.status = "error"
            self.attrs.setdefault(
                "error", f"{getattr(exc_type, '__name__', exc_type)}: {exc}")
        self.duration = perf_counter() - self._t0
        _CURRENT.reset(self._token)
        self._tracer._finished(self)
        return False

    def __repr__(self) -> str:
        return (f"Span({self.name!r}, trace={self.trace_id}, "
                f"span={self.span_id}, parent={self.parent_id})")


class Tracer:
    """Owns the span ring and the per-trace sampling decision."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 sample_every: int = DEFAULT_SAMPLE_EVERY) -> None:
        if sample_every < 0:
            raise ConfigurationError(
                f"sample_every must be >= 0, got {sample_every}")
        self.ring = LockedRing(capacity)
        self.sample_every = int(sample_every)
        self._roots = itertools.count()

    def begin(self, name: str, attrs: "Dict[str, Any]") -> _SpanBase:
        """Open a span under the current context (sampling roots)."""
        parent = _CURRENT.get()
        if parent is _UNSAMPLED:
            return NULL_SPAN
        if parent is not None:
            trace_id, parent_id = parent
            return Span(self, name, trace_id, parent_id, attrs)
        cap = _CAPTURE.get()
        if cap is not None:
            # Remote parent: the dispatching process already sampled.
            return Span(self, name, cap.trace_id, cap.parent_id, attrs)
        if next(self._roots) % self.sample_every:
            return _UnsampledRoot(_CURRENT.set(_UNSAMPLED))
        return Span(self, name, _new_id(), None, attrs)

    def _finished(self, span: Span) -> None:
        payload = span.as_dict()
        cap = _CAPTURE.get()
        if cap is not None:
            cap.sink.append(payload)
        if _rt.ENABLED:
            self.ring.push(payload)
            _rt.record_span(span.name, span.parent_id is None)


_TRACER = Tracer()


def tracer() -> Tracer:
    """The process-wide tracer instance."""
    return _TRACER


def configure(capacity: "Optional[int]" = None,
              sample_every: "Optional[int]" = None) -> Tracer:
    """Replace the process tracer (fresh ring, new sampling rate).

    ``sample_every`` is 1-in-N *traces* (1 records every trace, the
    default; 0 disables tracing while leaving metrics untouched).
    """
    global _TRACER
    _TRACER = Tracer(
        capacity=DEFAULT_CAPACITY if capacity is None else capacity,
        sample_every=(DEFAULT_SAMPLE_EVERY if sample_every is None
                      else sample_every),
    )
    return _TRACER


def span(name: str, **attrs: Any) -> _SpanBase:
    """Open a context-managed span; :data:`NULL_SPAN` while tracing is off.

    Nil-cost discipline: with the switchboard off and no worker capture
    active this is one module-flag check plus one ``ContextVar`` read.
    Callers on hot paths should defer expensive attribute computation
    behind ``sp.recording`` rather than passing it as ``**attrs``.
    """
    if _rt.ENABLED:
        if _TRACER.sample_every:
            return _TRACER.begin(name, attrs)
        return NULL_SPAN
    if _CAPTURE.get() is not None:
        return _TRACER.begin(name, attrs)
    return NULL_SPAN


def child_span(name: str, **attrs: Any) -> _SpanBase:
    """Open a span only if a trace is already active — never a root.

    For instrumentation points inside reusable building blocks (the
    batch engine): under a monitor root or a worker capture they join
    the trace as children, but standalone use of the block (e.g. raw
    ``sketch.insert_many``) opens no trace per call — which keeps the
    metrics layer's enabled-overhead budget independent of tracing.
    """
    if _CURRENT.get() is None and _CAPTURE.get() is None:
        return NULL_SPAN
    return span(name, **attrs)


@contextmanager
def capture(ctx: SpanContext,
            sink: "List[Dict[str, Any]]") -> "Iterator[List[Dict[str, Any]]]":
    """Record spans opened in this block into ``sink``, parented at ``ctx``.

    Worker-side half of cross-process propagation: ``ctx`` is the
    ``(trace_id, span_id)`` that rode in on the command queue. Recording
    is forced for the block — the dispatching process made the sampling
    decision — so it works even though the worker's own switchboard is
    off. The collected dicts are shipped back on the ack queue and
    adopted by :func:`record_spans`.
    """
    token = _CAPTURE.set(_CaptureState(ctx, sink))
    try:
        yield sink
    finally:
        _CAPTURE.reset(token)


def record_spans(spans: "Iterable[Mapping[str, Any]]") -> None:
    """Adopt finished span dicts (a worker's ack payload) into the ring.

    A recorder in the :mod:`repro.obs.runtime` sense: call sites on hot
    paths must guard with ``_obs.ENABLED`` (enforced by SK111).
    """
    ring = _TRACER.ring
    for entry in spans:
        payload = dict(entry)
        ring.push(payload)
        _rt.record_span(str(payload.get("name", "?")), False)


def snapshot() -> "Dict[str, Any]":
    """JSON-friendly image of the span ring (for ``/trace.json`` and
    flight-recorder bundles)."""
    ring = _TRACER.ring
    return {
        "capacity": ring.capacity,
        "total_pushed": ring.total_pushed,
        "sample_every": _TRACER.sample_every,
        "spans": ring.entries(),
    }


def chrome_trace(
    spans: "Optional[Iterable[Mapping[str, Any]]]" = None,
) -> "Dict[str, Any]":
    """Render spans as a Chrome trace-event document.

    The returned dict serialises to a file loadable by Perfetto
    (ui.perfetto.dev) and ``chrome://tracing``: complete (``"ph": "X"``)
    events with microsecond timestamps, one track per pid/thread, span
    attributes under ``args``.
    """
    if spans is None:
        spans = _TRACER.ring.entries()
    events: "List[Dict[str, Any]]" = []
    for entry in spans:
        args = dict(entry.get("attrs") or {})
        args["trace_id"] = entry.get("trace_id")
        args["span_id"] = entry.get("span_id")
        if entry.get("parent_id"):
            args["parent_id"] = entry["parent_id"]
        args["status"] = entry.get("status", "ok")
        events.append({
            "name": str(entry.get("name", "?")),
            "cat": "repro",
            "ph": "X",
            "ts": float(entry.get("start", 0.0)) * 1e6,
            "dur": float(entry.get("duration", 0.0)) * 1e6,
            "pid": int(entry.get("pid", 0)),
            "tid": int(entry.get("thread", 0)),
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def _on_fresh_enable() -> None:
    # Registered with the switchboard: enable(fresh=True) starts every
    # ring from empty, the span ring included.
    _TRACER.ring.clear()


_rt.register_reset_hook(_on_fresh_enable)
