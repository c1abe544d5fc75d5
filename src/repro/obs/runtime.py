"""Process-wide observability switchboard.

Hot-path instrumentation in ``core/``, ``engine/``, ``concurrent`` and
``monitor`` does::

    from ..obs import runtime as _obs
    ...
    if _obs.ENABLED:
        _obs.record_batch(...)

Disabled (the default), the cost is one module-attribute load and a
falsy branch — nothing is imported beyond this module, no objects are
allocated, and :func:`registry` hands back the shared
:data:`~repro.obs.registry.NULL_REGISTRY`. :func:`enable` swaps in a
real :class:`~repro.obs.registry.MetricsRegistry` plus a
:class:`~repro.obs.ring.SweepTraceRing`; :func:`observed` scopes that
to a ``with`` block. The enabled-mode overhead is the ``obs`` plane of
:mod:`repro.bench.experiments.overhead`, held to a documented <10%
budget by ``benchmarks/bench_overhead.py``.

Sites must always re-read ``_obs.ENABLED`` (attribute access on the
module) rather than ``from`` -importing the flag, which would freeze
its value at import time.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Union

import numpy as np

from . import names
from .events import EventRing, ObsEvent
from .registry import (
    NULL_REGISTRY,
    MetricsRegistry,
    NullRegistry,
    SECONDS_BOUNDS,
)
from .ring import SweepTraceRing

__all__ = [
    "ENABLED",
    "enable",
    "disable",
    "enabled",
    "register_reset_hook",
    "observed",
    "registry",
    "sweep_ring",
    "event_ring",
    "rings_snapshot",
    "timed",
    "record_sweep",
    "record_sweep_deferral",
    "record_insert",
    "record_query",
    "record_batch",
    "record_lock",
    "publish_kernel_info",
    "record_event",
    "record_audit_ingest",
    "sample_clock",
    "publish_sketch",
    "publish_monitor",
    "record_serve_connection",
    "record_serve_command",
    "record_serve_error",
    "record_serve_quarantine",
    "record_serve_checkpoint",
    "record_serve_restore",
    "publish_serve_tenants",
]

DEFAULT_RING_CAPACITY = 1024
DEFAULT_EVENT_CAPACITY = 256

#: The master switch. Instrumentation sites read this through the
#: module (``_obs.ENABLED``) so toggling is visible everywhere at once.
ENABLED: bool = False

_REGISTRY: "Union[MetricsRegistry, NullRegistry]" = NULL_REGISTRY
_RING: SweepTraceRing = SweepTraceRing(1)
_EVENTS: EventRing = EventRing(1)

#: Hot-path recorder cache: key -> tuple of pre-interned metric objects.
#: Registry interning builds a label dict plus a sorted key per lookup;
#: recorders that fire per batch/sweep would pay that on every event, so
#: they memoise their series here. Invalidated whenever the switchboard
#: flips (enable/disable), which is the only time ``registry()`` can
#: start handing out different objects.
_SERIES: "Dict[Any, Any]" = {}

#: Callbacks run whenever ``enable(fresh=True)`` rebuilds the rings, so
#: satellite stores (e.g. the span ring in :mod:`repro.obs.trace`) can
#: start from empty too. Registered lazily to keep this module free of
#: imports of its dependents.
_RESET_HOOKS: "List[Callable[[], None]]" = []


def register_reset_hook(hook: "Callable[[], None]") -> None:
    """Run ``hook`` whenever a fresh enable rebuilds the rings."""
    _RESET_HOOKS.append(hook)


def enable(ring_capacity: int = DEFAULT_RING_CAPACITY,
           fresh: bool = True,
           event_capacity: int = DEFAULT_EVENT_CAPACITY) -> MetricsRegistry:
    """Turn instrumentation on; returns the live registry.

    ``fresh=True`` (default) starts from an empty registry, trace ring,
    and event ring; ``fresh=False`` resumes accumulating into the
    previous ones (if any survive from an earlier enable).
    """
    global ENABLED, _REGISTRY, _RING, _EVENTS
    if fresh or isinstance(_REGISTRY, NullRegistry):
        _REGISTRY = MetricsRegistry()
        _RING = SweepTraceRing(ring_capacity)
        _EVENTS = EventRing(event_capacity)
        for hook in _RESET_HOOKS:
            hook()
    _SERIES.clear()
    ENABLED = True
    assert isinstance(_REGISTRY, MetricsRegistry)
    return _REGISTRY


def disable() -> "Union[MetricsRegistry, NullRegistry]":
    """Turn instrumentation off; returns the (still readable) registry."""
    global ENABLED
    ENABLED = False
    _SERIES.clear()
    return _REGISTRY


def enabled() -> bool:
    """Is instrumentation currently on?"""
    return ENABLED


def registry() -> "Union[MetricsRegistry, NullRegistry]":
    """The live registry, or the shared no-op one while disabled."""
    return _REGISTRY if ENABLED else NULL_REGISTRY


def sweep_ring() -> SweepTraceRing:
    """The sweep-trace ring populated while instrumentation is on."""
    return _RING


def event_ring() -> EventRing:
    """The structured-event ring populated while instrumentation is on."""
    return _EVENTS


def rings_snapshot() -> "Dict[str, Any]":
    """JSON-friendly image of both rings (sweep trace + events).

    Embedded in ``/metrics.json`` responses and the CLI's ``--rings``
    output; read-only, never part of a registry round trip.
    """
    return {
        "sweep": {
            "capacity": _RING.capacity,
            "total_pushed": _RING.total_pushed,
            "events": _RING.events(),
        },
        "events": {
            "capacity": _EVENTS.capacity,
            "total_pushed": _EVENTS.total_pushed,
            "events": _EVENTS.dicts(),
        },
    }


@contextmanager
def observed(ring_capacity: int = DEFAULT_RING_CAPACITY) -> "Iterator[MetricsRegistry]":
    """``with observed() as reg:`` — enable for the block, then disable.

    Yields the fresh registry, which stays readable (snapshot, export)
    after the block exits.
    """
    reg = enable(ring_capacity=ring_capacity, fresh=True)
    try:
        yield reg
    finally:
        disable()


class timed:
    """Time a block or function into a log-scale seconds histogram.

    Usable as a context manager::

        with obs.timed(names.BENCH_STAGE_SECONDS, {"stage": "inserts"}):
            drive()

    or as a decorator (a fresh timer per call, so it is reentrant)::

        @obs.timed(names.BENCH_STAGE_SECONDS, {"stage": "query"})
        def query_all(...): ...

    While instrumentation is disabled the clock is never read.
    """

    __slots__ = ("name", "labels", "_t0", "_active")

    def __init__(self, name: str,
                 labels: "Optional[Mapping[str, str]]" = None):
        self.name = name
        self.labels: "Optional[Dict[str, str]]" = (
            dict(labels) if labels else None
        )
        self._t0 = 0.0
        self._active = False

    def __enter__(self) -> "timed":
        self._active = ENABLED
        if self._active:
            self._t0 = perf_counter()
        return self

    def __exit__(self, *exc: Any) -> bool:
        if self._active:
            elapsed = perf_counter() - self._t0
            _REGISTRY.histogram(
                self.name, "Stage latency in seconds (log-2 buckets).",
                labels=self.labels, bounds=SECONDS_BOUNDS,
            ).observe(elapsed)
        return False

    def __call__(self, func: "Callable[..., Any]") -> "Callable[..., Any]":
        name, labels = self.name, self.labels

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with timed(name, labels):
                return func(*args, **kwargs)

        return wrapper


# ------------------------------------------------------------------ recorders
# Call sites guard with ``if _obs.ENABLED`` so none of this executes on
# the disabled path; the helpers also tolerate being called directly
# (they write into the null registry, a no-op).

def record_sweep(time: float, pointer: int, cleaned: int, steps: int,
                 lag: int = 0) -> None:
    """One executed cleaning sweep: counters plus a ring-trace event."""
    series = _SERIES.get("sweep")
    if series is None:
        reg = registry()
        series = (
            reg.counter(names.CLOCK_SWEEPS_TOTAL,
                        "Cleaning sweeps executed."),
            reg.counter(names.CLOCK_SWEEP_STEPS_TOTAL,
                        "Individual sweep steps (cell visits)."),
            reg.counter(names.CLOCK_CELLS_CLEANED_TOTAL,
                        "Cells expired (decremented to zero) by cleaning."),
            reg.gauge(names.CLOCK_SWEEP_LAG_STEPS,
                      "Cleaner lag behind the ideal cadence, in steps."),
        )
        _SERIES["sweep"] = series
    sweeps_c, steps_c, cleaned_c, lag_g = series
    sweeps_c.inc()
    steps_c.inc(steps)
    cleaned_c.inc(cleaned)
    lag_g.set(lag)
    if ENABLED:
        _RING.push(time, pointer, cleaned, steps)


def record_sweep_deferral(lag: int) -> None:
    """A deferred-mode clock skipped sweeping; publish its current lag."""
    gauge = _SERIES.get("sweep_lag")
    if gauge is None:
        gauge = registry().gauge(
            names.CLOCK_SWEEP_LAG_STEPS,
            "Cleaner lag behind the ideal cadence, in steps.",
        )
        _SERIES["sweep_lag"] = gauge
    gauge.set(lag)


def record_insert(sketch: str, count: int = 1) -> None:
    """Items inserted through a sketch's scalar path."""
    key = ("insert", sketch)
    counter = _SERIES.get(key)
    if counter is None:
        counter = registry().counter(
            names.SKETCH_INSERTS_TOTAL, "Items inserted.",
            labels={"sketch": sketch},
        )
        _SERIES[key] = counter
    counter.inc(count)


def record_query(sketch: str, count: int = 1) -> None:
    """Query operations resolved by a sketch."""
    key = ("query", sketch)
    counter = _SERIES.get(key)
    if counter is None:
        counter = registry().counter(
            names.SKETCH_QUERIES_TOTAL, "Query operations resolved.",
            labels={"sketch": sketch},
        )
        _SERIES[key] = counter
    counter.inc(count)


def record_batch(sketch: str, items: int, path: str, seconds: float) -> None:
    """One batch applied by the engine, with its path and wall time.

    Also counts the items into ``SKETCH_INSERTS_TOTAL`` — engine
    batches *are* inserts, and folding the two records into one cached
    series tuple keeps the per-batch cost to a single dict hit.
    """
    key = ("batch", sketch, path)
    series = _SERIES.get(key)
    if series is None:
        reg = registry()
        labels = {"sketch": sketch}
        series = (
            reg.counter(names.ENGINE_BATCH_ITEMS_TOTAL,
                        "Items ingested through the batch engine.",
                        labels=labels),
            reg.counter(names.ENGINE_BATCHES_TOTAL,
                        "Batches applied, by execution path.",
                        labels={"sketch": sketch, "path": path}),
            reg.histogram(names.ENGINE_BATCH_SIZE,
                          "Batch sizes handed to the engine (log-2 buckets).",
                          labels=labels),
            reg.histogram(names.ENGINE_BATCH_SECONDS,
                          "Wall-clock seconds per applied batch "
                          "(log-2 buckets).",
                          labels=labels, bounds=SECONDS_BOUNDS),
            reg.gauge(names.ENGINE_ITEMS_PER_SEC,
                      "Items/sec of the most recent batch.",
                      labels=labels),
            reg.counter(names.SKETCH_INSERTS_TOTAL, "Items inserted.",
                        labels=labels),
        )
        _SERIES[key] = series
    items_c, batches_c, size_h, seconds_h, ips_g, inserts_c = series
    items_c.inc(items)
    batches_c.inc()
    size_h.observe(items)
    seconds_h.observe(seconds)
    if seconds > 0.0:
        ips_g.set(items / seconds)
    inserts_c.inc(items)


def record_lock(wait_seconds: float, contended: bool) -> None:
    """One guarded lock acquisition (wait time only measured if contended)."""
    series = _SERIES.get("lock")
    if series is None:
        reg = registry()
        series = (
            reg.counter(names.LOCK_ACQUIRES_TOTAL,
                        "Guarded lock acquisitions."),
            reg.counter(names.LOCK_CONTENTION_TOTAL,
                        "Acquisitions that found the lock held."),
            reg.counter(names.LOCK_WAIT_SECONDS_TOTAL,
                        "Seconds spent blocked on the lock."),
        )
        _SERIES["lock"] = series
    acquires_c, contention_c, wait_c = series
    acquires_c.inc()
    if contended:
        contention_c.inc()
        wait_c.inc(wait_seconds)


def publish_kernel_info(backend: str, compiled: bool) -> None:
    """Publish the active kernel backend as an info-style gauge.

    The ``repro_kernel_info`` series carries its payload in labels
    (``backend``, ``compiled``) with value 1, the Prometheus ``_info``
    idiom; when the process default changes, the superseded label set
    is zeroed so exactly one series reads 1 at any time.
    """
    reg = registry()
    labels = {"backend": backend, "compiled": "true" if compiled else "false"}
    previous = _SERIES.get("kernel_info")
    if previous is not None and previous != labels:
        reg.gauge(names.KERNEL_INFO, "Active kernel backend (info gauge).",
                  labels=previous).set(0)
    _SERIES["kernel_info"] = labels
    reg.gauge(names.KERNEL_INFO, "Active kernel backend (info gauge).",
              labels=labels).set(1)


def sample_clock(clock: Any,
                 labels: "Optional[Mapping[str, str]]" = None) -> None:
    """Sample a ClockArray's occupancy into gauges plus a histogram.

    Duck-typed on ``clock.values`` / ``clock.s`` so this module never
    imports ``repro.core`` (instrumented modules import *us*).
    """
    reg = registry()
    values = clock.values
    nonzero = values[values > 0]
    n = int(values.size)
    fill = float(nonzero.size) / n if n else 0.0
    label_dict = dict(labels) if labels else None
    reg.gauge(names.CLOCK_FILL_RATIO,
              "Fraction of clock cells currently non-zero.",
              labels=label_dict).set(fill)
    reg.gauge(names.CLOCK_ZERO_CELLS,
              "Clock cells currently zero.",
              labels=label_dict).set(n - int(nonzero.size))
    bounds = np.power(2.0, np.arange(0, int(clock.s) + 1, dtype=np.float64))
    reg.histogram(names.CLOCK_CELL_VALUE,
                  "Non-zero clock cell values (log-2 buckets).",
                  labels=label_dict, bounds=bounds).observe_many(nonzero)


def publish_sketch(sketch: str, memory_bits: int,
                   fill_ratio: "Optional[float]" = None) -> None:
    """Publish a sketch's footprint and fill gauges."""
    reg = registry()
    labels = {"sketch": sketch}
    reg.gauge(names.SKETCH_MEMORY_BITS,
              "Accounted memory footprint in bits.",
              labels=labels).set(memory_bits)
    if fill_ratio is not None:
        reg.gauge(names.SKETCH_FILL_RATIO,
                  "Estimated fraction of live cells.",
                  labels=labels).set(fill_ratio)


def record_event(time: float, severity: str, kind: str, message: str,
                 fields: "Optional[Mapping[str, Any]]" = None) -> None:
    """Record one structured event: ring push plus a severity counter.

    Events always reach the counter (into the null registry while
    disabled, a no-op); the ring push is enabled-only, mirroring the
    sweep trace.
    """
    key = ("event", severity, kind)
    counter = _SERIES.get(key)
    if counter is None:
        counter = registry().counter(
            names.OBS_EVENTS_TOTAL, "Structured observability events.",
            labels={"severity": severity, "kind": kind},
        )
        _SERIES[key] = counter
    counter.inc()
    if ENABLED:
        _EVENTS.push(ObsEvent(time=time, severity=severity, kind=kind,
                              message=message, fields=dict(fields or {})))


def record_audit_ingest(sampled: int, shadow_keys: int) -> None:
    """Shadow-sampler intake: sampled item count plus tracker size."""
    series = _SERIES.get("audit_ingest")
    if series is None:
        reg = registry()
        series = (
            reg.counter(names.AUDIT_SAMPLED_ITEMS_TOTAL,
                        "Stream items folded into the shadow tracker."),
            reg.gauge(names.AUDIT_SHADOW_KEYS,
                      "Distinct keys held by the shadow tracker."),
        )
        _SERIES["audit_ingest"] = series
    sampled_c, keys_g = series
    sampled_c.inc(sampled)
    keys_g.set(shadow_keys)


def record_shard_route(shard: int, items: int, depth: int = 0) -> None:
    """One scatter batch dispatched to a shard, with its queue depth.

    ``depth`` is the number of commands already pending in the shard's
    worker queue at dispatch time (0 for the serial router, which
    applies batches inline).
    """
    key = ("shard_route", shard)
    series = _SERIES.get(key)
    if series is None:
        reg = registry()
        labels = {"shard": str(shard)}
        series = (
            reg.counter(names.SHARD_ITEMS_ROUTED_TOTAL,
                        "Items routed to this shard.", labels=labels),
            reg.counter(names.SHARD_BATCHES_ROUTED_TOTAL,
                        "Scatter batches dispatched to this shard.",
                        labels=labels),
            reg.gauge(names.SHARD_QUEUE_DEPTH,
                      "Commands pending in the shard's worker queue "
                      "at dispatch time.", labels=labels),
        )
        _SERIES[key] = series
    items_c, batches_c, depth_g = series
    items_c.inc(items)
    batches_c.inc()
    depth_g.set(depth)


def record_shard_merge(sketch: str, shards: int, seconds: float) -> None:
    """One merged global snapshot built from per-shard replicas."""
    key = ("shard_merge", sketch)
    series = _SERIES.get(key)
    if series is None:
        reg = registry()
        labels = {"sketch": sketch}
        series = (
            reg.counter(names.SHARD_MERGES_TOTAL,
                        "Merged global snapshots built.", labels=labels),
            reg.histogram(names.SHARD_MERGE_SECONDS,
                          "Wall-clock seconds per merged-snapshot build "
                          "(log-2 buckets).",
                          labels=labels, bounds=SECONDS_BOUNDS),
        )
        _SERIES[key] = series
    merges_c, seconds_h = series
    merges_c.inc()
    seconds_h.observe(seconds)


def record_serve_connection(delta: int, open_now: int) -> None:
    """A client connection opened (``delta=1``) or closed (``delta=-1``)."""
    series = _SERIES.get("serve_conn")
    if series is None:
        reg = registry()
        series = (
            reg.counter(names.SERVE_CONNECTIONS_TOTAL,
                        "Client connections accepted."),
            reg.gauge(names.SERVE_CONNECTIONS_OPEN,
                      "Client connections currently open."),
        )
        _SERIES["serve_conn"] = series
    total_c, open_g = series
    if delta > 0:
        total_c.inc(delta)
    open_g.set(open_now)


def record_serve_command(tenant: str, op: str, items: int = 0) -> None:
    """One successful protocol command (plus its ingested item count)."""
    key = ("serve_cmd", tenant, op)
    series = _SERIES.get(key)
    if series is None:
        reg = registry()
        series = (
            reg.counter(names.SERVE_COMMANDS_TOTAL,
                        "Protocol commands executed successfully.",
                        labels={"tenant": tenant, "op": op}),
            reg.counter(names.SERVE_ITEMS_TOTAL,
                        "Stream items ingested through the service.",
                        labels={"tenant": tenant}),
        )
        _SERIES[key] = series
    commands_c, items_c = series
    commands_c.inc()
    if items:
        items_c.inc(items)


def record_serve_error(code: str) -> None:
    """One typed error response sent on the wire, by error code."""
    key = ("serve_err", code)
    counter = _SERIES.get(key)
    if counter is None:
        counter = registry().counter(
            names.SERVE_ERRORS_TOTAL, "Error responses sent on the wire.",
            labels={"code": code})
        _SERIES[key] = counter
    counter.inc()


def record_serve_quarantine(tenant: str) -> None:
    """A tenant was quarantined after an engine failure."""
    key = ("serve_quarantine", tenant)
    counter = _SERIES.get(key)
    if counter is None:
        counter = registry().counter(
            names.SERVE_QUARANTINES_TOTAL,
            "Tenants quarantined after an engine failure.",
            labels={"tenant": tenant})
        _SERIES[key] = counter
    counter.inc()


def record_serve_checkpoint(tenant: str, seconds: float) -> None:
    """One checkpoint written for a tenant."""
    key = ("serve_ckpt", tenant)
    series = _SERIES.get(key)
    if series is None:
        reg = registry()
        series = (
            reg.counter(names.SERVE_CHECKPOINTS_TOTAL,
                        "Checkpoints written.", labels={"tenant": tenant}),
            reg.histogram(names.SERVE_CHECKPOINT_SECONDS,
                          "Wall-clock seconds per checkpoint write "
                          "(log-2 buckets).", bounds=SECONDS_BOUNDS),
        )
        _SERIES[key] = series
    checkpoints_c, seconds_h = series
    checkpoints_c.inc()
    seconds_h.observe(seconds)


def record_serve_restore(tenant: str, outcome: str) -> None:
    """One restore attempt resolved (restored / fallback / fresh)."""
    key = ("serve_restore", tenant, outcome)
    counter = _SERIES.get(key)
    if counter is None:
        counter = registry().counter(
            names.SERVE_RESTORES_TOTAL,
            "Restore attempts at service start, by outcome.",
            labels={"tenant": tenant, "outcome": outcome})
        _SERIES[key] = counter
    counter.inc()


def publish_serve_tenants(count: int) -> None:
    """Publish the number of resident tenants."""
    registry().gauge(names.SERVE_TENANTS,
                     "Tenants currently resident.").set(count)


def publish_monitor(memory_bits: int, split: "Mapping[str, float]") -> None:
    """Publish an ItemBatchMonitor's footprint and normalised split."""
    reg = registry()
    reg.gauge(names.MONITOR_MEMORY_BITS,
              "Total accounted monitor footprint in bits.").set(memory_bits)
    reg.gauge(names.MONITOR_TASKS, "Enabled measurement tasks.").set(len(split))
    for task, fraction in split.items():
        reg.gauge(names.MONITOR_SPLIT_RATIO,
                  "Configured memory split by task (sums to 1).",
                  labels={"task": task}).set(fraction)
