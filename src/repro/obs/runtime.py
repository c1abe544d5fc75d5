"""Process-wide observability switchboard.

Hot-path instrumentation in ``core/``, ``engine/``, ``concurrent`` and
``monitor`` does::

    from ..obs import runtime as _obs
    ...
    if _obs.ENABLED:
        _obs.record_batch(...)

Disabled (the default), the cost is one module-attribute load and a
falsy branch, and no objects are allocated. Importing this module loads
only :mod:`repro.obs.names`, :mod:`repro.obs.ring`, :mod:`repro.errors`
and numpy: the metric primitives (:mod:`repro.obs.metrics`) load on
the first :func:`enable`, :func:`registry` or :func:`series` call, and
the event record (:mod:`repro.obs.events`) on the first event recorded
while enabled. Disabled, :func:`registry` hands back the shared
:data:`~repro.obs.metrics.NULL_REGISTRY`. :func:`enable` swaps in a
real :class:`~repro.obs.metrics.MetricsRegistry` plus a
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
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Iterator, List, Mapping, Optional,
    Tuple, Union,
)

import numpy as np

from ..errors import ConfigurationError
from . import names
from .ring import LockedRing, SweepTraceRing

if TYPE_CHECKING:
    from .metrics import MetricsRegistry, NullRegistry

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
    "series",
    "timed",
    "record_sweep",
    "record_sweep_deferral",
    "record_insert",
    "record_query",
    "record_batch",
    "record_lock",
    "record_event",
    "record_span",
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

#: The registry of the last :func:`enable`; ``None`` until the first.
_REGISTRY: "Optional[MetricsRegistry]" = None
_RING: SweepTraceRing = SweepTraceRing(1)
_EVENTS: LockedRing = LockedRing(1)

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
    from .metrics import MetricsRegistry
    if fresh or _REGISTRY is None:
        _REGISTRY = MetricsRegistry()
        _RING = SweepTraceRing(ring_capacity)
        _EVENTS = LockedRing(event_capacity)
        for hook in _RESET_HOOKS:
            hook()
    _SERIES.clear()
    ENABLED = True
    assert _REGISTRY is not None
    return _REGISTRY


def disable() -> "Union[MetricsRegistry, NullRegistry]":
    """Turn instrumentation off; returns the (still readable) registry."""
    global ENABLED
    ENABLED = False
    _SERIES.clear()
    return registry() if _REGISTRY is None else _REGISTRY


def enabled() -> bool:
    """Is instrumentation currently on?"""
    return ENABLED


def registry() -> "Union[MetricsRegistry, NullRegistry]":
    """The live registry, or the shared no-op one while disabled."""
    if ENABLED:
        return _REGISTRY
    from .metrics import NULL_REGISTRY
    return NULL_REGISTRY


def sweep_ring() -> SweepTraceRing:
    """The sweep-trace ring populated while instrumentation is on."""
    return _RING


def event_ring() -> LockedRing:
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
            "events": [dict(event.as_dict(), seq=seq)
                       for seq, event in _EVENTS.numbered()],
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
            series(self.name, self.labels).observe(perf_counter() - self._t0)
        return False

    def __call__(self, func: "Callable[..., Any]") -> "Callable[..., Any]":
        name, labels = self.name, self.labels

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with timed(name, labels):
                return func(*args, **kwargs)

        return wrapper


# ------------------------------------------------------------------ catalogue

def series(name: str, labels: "Optional[Mapping[str, str]]" = None,
           bounds: "Optional[np.ndarray]" = None) -> Any:
    """The live series ``name`` for ``labels``, as the catalogue declares it.

    Kind, help text and histogram bounds come from
    :data:`repro.obs.names.CATALOGUE`. Only the metric's own label names
    are read from ``labels``, which may carry more; a missing one
    raises. ``bounds`` overrides the catalogue's histogram buckets.
    While disabled this is the shared null series of the same kind.
    """
    spec = names.CATALOGUE[name]
    try:
        own = {key: labels[key] for key in spec.labels} if spec.labels \
            else None
    except (KeyError, TypeError):
        raise ConfigurationError(
            f"metric {name} needs labels {spec.labels}, got {labels!r}"
        ) from None
    reg = registry()
    if spec.kind == "counter":
        return reg.counter(name, spec.help, own)
    if spec.kind == "gauge":
        return reg.gauge(name, spec.help, own)
    if bounds is None and spec.seconds:
        from .metrics import SECONDS_BOUNDS
        bounds = SECONDS_BOUNDS
    return reg.histogram(name, spec.help, own, bounds)


#: Metrics that one recorder updates together, by memo key.
_GROUPS: "Dict[str, Tuple[str, ...]]" = {
    "sweep": (names.CLOCK_SWEEPS_TOTAL, names.CLOCK_SWEEP_STEPS_TOTAL,
              names.CLOCK_CELLS_CLEANED_TOTAL, names.CLOCK_SWEEP_LAG_STEPS),
    # Engine batches are inserts too: folding SKETCH_INSERTS_TOTAL into
    # the batch group keeps the per-batch cost to a single memo hit.
    "batch": (names.ENGINE_BATCH_ITEMS_TOTAL, names.ENGINE_BATCHES_TOTAL,
              names.ENGINE_BATCH_SIZE, names.ENGINE_BATCH_SECONDS,
              names.SKETCH_INSERTS_TOTAL),
    "lock": (names.LOCK_ACQUIRES_TOTAL, names.LOCK_CONTENTION_TOTAL,
             names.LOCK_WAIT_SECONDS_TOTAL),
    "audit_ingest": (names.AUDIT_SAMPLED_ITEMS_TOTAL,
                     names.AUDIT_SHADOW_KEYS),
    "shard_merge": (names.SHARD_MERGES_TOTAL, names.SHARD_MERGE_SECONDS),
    "serve_conn": (names.SERVE_CONNECTIONS_TOTAL,
                   names.SERVE_CONNECTIONS_OPEN),
    "serve_cmd": (names.SERVE_COMMANDS_TOTAL, names.SERVE_ITEMS_TOTAL),
    "serve_ckpt": (names.SERVE_CHECKPOINTS_TOTAL,
                   names.SERVE_CHECKPOINT_SECONDS),
}


class _SeriesMemo(dict):
    """The recorders' series, registered on first use.

    Registry interning builds a label dict plus a sorted key per lookup;
    recorders that fire per batch or sweep would pay that on every
    event, so they read their series from here: one dict hit. A key is
    a metric name or a :data:`_GROUPS` key, alone or followed (in a
    tuple) by label values, ordered as the catalogue first names those
    labels. A metric name maps to its series, a group to the tuple of
    its series. Cleared whenever the switchboard flips, the only time
    ``registry()`` can start handing out different objects.
    """

    def __missing__(self, key: Any) -> Any:
        head, *values = key if isinstance(key, tuple) else (key,)
        metrics = _GROUPS.get(head, (head,))
        label_names = dict.fromkeys(
            label for metric in metrics
            for label in names.CATALOGUE[metric].labels)
        if len(values) != len(label_names):
            raise ConfigurationError(
                f"memo key {key!r} needs values for {tuple(label_names)}")
        labels = dict(zip(label_names, values))
        made = tuple(series(metric, labels) for metric in metrics)
        if head not in _GROUPS:
            made = made[0]
        self[key] = made
        return made


_SERIES = _SeriesMemo()


# ------------------------------------------------------------------ recorders
# Call sites guard with ``if _obs.ENABLED`` so none of this executes on
# the disabled path; the helpers also tolerate being called directly
# (they write into the null registry, a no-op).

def record_sweep(time: float, pointer: int, cleaned: int, steps: int,
                 lag: int = 0) -> None:
    """One executed cleaning sweep: counters plus a ring-trace event."""
    sweeps_c, steps_c, cleaned_c, lag_g = _SERIES["sweep"]
    sweeps_c.inc()
    steps_c.inc(steps)
    cleaned_c.inc(cleaned)
    lag_g.set(lag)
    if ENABLED:
        _RING.push(time, pointer, cleaned, steps)


def record_sweep_deferral(lag: int) -> None:
    """A deferred-mode clock skipped sweeping; publish its current lag."""
    _SERIES[names.CLOCK_SWEEP_LAG_STEPS].set(lag)


def record_insert(sketch: str, count: int = 1) -> None:
    """Items inserted through a sketch's scalar path."""
    _SERIES[names.SKETCH_INSERTS_TOTAL, sketch].inc(count)


def record_query(sketch: str, count: int = 1) -> None:
    """Query operations resolved by a sketch."""
    _SERIES[names.SKETCH_QUERIES_TOTAL, sketch].inc(count)


def record_batch(sketch: str, items: int, path: str, seconds: float) -> None:
    """One batch applied by the engine, with its path and wall time.

    Also counts the items into ``SKETCH_INSERTS_TOTAL``: engine batches
    *are* inserts.
    """
    items_c, batches_c, size_h, seconds_h, inserts_c = \
        _SERIES["batch", sketch, path]
    items_c.inc(items)
    batches_c.inc()
    size_h.observe(items)
    seconds_h.observe(seconds)
    inserts_c.inc(items)


def record_lock(wait_seconds: float, contended: bool) -> None:
    """One guarded lock acquisition (wait time only measured if contended)."""
    acquires_c, contention_c, wait_c = _SERIES["lock"]
    acquires_c.inc()
    if contended:
        contention_c.inc()
        wait_c.inc(wait_seconds)


def sample_clock(clock: Any,
                 labels: "Optional[Mapping[str, str]]" = None) -> None:
    """Sample a ClockArray's occupancy into gauges plus a histogram.

    Duck-typed on ``clock.values`` / ``clock.s`` so this module never
    imports ``repro.core`` (instrumented modules import *us*).
    """
    values = clock.values
    nonzero = values[values > 0]
    n = int(values.size)
    series(names.CLOCK_FILL_RATIO, labels).set(
        float(nonzero.size) / n if n else 0.0)
    series(names.CLOCK_ZERO_CELLS, labels).set(n - int(nonzero.size))
    bounds = np.power(2.0, np.arange(0, int(clock.s) + 1, dtype=np.float64))
    series(names.CLOCK_CELL_VALUE, labels, bounds).observe_many(nonzero)


def publish_sketch(sketch: str, memory_bits: int,
                   fill_ratio: "Optional[float]" = None) -> None:
    """Publish a sketch's footprint and fill gauges."""
    _SERIES[names.SKETCH_MEMORY_BITS, sketch].set(memory_bits)
    if fill_ratio is not None:
        _SERIES[names.SKETCH_FILL_RATIO, sketch].set(fill_ratio)


def record_event(time: float, severity: str, kind: str, message: str,
                 fields: "Optional[Mapping[str, Any]]" = None) -> None:
    """Record one structured event: ring push plus a severity counter.

    Events always reach the counter (into the null registry while
    disabled, a no-op); the ring push is enabled-only, mirroring the
    sweep trace.
    """
    _SERIES[names.OBS_EVENTS_TOTAL, severity, kind].inc()
    if ENABLED:
        from .events import ObsEvent
        _EVENTS.push(ObsEvent(time=time, severity=severity, kind=kind,
                              message=message, fields=dict(fields or {})))


def record_span(name: str, root: bool) -> None:
    """One finished span entered the span ring (``root``: it opened a
    sampled trace)."""
    _SERIES[names.TRACE_SPANS_TOTAL, name].inc()
    if root:
        _SERIES[names.TRACE_TRACES_TOTAL].inc()


def record_audit_ingest(sampled: int, shadow_keys: int) -> None:
    """Shadow-sampler intake: sampled item count plus tracker size."""
    sampled_c, keys_g = _SERIES["audit_ingest"]
    sampled_c.inc(sampled)
    keys_g.set(shadow_keys)


def record_shard_merge(sketch: str, shards: int, seconds: float) -> None:
    """One barrier-synchronised read of the per-shard replicas."""
    merges_c, seconds_h = _SERIES["shard_merge", sketch]
    merges_c.inc()
    seconds_h.observe(seconds)


def record_serve_connection(delta: int, open_now: int) -> None:
    """A client connection opened (``delta=1``) or closed (``delta=-1``)."""
    total_c, open_g = _SERIES["serve_conn"]
    if delta > 0:
        total_c.inc(delta)
    open_g.set(open_now)


def record_serve_command(tenant: str, op: str, items: int = 0) -> None:
    """One successful protocol command (plus its ingested item count)."""
    commands_c, items_c = _SERIES["serve_cmd", tenant, op]
    commands_c.inc()
    if items:
        items_c.inc(items)


def record_serve_error(code: str) -> None:
    """One typed error response sent on the wire, by error code."""
    _SERIES[names.SERVE_ERRORS_TOTAL, code].inc()


def record_serve_quarantine(tenant: str) -> None:
    """A tenant was quarantined after an engine failure."""
    _SERIES[names.SERVE_QUARANTINES_TOTAL, tenant].inc()


def record_serve_checkpoint(tenant: str, seconds: float) -> None:
    """One checkpoint written for a tenant."""
    checkpoints_c, seconds_h = _SERIES["serve_ckpt", tenant]
    checkpoints_c.inc()
    seconds_h.observe(seconds)


def record_serve_restore(tenant: str, outcome: str) -> None:
    """One restore attempt resolved (restored / fallback / fresh)."""
    _SERIES[names.SERVE_RESTORES_TOTAL, tenant, outcome].inc()


def publish_serve_tenants(count: int) -> None:
    """Publish the number of resident tenants."""
    _SERIES[names.SERVE_TENANTS].set(count)


def publish_monitor(memory_bits: int, split: "Mapping[str, float]") -> None:
    """Publish an ItemBatchMonitor's footprint and normalised split."""
    _SERIES[names.MONITOR_MEMORY_BITS].set(memory_bits)
    _SERIES[names.MONITOR_TASKS].set(len(split))
    for task, fraction in split.items():
        _SERIES[names.MONITOR_SPLIT_RATIO, task].set(fraction)
