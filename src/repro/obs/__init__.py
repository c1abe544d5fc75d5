"""``repro.obs`` — metrics, sweep tracing, and profiling hooks.

A low-overhead observability layer for the clock-sketch stack:

- a registry of counters, gauges, and log-scale histograms
  (:mod:`repro.obs.metrics`, imported on first use) with Prometheus
  text and JSON snapshot exposition (:mod:`repro.obs.export`, imported
  lazily);
- a fixed-size sweep-trace ring (:mod:`repro.obs.ring`) recording
  every cleaning sweep's timestamp, pointer position, and cells
  cleaned;
- a structured-event ring (:mod:`repro.obs.ring`) of event records
  (:mod:`repro.obs.events`, imported on first use) carrying the audit
  plane's drift alerts and other severity-tagged events;
- the process-wide switchboard (:mod:`repro.obs.runtime`):
  instrumentation in ``core/``, ``engine/``, ``concurrent`` and
  ``monitor`` is nil-cost until :func:`enable` (or the
  :func:`observed` context manager) turns it on;
- profiling hooks (:class:`timed`) used by the bench harness;
- the live accuracy-auditing plane (:mod:`repro.obs.audit`, imported
  lazily): shadow-truth sampling, analytic error prediction, and
  drift alerts — entry point ``ItemBatchMonitor.audited()`` or
  ``python -m repro.obs audit --demo``;
- sampled end-to-end span tracing (:mod:`repro.obs.trace`, imported
  lazily): context-managed spans threaded monitor → engine → shard
  workers, stitched across processes, exportable as Chrome
  trace-event JSON — ``python -m repro.obs trace --demo``;
- a crash flight recorder (:mod:`repro.obs.flight`, imported lazily):
  JSON bundles of the last-N spans, both rings, and a full metrics
  snapshot cut automatically on shard-worker / backpressure /
  sanitizer errors;
- performance observability (:mod:`repro.obs.perf`, imported lazily):
  a persistent JSONL benchmark ledger, committed baselines with
  MAD-noise-band regression verdicts, and explanatory metric deltas —
  ``python -m repro.obs perf {record,compare,trend,report}``;
- an optional stdlib HTTP endpoint (:class:`MetricsServer`, imported
  lazily — see :mod:`repro.obs.http`) and a CLI
  (``python -m repro.obs``).

Every metric is declared once, with its kind, help text and labels, in
:mod:`repro.obs.names`; ``tests/test_obs_catalogue.py`` fails on a
registered family the catalogue does not declare. The
full catalogue, exposition formats, and the <10% enabled-overhead
budget are documented in ``docs/observability.md``.

Examples
--------
>>> from repro import obs
>>> with obs.observed() as reg:
...     pass  # run instrumented workload here
>>> print(obs.prometheus_text(reg))  # doctest: +SKIP
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from . import names
from .ring import LockedRing, SweepTraceRing
from .runtime import (
    disable,
    enable,
    enabled,
    event_ring,
    observed,
    record_event,
    registry,
    rings_snapshot,
    sweep_ring,
    timed,
)

if TYPE_CHECKING:
    from .events import SEVERITIES, ObsEvent
    from .metrics import (
        NULL_REGISTRY,
        Counter,
        Gauge,
        Histogram,
        MetricsRegistry,
        NullRegistry,
        SECONDS_BOUNDS,
        SIZE_BOUNDS,
    )
    from .export import (
        parse_prometheus,
        prometheus_text,
        registry_from_snapshot,
        snapshot_json,
    )

__all__ = [
    "names",
    # switchboard
    "enable",
    "disable",
    "enabled",
    "observed",
    "registry",
    "sweep_ring",
    "event_ring",
    "rings_snapshot",
    "record_event",
    "timed",
    # primitives
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "SweepTraceRing",
    "LockedRing",
    "ObsEvent",
    "SEVERITIES",
    "SECONDS_BOUNDS",
    "SIZE_BOUNDS",
    # exposition (lazy)
    "prometheus_text",
    "parse_prometheus",
    "snapshot_json",
    "registry_from_snapshot",
    # lazy
    "MetricsServer",
    "audit",
    "trace",
    "flight",
    "perf",
]


#: The submodule behind each name loaded on first use.
_SOURCES = {
    "metrics": ("Counter", "Gauge", "Histogram", "MetricsRegistry",
                "NullRegistry", "NULL_REGISTRY", "SECONDS_BOUNDS",
                "SIZE_BOUNDS"),
    "events": ("ObsEvent", "SEVERITIES"),
    "export": ("prometheus_text", "parse_prometheus", "snapshot_json",
               "registry_from_snapshot"),
    "http": ("MetricsServer",),
}
_ORIGIN = {name: module for module, exported in _SOURCES.items()
           for name in exported}


def __getattr__(name: str) -> Any:
    # MetricsServer pulls in http.server, the audit plane pulls in the
    # monitor/analysis stack, and a disabled switchboard needs neither
    # the metric primitives nor event records; load each only on first
    # use so importing repro.obs (which every instrumented module does)
    # stays cheap. Submodules load through importlib, not ``from .
    # import``: the latter re-enters this __getattr__ via its hasattr
    # check and recurses.
    import importlib
    module = _ORIGIN.get(name)
    if module is not None:
        return getattr(importlib.import_module(f"{__name__}.{module}"), name)
    if name in ("audit", "trace", "flight", "perf"):
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
