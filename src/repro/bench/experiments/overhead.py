"""Overhead budgets: each plane on top of the sketches, on vs off.

Not a paper figure. Clock-Sketch's point is a constant, small per-item
cost, so every plane stacked on the sketches must cost at most
:data:`OVERHEAD_BUDGET_PCT` (≤10%) on the chunked caida ingest
workload. One harness measures all three planes (``PLANES``):

- ``obs`` — the metrics switchboard off vs on, over the Table 3
  sketches of ``batch_throughput`` (``insert_many``). The
  instrumentation must be nil-cost while disabled and cheap while
  enabled.
- ``audit`` — metrics on for both sides; the plain four-task monitor
  vs the same monitor with a :class:`ShadowAuditor` at 1% sampling, so
  the delta is the audit plane alone (sampler hashing, shadow-tracker
  upkeep and the periodic audit cycles inside ``observe_many``).
- ``trace`` — metrics on for both sides; the tracer's ``sample_every``
  0 vs 1 (every batch a monitor-root trace with engine children) over
  the plain monitor and a P=2 serial-sharded one, which adds the
  scatter/merge span layer.

The stream is ingested in chunks (default 4096 items), so per-batch
instrumentation fires once per engine call as in a steady-state
pipeline. The estimator is the shared one from
:mod:`repro.bench.stats`: one unmeasured warmup run per side, then
``repeats`` runs per side with the order alternating every repeat,
every full-size chunk timed individually, and the overhead reported as
the median of the pairwise ``treated_chunk_i / base_chunk_i`` ratios.
Drift cancels per pair, order bias cancels by alternation, and the
chunks that straddled a load spike (or, on the audit plane, carried a
full audit cycle) become discarded outliers. ``base_ips`` and
``treated_ips`` are each side's median per-chunk throughput.

``result.extras`` carries ``budget_pct`` plus each plane's evidence
that the treated side really ran: the registry ``snapshot`` (obs,
audit), ``audit_cycles`` (audit) and ``spans_recorded`` (trace).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, NamedTuple

from ...monitor import ItemBatchMonitor
from ...obs import runtime as _obs
from ...obs import trace as _trace
from ...timebase import count_window
from ..harness import ExperimentResult, cached_trace
from ..stats import chunked_times, interleaved_times, median, overhead_pct
from .batch_throughput import CONFIGS, _build

#: Documented ceiling for every plane's enabled-mode overhead.
OVERHEAD_BUDGET_PCT = 10.0

DEFAULT_ITEMS = 1_000_000
DEFAULT_CHUNK = 4096
DEFAULT_REPEATS = 3
MONITOR_WINDOW = 4096
AUDIT_SAMPLE_RATE = 0.01


def _obs_side(variant: str, seed: int, treated: bool) -> Any:
    if treated:
        _obs.enable(fresh=False)
    else:
        _obs.disable()
    return _build(variant, seed)


def _audit_side(variant: str, seed: int, treated: bool) -> Any:
    monitor = ItemBatchMonitor(count_window(MONITOR_WINDOW), memory="128KB",
                               seed=seed)
    if treated:
        monitor.audited(sample_rate=AUDIT_SAMPLE_RATE)
    return monitor


def _trace_side(variant: str, seed: int, treated: bool) -> Any:
    _trace.tracer().sample_every = int(treated)
    window = count_window(MONITOR_WINDOW)
    if variant == "monitor":
        return ItemBatchMonitor(window, memory="64KB", seed=seed)
    return ItemBatchMonitor.sharded(window, memory="64KB", seed=seed,
                                    shards=2, router="serial")


def _obs_extras(sketch: Any) -> "Dict[str, Any]":
    sketch.metrics()  # sample state gauges and occupancy into the snapshot
    return {"snapshot": _obs.registry().snapshot()}


def _audit_extras(monitor: Any) -> "Dict[str, Any]":
    return {"snapshot": _obs.registry().snapshot(),
            "audit_cycles": monitor.auditor.cycles}


def _trace_extras(monitor: Any) -> "Dict[str, Any]":
    return {"spans_recorded": _trace.tracer().ring.total_pushed}


class Plane(NamedTuple):
    """What differs per plane; :func:`run` does everything else."""

    title: str
    #: Variant name -> the window hint of its caida stream.
    windows: "Dict[str, int]"
    #: ``(variant, seed, treated) -> pipeline``; sets the side's switches.
    side: "Callable[[str, int, bool], Any]"
    ingest: str                 # the pipeline's batch-ingest method
    #: Reads the last treated pipeline (metrics on) into result.extras.
    extras: "Callable[[Any], Dict[str, Any]]"


PLANES: "Dict[str, Plane]" = {
    "obs": Plane("repro.obs overhead: chunked insert_many, metrics on vs off",
                 {name: cfg["window"] for name, cfg in CONFIGS.items()},
                 _obs_side, "insert_many", _obs_extras),
    "audit": Plane("accuracy-audit overhead: monitored ingest, auditor at "
                   f"{AUDIT_SAMPLE_RATE:.0%} on vs off (metrics on both sides)",
                   {"monitor": MONITOR_WINDOW}, _audit_side, "observe_many",
                   _audit_extras),
    "trace": Plane("repro.obs.trace overhead: monitored ingest, spans on vs "
                   "off (metrics on both sides)",
                   {"monitor": MONITOR_WINDOW, "sharded2": MONITOR_WINDOW},
                   _trace_side, "observe_many", _trace_extras),
}


def run(plane: str, quick: bool = False, seed: int = 1,
        n_items: int = DEFAULT_ITEMS, chunk: int = DEFAULT_CHUNK,
        repeats: int = DEFAULT_REPEATS) -> ExperimentResult:
    """Measure base-vs-treated chunked ingest for every variant of ``plane``."""
    spec = PLANES[plane]
    if quick:
        n_items = 100_000
        repeats = 5
    result = ExperimentResult(
        title=spec.title,
        columns=["variant", "n_items", "base_ips", "treated_ips",
                 "overhead_pct"],
        notes=[
            f"chunked ingestion ({chunk} items/batch: per-batch "
            "instrumentation fires once per chunk)",
            "overhead = median of per-chunk treated/base time ratios over "
            f"{repeats} order-alternating interleaved runs per side; "
            f"budget {OVERHEAD_BUDGET_PCT:.0f}%",
        ],
    )
    was_enabled = _obs.ENABLED
    tracer = _trace.tracer()
    try:
        for variant, window in spec.windows.items():
            keys = cached_trace("caida", n_items=n_items, window_hint=window,
                                seed=seed).keys
            last = None

            def ingest(treated: bool) -> "list[float]":
                nonlocal last
                pipeline = spec.side(variant, seed, treated)
                if treated:
                    last = pipeline
                try:
                    return chunked_times(getattr(pipeline, spec.ingest),
                                         keys, chunk)
                finally:
                    close = getattr(pipeline, "close", None)
                    if close is not None:
                        close()

            # A fresh registry and span ring per variant: the extras
            # cover exactly its runs.
            _obs.enable(fresh=True)
            _trace.configure(capacity=tracer.ring.capacity,
                             sample_every=tracer.sample_every)
            base_secs, treated_secs = interleaved_times(
                lambda: ingest(False), lambda: ingest(True), repeats)
            _obs.enable(fresh=False)
            result.extras.update(spec.extras(last))
            result.add(variant=variant, n_items=len(keys),
                       base_ips=chunk / median(base_secs),
                       treated_ips=chunk / median(treated_secs),
                       overhead_pct=overhead_pct(base_secs, treated_secs))
    finally:
        _trace.configure(capacity=tracer.ring.capacity,
                         sample_every=tracer.sample_every)
        if was_enabled:
            _obs.enable(fresh=False)
        else:
            _obs.disable()
    result.extras["budget_pct"] = OVERHEAD_BUDGET_PCT
    return result
