"""The metric catalogue: every metric the library registers, declared once.

Metric names are part of the library's operational contract — dashboards
and alerts reference them by string, so a typo in one instrumentation
site silently forks a series. Each name is therefore a constant here,
and ``tests/test_obs_catalogue.py`` drives every registration site and
fails on a family this catalogue does not declare.

Each constant is declared together with its kind, help text, label
names and, for histograms, whether it times seconds. :data:`CATALOGUE`
maps every name to that :class:`Metric` entry, and
:func:`repro.obs.runtime.series` registers series from it, so no
instrumentation site restates any of them. The constants stay plain
strings, usable wherever a name is expected (``registry.get(...)``).

Naming follows the Prometheus conventions: ``repro_`` namespace, an
area segment (``clock``, ``sketch``, ``engine``, ``lock``, ``monitor``,
``bench``), a ``_total`` suffix on counters and a unit suffix
(``_seconds``, ``_bits``, ``_steps``) where one applies.
``docs/observability.md`` describes each metric; a test keeps its
table equal to this catalogue.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Tuple

__all__ = [
    "Metric",
    "CATALOGUE",
    # clock / sweep telemetry
    "CLOCK_SWEEPS_TOTAL",
    "CLOCK_SWEEP_STEPS_TOTAL",
    "CLOCK_CELLS_CLEANED_TOTAL",
    "CLOCK_SWEEP_LAG_STEPS",
    "CLOCK_FILL_RATIO",
    "CLOCK_ZERO_CELLS",
    "CLOCK_CELL_VALUE",
    # per-sketch operations and state
    "SKETCH_INSERTS_TOTAL",
    "SKETCH_QUERIES_TOTAL",
    "SKETCH_MEMORY_BITS",
    "SKETCH_FILL_RATIO",
    # batch engine
    "ENGINE_BATCH_ITEMS_TOTAL",
    "ENGINE_BATCHES_TOTAL",
    "ENGINE_BATCH_SIZE",
    "ENGINE_BATCH_SECONDS",
    # concurrency
    "LOCK_ACQUIRES_TOTAL",
    "LOCK_CONTENTION_TOTAL",
    "LOCK_WAIT_SECONDS_TOTAL",
    # monitor facade
    "MONITOR_MEMORY_BITS",
    "MONITOR_SPLIT_RATIO",
    "MONITOR_TASKS",
    # bench harness profiling
    "BENCH_STAGE_SECONDS",
    # accuracy auditing
    "AUDIT_SAMPLED_ITEMS_TOTAL",
    "AUDIT_SHADOW_KEYS",
    "AUDIT_CYCLES_TOTAL",
    "AUDIT_CYCLE_SECONDS",
    "AUDIT_OBSERVED_ERROR",
    "AUDIT_PREDICTED_ERROR",
    "AUDIT_ERROR_WINDOW_LENGTH",
    "AUDIT_ABS_ERROR",
    "AUDIT_ALERTS_TOTAL",
    # shard merges
    "SHARD_MERGES_TOTAL",
    "SHARD_MERGE_SECONDS",
    # structured event log
    "OBS_EVENTS_TOTAL",
    # span tracing / flight recorder
    "TRACE_SPANS_TOTAL",
    "TRACE_TRACES_TOTAL",
    "FLIGHT_DUMPS_TOTAL",
    # ingestion service (repro.serve)
    "SERVE_CONNECTIONS_TOTAL",
    "SERVE_CONNECTIONS_OPEN",
    "SERVE_COMMANDS_TOTAL",
    "SERVE_ERRORS_TOTAL",
    "SERVE_ITEMS_TOTAL",
    "SERVE_TENANTS",
    "SERVE_QUARANTINES_TOTAL",
    "SERVE_CHECKPOINTS_TOTAL",
    "SERVE_CHECKPOINT_SECONDS",
    "SERVE_RESTORES_TOTAL",
    # performance ledger (repro.obs.perf)
    "PERF_RECORDS_TOTAL",
    "PERF_COMPARES_TOTAL",
    "PERF_REGRESSIONS_TOTAL",
    "PERF_HEADLINE",
    # span names (repro.obs.trace)
    "SPAN_MONITOR_OBSERVE",
    "SPAN_ENGINE_BATCH",
    "SPAN_LOCK_WAIT",
    "SPAN_SHARD_SCATTER",
    "SPAN_SHARD_INGEST",
    "SPAN_SHARD_ADVANCE",
    "SPAN_SHARD_MERGE",
    "SPAN_SHARD_ACK",
]


class Metric(NamedTuple):
    """How one metric name is registered."""

    #: ``"counter"``, ``"gauge"`` or ``"histogram"``.
    kind: str
    help: str
    #: The label names every series of the metric carries, in order.
    labels: Tuple[str, ...]
    #: Histograms only: bucket by the log-2 ``SECONDS_BOUNDS`` rather
    #: than the default ``SIZE_BOUNDS``.
    seconds: bool


#: Every metric name, mapped to its declaration.
CATALOGUE: Dict[str, Metric] = {}


def _declare(name: str, kind: str, help: str, *labels: str,
             seconds: bool = False) -> str:
    CATALOGUE[name] = Metric(kind, help, labels, seconds)
    return name


# ---------------------------------------------------------------------- clock
CLOCK_SWEEPS_TOTAL = _declare(
    "repro_clock_sweeps_total", "counter", "Cleaning sweeps executed.")
CLOCK_SWEEP_STEPS_TOTAL = _declare(
    "repro_clock_sweep_steps_total", "counter",
    "Individual sweep steps (cell visits).")
CLOCK_CELLS_CLEANED_TOTAL = _declare(
    "repro_clock_cells_cleaned_total", "counter",
    "Cells expired (decremented to zero) by cleaning.")
CLOCK_SWEEP_LAG_STEPS = _declare(
    "repro_clock_sweep_lag_steps", "gauge",
    "Cleaner lag behind the ideal cadence, in steps.")
CLOCK_FILL_RATIO = _declare(
    "repro_clock_fill_ratio", "gauge",
    "Fraction of clock cells currently non-zero.", "sketch")
CLOCK_ZERO_CELLS = _declare(
    "repro_clock_zero_cells", "gauge", "Clock cells currently zero.", "sketch")
#: Bucketed 1, 2, 4, ... up to ``2^s`` for the sampled clock's cell width.
CLOCK_CELL_VALUE = _declare(
    "repro_clock_cell_value", "histogram",
    "Non-zero clock cell values (log-2 buckets).", "sketch")

# --------------------------------------------------------------------- sketch
SKETCH_INSERTS_TOTAL = _declare(
    "repro_sketch_inserts_total", "counter", "Items inserted.", "sketch")
SKETCH_QUERIES_TOTAL = _declare(
    "repro_sketch_queries_total", "counter", "Query operations resolved.",
    "sketch")
SKETCH_MEMORY_BITS = _declare(
    "repro_sketch_memory_bits", "gauge",
    "Accounted memory footprint in bits.", "sketch")
SKETCH_FILL_RATIO = _declare(
    "repro_sketch_fill_ratio", "gauge", "Estimated fraction of live cells.",
    "sketch")

# --------------------------------------------------------------------- engine
ENGINE_BATCH_ITEMS_TOTAL = _declare(
    "repro_engine_batch_items_total", "counter",
    "Items ingested through the batch engine.", "sketch")
#: ``path`` is ``fused``, ``loop`` or ``deferred``.
ENGINE_BATCHES_TOTAL = _declare(
    "repro_engine_batches_total", "counter",
    "Batches applied, by execution path.", "sketch", "path")
ENGINE_BATCH_SIZE = _declare(
    "repro_engine_batch_size", "histogram",
    "Batch sizes handed to the engine (log-2 buckets).", "sketch")
ENGINE_BATCH_SECONDS = _declare(
    "repro_engine_batch_seconds", "histogram",
    "Wall-clock seconds per applied batch (log-2 buckets).", "sketch",
    seconds=True)

# ----------------------------------------------------------------------- lock
LOCK_ACQUIRES_TOTAL = _declare(
    "repro_lock_acquires_total", "counter", "Guarded lock acquisitions.")
LOCK_CONTENTION_TOTAL = _declare(
    "repro_lock_contention_total", "counter",
    "Acquisitions that found the lock held.")
LOCK_WAIT_SECONDS_TOTAL = _declare(
    "repro_lock_wait_seconds_total", "counter",
    "Seconds spent blocked on the lock.")

# -------------------------------------------------------------------- monitor
MONITOR_MEMORY_BITS = _declare(
    "repro_monitor_memory_bits", "gauge",
    "Total accounted monitor footprint in bits.")
MONITOR_SPLIT_RATIO = _declare(
    "repro_monitor_split_ratio", "gauge",
    "Configured memory split by task (sums to 1).", "task")
MONITOR_TASKS = _declare(
    "repro_monitor_tasks", "gauge", "Enabled measurement tasks.")

# ---------------------------------------------------------------------- bench
BENCH_STAGE_SECONDS = _declare(
    "repro_bench_stage_seconds", "histogram",
    "Stage latency in seconds (log-2 buckets).", "stage", seconds=True)

# ---------------------------------------------------------------------- audit
AUDIT_SAMPLED_ITEMS_TOTAL = _declare(
    "repro_audit_sampled_items_total", "counter",
    "Stream items folded into the shadow tracker.")
AUDIT_SHADOW_KEYS = _declare(
    "repro_audit_shadow_keys", "gauge",
    "Distinct keys held by the shadow tracker.")
AUDIT_CYCLES_TOTAL = _declare(
    "repro_audit_cycles_total", "counter", "Audit cycles completed.")
AUDIT_CYCLE_SECONDS = _declare(
    "repro_audit_cycle_seconds", "histogram",
    "Wall-clock seconds per audit cycle (log-2 buckets).", seconds=True)
AUDIT_OBSERVED_ERROR = _declare(
    "repro_audit_observed_error", "gauge",
    "Shadow-measured error of the live sketch.", "task", "stat")
AUDIT_PREDICTED_ERROR = _declare(
    "repro_audit_predicted_error", "gauge",
    "Analytically predicted error at this configuration.", "task", "stat")
AUDIT_ERROR_WINDOW_LENGTH = _declare(
    "repro_audit_error_window_length", "gauge",
    "Residual error-window length T/(2^s - 2).", "task")
AUDIT_ABS_ERROR = _declare(
    "repro_audit_abs_error", "histogram",
    "Absolute estimation error of audited answers (log-2 buckets).", "task")
AUDIT_ALERTS_TOTAL = _declare(
    "repro_audit_alerts_total", "counter",
    "Drift alerts raised by the accuracy auditor.", "task", "kind")

# ---------------------------------------------------------------------- shard
SHARD_MERGES_TOTAL = _declare(
    "repro_shard_merges_total", "counter",
    "Barrier-synchronised shard reads (snapshots, point queries).", "sketch")
SHARD_MERGE_SECONDS = _declare(
    "repro_shard_merge_seconds", "histogram",
    "Wall-clock seconds per barrier-synchronised read (log-2 buckets).",
    "sketch", seconds=True)

# --------------------------------------------------------------------- events
OBS_EVENTS_TOTAL = _declare(
    "repro_obs_events_total", "counter",
    "Structured observability events.", "severity", "kind")

# ---------------------------------------------------------------------- trace
TRACE_SPANS_TOTAL = _declare(
    "repro_trace_spans_total", "counter",
    "Spans finished into the span ring.", "name")
TRACE_TRACES_TOTAL = _declare(
    "repro_trace_traces_total", "counter", "Sampled root spans started.")
FLIGHT_DUMPS_TOTAL = _declare(
    "repro_flight_dumps_total", "counter",
    "Flight-recorder bundles written.", "reason")

# ---------------------------------------------------------------------- serve
SERVE_CONNECTIONS_TOTAL = _declare(
    "repro_serve_connections_total", "counter",
    "Client connections accepted.")
SERVE_CONNECTIONS_OPEN = _declare(
    "repro_serve_connections_open", "gauge",
    "Client connections currently open.")
SERVE_COMMANDS_TOTAL = _declare(
    "repro_serve_commands_total", "counter",
    "Protocol commands executed successfully.", "tenant", "op")
SERVE_ERRORS_TOTAL = _declare(
    "repro_serve_errors_total", "counter",
    "Error responses sent on the wire.", "code")
SERVE_ITEMS_TOTAL = _declare(
    "repro_serve_items_total", "counter",
    "Stream items ingested through the service.", "tenant")
SERVE_TENANTS = _declare(
    "repro_serve_tenants", "gauge", "Tenants currently resident.")
SERVE_QUARANTINES_TOTAL = _declare(
    "repro_serve_quarantines_total", "counter",
    "Tenants quarantined after an engine failure.", "tenant")
SERVE_CHECKPOINTS_TOTAL = _declare(
    "repro_serve_checkpoints_total", "counter", "Checkpoints written.",
    "tenant")
SERVE_CHECKPOINT_SECONDS = _declare(
    "repro_serve_checkpoint_seconds", "histogram",
    "Wall-clock seconds per checkpoint write (log-2 buckets).", seconds=True)
#: ``outcome`` is ``restored``, ``fallback`` or ``fresh``.
SERVE_RESTORES_TOTAL = _declare(
    "repro_serve_restores_total", "counter",
    "Restore attempts at service start, by outcome.", "tenant", "outcome")

# ----------------------------------------------------------------------- perf
PERF_RECORDS_TOTAL = _declare(
    "repro_perf_records_total", "counter",
    "Benchmark runs appended to the performance ledger.", "bench")
#: ``status`` is ``improved``, ``flat``, ``regressed``, ``insufficient``
#: or ``skipped``.
PERF_COMPARES_TOTAL = _declare(
    "repro_perf_compares_total", "counter",
    "Current-vs-baseline comparisons evaluated.", "status")
PERF_REGRESSIONS_TOTAL = _declare(
    "repro_perf_regressions_total", "counter",
    "Comparisons classified as actionable regressions.", "bench")
PERF_HEADLINE = _declare(
    "repro_perf_headline", "gauge",
    "Last recorded headline scalar, by bench and metric.", "bench", "metric")

# ----------------------------------------------------------- span vocabulary
# Span names are part of the same operational contract as metric names:
# trace viewers and the flight-dump tooling match on them, so they live
# here once and instrumentation imports the constant, as it does for
# metric names.
#: Root span over one ``ItemBatchMonitor.observe_many`` batch.
SPAN_MONITOR_OBSERVE = "monitor.observe_many"
#: One batch applied by the engine (attrs: sketch, path, items).
SPAN_ENGINE_BATCH = "engine.batch"
#: A contended blocking lock acquisition in ``ThreadSafeSketch``.
SPAN_LOCK_WAIT = "lock.wait"
#: The sharded facade's fan-out over the shard router (attrs: items,
#: shards); its context rides the command queue to the workers.
SPAN_SHARD_SCATTER = "shard.scatter"
#: One ``ingest`` command applied by a shard worker (attrs: shard, items).
SPAN_SHARD_INGEST = "shard.ingest"
#: One ``advance`` (barrier) command applied by a shard worker.
SPAN_SHARD_ADVANCE = "shard.advance"
#: The parent-side barrier of a sharded read (+ a merged view's union).
SPAN_SHARD_MERGE = "shard.merge"
#: The parent-side wait for every dispatched command's acknowledgement.
SPAN_SHARD_ACK = "shard.ack"
