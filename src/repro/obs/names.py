"""The metric-name catalogue: every registered metric name, as a constant.

Metric names are part of the library's operational contract — dashboards
and alerts reference them by string, so a typo in one instrumentation
site silently forks a series. sketch-lint rule SK106 therefore bans
inline name literals at registration sites (``registry.counter("...")``);
every name lives here, once, and instrumentation imports the constant.

Naming follows the Prometheus conventions: ``repro_`` namespace, an
area segment (``clock``, ``sketch``, ``engine``, ``lock``, ``monitor``,
``bench``), a ``_total`` suffix on counters and a unit suffix
(``_seconds``, ``_bits``, ``_steps``) where one applies. The full
catalogue with per-metric semantics is documented in
``docs/observability.md``.
"""

from __future__ import annotations

__all__ = [
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
    "ENGINE_ITEMS_PER_SEC",
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
    "AUDIT_ERROR_RATIO",
    "AUDIT_ERROR_WINDOW_LENGTH",
    "AUDIT_ABS_ERROR",
    "AUDIT_ALERTS_TOTAL",
    # shard router / worker pool
    "SHARD_ITEMS_ROUTED_TOTAL",
    "SHARD_BATCHES_ROUTED_TOTAL",
    "SHARD_QUEUE_DEPTH",
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

# ---------------------------------------------------------------------- clock
#: Sweep executions performed (one ``advance``/``flush``/fused batch
#: that did work counts once).
CLOCK_SWEEPS_TOTAL = "repro_clock_sweeps_total"
#: Individual sweep steps (cell visits) performed by the cleaner.
CLOCK_SWEEP_STEPS_TOTAL = "repro_clock_sweep_steps_total"
#: Cells whose clock reached zero (expired) during cleaning.
CLOCK_CELLS_CLEANED_TOTAL = "repro_clock_cells_cleaned_total"
#: Cleaner lag behind the ideal ``T/(2^s - 2)`` cadence, in steps
#: (0 for exact sweep modes after every operation; < n for deferred).
CLOCK_SWEEP_LAG_STEPS = "repro_clock_sweep_lag_steps"
#: Fraction of clock cells currently non-zero (sampled).
CLOCK_FILL_RATIO = "repro_clock_fill_ratio"
#: Number of clock cells currently zero (sampled).
CLOCK_ZERO_CELLS = "repro_clock_zero_cells"
#: Log-2-bucketed histogram of non-zero cell values (sampled occupancy).
CLOCK_CELL_VALUE = "repro_clock_cell_value"

# --------------------------------------------------------------------- sketch
#: Items inserted, labelled by sketch class (scalar and batch paths).
SKETCH_INSERTS_TOTAL = "repro_sketch_inserts_total"
#: Query operations resolved, labelled by sketch class.
SKETCH_QUERIES_TOTAL = "repro_sketch_queries_total"
#: Accounted memory footprint per task, in bits (gauge).
SKETCH_MEMORY_BITS = "repro_sketch_memory_bits"
#: Estimated-vs-capacity fill per task (fraction of live cells).
SKETCH_FILL_RATIO = "repro_sketch_fill_ratio"

# --------------------------------------------------------------------- engine
#: Items ingested through the batch engine.
ENGINE_BATCH_ITEMS_TOTAL = "repro_engine_batch_items_total"
#: Batches applied, labelled by path (``fused``/``loop``/``deferred``).
ENGINE_BATCHES_TOTAL = "repro_engine_batches_total"
#: Histogram of batch sizes handed to the engine.
ENGINE_BATCH_SIZE = "repro_engine_batch_size"
#: Histogram of wall-clock seconds per applied batch.
ENGINE_BATCH_SECONDS = "repro_engine_batch_seconds"
#: Items/sec of the most recent batch application (gauge).
ENGINE_ITEMS_PER_SEC = "repro_engine_items_per_sec"

# ----------------------------------------------------------------------- lock
#: Lock acquisitions by ThreadSafeSketch's guarded paths.
LOCK_ACQUIRES_TOTAL = "repro_lock_acquires_total"
#: Acquisitions that found the lock held (contended).
LOCK_CONTENTION_TOTAL = "repro_lock_contention_total"
#: Cumulative seconds spent blocked waiting for the lock.
LOCK_WAIT_SECONDS_TOTAL = "repro_lock_wait_seconds_total"

# -------------------------------------------------------------------- monitor
#: Total accounted footprint of an ItemBatchMonitor, in bits.
MONITOR_MEMORY_BITS = "repro_monitor_memory_bits"
#: Configured (normalised) memory split, labelled by task.
MONITOR_SPLIT_RATIO = "repro_monitor_split_ratio"
#: Number of enabled tasks.
MONITOR_TASKS = "repro_monitor_tasks"

# ---------------------------------------------------------------------- bench
#: Histogram of experiment-harness stage latencies, labelled by stage.
BENCH_STAGE_SECONDS = "repro_bench_stage_seconds"

# ---------------------------------------------------------------------- audit
#: Stream items folded into the shadow-truth tracker (the sampled subset).
AUDIT_SAMPLED_ITEMS_TOTAL = "repro_audit_sampled_items_total"
#: Distinct keys currently held by the shadow tracker (gauge).
AUDIT_SHADOW_KEYS = "repro_audit_shadow_keys"
#: Audit replay cycles executed.
AUDIT_CYCLES_TOTAL = "repro_audit_cycles_total"
#: Wall-clock seconds per audit cycle (log-2 buckets).
AUDIT_CYCLE_SECONDS = "repro_audit_cycle_seconds"
#: Online error estimate from the shadow replay, labelled ``{task, stat}``.
AUDIT_OBSERVED_ERROR = "repro_audit_observed_error"
#: Analytically predicted error at the live configuration, by task.
AUDIT_PREDICTED_ERROR = "repro_audit_predicted_error"
#: Observed / predicted error ratio, by task (1.0 = exactly as modelled).
AUDIT_ERROR_RATIO = "repro_audit_error_ratio"
#: Residual error-window length ``T / (2^s - 2)`` per task (gauge).
AUDIT_ERROR_WINDOW_LENGTH = "repro_audit_error_window_length"
#: Absolute per-key error of audited size/span queries (log-2 buckets).
AUDIT_ABS_ERROR = "repro_audit_abs_error"
#: Drift alerts raised, labelled ``{task, kind}``.
AUDIT_ALERTS_TOTAL = "repro_audit_alerts_total"

# ---------------------------------------------------------------------- shard
#: Items routed to each shard, labelled ``{shard}``.
SHARD_ITEMS_ROUTED_TOTAL = "repro_shard_items_routed_total"
#: Scatter batches dispatched to each shard, labelled ``{shard}``.
SHARD_BATCHES_ROUTED_TOTAL = "repro_shard_batches_routed_total"
#: Pending commands in a worker's queue at dispatch time, labelled
#: ``{shard}`` (gauge; serial routers report 0).
SHARD_QUEUE_DEPTH = "repro_shard_queue_depth"
#: Merged global snapshots built, labelled by sketch class.
SHARD_MERGES_TOTAL = "repro_shard_merges_total"
#: Wall-clock seconds per merged-snapshot build (log-2 buckets).
SHARD_MERGE_SECONDS = "repro_shard_merge_seconds"

# --------------------------------------------------------------------- events
#: Structured observability events recorded, labelled ``{severity, kind}``.
OBS_EVENTS_TOTAL = "repro_obs_events_total"

# ---------------------------------------------------------------------- trace
#: Spans finished into the span ring, labelled by span ``{name}``.
TRACE_SPANS_TOTAL = "repro_trace_spans_total"
#: Sampled root spans started (one per recorded trace).
TRACE_TRACES_TOTAL = "repro_trace_traces_total"
#: Flight-recorder bundles written, labelled by ``{reason}``.
FLIGHT_DUMPS_TOTAL = "repro_flight_dumps_total"

# ---------------------------------------------------------------------- serve
#: Client connections accepted by the ingestion service.
SERVE_CONNECTIONS_TOTAL = "repro_serve_connections_total"
#: Client connections currently open (gauge).
SERVE_CONNECTIONS_OPEN = "repro_serve_connections_open"
#: Protocol commands executed successfully, labelled ``{tenant, op}``.
SERVE_COMMANDS_TOTAL = "repro_serve_commands_total"
#: Error responses sent, labelled by wire error ``{code}``.
SERVE_ERRORS_TOTAL = "repro_serve_errors_total"
#: Stream items ingested through the service, labelled ``{tenant}``.
SERVE_ITEMS_TOTAL = "repro_serve_items_total"
#: Tenants currently resident (gauge).
SERVE_TENANTS = "repro_serve_tenants"
#: Tenants quarantined after an engine failure, labelled ``{tenant}``.
SERVE_QUARANTINES_TOTAL = "repro_serve_quarantines_total"
#: Checkpoints written, labelled ``{tenant}``.
SERVE_CHECKPOINTS_TOTAL = "repro_serve_checkpoints_total"
#: Wall-clock seconds per checkpoint write (log-2 buckets).
SERVE_CHECKPOINT_SECONDS = "repro_serve_checkpoint_seconds"
#: Restore attempts at service start, labelled ``{tenant, outcome}``
#: (``restored``/``fallback``/``fresh``).
SERVE_RESTORES_TOTAL = "repro_serve_restores_total"

# ----------------------------------------------------------------------- perf
#: Benchmark runs appended to the performance ledger, labelled ``{bench}``.
PERF_RECORDS_TOTAL = "repro_perf_records_total"
#: Current-vs-baseline comparisons evaluated, labelled ``{status}``
#: (``improved``/``flat``/``regressed``/``insufficient``/``skipped``).
PERF_COMPARES_TOTAL = "repro_perf_compares_total"
#: Comparisons that classified as an actionable regression, labelled
#: ``{bench}``.
PERF_REGRESSIONS_TOTAL = "repro_perf_regressions_total"
#: Last recorded headline scalar, labelled ``{bench, metric}`` (gauge).
PERF_HEADLINE = "repro_perf_headline"

# ----------------------------------------------------------- span vocabulary
# Span names are part of the same operational contract as metric names:
# trace viewers and the flight-dump tooling match on them, so they live
# here once and instrumentation imports the constant (mirroring SK106's
# discipline for metric names).
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
#: The parent-side merged-snapshot build (barrier + union).
SPAN_SHARD_MERGE = "shard.merge"
#: The parent-side wait for every dispatched command's acknowledgement.
SPAN_SHARD_ACK = "shard.ack"
