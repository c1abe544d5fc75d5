"""Explanatory telemetry for perf records: obs-registry metric deltas.

A throughput number alone says *that* a run regressed; the registry
says *why*. This module reduces a full metrics snapshot to the small
set of explanatory scalars worth carrying in every
:class:`~repro.obs.perf.record.PerfRecord` — cells cleaned, sweep
steps and lag, lock wait/contention, engine batch counts and timing —
so a regression report can print "throughput −18%, lock wait ×3"
instead of a bare verdict.

Two entry points:

- :func:`aggregate_snapshot` reduces a registry snapshot (the output
  of :meth:`MetricsRegistry.snapshot`) to the explanatory dict —
  counters summed across label sets, gauges at their worst (max)
  label set, histograms as ``_sum``/``_count`` pairs;
- :class:`capture_delta` is a context manager measuring the live
  registry across a timed section (after-minus-before on every
  counter/histogram scalar), for callers that instrument their own
  sections rather than archiving whole fresh-registry snapshots.

Perf's own instrumentation (ledger appends, comparison verdicts) also
lives here, published under the ``repro_perf_*`` names from
:mod:`repro.obs.names`; call sites gate on ``_obs.ENABLED``.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional

from .. import names
from .. import runtime as _obs

__all__ = [
    "DELTA_COUNTERS",
    "DELTA_GAUGES",
    "DELTA_HISTOGRAMS",
    "aggregate_snapshot",
    "capture_delta",
    "delta_between",
    "publish_record",
    "publish_compare",
]

#: Counter series carried as explanatory telemetry (summed over labels).
DELTA_COUNTERS = (
    names.CLOCK_SWEEPS_TOTAL,
    names.CLOCK_SWEEP_STEPS_TOTAL,
    names.CLOCK_CELLS_CLEANED_TOTAL,
    names.LOCK_ACQUIRES_TOTAL,
    names.LOCK_CONTENTION_TOTAL,
    names.LOCK_WAIT_SECONDS_TOTAL,
    names.ENGINE_BATCH_ITEMS_TOTAL,
    names.ENGINE_BATCHES_TOTAL,
    names.OBS_EVENTS_TOTAL,
    names.AUDIT_CYCLES_TOTAL,
    names.SHARD_MERGES_TOTAL,
)

#: Gauge series carried at their worst (max) label set.
DELTA_GAUGES = (
    names.CLOCK_SWEEP_LAG_STEPS,
    names.CLOCK_FILL_RATIO,
)

#: Histogram series carried as ``_sum``/``_count`` scalars.
DELTA_HISTOGRAMS = (
    names.ENGINE_BATCH_SECONDS,
    names.ENGINE_BATCH_SIZE,
    names.SHARD_MERGE_SECONDS,
)


def aggregate_snapshot(snapshot: "Optional[Mapping[str, Any]]",
                       ) -> "Dict[str, float]":
    """Reduce a registry snapshot to the explanatory scalar dict.

    Accepts the JSON shape of :meth:`MetricsRegistry.snapshot`
    (``{"counters": [...], "gauges": [...], "histograms": [...]}``);
    ``None`` or an empty snapshot reduces to ``{}``. Counters sum over
    label sets (total work is what explains a slowdown), gauges take
    the max (the worst shard/task is the story), histograms contribute
    their ``_sum`` and ``_count``.
    """
    out: "Dict[str, float]" = {}
    if not snapshot:
        return out
    wanted_counters = set(DELTA_COUNTERS)
    wanted_gauges = set(DELTA_GAUGES)
    wanted_histograms = set(DELTA_HISTOGRAMS)
    for entry in snapshot.get("counters", ()):
        name = entry.get("name")
        if name in wanted_counters:
            out[name] = out.get(name, 0.0) + float(entry.get("value", 0.0))
    for entry in snapshot.get("gauges", ()):
        name = entry.get("name")
        if name in wanted_gauges:
            value = float(entry.get("value", 0.0))
            out[name] = max(out.get(name, value), value)
    for entry in snapshot.get("histograms", ()):
        name = entry.get("name")
        if name in wanted_histograms:
            out[f"{name}_sum"] = (out.get(f"{name}_sum", 0.0)
                                  + float(entry.get("sum", 0.0)))
            out[f"{name}_count"] = (out.get(f"{name}_count", 0.0)
                                    + float(entry.get("count", 0.0)))
    return out


def delta_between(before: "Mapping[str, float]",
                  after: "Mapping[str, float]") -> "Dict[str, float]":
    """After-minus-before on monotonic keys, max on gauge keys."""
    gauge_keys = set(DELTA_GAUGES)
    out: "Dict[str, float]" = {}
    for key, value in after.items():
        if key in gauge_keys:
            out[key] = value
        else:
            out[key] = value - before.get(key, 0.0)
    return out


class capture_delta:
    """``with capture_delta() as cap:`` — metric deltas over a section.

    Reads the live registry on entry and exit; ``cap.delta`` holds the
    after-minus-before explanatory dict. While instrumentation is
    disabled the capture is inert and ``cap.delta`` stays empty, so
    callers need no guard of their own.
    """

    def __init__(self) -> None:
        self.delta: "Dict[str, float]" = {}
        self._before: "Dict[str, float]" = {}
        self._active = False

    def __enter__(self) -> "capture_delta":
        self._active = _obs.ENABLED
        if self._active:
            self._before = aggregate_snapshot(_obs.registry().snapshot())
        return self

    def __exit__(self, *exc: Any) -> bool:
        if self._active:
            after = aggregate_snapshot(_obs.registry().snapshot())
            self.delta = delta_between(self._before, after)
        return False


# ----------------------------------------------------------------------
# Perf's own instrumentation (repro_perf_* series)
# ----------------------------------------------------------------------

def publish_record(bench: str,
                   headlines: "Mapping[str, float]") -> None:
    """Count one ledger append and publish its headline gauges.

    Call sites gate on ``_obs.ENABLED``; like every recorder, this
    also tolerates direct calls by writing into the null registry.
    """
    _obs.series(names.PERF_RECORDS_TOTAL, {"bench": bench}).inc()
    for metric, value in headlines.items():
        _obs.series(names.PERF_HEADLINE,
                    {"bench": bench, "metric": metric}).set(value)


def publish_compare(bench: str, status: str) -> None:
    """Count one comparison verdict (and regressions separately)."""
    _obs.series(names.PERF_COMPARES_TOTAL, {"status": status}).inc()
    if status == "regressed":
        _obs.series(names.PERF_REGRESSIONS_TOTAL, {"bench": bench}).inc()
