"""Performance observability: ledger, regression gates, perf telemetry.

The subsystem that turns one-off benchmark prints into a trajectory:

- :mod:`~repro.obs.perf.record` — the versioned :class:`PerfRecord`
  schema (the result's table, headline scalars, host facts, git
  revision), the one shape a benchmark result is stored in;
- :mod:`~repro.obs.perf.ledger` — the append-only JSONL
  :class:`PerfLedger` tolerating corrupted trailing lines;
- :func:`archive` — the one writer: builds a run's record once, writes
  the root ``BENCH_<bench>.json``, appends the ledger line and
  publishes ``repro_perf_*``;
- :mod:`~repro.obs.perf.compare` — committed baseline files (the last
  N records of a benchmark) plus the noise-aware comparator
  (:func:`compare`) classifying runs as improved/flat/regressed with
  MAD noise bands and explanatory metric deltas;
- :mod:`~repro.obs.perf.telemetry` — registry-snapshot reduction for
  the "why" behind a regression, and perf's own ``repro_perf_*``
  series;
- :mod:`~repro.obs.perf.cli` — ``python -m repro.obs perf
  {record,compare,trend,report,baseline}``.

The statistics the comparator leans on (median-of-ratios estimator,
MAD bands, :func:`~repro.bench.stats.classify`) live in
:mod:`repro.bench.stats` so benchmarks can use them without importing
the obs tree.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Optional, Union

from .. import runtime as _obs
from .compare import (
    DEFAULT_BASELINES_DIR,
    CompareReport,
    MetricComparison,
    compare,
    explain_delta,
    load_baselines,
    pooled_samples,
    save_baseline,
)
from .ledger import LedgerLoad, PerfLedger, default_ledger_path
from .record import (
    SCHEMA_VERSION,
    Headline,
    PerfRecord,
    PerfSchemaError,
    current_git_rev,
    extract_headlines,
    host_facts,
    host_fingerprint,
)
from .telemetry import (
    aggregate_snapshot,
    capture_delta,
    delta_between,
    publish_compare,
    publish_record,
)

__all__ = [
    "SCHEMA_VERSION",
    "Headline",
    "PerfRecord",
    "PerfSchemaError",
    "extract_headlines",
    "host_facts",
    "host_fingerprint",
    "current_git_rev",
    "PerfLedger",
    "LedgerLoad",
    "default_ledger_path",
    "archive",
    "CompareReport",
    "MetricComparison",
    "DEFAULT_BASELINES_DIR",
    "pooled_samples",
    "load_baselines",
    "save_baseline",
    "compare",
    "explain_delta",
    "aggregate_snapshot",
    "capture_delta",
    "delta_between",
    "publish_record",
    "publish_compare",
    "last_report",
    "perf_payload",
]

def archive(bench: str, result: Any, *, quick: bool,
            root: "Union[str, Path]", ledger: PerfLedger,
            timestamp: "Optional[float]" = None) -> PerfRecord:
    """Store one benchmark run: the only writer of its record.

    Builds the :class:`PerfRecord` once (the explanatory metrics delta
    from the result's registry ``snapshot``, if it archived one), then
    writes ``<root>/BENCH_<bench>.json``, appends the same record to
    ``ledger`` and, while instrumentation is enabled, publishes its
    ``repro_perf_*`` series.
    ``quick`` is the mode the run actually used.
    """
    record = PerfRecord.from_result(
        bench, result, timestamp=timestamp, quick=quick,
        metrics_delta=aggregate_snapshot(
            getattr(result, "extras", {}).get("snapshot")),
    )
    path = Path(root) / f"BENCH_{bench}.json"
    path.write_text(json.dumps(record.to_dict(), indent=2, sort_keys=True)
                    + "\n", encoding="utf-8")
    ledger.append(record)
    if _obs.ENABLED:
        publish_record(bench, {h.name: h.value for h in record.headlines})
    return record


#: The most recent CompareReport produced in this process, for /perf.json.
_LAST_REPORT: "Optional[CompareReport]" = None


def _set_last_report(report: CompareReport) -> None:
    global _LAST_REPORT
    _LAST_REPORT = report


def last_report() -> "Optional[CompareReport]":
    """The last comparison evaluated in this process, if any."""
    return _LAST_REPORT


def perf_payload(limit: int = 20,
                 ledger: "Optional[PerfLedger]" = None) -> "Dict[str, Any]":
    """The ``/perf.json`` payload: ledger tail plus last comparison.

    Reads the ledger (default: ``REPRO_PERF_LEDGER`` or the standard
    path) fresh on every call so a long-lived metrics server reflects
    benchmarks run after it started.
    """
    if ledger is None:
        ledger = PerfLedger()
    load = ledger.load()
    tail = load.records[-limit:] if limit > 0 else []
    return {
        "ledger": str(ledger.path),
        "total_records": len(load.records),
        "skipped_lines": load.skipped,
        "records": [record.to_dict() for record in tail],
        "last_compare": (_LAST_REPORT.to_dict()
                         if _LAST_REPORT is not None else None),
    }
