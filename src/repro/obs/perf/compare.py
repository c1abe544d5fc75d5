"""Noise-aware current-vs-baseline comparison over the perf ledger.

Baselines are committed JSON files under ``benchmarks/baselines/``, one
per benchmark, each carrying *samples* (several recorded values per
headline metric) rather than a single blessed number — the comparator
(:func:`compare`) fits a MAD noise band on those samples via
:func:`repro.bench.stats.classify` and classifies the current run as
``improved`` / ``flat`` / ``regressed``, or honestly ``insufficient``
when the baseline is too thin to estimate its own noise.

Comparability is gated, not assumed:

- quick-mode records only compare against quick-mode baselines (the
  caller resolves the latest *matching* ledger record);
- non-portable headlines (absolute items/sec) only compare when the
  current host fingerprint matches the baseline's; a mismatch is a
  ``skipped`` row, never a silent pass or a bogus failure;
- percent-unit metrics classify on absolute points (an overhead going
  0.5% -> 1.5% is a 200% relative change but a one-point one).

When a metric regresses, the report explains *why* from the records'
explanatory telemetry (:mod:`repro.obs.perf.telemetry`): the metric
deltas of the current run against the baseline's, e.g.
``repro_lock_wait_seconds_total: 0.012 -> 0.037 (x3.1)``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from ...bench import stats
from .. import runtime as _obs
from .record import (
    SCHEMA_VERSION,
    PerfRecord,
    PerfSchemaError,
    host_fingerprint,
)

__all__ = [
    "Baseline",
    "BaselineMetric",
    "MetricComparison",
    "CompareReport",
    "DEFAULT_BASELINES_DIR",
    "baseline_from_records",
    "load_baselines",
    "compare",
    "explain_delta",
]

#: Where committed baselines live, relative to the repository root.
DEFAULT_BASELINES_DIR = Path("benchmarks") / "baselines"

#: Verdict statuses beyond the classifier's own (see repro.bench.stats).
SKIPPED = "skipped"

#: Explanation lines stop after this many notable series.
_MAX_EXPLANATION_LINES = 6

#: A metrics-delta ratio beyond this (or under its inverse) is notable.
_NOTABLE_RATIO = 1.5


@dataclass(frozen=True)
class BaselineMetric:
    """One headline metric's committed baseline sample set."""

    samples: "Tuple[float, ...]"
    unit: str
    higher_is_better: bool
    portable: bool

    def to_dict(self) -> "Dict[str, Any]":
        return {
            "samples": [float(s) for s in self.samples],
            "unit": self.unit,
            "higher_is_better": self.higher_is_better,
            "portable": self.portable,
        }

    @classmethod
    def from_dict(cls, payload: "Mapping[str, Any]") -> "BaselineMetric":
        try:
            return cls(
                samples=tuple(float(s) for s in payload["samples"]),
                unit=str(payload["unit"]),
                higher_is_better=bool(payload["higher_is_better"]),
                portable=bool(payload["portable"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise PerfSchemaError(f"malformed baseline metric: {exc}") \
                from exc


@dataclass(frozen=True)
class Baseline:
    """One benchmark's committed baseline."""

    bench: str
    metrics: "Dict[str, BaselineMetric]"
    host: "Dict[str, Any]" = field(default_factory=dict)
    quick: bool = False
    metrics_delta: "Dict[str, float]" = field(default_factory=dict)
    schema: int = SCHEMA_VERSION

    def to_dict(self) -> "Dict[str, Any]":
        return {
            "schema": self.schema,
            "bench": self.bench,
            "quick": self.quick,
            "host": dict(self.host),
            "metrics": {name: m.to_dict()
                        for name, m in sorted(self.metrics.items())},
            "metrics_delta": {k: float(v)
                              for k, v in self.metrics_delta.items()},
        }

    @classmethod
    def from_dict(cls, payload: "Mapping[str, Any]") -> "Baseline":
        schema = payload.get("schema")
        if schema != SCHEMA_VERSION:
            raise PerfSchemaError(
                f"unsupported baseline schema {schema!r} "
                f"(this library reads version {SCHEMA_VERSION})"
            )
        try:
            return cls(
                bench=str(payload["bench"]),
                metrics={
                    str(name): BaselineMetric.from_dict(m)
                    for name, m in dict(payload["metrics"]).items()
                },
                host=dict(payload.get("host") or {}),
                quick=bool(payload.get("quick", False)),
                metrics_delta={
                    str(k): float(v)
                    for k, v in (payload.get("metrics_delta") or {}).items()
                },
            )
        except PerfSchemaError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise PerfSchemaError(f"malformed baseline: {exc}") from exc


def baseline_from_records(records: "List[PerfRecord]") -> Baseline:
    """Fold several ledger records into one baseline.

    Every record must describe the same benchmark in the same mode;
    each headline metric pools its value across the records as the
    baseline sample set. Host and explanatory telemetry come
    from the newest record.
    """
    if not records:
        raise PerfSchemaError("cannot build a baseline from zero records")
    benches = {r.bench for r in records}
    if len(benches) != 1:
        raise PerfSchemaError(
            f"baseline records span several benchmarks: {sorted(benches)}"
        )
    modes = {r.quick for r in records}
    if len(modes) != 1:
        raise PerfSchemaError(
            "baseline records mix quick and full modes; rebuild from "
            "records of one mode"
        )
    newest = records[-1]
    metrics: "Dict[str, BaselineMetric]" = {}
    for record in records:
        for headline in record.headlines:
            existing = metrics.get(headline.name)
            samples = (existing.samples if existing else ()) \
                + (headline.value,)
            metrics[headline.name] = BaselineMetric(
                samples=samples, unit=headline.unit,
                higher_is_better=headline.higher_is_better,
                portable=headline.portable,
            )
    return Baseline(
        bench=newest.bench, metrics=metrics, host=dict(newest.host),
        quick=newest.quick,
        metrics_delta=dict(newest.metrics_delta),
    )


def load_baselines(directory: "Union[str, Path]" = DEFAULT_BASELINES_DIR,
                   ) -> "Dict[str, Baseline]":
    """Every ``<bench>.json`` baseline in a directory, keyed by bench.

    A missing directory loads as empty; a malformed file raises — a
    committed baseline that cannot be read is a repository bug, not
    noise to skip.
    """
    directory = Path(directory)
    out: "Dict[str, Baseline]" = {}
    if not directory.is_dir():
        return out
    for path in sorted(directory.glob("*.json")):
        with open(path, encoding="utf-8") as handle:
            try:
                baseline = Baseline.from_dict(json.load(handle))
            except json.JSONDecodeError as exc:
                raise PerfSchemaError(
                    f"unreadable baseline {path}: {exc}") from exc
        out[baseline.bench] = baseline
    return out


def save_baseline(baseline: Baseline,
                  directory: "Union[str, Path]" = DEFAULT_BASELINES_DIR,
                  ) -> Path:
    """Write ``<bench>.json`` under ``directory``; returns the path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{baseline.bench}.json"
    path.write_text(
        json.dumps(baseline.to_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return path


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class MetricComparison:
    """One (bench, metric) verdict row."""

    bench: str
    metric: str
    unit: str
    status: str                       # classifier statuses or "skipped"
    current: "Optional[float]"
    verdict: "Optional[stats.Verdict]"
    detail: str
    explanation: "Tuple[str, ...]" = ()

    def to_dict(self) -> "Dict[str, Any]":
        out: "Dict[str, Any]" = {
            "bench": self.bench,
            "metric": self.metric,
            "unit": self.unit,
            "status": self.status,
            "current": self.current,
            "detail": self.detail,
            "explanation": list(self.explanation),
        }
        if self.verdict is not None:
            out["delta_pct"] = self.verdict.delta_pct
            out["band_pct"] = self.verdict.band_pct
            out["baseline_median"] = self.verdict.baseline_median
            out["n_baseline"] = self.verdict.n_baseline
        return out


@dataclass
class CompareReport:
    """Every verdict of one compare invocation, renderable and gating."""

    comparisons: "List[MetricComparison]" = field(default_factory=list)
    notes: "List[str]" = field(default_factory=list)

    @property
    def regressions(self) -> "List[MetricComparison]":
        return [c for c in self.comparisons if c.status == stats.REGRESSED]

    def counts(self) -> "Dict[str, int]":
        out: "Dict[str, int]" = {}
        for comparison in self.comparisons:
            out[comparison.status] = out.get(comparison.status, 0) + 1
        return out

    def exit_code(self) -> int:
        """0 when no actionable regression, 1 otherwise."""
        return 1 if self.regressions else 0

    def to_dict(self) -> "Dict[str, Any]":
        return {
            "comparisons": [c.to_dict() for c in self.comparisons],
            "counts": self.counts(),
            "notes": list(self.notes),
            "regressed": bool(self.regressions),
        }

    def render(self) -> str:
        """Plain-text report: verdict table, then regression detail."""
        lines: "List[str]" = []
        rows = []
        for c in self.comparisons:
            current = "-" if c.current is None else f"{c.current:g}"
            if c.verdict is not None and c.verdict.status != stats.INSUFFICIENT:
                baseline = f"{c.verdict.baseline_median:g}"
                pts = "pts" if c.unit == "percent" else "%"
                delta = f"{c.verdict.delta_pct:+.1f}{pts}"
                band = f"±{c.verdict.band_pct:.1f}{pts}"
            else:
                baseline = delta = band = "-"
            rows.append((c.bench, c.metric, current, baseline, delta,
                         band, c.status))
        header = ("bench", "metric", "current", "baseline", "delta",
                  "band", "verdict")
        widths = [max(len(header[i]), *(len(r[i]) for r in rows))
                  if rows else len(header[i]) for i in range(len(header))]

        def fmt(cells: "Tuple[str, ...]") -> str:
            return "  ".join(c.ljust(widths[i])
                             for i, c in enumerate(cells)).rstrip()

        lines.append(fmt(header))
        lines.append(fmt(tuple("-" * w for w in widths)))
        lines.extend(fmt(r) for r in rows)
        for c in self.comparisons:
            if c.status == stats.REGRESSED:
                lines.append("")
                lines.append(f"{c.bench}/{c.metric} REGRESSED: {c.detail}")
                for line in c.explanation:
                    lines.append(f"  {line}")
        for note in self.notes:
            lines.append(f"note: {note}")
        counts = self.counts()
        summary = ", ".join(f"{n} {status}"
                            for status, n in sorted(counts.items()))
        lines.append(f"verdicts: {summary or 'nothing to compare'}")
        return "\n".join(lines)


def explain_delta(baseline_delta: "Mapping[str, float]",
                  current_delta: "Mapping[str, float]",
                  limit: int = _MAX_EXPLANATION_LINES) -> "List[str]":
    """Human-readable lines for notably changed explanatory series.

    Compares each telemetry scalar of the current record against the
    baseline's; a series whose ratio moved beyond ×1.5 (or under its
    inverse), appeared, or vanished makes the cut, worst movers first.
    """
    if not baseline_delta and not current_delta:
        return ["no explanatory telemetry recorded on either side"]
    notable: "List[Tuple[float, str]]" = []
    for key in sorted(set(baseline_delta) | set(current_delta)):
        base = float(baseline_delta.get(key, 0.0))
        cur = float(current_delta.get(key, 0.0))
        if abs(base) < 1e-12 and abs(cur) < 1e-12:
            continue
        if abs(base) < 1e-12:
            notable.append((float("inf"),
                            f"{key}: appeared ({cur:g} vs 0 in baseline)"))
            continue
        ratio = cur / base
        if ratio >= _NOTABLE_RATIO or (0.0 <= ratio <= 1.0 / _NOTABLE_RATIO):
            severity = ratio if ratio >= 1.0 else 1.0 / max(ratio, 1e-12)
            notable.append((severity,
                            f"{key}: {base:g} -> {cur:g} (x{ratio:.2f})"))
    notable.sort(key=lambda item: -item[0])
    lines = [text for _severity, text in notable[:limit]]
    if not lines:
        return ["explanatory telemetry is within x"
                f"{_NOTABLE_RATIO:.1f} of baseline on every series"]
    return lines


def _compare_one(record: PerfRecord, baseline: Baseline,
                 metric: str, spec: BaselineMetric,
                 floor_pct: float, sigmas: float,
                 min_samples: int) -> MetricComparison:
    headline = record.headline(metric)
    if headline is None:
        return MetricComparison(
            bench=baseline.bench, metric=metric, unit=spec.unit,
            status=SKIPPED, current=None, verdict=None,
            detail="metric absent from the current record",
        )
    if not spec.portable:
        mine = host_fingerprint(record.host)
        theirs = host_fingerprint(baseline.host)
        if mine != theirs:
            return MetricComparison(
                bench=baseline.bench, metric=metric, unit=spec.unit,
                status=SKIPPED, current=headline.value, verdict=None,
                detail=f"host fingerprint mismatch ({mine} vs baseline "
                       f"{theirs}); absolute throughput is not portable",
            )
    verdict = stats.classify(
        headline.value, list(spec.samples),
        higher_is_better=spec.higher_is_better,
        min_samples=min_samples, floor_pct=floor_pct, sigmas=sigmas,
        absolute=(spec.unit == "percent"),
    )
    explanation: "Tuple[str, ...]" = ()
    if verdict.status == stats.REGRESSED:
        explanation = tuple(explain_delta(baseline.metrics_delta,
                                          record.metrics_delta))
    return MetricComparison(
        bench=baseline.bench, metric=metric, unit=spec.unit,
        status=verdict.status, current=headline.value, verdict=verdict,
        detail=verdict.detail, explanation=explanation,
    )


def compare(records: "Mapping[str, Optional[PerfRecord]]",
            baselines: "Mapping[str, Baseline]",
            floor_pct: float = stats.DEFAULT_BAND_FLOOR_PCT,
            sigmas: float = stats.DEFAULT_SIGMAS,
            min_samples: int = stats.DEFAULT_MIN_SAMPLES) -> CompareReport:
    """Compare the latest records against every committed baseline.

    ``records`` maps bench id to the latest *mode-matching* ledger
    record (or None when the ledger has none) — resolve it with
    :meth:`LedgerLoad.latest(bench, quick=baseline.quick)
    <repro.obs.perf.ledger.LedgerLoad.latest>`. Baselines with no
    record produce ``skipped`` rows; the report only gates (exit 1) on
    actionable ``regressed`` verdicts.
    """
    from . import _set_last_report
    from .telemetry import publish_compare

    report = CompareReport()
    for bench in sorted(baselines):
        baseline = baselines[bench]
        record = records.get(bench)
        if record is None:
            mode = "quick" if baseline.quick else "full"
            report.comparisons.append(MetricComparison(
                bench=bench, metric="*", unit="-", status=SKIPPED,
                current=None, verdict=None,
                detail=f"no {mode}-mode ledger record for this benchmark",
            ))
            continue
        for metric in sorted(baseline.metrics):
            report.comparisons.append(_compare_one(
                record, baseline, metric, baseline.metrics[metric],
                floor_pct, sigmas, min_samples,
            ))
    if _obs.ENABLED:
        for comparison in report.comparisons:
            publish_compare(comparison.bench, comparison.status)
    _set_last_report(report)
    return report
