"""Online accuracy auditing against a sampled exact shadow.

:class:`ShadowAuditor` closes the loop between the sketches and the
ground truth *while the stream runs*: a deterministic hash sampler
(:class:`~repro.obs.audit.sampler.ShadowSampler`) selects a small
fraction of the key space, an exact
:class:`~repro.streams.groundtruth.BatchTracker` shadows just those
keys, and on a cadence the auditor replays the sampled keys against the
live sketches to *measure* per-task error — activeness FP/FN rates,
cardinality relative error, size and span absolute/relative errors.
Observed error is published to the metrics registry next to the
:class:`~repro.obs.audit.predictor.AnalyticPredictor`'s expected error,
and a :class:`~repro.obs.audit.drift.DriftDetector` raises structured
events when the two diverge.

Sampling is per-key all-or-nothing, so the shadow's sizes and spans for
sampled keys are exact; only the cardinality estimate is scaled by
``1/rate`` (and its drift band widened by the binomial noise of that
scaling). The auditor hangs off the batch engine's ingest tap, which
fires outside the engine's timed section — audit intake never pollutes
the throughput histograms it is published beside.

Activeness subtlety: a key that expired less than one residual error
window ``T / (2^s - 2)`` ago may legitimately still test positive (the
clock guarantee only covers ``now - t < T``). The auditor therefore
measures the FP rate on *stale* keys (expired at least one error window
ago) and reports the residual stretch separately.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Mapping, Optional

import numpy as np

from ...core.params import error_window_length
from ...errors import ConfigurationError
from ...streams.groundtruth import BatchTracker
from ...timebase import WindowKind, WindowSpec
from .. import names
from .. import runtime as _obs
from .drift import DriftAlert, DriftDetector
from .predictor import AnalyticPredictor, TaskPrediction
from .sampler import ShadowSampler

__all__ = ["ShadowAuditor", "AuditReport", "TaskAudit"]

#: Offset added to the auditor's seed so the sampler hash is independent
#: of the monitor's sketch hashes even when both default to seed 0.
SAMPLER_SEED_OFFSET = 104729

#: Default audit cadence: items between cycles. At least a few windows
#: must pass for expired keys to exist, and a floor keeps tiny windows
#: from auditing every other batch.
DEFAULT_MIN_EVERY = 32768


@dataclass
class TaskAudit:
    """Observed-vs-predicted error for one task at one audit cycle.

    ``observed`` is the task's primary statistic (named by ``stat``,
    matching the predictor's); ``stats`` holds every measured rate,
    ``extra`` contextual counts/values, and ``violations`` counts of
    guarantee breaks (always expected to be zero). ``band_hi`` is the
    drift detector's divergence threshold for ``observed``.
    """

    task: str
    stat: str
    observed: float = 0.0
    predicted: float = 0.0
    samples: int = 0
    stats: "Dict[str, float]" = field(default_factory=dict)
    extra: "Dict[str, float]" = field(default_factory=dict)
    violations: "Dict[str, int]" = field(default_factory=dict)
    band_hi: "Optional[float]" = None
    prediction: "Optional[TaskPrediction]" = None

    def as_dict(self) -> "Dict[str, Any]":
        return {
            "task": self.task,
            "stat": self.stat,
            "observed": self.observed,
            "predicted": self.predicted,
            "samples": self.samples,
            "stats": dict(self.stats),
            "extra": dict(self.extra),
            "violations": dict(self.violations),
            "band_hi": self.band_hi,
        }


@dataclass
class AuditReport:
    """One full audit cycle: every task's numbers plus raised alerts."""

    now: float
    cycle: int
    items_seen: int
    sampled_items: int
    shadow_keys: int
    sample_rate: float
    tasks: "Dict[str, TaskAudit]" = field(default_factory=dict)
    alerts: "List[DriftAlert]" = field(default_factory=list)
    duration_seconds: float = 0.0

    def as_dict(self) -> "Dict[str, Any]":
        return {
            "now": self.now,
            "cycle": self.cycle,
            "items_seen": self.items_seen,
            "sampled_items": self.sampled_items,
            "shadow_keys": self.shadow_keys,
            "sample_rate": self.sample_rate,
            "tasks": {t: a.as_dict() for t, a in self.tasks.items()},
            "alerts": [
                {"task": a.task, "kind": a.kind, "severity": a.severity,
                 "observed": a.observed, "predicted": a.predicted,
                 "threshold": a.threshold, "message": a.message}
                for a in self.alerts
            ],
            "duration_seconds": self.duration_seconds,
        }

    def lines(self) -> "List[str]":
        """Human-readable rendering (the CLI's audit view)."""
        out = [
            f"audit cycle {self.cycle} @ t={self.now:g}  "
            f"(items={self.items_seen}, sampled={self.sampled_items}, "
            f"shadow keys={self.shadow_keys}, rate={self.sample_rate:g})"
        ]
        header = (f"  {'task':<12} {'stat':<12} {'observed':>10} "
                  f"{'predicted':>10} {'band':>10} {'samples':>8}")
        out.append(header)
        for task, audit in self.tasks.items():
            band = (f"{audit.band_hi:.4g}"
                    if audit.band_hi is not None else "-")
            out.append(
                f"  {task:<12} {audit.stat:<12} {audit.observed:>10.4g} "
                f"{audit.predicted:>10.4g} {band:>10} {audit.samples:>8}"
            )
        if self.alerts:
            for alert in self.alerts:
                out.append(f"  [{alert.severity.upper()}] {alert.message}")
        else:
            out.append("  no drift alerts")
        return out


class ShadowAuditor:
    """Live accuracy auditor for an :class:`~repro.monitor.ItemBatchMonitor`.

    Parameters
    ----------
    monitor:
        The monitor under audit. Install via
        :meth:`ItemBatchMonitor.audited`, which wires the batch-engine
        tap and cadence automatically.
    sample_rate:
        Fraction of the key space shadowed exactly, in ``(0, 1]``.
    every_items:
        Audit cadence in stream items (default: a few windows' worth,
        at least :data:`DEFAULT_MIN_EVERY`).
    seed:
        Sampler seed (offset internally so the sampled subset is
        uncorrelated with sketch cell placement).
    predictor, detector:
        Injectable for custom error models or drift bands.
    """

    def __init__(self, monitor, sample_rate: float = 0.01,
                 every_items: "Optional[int]" = None, seed: int = 0,
                 predictor: "Optional[AnalyticPredictor]" = None,
                 detector: "Optional[DriftDetector]" = None):
        self.monitor = monitor
        self.sample_rate = float(sample_rate)
        self.sampler = ShadowSampler(sample_rate,
                                     seed=seed + SAMPLER_SEED_OFFSET)
        # The shadow is always time-based, fed the engine's *resolved*
        # float arrival times: for count-based windows those are the
        # global item counts, which a count-based tracker (counting only
        # sampled observations) could not reproduce.
        self.tracker = BatchTracker(
            WindowSpec(monitor.window.length, WindowKind.TIME)
        )
        self.predictor = predictor if predictor is not None else \
            AnalyticPredictor(monitor)
        self.detector = detector if detector is not None else \
            DriftDetector(sample_rate=self.sample_rate)
        if every_items is None:
            every_items = max(8 * int(monitor.window.length),
                              DEFAULT_MIN_EVERY)
        if every_items < 1:
            raise ConfigurationError(
                f"audit cadence must be >= 1 item, got {every_items}"
            )
        self.every_items = int(every_items)
        self.cycles = 0
        self.items_seen = 0
        self.sampled_items = 0
        self.last_report: "Optional[AuditReport]" = None
        self._since_audit = 0
        # The tracker's own clock only advances on *sampled* items, so
        # the auditor keeps the true stream time itself.
        self._stream_now = 0.0

    # ------------------------------------------------------------- intake

    def ingest(self, items, times) -> None:
        """Batch-engine tap: fold the sampled slice of a batch in.

        ``times`` is the engine's resolved float64 arrival-time array
        aligned with ``items`` (item counts for count-based windows).
        """
        count = len(times)
        if count == 0:
            return
        self.items_seen += count
        self._since_audit += count
        self._stream_now = float(times[-1])
        mask = self.sampler.mask(items)
        picked = np.flatnonzero(mask)
        if picked.size:
            keys = (items[picked].tolist() if isinstance(items, np.ndarray)
                    else [items[i] for i in picked.tolist()])
            self.tracker.observe_many(keys, times[picked].tolist())
            self.sampled_items += int(picked.size)
        if _obs.ENABLED:
            _obs.record_audit_ingest(int(picked.size),
                                     self.tracker.keys_seen())

    def ingest_one(self, key, t: float) -> None:
        """Scalar twin of :meth:`ingest` (monitor's per-item path)."""
        self.items_seen += 1
        self._since_audit += 1
        self._stream_now = float(t)
        sampled = self.sampler.contains(key)
        if sampled:
            self.tracker.observe(int(key) if isinstance(key, np.integer)
                                 else key, float(t))
            self.sampled_items += 1
        if _obs.ENABLED:
            _obs.record_audit_ingest(1 if sampled else 0,
                                     self.tracker.keys_seen())

    @property
    def due(self) -> bool:
        """Has a full cadence of items arrived since the last audit?"""
        return self._since_audit >= self.every_items

    # -------------------------------------------------------------- audit

    def audit(self, now: "Optional[float]" = None) -> AuditReport:
        """Run one audit cycle and publish/alert on its results."""
        started = perf_counter()
        if now is None:
            now = self._stream_now
        monitor = self.monitor
        # Publishes the live fill gauges the predictor prefers to read.
        monitor.metrics()
        predictions = self.predictor.predict()

        self.cycles += 1
        report = AuditReport(
            now=now, cycle=self.cycles, items_seen=self.items_seen,
            sampled_items=self.sampled_items,
            shadow_keys=self.tracker.keys_seen(),
            sample_rate=self.sample_rate,
        )
        auditors = {
            "activeness": self._audit_activeness,
            "cardinality": self._audit_cardinality,
            "size": self._audit_size,
            "span": self._audit_span,
        }
        for task, run in auditors.items():
            prediction = predictions.get(task)
            if prediction is None:
                continue
            audit = run(now, prediction)
            audit.predicted = prediction.expected
            audit.prediction = prediction
            audit.band_hi = self.detector.band_limit(
                task, audit.predicted, audit.samples
            )
            report.tasks[task] = audit

        report.alerts = self.detector.check(report)
        report.duration_seconds = perf_counter() - started
        self._publish(report)
        self.last_report = report
        self._since_audit = 0
        return report

    # ---------------------------------------------------- per-task audits

    def _audit_activeness(self, now: float,
                          prediction: TaskPrediction) -> TaskAudit:
        sketch = self.monitor.activeness
        residual = prediction.detail.get(
            "error_window", error_window_length(self.monitor.window.length,
                                                sketch.s)
        )
        active, residual_keys, stale = self.tracker.partition_keys(
            now, residual=residual
        )
        fp_rate = self._positive_rate(sketch, stale)
        fn_count = 0
        fn_rate = 0.0
        if active:
            hits = sketch.contains_many(active)
            fn_count = int(np.count_nonzero(~hits))
            fn_rate = fn_count / len(active)
        residual_rate = self._positive_rate(sketch, residual_keys)
        return TaskAudit(
            task="activeness", stat="fp_rate", observed=fp_rate,
            samples=len(stale),
            stats={"fp_rate": fp_rate, "fn_rate": fn_rate,
                   "residual_active_rate": residual_rate},
            extra={"active_keys": len(active),
                   "residual_keys": len(residual_keys),
                   "stale_keys": len(stale)},
            violations={"false_negatives": fn_count},
        )

    @staticmethod
    def _positive_rate(sketch, keys) -> float:
        if not keys:
            return 0.0
        return float(np.count_nonzero(sketch.contains_many(keys))) / len(keys)

    def _audit_cardinality(self, now: float,
                           prediction: TaskPrediction) -> TaskAudit:
        sketch = self.monitor.cardinality
        estimate = sketch.estimate()
        sampled_active = self.tracker.active_cardinality(now)
        truth = sampled_active / self.sample_rate
        re = (abs(estimate.value - truth) / max(truth, 1.0)
              if sampled_active else 0.0)
        return TaskAudit(
            task="cardinality", stat="re", observed=re,
            samples=sampled_active,
            stats={"re": re},
            extra={"estimate": estimate.value, "truth_scaled": truth,
                   "sampled_active": float(sampled_active),
                   "saturated": float(estimate.saturated)},
        )

    def _audit_size(self, now: float,
                    prediction: TaskPrediction) -> TaskAudit:
        sketch = self.monitor.size_sketch
        active, _, _ = self.tracker.partition_keys(now)
        if not active:
            return TaskAudit(task="size", stat="exceed_rate",
                             violations={"underestimates": 0})
        estimates = sketch.query_many(active).astype(np.float64)
        truth = np.array(
            [self.tracker.state(key).size for key in active],
            dtype=np.float64,
        )
        err = estimates - truth
        abs_err = np.abs(err)
        # Saturated counters are the one sanctioned way a Count-Min
        # answer can fall below the truth; anything else is a violation.
        saturated = estimates >= sketch.counter_max
        underestimates = int(np.count_nonzero((err < 0) & ~saturated))
        threshold = prediction.detail.get("abs_threshold", np.inf)
        exceed_rate = float(np.mean(abs_err > threshold))
        audit = TaskAudit(
            task="size", stat="exceed_rate", observed=exceed_rate,
            samples=len(active),
            stats={"exceed_rate": exceed_rate,
                   "are": float(np.mean(abs_err / np.maximum(truth, 1.0))),
                   "aae": float(np.mean(abs_err))},
            extra={"abs_threshold": float(threshold),
                   "saturated": float(np.count_nonzero(saturated))},
            violations={"underestimates": underestimates},
        )
        self._record_abs_errors("size", abs_err)
        return audit

    def _audit_span(self, now: float,
                    prediction: TaskPrediction) -> TaskAudit:
        sketch = self.monitor.span_sketch
        active, _, _ = self.tracker.partition_keys(now)
        if not active:
            return TaskAudit(task="span", stat="err_rate",
                             violations={"false_negatives": 0,
                                         "underestimates": 0})
        result = sketch.query_many(active)
        truth = np.array(
            [now - self.tracker.state(key).start for key in active],
            dtype=np.float64,
        )
        fn_count = int(np.count_nonzero(~result.active))
        hit = result.active
        err = result.span[hit] - truth[hit]
        abs_err = np.abs(err)
        tolerance = 1e-9 * self.monitor.window.length
        wrong = int(np.count_nonzero(abs_err > tolerance)) + fn_count
        err_rate = wrong / len(active)
        underestimates = int(np.count_nonzero(err < -tolerance))
        audit = TaskAudit(
            task="span", stat="err_rate", observed=err_rate,
            samples=len(active),
            stats={"err_rate": err_rate,
                   "fn_rate": fn_count / len(active),
                   "are": float(np.mean(abs_err / np.maximum(truth[hit], 1.0)))
                   if abs_err.size else 0.0,
                   "aae": float(np.mean(abs_err)) if abs_err.size else 0.0},
            extra={"active_keys": float(len(active))},
            violations={"false_negatives": fn_count,
                        "underestimates": underestimates},
        )
        self._record_abs_errors("span", abs_err)
        return audit

    # ---------------------------------------------------------- publishing

    @staticmethod
    def _record_abs_errors(task: str, abs_err: np.ndarray) -> None:
        if not _obs.ENABLED or abs_err.size == 0:
            return
        _obs.series(names.AUDIT_ABS_ERROR, {"task": task}).observe_many(
            abs_err)

    def _publish(self, report: AuditReport) -> None:
        """Push the cycle's numbers into the registry and event ring."""
        if not _obs.ENABLED:
            return
        for alert in report.alerts:
            _obs.record_event(
                time=report.now, severity=alert.severity,
                kind=f"audit-{alert.kind}", message=alert.message,
                fields={"task": alert.task, "observed": alert.observed,
                        "predicted": alert.predicted,
                        "threshold": alert.threshold},
            )
        for task, audit in report.tasks.items():
            labels = {"task": task, "stat": audit.stat}
            _obs.series(names.AUDIT_OBSERVED_ERROR, labels).set(
                audit.observed)
            _obs.series(names.AUDIT_PREDICTED_ERROR, labels).set(
                audit.predicted)
            error_window = (audit.prediction.detail.get("error_window")
                            if audit.prediction is not None else None)
            if error_window is not None:
                _obs.series(names.AUDIT_ERROR_WINDOW_LENGTH, labels).set(
                    error_window)
        for alert in report.alerts:
            _obs.series(names.AUDIT_ALERTS_TOTAL,
                        {"task": alert.task, "kind": alert.kind}).inc()
        _obs.series(names.AUDIT_CYCLES_TOTAL).inc()
        _obs.series(names.AUDIT_CYCLE_SECONDS).observe(
            report.duration_seconds)
