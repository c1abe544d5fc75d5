"""Tests for ``repro.obs.audit`` — sampler, shadow auditor, drift alerts.

The acceptance pair at the bottom pins the subsystem's contract: on a
correctly-sized monitor the observed activeness FP rate stays inside
the predictor's band, and a deliberately undersized monitor trips a
drift alert.
"""

import numpy as np
import pytest

from repro import ItemBatchMonitor, count_window, obs
from repro.errors import ConfigurationError
from repro.obs import names
from repro.obs.audit import (
    AnalyticPredictor,
    DriftBand,
    DriftDetector,
    ShadowAuditor,
    ShadowSampler,
)
from repro.obs.audit.shadow import AuditReport, TaskAudit
from repro.streams.groundtruth import BatchTracker
from repro.timebase import WindowKind, WindowSpec


@pytest.fixture(autouse=True)
def _obs_disabled_after():
    yield
    obs.disable()


def _uniform_stream(n_items=60_000, key_space=20_000, seed=5):
    rng = np.random.default_rng(seed)
    return rng.integers(0, key_space, size=n_items, dtype=np.int64)


def _drive(monitor, keys, chunk=4096):
    for pos in range(0, len(keys), chunk):
        monitor.observe_many(keys[pos:pos + chunk])


class TestShadowSampler:
    def test_rate_validated(self):
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ConfigurationError, match="sample rate"):
                ShadowSampler(bad)

    def test_mask_is_deterministic_and_seeded(self):
        keys = np.arange(50_000, dtype=np.int64)
        a = ShadowSampler(0.1, seed=3).mask(keys)
        b = ShadowSampler(0.1, seed=3).mask(keys)
        c = ShadowSampler(0.1, seed=4).mask(keys)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_rate_is_approximately_honoured(self):
        keys = np.arange(200_000, dtype=np.int64)
        for rate in (0.01, 0.1, 0.5):
            hit = ShadowSampler(rate, seed=1).mask(keys).mean()
            assert hit == pytest.approx(rate, rel=0.1)

    def test_rate_one_samples_everything(self):
        sampler = ShadowSampler(1.0, seed=9)
        assert sampler.mask(np.arange(100, dtype=np.int64)).all()
        assert sampler.contains("anything")

    def test_scalar_contains_matches_mask(self):
        keys = np.arange(2_000, dtype=np.int64)
        sampler = ShadowSampler(0.2, seed=7)
        mask = sampler.mask(keys)
        scalar = np.array([sampler.contains(int(k)) for k in keys])
        assert np.array_equal(mask, scalar)

    def test_per_key_all_or_nothing(self):
        sampler = ShadowSampler(0.3, seed=2)
        repeated = np.array([42] * 10 + [43] * 10, dtype=np.int64)
        mask = sampler.mask(repeated)
        assert len(set(mask[:10].tolist())) == 1
        assert len(set(mask[10:].tolist())) == 1


class TestAuditorIntake:
    def test_audited_installs_engine_tap(self):
        monitor = ItemBatchMonitor(count_window(256), memory="16KB", seed=1)
        auditor = monitor.audited(sample_rate=0.5, every_items=10**9)
        assert monitor.auditor is auditor
        assert monitor._sketches[0].engine.tap == auditor.ingest

    def test_bulk_and_scalar_paths_feed_the_sampler(self):
        monitor = ItemBatchMonitor(count_window(256), memory="16KB", seed=1)
        auditor = monitor.audited(sample_rate=1.0, every_items=10**9)
        monitor.observe_many(np.arange(100, dtype=np.int64))
        assert auditor.items_seen == 100
        assert auditor.sampled_items == 100
        monitor.observe(12345)
        assert auditor.items_seen == 101
        # Count-based stream: resolved times are global item counts.
        assert auditor._stream_now == 101.0

    def test_full_rate_shadow_matches_independent_tracker(self):
        keys = _uniform_stream(n_items=5_000, key_space=400)
        window = 256
        monitor = ItemBatchMonitor(count_window(window), memory="64KB",
                                   seed=1)
        auditor = monitor.audited(sample_rate=1.0, every_items=10**9)
        _drive(monitor, keys, chunk=512)

        reference = BatchTracker(WindowSpec(float(window), WindowKind.TIME))
        for count, key in enumerate(keys, start=1):
            reference.observe(int(key), float(count))
        assert auditor.tracker.keys_seen() == reference.keys_seen()
        now = float(len(keys))
        assert (auditor.tracker.active_cardinality(now)
                == reference.active_cardinality(now))
        for key in reference.active_keys(now):
            assert auditor.tracker.size(key, now) == reference.size(key, now)
            assert auditor.tracker.span(key, now) == reference.span(key, now)

    def test_sampled_rate_tracks_only_sampled_keys(self):
        keys = _uniform_stream(n_items=20_000, key_space=5_000)
        monitor = ItemBatchMonitor(count_window(1024), memory="64KB", seed=1)
        auditor = monitor.audited(sample_rate=0.05, every_items=10**9)
        _drive(monitor, keys)
        assert 0 < auditor.sampled_items < len(keys)
        assert auditor.sampled_items == pytest.approx(len(keys) * 0.05,
                                                      rel=0.5)
        sampler = auditor.sampler
        for key in list(auditor.tracker._states)[:50]:
            assert sampler.contains(key)

    def test_cadence_triggers_audit_inside_observe_many(self):
        keys = _uniform_stream(n_items=6_000, key_space=500)
        monitor = ItemBatchMonitor(count_window(256), memory="32KB", seed=1)
        auditor = monitor.audited(sample_rate=0.5, every_items=2_000)
        _drive(monitor, keys, chunk=500)
        assert auditor.cycles >= 2
        assert auditor.last_report is not None
        assert auditor.last_report.cycle == auditor.cycles

    def test_scalar_observe_triggers_audit(self):
        monitor = ItemBatchMonitor(count_window(64), memory="16KB", seed=1)
        auditor = monitor.audited(sample_rate=1.0, every_items=100)
        for key in range(150):
            monitor.observe(key % 20)
        assert auditor.cycles >= 1

    def test_intake_records_metrics_when_enabled(self):
        reg = obs.enable()
        monitor = ItemBatchMonitor(count_window(256), memory="16KB", seed=1)
        auditor = monitor.audited(sample_rate=1.0, every_items=10**9)
        monitor.observe_many(np.arange(500, dtype=np.int64))
        sampled = reg.get(names.AUDIT_SAMPLED_ITEMS_TOTAL)
        assert sampled is not None and sampled.value == 500.0
        shadow = reg.get(names.AUDIT_SHADOW_KEYS)
        assert shadow.value == float(auditor.tracker.keys_seen())


class TestAnalyticPredictor:
    def _monitor(self):
        monitor = ItemBatchMonitor(count_window(1024), memory="64KB", seed=1)
        monitor.observe_many(_uniform_stream(n_items=4_000, key_space=2_000))
        return monitor

    def test_covers_every_enabled_task(self):
        predictions = AnalyticPredictor(self._monitor()).predict()
        assert set(predictions) == {"activeness", "cardinality", "size",
                                    "span"}
        for task, prediction in predictions.items():
            assert prediction.task == task
            assert prediction.expected >= 0.0
            assert prediction.detail["error_window"] > 0.0

    def test_activeness_uses_live_fill(self):
        monitor = self._monitor()
        prediction = AnalyticPredictor(monitor).predict()["activeness"]
        sketch = monitor.activeness
        fill = sketch.clock.fill_ratio()
        assert fill > 0.0
        assert prediction.expected == pytest.approx(fill ** sketch.k)
        assert prediction.detail["model_fpr"] >= 0.0

    def test_error_window_matches_formula(self):
        monitor = self._monitor()
        prediction = AnalyticPredictor(monitor).predict()["activeness"]
        s = monitor.activeness.s
        expected = 1024.0 / ((1 << s) - 2)
        assert prediction.detail["error_window"] == pytest.approx(expected)

    def test_size_prediction_carries_abs_threshold(self):
        prediction = AnalyticPredictor(self._monitor()).predict()["size"]
        assert prediction.stat == "exceed_rate"
        assert 0.0 <= prediction.expected <= 1.0
        assert prediction.detail["abs_threshold"] > 0.0


class TestDriftDetector:
    def _report(self, **tasks):
        report = AuditReport(now=100.0, cycle=1, items_seen=1000,
                             sampled_items=500, shadow_keys=50,
                             sample_rate=0.5)
        report.tasks.update(tasks)
        return report

    def test_quiet_report_raises_nothing(self):
        report = self._report(activeness=TaskAudit(
            task="activeness", stat="fp_rate", observed=0.001,
            predicted=0.002, samples=500,
            violations={"false_negatives": 0}))
        assert DriftDetector().check(report) == []

    def test_divergence_and_budget_warnings(self):
        report = self._report(activeness=TaskAudit(
            task="activeness", stat="fp_rate", observed=0.9,
            predicted=0.001, samples=2000,
            violations={"false_negatives": 0}))
        alerts = DriftDetector().check(report)
        kinds = {a.kind for a in alerts}
        assert kinds == {"divergence", "budget"}
        assert all(a.severity == "warning" for a in alerts)

    def test_violation_is_critical_and_sorted_first(self):
        report = self._report(span=TaskAudit(
            task="span", stat="err_rate", observed=0.9, predicted=0.001,
            samples=100, violations={"false_negatives": 3}))
        alerts = DriftDetector().check(report)
        assert alerts[0].kind == "violation"
        assert alerts[0].severity == "critical"

    def test_predicted_budget_is_info(self):
        report = self._report(activeness=TaskAudit(
            task="activeness", stat="fp_rate", observed=0.3,
            predicted=0.4, samples=1000,
            violations={"false_negatives": 0}))
        alerts = DriftDetector().check(report)
        assert {a.kind for a in alerts} >= {"predicted-budget"}
        info = [a for a in alerts if a.kind == "predicted-budget"]
        assert info[0].severity == "info"

    def test_zero_samples_never_diverges(self):
        report = self._report(activeness=TaskAudit(
            task="activeness", stat="fp_rate", observed=1.0,
            predicted=0.0, samples=0, violations={"false_negatives": 0}))
        assert DriftDetector().check(report) == []

    def test_small_samples_widen_the_band(self):
        detector = DriftDetector()
        tight = detector.band_limit("activeness", 0.01, 100_000)
        loose = detector.band_limit("activeness", 0.01, 10)
        assert loose > tight

    def test_band_overrides_merge_over_defaults(self):
        detector = DriftDetector(
            bands={"activeness": DriftBand(factor=2.0, slack=0.0,
                                           ceiling=0.01)})
        assert detector.band_for("activeness").ceiling == 0.01
        assert detector.band_for("span").ceiling == 0.5

    def test_band_validation(self):
        with pytest.raises(ConfigurationError):
            DriftBand(factor=0.5)
        with pytest.raises(ConfigurationError):
            DriftBand(ceiling=0.0)


class TestAuditCycle:
    def _audited_run(self, memory, sample_rate=0.05, seed=5):
        keys = _uniform_stream(seed=seed)
        monitor = ItemBatchMonitor(count_window(4096), memory=memory,
                                   seed=1)
        auditor = monitor.audited(sample_rate=sample_rate,
                                  every_items=10**9)
        _drive(monitor, keys)
        report = auditor.audit()
        return monitor, auditor, report

    def test_report_covers_all_tasks_with_samples(self):
        _, _, report = self._audited_run("128KB")
        assert set(report.tasks) == {"activeness", "cardinality", "size",
                                     "span"}
        for audit in report.tasks.values():
            assert audit.samples > 0
            assert audit.band_hi is not None

    def test_shadow_truth_makes_size_and_span_exact_or_over(self):
        _, _, report = self._audited_run("128KB")
        size = report.tasks["size"]
        span = report.tasks["span"]
        assert size.violations["underestimates"] == 0
        assert span.violations["false_negatives"] == 0
        assert span.violations["underestimates"] == 0

    def test_gauges_counters_and_events_published(self):
        reg = obs.enable()
        _, auditor, report = self._audited_run("128KB")
        for task in report.tasks:
            stat = report.tasks[task].stat
            observed = reg.get(names.AUDIT_OBSERVED_ERROR,
                               labels={"task": task, "stat": stat})
            predicted = reg.get(names.AUDIT_PREDICTED_ERROR,
                                labels={"task": task, "stat": stat})
            assert observed is not None
            assert observed.value == pytest.approx(
                report.tasks[task].observed)
            assert predicted.value == pytest.approx(
                report.tasks[task].predicted)
        cycles = reg.get(names.AUDIT_CYCLES_TOTAL)
        assert cycles.value == float(auditor.cycles)
        seconds = reg.get(names.AUDIT_CYCLE_SECONDS)
        assert seconds.count == auditor.cycles
        abs_err = reg.get(names.AUDIT_ABS_ERROR, labels={"task": "size"})
        assert abs_err is not None and abs_err.count > 0

    # ----------------------------------------------------- acceptance

    def test_correctly_sized_monitor_stays_inside_the_band(self):
        _, _, report = self._audited_run("128KB")
        activeness = report.tasks["activeness"]
        assert activeness.samples > 50
        assert activeness.observed <= activeness.band_hi
        assert activeness.violations["false_negatives"] == 0
        assert not [a for a in report.alerts if a.severity != "info"]

    def test_undersized_monitor_trips_a_drift_alert(self):
        reg = obs.enable()
        _, _, report = self._audited_run("2KB")
        activeness = report.tasks["activeness"]
        # An undersized filter runs hot: most stale keys still probe
        # into live cells.
        assert activeness.observed > 0.25
        warnings = [a for a in report.alerts
                    if a.severity in ("warning", "critical")]
        assert warnings, "undersized sketch must raise a drift alert"
        assert any(a.task == "activeness" and a.kind == "budget"
                   for a in warnings)
        # Alerts land on the metrics plane too: counter + event ring.
        total = sum(c.value for c in reg
                    if c.name == names.AUDIT_ALERTS_TOTAL)
        assert total >= len(report.alerts)
        ring_kinds = {e.kind for e in obs.event_ring().entries()}
        assert "audit-budget" in ring_kinds

    def test_undersized_prediction_still_tracks_observed(self):
        _, _, report = self._audited_run("2KB")
        activeness = report.tasks["activeness"]
        # The fill-based prediction should explain most of the observed
        # FP rate even in the overloaded regime (no divergence alert).
        assert activeness.predicted > 0.25
        assert not [a for a in report.alerts
                    if a.kind == "divergence" and a.task == "activeness"]


class TestAuditCli:
    def test_demo_prints_all_four_tasks(self, capsys):
        from repro.obs.__main__ import main

        assert main(["audit", "--demo", "--items", "20000",
                     "--window", "1024", "--chunk", "2048",
                     "--sample-rate", "0.2", "--every", "8000"]) == 0
        out = capsys.readouterr().out
        for task in ("activeness", "cardinality", "size", "span"):
            assert task in out
        assert "predicted" in out
        assert "audit cycle" in out

    def test_undersized_demo_reports_alerts(self, capsys):
        from repro.obs.__main__ import main

        assert main(["audit", "--demo", "--undersized",
                     "--items", "20000", "--window", "1024",
                     "--chunk", "2048", "--sample-rate", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "alerts in the final cycle" in out

    def test_watch_redraws_every_cycle_with_its_footer(self, capsys):
        from repro.obs.__main__ import main

        assert main(["audit", "--watch", "--items", "20000",
                     "--window", "1024", "--chunk", "2048",
                     "--sample-rate", "0.2", "--every", "8000"]) == 0
        out = capsys.readouterr().out
        before, *cycles = out.split("\x1b[2J\x1b[H")
        assert before == ""
        assert len(cycles) >= 2  # cadence cycles plus the final one
        for view in cycles:
            assert "audit cycle" in view
            assert "cycle p50=" in view
        assert "done:" in cycles[-1]
