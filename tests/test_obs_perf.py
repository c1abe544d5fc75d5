"""repro.obs.perf — records, ledger, baselines, comparator, surfaces."""

import json
import urllib.request
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.bench.harness import ExperimentResult
from repro.obs import names
from repro.obs import runtime as _obs
from repro.obs.__main__ import main as obs_main
from repro.obs.perf import (
    Headline,
    PerfLedger,
    PerfRecord,
    PerfSchemaError,
    archive,
    compare,
    explain_delta,
    extract_headlines,
    host_facts,
    host_fingerprint,
    load_baselines,
    pooled_samples,
    save_baseline,
)
from repro.obs.perf.telemetry import (
    aggregate_snapshot,
    capture_delta,
    publish_compare,
    publish_record,
)


def make_record(bench="synthetic", value=100.0, metric="batch_ips",
                quick=False, timestamp=0.0, host=None, delta=None,
                unit="items_per_sec", higher=True, portable=False):
    return PerfRecord(
        bench=bench,
        headlines=(Headline(metric, value, unit, higher, portable),),
        host=host if host is not None else host_facts(),
        timestamp=timestamp,
        git_rev="deadbeef",
        quick=quick,
        metrics_delta=dict(delta or {}),
    )


# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------

def test_record_round_trips_through_json():
    record = make_record(delta={"repro_lock_wait_seconds_total": 0.012})
    payload = json.loads(json.dumps(record.to_dict()))
    assert PerfRecord.from_dict(payload) == record


def test_record_rejects_unknown_schema():
    payload = make_record().to_dict()
    payload["schema"] = 99
    with pytest.raises(PerfSchemaError, match="schema"):
        PerfRecord.from_dict(payload)
    with pytest.raises(PerfSchemaError):
        PerfRecord.from_dict({"schema": 1, "bench": "x"})  # no headlines


def test_extract_headlines_vocabulary_and_aggregation():
    result = ExperimentResult(
        title="t", columns=["variant", "overhead_pct", "base_ips"])
    result.add(variant="a", overhead_pct=2.0, base_ips=1000.0)
    result.add(variant="b", overhead_pct=7.0, base_ips=3000.0)
    result.add(variant="c", overhead_pct=4.0, base_ips=2000.0)
    by_name = {h.name: h for h in extract_headlines(result)}
    # overheads aggregate worst-case (max), throughputs median
    assert by_name["overhead_pct"].value == 7.0
    assert by_name["overhead_pct"].portable
    assert not by_name["overhead_pct"].higher_is_better
    assert by_name["base_ips"].value == 2000.0
    assert not by_name["base_ips"].portable
    assert "variant" not in by_name  # non-vocabulary columns ignored


def test_from_result_stamps_host_and_timestamp():
    result = ExperimentResult(title="t", columns=["speedup"])
    result.add(speedup=6.5)
    record = PerfRecord.from_result("batch", result, timestamp=123.0,
                                    quick=True, git_rev="abc1234")
    assert record.timestamp == 123.0 and record.quick
    assert record.git_rev == "abc1234"
    assert "kernel" not in record.to_dict()
    assert record.headline("speedup").value == 6.5
    assert host_fingerprint(record.host) == host_fingerprint(host_facts())


def _table_result():
    result = ExperimentResult(title="t", columns=["variant", "speedup", "n"])
    result.add(variant="a", speedup=np.float64(6.5), n=np.int64(3),
               unlisted=1)
    result.add(variant="b", speedup=5.5, n=4, unlisted=2)
    result.extras.update(budget_pct=10.0, snapshot={"counters": [
        {"name": names.ENGINE_BATCHES_TOTAL, "labels": {}, "value": 7.0}]})
    return result


def test_from_result_carries_the_table_and_round_trips():
    record = PerfRecord.from_result("batch", _table_result(), timestamp=1.0,
                                    git_rev="abc1234")
    assert record.title == "t"
    assert record.columns == ("variant", "speedup", "n")
    assert record.rows == ({"variant": "a", "speedup": 6.5, "n": 3},
                           {"variant": "b", "speedup": 5.5, "n": 4})
    assert type(record.rows[0]["n"]) is int
    assert record.extras == {"budget_pct": 10.0}  # no bulky snapshot
    assert extract_headlines(record) == record.headlines
    assert record.headline("speedup").value == 5.5
    payload = json.loads(json.dumps(record.to_dict()))
    assert PerfRecord.from_dict(payload) == record


def test_records_written_without_a_table_still_load():
    payload = make_record().to_dict()
    for key in ("title", "columns", "rows", "extras"):
        del payload[key]
    assert PerfRecord.from_dict(payload) == make_record()


def test_archive_writes_one_record_to_root_and_ledger(tmp_path):
    ledger = PerfLedger(tmp_path / "ledger.jsonl")
    registry = _obs.enable(fresh=True)
    try:
        record = archive("batch", _table_result(), quick=True,
                         root=tmp_path, ledger=ledger, timestamp=5.0)
        assert registry.get(names.PERF_RECORDS_TOTAL,
                            {"bench": "batch"}).value == 1
    finally:
        _obs.disable()
    assert record.quick and record.timestamp == 5.0
    assert record.metrics_delta == {names.ENGINE_BATCHES_TOTAL: 7.0}
    root = json.loads((tmp_path / "BENCH_batch.json").read_text())
    assert root == record.to_dict()
    assert ledger.load().records == [record]


# ----------------------------------------------------------------------
# Ledger
# ----------------------------------------------------------------------

def test_ledger_appends_and_loads(tmp_path):
    ledger = PerfLedger(tmp_path / "sub" / "ledger.jsonl")  # parents made
    for i in range(3):
        ledger.append(make_record(value=100.0 + i, timestamp=float(i)))
    load = ledger.load()
    assert len(load.records) == 3 and load.skipped == 0
    assert load.latest("synthetic").timestamp == 2.0
    assert load.latest("missing") is None


def test_ledger_skips_corrupted_trailing_lines(tmp_path):
    path = tmp_path / "ledger.jsonl"
    ledger = PerfLedger(path)
    ledger.append(make_record(value=1.0))
    ledger.append(make_record(value=2.0))
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"schema": 1, "bench": "trunca')  # crashed mid-write
    load = ledger.load()
    assert [h.value for r in load.records for h in r.headlines] == [1.0, 2.0]
    assert load.skipped == 1
    # Appending after the corruption keeps working on its own line.
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("\n")
    ledger.append(make_record(value=3.0))
    load = ledger.load()
    assert len(load.records) == 3 and load.skipped == 1


def test_ledger_latest_filters_on_quick_mode(tmp_path):
    ledger = PerfLedger(tmp_path / "ledger.jsonl")
    ledger.append(make_record(value=1.0, quick=True, timestamp=1.0))
    ledger.append(make_record(value=2.0, quick=False, timestamp=2.0))
    assert ledger.load().latest("synthetic", quick=True).timestamp == 1.0
    assert ledger.load().latest("synthetic", quick=False).timestamp == 2.0
    assert ledger.load().latest("synthetic").timestamp == 2.0


def test_missing_ledger_loads_empty(tmp_path):
    load = PerfLedger(tmp_path / "absent.jsonl").load()
    assert load.records == [] and load.skipped == 0


# ----------------------------------------------------------------------
# Baselines and the comparator
# ----------------------------------------------------------------------

def test_baseline_from_records_pools_samples(tmp_path):
    records = [make_record(value=v, timestamp=float(i))
               for i, v in enumerate([100.0, 102.0, 98.0])]
    _spec, samples = pooled_samples(records)["batch_ips"]
    assert samples == (100.0, 102.0, 98.0)
    path = save_baseline(records, tmp_path)
    loaded = load_baselines(tmp_path)
    assert loaded["synthetic"] == records
    assert pooled_samples(loaded["synthetic"])["batch_ips"][1] == \
        (100.0, 102.0, 98.0)
    assert path.name == "synthetic.json"


def test_payloads_carrying_the_old_kernel_key_still_load():
    # Ledgers and baselines written before the kernel stamp was dropped
    # carry a "kernel" object; readers ignore it.
    record = make_record(value=5.0).to_dict()
    record["kernel"] = {"backend": "numpy", "compiled": False}
    assert PerfRecord.from_dict(record).headline("batch_ips").value == 5.0
    committed = load_baselines(
        Path(__file__).resolve().parents[1] / "benchmarks" / "baselines")
    assert committed
    assert all(b[-1].bench == name for name, b in committed.items())


def test_baseline_from_records_rejects_mixed_inputs(tmp_path):
    with pytest.raises(PerfSchemaError):
        save_baseline([], tmp_path)
    with pytest.raises(PerfSchemaError, match="benchmark"):
        save_baseline([make_record(bench="a"),
                       make_record(bench="b")], tmp_path)
    with pytest.raises(PerfSchemaError, match="mix"):
        save_baseline([make_record(quick=True),
                       make_record(quick=False)], tmp_path)
    (tmp_path / "mixed.json").write_text(json.dumps(
        [make_record(quick=True).to_dict(), make_record().to_dict()]))
    with pytest.raises(PerfSchemaError, match="mix"):
        load_baselines(tmp_path)


def test_compare_flat_and_regressed_trajectories():
    baseline = [make_record(value=v, timestamp=float(i))
                for i, v in enumerate([100.0, 101.0, 99.0, 100.5])]
    flat = compare({"synthetic": make_record(value=98.0)},
                   {"synthetic": baseline})
    assert flat.exit_code() == 0
    assert [c.status for c in flat.comparisons] == ["flat"]

    regressed = compare(
        {"synthetic": make_record(
            value=75.0,
            delta={"repro_lock_wait_seconds_total": 0.037,
                   "repro_clock_cells_cleaned_total": 5000.0})},
        {"synthetic": baseline[:-1] + [replace(
            baseline[-1],
            metrics_delta={"repro_lock_wait_seconds_total": 0.012,
                           "repro_clock_cells_cleaned_total": 5100.0})]})
    assert regressed.exit_code() == 1
    (row,) = regressed.comparisons
    assert row.status == "regressed"
    # The report explains *why* from the metric deltas: lock wait x3.
    text = regressed.render()
    assert "REGRESSED" in text
    assert "repro_lock_wait_seconds_total" in text and "x3.08" in text
    # The stable series stays out of the explanation.
    assert "cells_cleaned" not in "".join(row.explanation)


def test_compare_skips_nonportable_metric_across_hosts():
    baseline = [make_record(value=v, host={"machine": "riscv128",
                                           "cpu_count": 96,
                                           "python": "3.99.0"})
                for v in (100.0, 101.0, 99.0)]
    report = compare({"synthetic": make_record(value=10.0)},
                     {"synthetic": baseline})
    (row,) = report.comparisons
    assert row.status == "skipped" and "fingerprint" in row.detail
    assert report.exit_code() == 0


def test_compare_portable_metric_crosses_hosts():
    other_host = {"machine": "riscv128", "cpu_count": 96, "python": "3.99.0"}
    baseline = [make_record(value=v, metric="overhead_pct", unit="percent",
                            higher=False, portable=True, host=other_host)
                for v in (5.0, 5.5, 4.5)]
    report = compare(
        {"synthetic": make_record(value=25.0, metric="overhead_pct",
                                  unit="percent", higher=False,
                                  portable=True)},
        {"synthetic": baseline})
    (row,) = report.comparisons
    assert row.status == "regressed"  # +20 points beyond the 10-pt floor


def test_compare_overhead_baseline_straddling_zero():
    # Signed overheads: a quiet plane's runs scatter around 0, some
    # negative. Percent metrics compare in absolute points, so the
    # band stays defined and a noise-sized move (even below zero) is
    # flat while a real cost is still caught.
    baseline = [make_record(value=v, metric="overhead_pct", unit="percent",
                            higher=False, portable=True)
                for v in (-1.5, 0.8, -0.4, 2.1, 0.3)]

    def status(current):
        report = compare(
            {"synthetic": make_record(value=current, metric="overhead_pct",
                                      unit="percent", higher=False,
                                      portable=True)},
            {"synthetic": baseline})
        (row,) = report.comparisons
        assert row.verdict.baseline_median == 0.3
        return row.status

    assert status(-6.0) == "flat"
    assert status(4.0) == "flat"
    assert status(14.0) == "regressed"


def test_compare_honest_states():
    thin = [make_record(value=100.0)]
    report = compare({"synthetic": make_record(value=10.0)},
                     {"synthetic": thin})
    assert [c.status for c in report.comparisons] == ["insufficient"]
    assert report.exit_code() == 0  # refusal is not a regression

    missing = compare({"synthetic": None},
                      {"synthetic": [make_record(value=v)
                                     for v in (1.0, 2.0, 3.0)]})
    assert [c.status for c in missing.comparisons] == ["skipped"]
    assert "no full-mode ledger record" in missing.comparisons[0].detail


def test_explain_delta_lines():
    lines = explain_delta(
        {"repro_lock_wait_seconds_total": 0.01, "repro_obs_events_total": 7},
        {"repro_lock_wait_seconds_total": 0.05, "repro_obs_events_total": 7,
         "repro_shard_merges_total": 12.0})
    text = "\n".join(lines)
    assert "repro_lock_wait_seconds_total: 0.01 -> 0.05 (x5.00)" in text
    assert "repro_shard_merges_total: appeared" in text
    assert "repro_obs_events_total" not in text
    assert explain_delta({}, {}) == \
        ["no explanatory telemetry recorded on either side"]


# ----------------------------------------------------------------------
# Telemetry
# ----------------------------------------------------------------------

def test_aggregate_snapshot_reduces_registry_shape():
    snapshot = {
        "counters": [
            {"name": names.LOCK_WAIT_SECONDS_TOTAL,
             "labels": {"lock": "a"}, "value": 0.25},
            {"name": names.LOCK_WAIT_SECONDS_TOTAL,
             "labels": {"lock": "b"}, "value": 0.75},
            {"name": "repro_unrelated_total", "labels": {}, "value": 9.0},
        ],
        "gauges": [
            {"name": names.CLOCK_SWEEP_LAG_STEPS,
             "labels": {"task": "size"}, "value": 3.0},
            {"name": names.CLOCK_SWEEP_LAG_STEPS,
             "labels": {"task": "span"}, "value": 7.0},
        ],
        "histograms": [
            {"name": names.ENGINE_BATCH_SECONDS, "labels": {},
             "sum": 1.5, "count": 10},
        ],
    }
    out = aggregate_snapshot(snapshot)
    assert out[names.LOCK_WAIT_SECONDS_TOTAL] == 1.0  # summed
    assert out[names.CLOCK_SWEEP_LAG_STEPS] == 7.0    # worst label set
    assert out[f"{names.ENGINE_BATCH_SECONDS}_sum"] == 1.5
    assert out[f"{names.ENGINE_BATCH_SECONDS}_count"] == 10
    assert "repro_unrelated_total" not in out
    assert aggregate_snapshot(None) == {}


def test_capture_delta_inert_while_disabled():
    _obs.disable()
    with capture_delta() as cap:
        pass
    assert cap.delta == {}


def test_publishers_emit_repro_perf_series():
    registry = _obs.enable(fresh=True)
    try:
        publish_record("obs", {"overhead_pct": 6.0})
        publish_compare("obs", "flat")
        publish_compare("obs", "regressed")
        assert registry.get(names.PERF_RECORDS_TOTAL,
                            {"bench": "obs"}).value == 1
        assert registry.get(names.PERF_HEADLINE,
                            {"bench": "obs",
                             "metric": "overhead_pct"}).value == 6.0
        assert registry.get(names.PERF_COMPARES_TOTAL,
                            {"status": "regressed"}).value == 1
        assert registry.get(names.PERF_REGRESSIONS_TOTAL,
                            {"bench": "obs"}).value == 1
    finally:
        _obs.disable()


# ----------------------------------------------------------------------
# Surfaces: CLI and /perf.json
# ----------------------------------------------------------------------

def _seed_ledger(path, values, quick=False, **kwargs):
    ledger = PerfLedger(path)
    for i, value in enumerate(values):
        ledger.append(make_record(value=value, timestamp=float(i),
                                  quick=quick, **kwargs))
    return ledger


def test_cli_compare_exit_codes_and_explanation(tmp_path, capsys):
    ledger_path = tmp_path / "ledger.jsonl"
    baselines = tmp_path / "baselines"
    ledger = _seed_ledger(ledger_path, [100.0, 101.0, 99.0, 100.5])
    save_baseline(ledger.load().records, baselines)

    # Flat trajectory: the latest record sits inside the noise band.
    ledger.append(make_record(value=98.0, timestamp=9.0))
    rc = obs_main(["perf", "--ledger", str(ledger_path), "compare",
                   "--baselines", str(baselines)])
    assert rc == 0
    assert "flat" in capsys.readouterr().out

    # Injected >=20% throughput regression: non-zero exit and the
    # metrics-delta explanation in the output.
    ledger.append(make_record(
        value=75.0, timestamp=10.0,
        delta={"repro_lock_wait_seconds_total": 0.04}))
    baselines2 = tmp_path / "baselines2"
    base = ledger.load().records[:4]
    save_baseline(
        base[:-1] + [replace(
            base[-1],
            metrics_delta={"repro_lock_wait_seconds_total": 0.012})],
        baselines2)
    rc = obs_main(["perf", "--ledger", str(ledger_path), "compare",
                   "--baselines", str(baselines2)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "REGRESSED" in out and "repro_lock_wait_seconds_total" in out


def test_cli_record_rejects_unknown_bench(tmp_path, capsys):
    rc = obs_main(["perf", "--ledger", str(tmp_path / "l.jsonl"),
                   "record", "--bench", "nonsense"])
    assert rc == 2
    assert "unknown bench" in capsys.readouterr().err


def test_cli_record_archives_through_the_one_writer(tmp_path, capsys,
                                                    monkeypatch):
    from repro.obs.perf import cli

    def runner(quick, seed):
        assert quick and seed == 1
        return _table_result()

    monkeypatch.setattr(cli, "_runners", lambda: {"batch": runner})
    monkeypatch.chdir(tmp_path)
    ledger_path = tmp_path / "ledger.jsonl"
    rc = obs_main(["perf", "--ledger", str(ledger_path), "record",
                   "--bench", "batch", "--quick", "--timestamp", "3"])
    assert rc == 0
    assert "speedup = 5.5" in capsys.readouterr().out
    (record,) = PerfLedger(ledger_path).load().records
    assert record.quick and record.timestamp == 3.0
    root = json.loads((tmp_path / "BENCH_batch.json").read_text())
    assert PerfRecord.from_dict(root) == record


def test_cli_baseline_and_trend(tmp_path, capsys):
    ledger_path = tmp_path / "ledger.jsonl"
    _seed_ledger(ledger_path, [100.0, 102.0, 98.0], quick=True)
    rc = obs_main(["perf", "--ledger", str(ledger_path), "baseline",
                   "--bench", "synthetic", "--quick",
                   "--baselines", str(tmp_path / "b")])
    assert rc == 0
    loaded = load_baselines(tmp_path / "b")
    assert loaded["synthetic"][-1].quick
    assert len(pooled_samples(loaded["synthetic"])["batch_ips"][1]) == 3

    rc = obs_main(["perf", "--ledger", str(ledger_path), "trend",
                   "--bench", "synthetic", "--metric", "batch_ips"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "batch_ips=100" in out and "quick" in out


def test_cli_report_writes_artifact(tmp_path, capsys):
    ledger_path = tmp_path / "ledger.jsonl"
    _seed_ledger(ledger_path, [100.0])
    out_path = tmp_path / "report.json"
    rc = obs_main(["perf", "--ledger", str(ledger_path), "report",
                   "--baselines", str(tmp_path / "none"),
                   "--output", str(out_path)])
    assert rc == 0
    payload = json.loads(out_path.read_text())
    assert payload["total_records"] == 1
    assert payload["records"][0]["bench"] == "synthetic"


def test_perf_json_endpoint(tmp_path, monkeypatch):
    from repro.obs.http import MetricsServer

    ledger_path = tmp_path / "ledger.jsonl"
    _seed_ledger(ledger_path, [100.0, 99.0])
    monkeypatch.setenv("REPRO_PERF_LEDGER", str(ledger_path))
    server = MetricsServer(port=0).start()
    try:
        url = f"http://{server.host}:{server.port}/perf.json"
        with urllib.request.urlopen(url, timeout=10.0) as response:
            payload = json.loads(response.read().decode("utf-8"))
    finally:
        server.stop()
    assert payload["total_records"] == 2
    assert payload["records"][-1]["headlines"][0]["name"] == "batch_ips"
    assert payload["skipped_lines"] == 0
