"""Every production registration site registers only catalogued families.

A metric family is declared once, in ``repro.obs.names.CATALOGUE``, and
``repro.obs.runtime.series`` refuses a name missing from it; a site that
registered through the registry directly under an inline name would
drift from the catalogue, and its dashboards with it. Each case below
drives one production site with obs enabled, then requires that the
site registered something and that every family it registered is
declared.
"""

import numpy as np
import pytest

from repro import ClockBloomFilter, ItemBatchMonitor, count_window, obs
from repro.bench.harness import ExperimentResult, drive_inserts
from repro.concurrent import ThreadSafeSketch
from repro.obs import flight, names
from repro.obs import trace as _trace
from repro.obs.perf import PerfLedger, archive, compare
from repro.serve import TenantConfig
from repro.serve.testing import LineClient, ServiceThread

WINDOW = count_window(256)

KEYS = [f"key-{i % 300}" for i in range(2000)]


@pytest.fixture(autouse=True)
def _obs_disabled_after():
    yield
    obs.disable()
    _trace.configure()


def _monitor(tmp_path):
    monitor = ItemBatchMonitor(WINDOW, memory="16KB", seed=1)
    monitor.observe_many(KEYS)
    monitor.observe("key-1")
    monitor.report("key-1")
    monitor.metrics()


def _sketch(tmp_path):
    shared = ThreadSafeSketch(ClockBloomFilter.from_memory(
        "4KB", WINDOW, seed=1, sweep_mode="deferred"))
    shared.insert_many(np.arange(500, dtype=np.uint64))
    shared.contains(1)
    shared.sketch.metrics()
    drive_inserts(ClockBloomFilter.from_memory("4KB", WINDOW, seed=1),
                  np.arange(100, dtype=np.uint64))


def _audit(tmp_path):
    # Undersized on purpose, so the cycle raises budget alerts too.
    monitor = ItemBatchMonitor(WINDOW, memory="4KB", seed=1)
    monitor.audited(sample_rate=0.5, every_items=500)
    monitor.observe_many(KEYS)
    assert monitor.auditor.cycles > 0


def _trace_spans(tmp_path):
    _trace.configure(sample_every=1)
    ItemBatchMonitor(WINDOW, memory="16KB", seed=1).observe_many(KEYS)


def _shards(router):
    def drive(tmp_path):
        monitor = ItemBatchMonitor.sharded(WINDOW, memory="16KB", seed=1,
                                           shards=2, router=router)
        try:
            monitor.observe_many(KEYS)
            monitor.report("key-1")
        finally:
            monitor.close()
    return drive


def _serve(tmp_path):
    config = TenantConfig(window_length=256, memory="16KB", seed=1)
    with ServiceThread(default_config=config,
                       checkpoint_dir=str(tmp_path)) as hosted:
        with LineClient.for_service(hosted) as client:
            for request in ({"op": "INSERT_BATCH", "keys": KEYS},
                            {"op": "QUERY", "key": "key-1"},
                            {"op": "QUERY"},
                            {"op": "CHECKPOINT"}):
                client.request(dict(request, tenant="acme"))
    with ServiceThread(default_config=config,
                       checkpoint_dir=str(tmp_path)) as restarted:
        assert restarted.service.restore_outcomes == {"acme": "restored"}


def _flight(tmp_path):
    assert flight.FlightRecorder(str(tmp_path)).dump("catalogue") is not None


def _perf(tmp_path):
    ledger = PerfLedger(tmp_path / "ledger.jsonl")
    records = []
    for overhead in (2.0, 2.0, 2.0, 25.0):
        result = ExperimentResult(title="t",
                                  columns=["variant", "overhead_pct"])
        result.add(variant="a", overhead_pct=overhead)
        records.append(archive("synthetic", result, quick=True,
                               root=tmp_path, ledger=ledger))
    report = compare({"synthetic": records[-1]}, {"synthetic": records[:-1]})
    assert [row.status for row in report.comparisons] == ["regressed"]


SITES = {
    "monitor": _monitor,
    "sketch": _sketch,
    "audit": _audit,
    "trace": _trace_spans,
    "serial-shards": _shards("serial"),
    "process-shards": _shards("process"),
    "serve": _serve,
    "flight": _flight,
    "perf": _perf,
}


@pytest.mark.parametrize("site", sorted(SITES))
def test_site_registers_only_catalogued_families(site, tmp_path):
    with obs.observed() as reg:
        SITES[site](tmp_path)
    families = {metric.name for metric in reg}
    assert families, f"{site} registered nothing"
    assert families - set(names.CATALOGUE) == set()


def test_the_sites_reach_every_family(tmp_path):
    # So a family's emitter cannot fall outside the cases above. A
    # quarantine needs a crashed shard worker; tests/test_serve_faults.py
    # drives that one with its catalogue labels.
    with obs.observed() as reg:
        for site, drive in SITES.items():
            (tmp_path / site).mkdir()
            drive(tmp_path / site)
    missing = set(names.CATALOGUE) - {metric.name for metric in reg}
    assert missing == {names.SERVE_QUARANTINES_TOTAL}
