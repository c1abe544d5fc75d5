"""Batch engine — ``insert_many`` vs per-item ``insert`` throughput.

Not a paper figure: this tracks the library's own batch-ingestion
speedup on a 1M-item synthetic stream (Table 3 configurations, exact
vector sweep mode). Both paths are bit-identical in final sketch state
(property-tested in tests/test_engine_equivalence.py), so the speedup
is pure implementation. The acceptance floor is 5x.

The ``monitor_str_hot`` and ``monitor_str_fresh`` rows drive the
four-task serving monitor with repeating and never-seen string keys;
fresh-key ingest must keep at least half the hot-key rate
(``batch_ips`` ratio, host-independent), so key hashing has no cliff
on an all-distinct flood.

Set BATCH_BENCH_QUICK=1 for a reduced stream (CI smoke); the speedup
and fresh/hot floors are not asserted on the reduced stream.
"""

import os

from repro.bench.experiments import batch_throughput

from conftest import run_once

QUICK = os.environ.get("BATCH_BENCH_QUICK", "") not in ("", "0")


def test_batch_throughput(benchmark, record_result):
    result = run_once(benchmark, batch_throughput.run, quick=QUICK, seed=1)
    record_result("batch", result, quick=QUICK)

    if QUICK:
        return
    for row in result.rows:
        assert row["speedup"] >= 5.0
    ips = result.series("variant", "batch_ips")
    assert ips["monitor_str_fresh"] / ips["monitor_str_hot"] >= 0.5, ips
