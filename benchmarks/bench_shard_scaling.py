"""Shard-scaling — sharded ingestion throughput vs worker count.

Not a paper figure: this tracks the scale-out behaviour of the sharded
ingestion engine (repro.shard) on a 1M-item synthetic stream. Merged
query results are equivalence-tested elsewhere (tests/
test_shard_equivalence.py); here only throughput is at stake.

The parallel-speedup floor (>= 2x at P=4 with the process router) only
makes sense with one core per worker, so it is gated on the host's CPU
count — a single-core runner still executes the sweep and records the
numbers, it just cannot assert a speedup it is physically denied.

Set SHARD_BENCH_QUICK=1 for a reduced stream (CI smoke).
"""

import os

from repro.bench.experiments import shard_scaling

from conftest import run_once

QUICK = os.environ.get("SHARD_BENCH_QUICK", "") not in ("", "0")


def test_shard_scaling(benchmark, record_result):
    result = run_once(benchmark, shard_scaling.run, quick=QUICK, seed=1)
    record_result("shard", result, quick=QUICK)

    for row in result.rows:
        assert row["ips"] > 0
        if row["shards"] == 1:
            assert abs(row["speedup"] - 1.0) < 1e-9

    cpus = os.cpu_count() or 1
    if QUICK or cpus < 4:
        return
    by_key = {(row["router"], row["shards"]): row for row in result.rows}
    p4 = by_key.get(("process", 4))
    assert p4 is not None
    assert p4["speedup"] >= 2.0
