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

A second benchmark compares kernel backends (repro.kernels): with
numba importable, the compiled backend must beat the numpy reference
by >= 2x on the fused 1M-item path; without numba it is skipped.

Set BATCH_BENCH_QUICK=1 for a reduced stream (CI smoke); the speedup
and fresh/hot floors are not asserted on the reduced stream.
"""

import os

import pytest

from repro.bench.experiments import batch_throughput
from repro.bench.harness import ExperimentResult
from repro.kernels import numba_available

from conftest import run_once

QUICK = os.environ.get("BATCH_BENCH_QUICK", "") not in ("", "0")


def test_batch_throughput(benchmark, record_result):
    result = run_once(benchmark, batch_throughput.run, quick=QUICK, seed=1)
    record_result("batch", result)

    if QUICK:
        return
    for row in result.rows:
        assert row["speedup"] >= 5.0
    ips = result.series("variant", "batch_ips")
    assert ips["monitor_str_fresh"] / ips["monitor_str_hot"] >= 0.5, ips


@pytest.mark.skipif(not numba_available(),
                    reason="numba not installed; compiled backend absent")
def test_kernel_backend_speedup(benchmark, record_result):
    """Compiled kernels vs the numpy reference on the fused batch path."""
    def compare():
        numpy_res = batch_throughput.run(quick=QUICK, seed=1, kernel="numpy")
        # Warm-up run first so JIT compilation stays out of the timing.
        batch_throughput.run(quick=True, seed=1, kernel="numba")
        numba_res = batch_throughput.run(quick=QUICK, seed=1, kernel="numba")
        return numpy_res, numba_res

    numpy_res, numba_res = run_once(benchmark, compare)
    record_result("kernel_numba", numba_res)

    comparison = ExperimentResult(
        title="Kernel backends: numba vs numpy batch ingestion",
        columns=["variant", "n_items", "numpy_ips", "numba_ips",
                 "speedup"],
    )
    for np_row, nb_row in zip(numpy_res.rows, numba_res.rows):
        comparison.add(
            variant=np_row["variant"],
            n_items=np_row["n_items"],
            numpy_ips=np_row["batch_ips"],
            numba_ips=nb_row["batch_ips"],
            speedup=nb_row["batch_ips"] / np_row["batch_ips"],
        )
    record_result("kernel_backends", comparison)

    if QUICK:
        return
    for row in comparison.rows:
        assert row["speedup"] >= 2.0, row
