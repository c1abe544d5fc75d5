"""Overhead budgets — metrics, accuracy audit and span tracing, on vs off.

Not a paper figure: one test per plane of
:mod:`repro.bench.experiments.overhead` enforces its documented budget
(enabled-mode overhead at most ``OVERHEAD_BUDGET_PCT`` = 10% on the
1M-item chunked ingest workload; see docs/observability.md). Each plane
records under its experiment id (``obs``, ``audit``, ``trace``), and the
obs and audit planes also archive the run's full JSON metrics snapshot
as ``BENCH_<plane>_metrics.json``; CI uploads both as workflow
artifacts.

Set ``OVERHEAD_BENCH_QUICK=1`` to run the reduced stream (CI's overhead
job does; the budget assertion is the same).

The budget check retries up to ``MAX_ATTEMPTS`` measurements before
failing: the per-chunk-median estimator discards transient spikes, but
whole-process effects (allocator layout, cache aliasing, a busy
neighbour for the full run) can inflate one measurement end to end.
Noise only ever *adds* apparent overhead, so the minimum over attempts
converges toward the true cost — a genuine budget regression fails all
attempts.
"""

import json
import os

import pytest

from repro.bench.experiments import overhead

from conftest import RESULTS_DIR, run_once

MAX_ATTEMPTS = 3

QUICK = os.environ.get("OVERHEAD_BENCH_QUICK", "") not in ("", "0")


def _worst(result):
    return max(row["overhead_pct"] for row in result.rows)


@pytest.mark.parametrize("plane", sorted(overhead.PLANES))
def test_overhead(benchmark, record_result, plane):
    result = run_once(benchmark, overhead.run, plane=plane, seed=1,
                      quick=QUICK)
    for _ in range(MAX_ATTEMPTS - 1):
        if _worst(result) <= result.extras["budget_pct"]:
            break
        retry = overhead.run(plane, seed=1, quick=QUICK)
        if _worst(retry) < _worst(result):
            result = retry
    record_result(plane, result, quick=QUICK)

    # The table/ledger surfaces are record_result's job; only the bulky
    # registry snapshot needs a dedicated artifact.
    if "snapshot" in result.extras:
        (RESULTS_DIR / f"BENCH_{plane}_metrics.json").write_text(
            json.dumps(result.extras["snapshot"], indent=2, sort_keys=True)
            + "\n")
    # The treated side must really exercise its plane.
    for evidence in ("audit_cycles", "spans_recorded"):
        if evidence in result.extras:
            assert result.extras[evidence] > 0, (
                f"{plane}: no {evidence} during the bench")

    budget = result.extras["budget_pct"]
    for row in result.rows:
        assert row["overhead_pct"] <= budget, (
            f"{plane}/{row['variant']}: overhead "
            f"{row['overhead_pct']:.1f}% exceeds the {budget:.0f}% budget"
        )
