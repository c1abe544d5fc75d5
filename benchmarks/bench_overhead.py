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

``overhead.run`` itself measures an over-budget plane again, up to
``overhead.MAX_ATTEMPTS`` times, and returns its best attempt, so this
test and ``python -m repro.obs perf record`` record the same estimator.
"""

import json
import os

import pytest

from repro.bench.experiments import overhead

from conftest import RESULTS_DIR, run_once

QUICK = os.environ.get("OVERHEAD_BENCH_QUICK", "") not in ("", "0")


@pytest.mark.parametrize("plane", sorted(overhead.PLANES))
def test_overhead(benchmark, record_result, plane):
    result = run_once(benchmark, overhead.run, plane=plane, seed=1,
                      quick=QUICK)
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
