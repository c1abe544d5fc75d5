"""Figure 7 — BF+clock stability over time.

Regenerates the FPR-at-6..10-windows series. Reproduced shape: flat
FPR across query times for every window size (steady-state cleaning).
"""

from repro.bench.experiments import fig07_stability_activeness

from conftest import run_once


def test_fig07_activeness_stability(benchmark, record_result):
    result = run_once(benchmark, fig07_stability_activeness.run, seed=1)
    record_result("fig7", result)

    # The paper's panels are log-scale: "comparable FPR" means the
    # series stays within a small constant factor across query times
    # (the synthetic long tail adds a mild upward drift as new keys
    # keep appearing, which real traces also show).
    by_config = {}
    for row in result.rows:
        by_config.setdefault((row["panel"], row["window"]), []).append(row["fpr"])
    for series in by_config.values():
        assert max(series) <= 2.5 * min(series) + 1e-3
