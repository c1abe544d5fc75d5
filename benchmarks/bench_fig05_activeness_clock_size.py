"""Figure 5 — optimal clock cell size for BF+clock.

Regenerates the paper's five panels (FPR vs clock size s under fixed
memory, three count-based datasets plus time-based CAIDA). Reproduced
shape: s = 2 minimises FPR in every column.
"""

from repro.bench.experiments import fig05_optimal_clock_activeness

from conftest import run_once


def test_fig05_optimal_clock_size(benchmark, record_result):
    result = run_once(benchmark, fig05_optimal_clock_activeness.run, seed=1)
    record_result("fig5", result)

    # Shape assertion: for each (panel, memory), s=2 is at or near the
    # minimum FPR (within noise of resolvable rates).
    by_config = {}
    for row in result.rows:
        by_config.setdefault((row["panel"], row["memory_kb"]), []).append(row)
    for rows in by_config.values():
        s2 = next(r["fpr"] for r in rows if r["s"] == 2)
        best = min(r["fpr"] for r in rows)
        assert s2 <= best + 5e-3
