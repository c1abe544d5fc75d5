"""Figure 6 — activeness accuracy: BF+clock vs SWAMP / TOBF / TBF / Ideal.

Regenerates the FPR-vs-memory series for all four panels. Reproduced
shape: BF+clock below every baseline and closest to the ideal curve,
with the gap largest at small memory.
"""

from repro.bench.experiments import fig06_accuracy_activeness

from conftest import run_once


def test_fig06_activeness_accuracy(benchmark, record_result):
    result = run_once(benchmark, fig06_accuracy_activeness.run, seed=1)
    record_result("fig6", result)

    by_key = {}
    for row in result.rows:
        by_key[(row["panel"], row["memory_kb"], row["algorithm"])] = row["fpr"]
    panels = {row["panel"] for row in result.rows}
    smallest = min(row["memory_kb"] for row in result.rows)
    for panel in panels:
        bf = by_key[(panel, smallest, "bf_clock")]
        for rival in ("swamp", "tobf", "tbf"):
            rate = by_key[(panel, smallest, rival)]
            if rate is not None:
                assert bf <= rate
