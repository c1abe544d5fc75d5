"""Figure 8 — BF+clock across window sizes and memory budgets.

Reproduced shape: FPR falls as memory grows and rises with the window.
"""

from repro.bench.experiments import fig08_window_activeness

from conftest import run_once


def test_fig08_activeness_window(benchmark, record_result):
    result = run_once(benchmark, fig08_window_activeness.run, seed=1)
    record_result("fig8", result)

    for row_set in _series_by(result.rows, "panel", "window").values():
        ordered = sorted(row_set, key=lambda r: r["memory_kb"])
        assert ordered[-1]["fpr"] <= ordered[0]["fpr"] + 1e-6


def _series_by(rows, *fields):
    grouped = {}
    for row in rows:
        grouped.setdefault(tuple(row[f] for f in fields), []).append(row)
    return grouped
