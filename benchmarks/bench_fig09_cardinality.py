"""Figure 9 — item batch cardinality (BM+clock).

Regenerates all four panels. Reproduced shapes: BM+clock well below
TSV/SWAMP at small memory and competitive with CVS; the s-sweep's
optimum moves toward 8 as memory grows; RE stable over time.
"""

from repro.bench.experiments import fig09_cardinality

from conftest import run_once


def test_fig09_cardinality(benchmark, record_result):
    result = run_once(benchmark, fig09_cardinality.run, seed=1)
    record_result("fig9", result)

    panel_b = [r for r in result.rows if r["panel"] == "b"]
    smallest = min(r["memory_kb"] for r in panel_b)
    at_small = {r["algorithm"]: r["re"] for r in panel_b
                if r["memory_kb"] == smallest}
    assert at_small["bm_clock"] <= at_small["tsv"]
    assert at_small["bm_clock"] <= at_small["swamp"]

    panel_c = [r["re"] for r in result.rows if r["panel"] == "c"]
    assert max(panel_c) < 0.2  # stability: RE stays small over time
