"""Smoke + shape tests for every paper experiment (quick mode).

Each experiment must run, produce rows, and exhibit the paper's
qualitative shape at reduced scale.
"""

import pytest

from repro.bench.experiments import EXPERIMENTS


@pytest.fixture(scope="module")
def results():
    """Run every experiment once in quick mode and cache the results."""
    return {name: run(quick=True, seed=1) for name, run in EXPERIMENTS.items()}


class TestAllExperimentsRun:
    def test_registry_covers_every_figure_and_table(self):
        assert set(EXPERIMENTS) == {
            "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
            "fig12", "fig13", "fig13x", "table3", "batch", "obs", "audit",
            "trace", "shard", "serve",
            "ablation1", "ablation2", "ablation3", "ablation4", "ablation5",
        }

    @pytest.mark.parametrize("name", sorted(
        ["fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
         "fig12", "fig13", "fig13x", "table3", "batch", "shard", "serve",
         "ablation1", "ablation2", "ablation3", "ablation4", "ablation5"]
    ))
    def test_produces_rows_and_renders(self, results, name):
        result = results[name]
        assert result.rows
        text = result.render()
        assert result.title in text


class TestShapes:
    def test_fig6_bf_clock_beats_baselines(self, results):
        rows = results["fig6"].rows
        by_algo = {}
        for row in rows:
            if row["memory_kb"] == min(r["memory_kb"] for r in rows):
                by_algo[row["algorithm"]] = row["fpr"]
        assert by_algo["bf_clock"] <= by_algo["tobf"]
        assert by_algo["bf_clock"] <= by_algo["swamp"]

    def test_fig7_stability_is_flat(self, results):
        fprs = [row["fpr"] for row in results["fig7"].rows]
        assert max(fprs) - min(fprs) < 0.05

    def test_fig8_memory_helps(self, results):
        rows = [r for r in results["fig8"].rows if r["window"] ==
                max(x["window"] for x in results["fig8"].rows)]
        small = [r["fpr"] for r in rows
                 if r["memory_kb"] == min(x["memory_kb"] for x in rows)]
        large = [r["fpr"] for r in rows
                 if r["memory_kb"] == max(x["memory_kb"] for x in rows)]
        assert min(large) <= max(small)

    def test_fig9_bm_clock_at_most_tsv(self, results):
        rows = [r for r in results["fig9"].rows if r["panel"] == "b"]
        smallest = min(r["memory_kb"] for r in rows)
        at_small = {r["algorithm"]: r["re"] for r in rows
                    if r["memory_kb"] == smallest}
        assert at_small["bm_clock"] <= at_small["tsv"]
        assert at_small["bm_clock"] <= at_small["swamp"]

    def test_fig10_memory_helps(self, results):
        rows = [r for r in results["fig10"].rows
                if r["panel"] == "a"]
        by_mem = {}
        for row in rows:
            by_mem.setdefault(row["memory_kb"], []).append(row["error_rate"])
        memories = sorted(by_mem)
        assert min(by_mem[memories[-1]]) <= max(by_mem[memories[0]])

    def test_fig11_clocked_beats_naive_at_small_memory(self, results):
        rows = [r for r in results["fig11"].rows if r["panel"] == "b"]
        smallest = min(r["memory_kb"] for r in rows)
        at_small = {r["algorithm"]: r["are"] for r in rows
                    if r["memory_kb"] == smallest}
        assert at_small["cm_clock"] <= at_small["naive"]

    def test_fig12_reports_positive_throughput(self, results):
        for row in results["fig12"].rows:
            assert row["insert_mops"] > 0
            assert row["query_mops"] > 0

    def test_fig13_clock_at_least_lfu_at_smallest_cache(self, results):
        rows = sorted(results["fig13"].rows, key=lambda r: r["cache_size"])
        assert rows[0]["bf_clock_hit_rate"] >= rows[0]["lfu_hit_rate"]

    def test_table3_simd_fastest(self, results):
        for row in results["table3"].rows:
            assert row["simd_mops"] >= row["single_mops"]

    def test_batch_engine_beats_scalar_loop(self, results):
        for row in results["batch"].rows:
            assert row["speedup"] > 1.0

    def test_table3_multi_accuracy_close_to_single(self, results):
        for row in results["table3"].rows:
            single, multi = row["accuracy_single"], row["accuracy_multi"]
            if single is None:
                continue
            assert multi == pytest.approx(single, abs=0.05)
