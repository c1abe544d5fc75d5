"""Tests for the experiment harness machinery."""

import numpy as np
import pytest

from repro.bench.harness import (
    ExperimentResult,
    activeness_fpr,
    cached_trace,
    cardinality_estimate,
    format_table,
    last_batches,
    membership_query_keys,
    true_cardinality,
)
from repro.bench.experiments import overhead
from repro.bench.incremental import active_last_batches, size_are, timespan_error_rate
from repro.core import ClockCountMin, ClockTimeSpanSketch
from repro.errors import ConfigurationError
from repro.streams import Stream, segment_batches
from repro.timebase import count_window
from repro.units import kb_to_bits


class TestExperimentResult:
    def test_add_and_render(self):
        result = ExperimentResult(title="T", columns=["a", "b"])
        result.add(a=1, b=0.5)
        result.add(a=2, b=None)
        text = result.render()
        assert "T" in text
        assert "0.5" in text
        assert "-" in text  # None renders as a dash

    def test_series(self):
        result = ExperimentResult(title="T", columns=["x", "y"])
        result.add(x=1, y=10)
        result.add(x=2, y=20)
        assert result.series("x", "y") == {1: 10, 2: 20}

    def test_format_table_alignment(self):
        text = format_table([{"col": 1}, {"col": 22}], ["col"])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("col")

    def test_scientific_for_small_values(self):
        text = format_table([{"v": 1.5e-5}], ["v"])
        assert "e-05" in text

    def test_to_csv_round_trips_rows(self, tmp_path):
        import csv

        result = ExperimentResult(title="T", columns=["name", "rate", "note"])
        result.add(name="a", rate=0.25, note=None)
        result.add(name="b", rate=4.0, note="x", extra_column="dropped")
        target = tmp_path / "out.csv"
        result.to_csv(target)
        with open(target, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert rows == [
            {"name": "a", "rate": "0.25", "note": ""},
            {"name": "b", "rate": "4.0", "note": "x"},
        ]

    def test_to_csv_creates_missing_parent_dirs(self, tmp_path):
        result = ExperimentResult(title="T", columns=["x"])
        result.add(x=1)
        target = tmp_path / "results" / "run1" / "fig.csv"
        result.to_csv(target)
        assert target.exists()
        assert "x" in target.read_text()


class TestCachedTrace:
    def test_caching_returns_same_object(self):
        a = cached_trace("caida", 5000, 512, seed=3)
        b = cached_trace("caida", 5000, 512, seed=3)
        assert a is b

    def test_distinct_configs_distinct_traces(self):
        a = cached_trace("caida", 5000, 512, seed=3)
        b = cached_trace("caida", 5000, 512, seed=4)
        assert a is not b


class TestQuerySets:
    def test_query_keys_are_all_truly_inactive(self):
        keys = np.array([1, 2, 3, 1])
        times = np.array([1.0, 2.0, 3.0, 4.0])
        window = count_window(2)
        query, n_seen = membership_query_keys(keys, times, t_query=4.0,
                                              window=window, extra_unseen=10)
        # Active at t=4 with T=2: ages < 2 => keys at t=3 (key 3) and
        # t=4 (key 1). Inactive seen: key 2.
        assert n_seen == 1
        assert 2 in query
        assert len(query) == 11


class TestActivenessDriver:
    @pytest.fixture(scope="class")
    def trace(self):
        return cached_trace("caida", 20_000, 2048, seed=2)

    def test_all_algorithms_return_rates(self, trace):
        window = count_window(2048)
        for algo in ("bf_clock", "tobf", "tbf", "swamp", "ideal"):
            fpr = activeness_fpr(algo, trace, window, kb_to_bits(8))
            assert fpr is None or 0.0 <= fpr <= 1.0

    def test_swamp_returns_none_below_floor(self, trace):
        window = count_window(2048)
        assert activeness_fpr("swamp", trace, window, 256) is None

    def test_unknown_algorithm(self, trace):
        with pytest.raises(ConfigurationError):
            activeness_fpr("magic", trace, count_window(2048), 8192)

    def test_bf_clock_beats_tobf(self, trace):
        """The paper's headline ordering at a modest budget."""
        window = count_window(2048)
        bits = kb_to_bits(4)
        bf = activeness_fpr("bf_clock", trace, window, bits)
        tobf = activeness_fpr("tobf", trace, window, bits)
        assert bf <= tobf


class TestCardinalityDriver:
    @pytest.fixture(scope="class")
    def trace(self):
        return cached_trace("caida", 20_000, 1024, seed=2)

    def test_true_cardinality_positive(self, trace):
        assert true_cardinality(trace, count_window(1024)) > 0

    def test_estimates_near_truth(self, trace):
        window = count_window(1024)
        truth = true_cardinality(trace, window)
        for algo in ("bm_clock", "tsv", "cvs"):
            est = cardinality_estimate(algo, trace, window, kb_to_bits(16))
            assert est == pytest.approx(truth, rel=0.5)

    def test_unknown_algorithm(self, trace):
        with pytest.raises(ConfigurationError):
            cardinality_estimate("magic", trace, count_window(1024), 8192)


class TestLastBatches:
    def test_matches_segment_batches(self, batchy_keys):
        window = count_window(40)
        stream = Stream(batchy_keys)
        reference = {}
        for batch in segment_batches(stream, window):
            reference[batch.key] = batch  # last batch wins (start order)
        keys, starts, ends, sizes = last_batches(
            batchy_keys, np.arange(1, len(batchy_keys) + 1), window
        )
        assert len(keys) == len(reference)
        for key, start, end, size in zip(keys, starts, ends, sizes):
            batch = reference[int(key)]
            assert batch.start == start
            assert batch.end == end
            assert batch.size == size

    def test_empty_stream(self):
        keys, starts, ends, sizes = last_batches(
            np.array([], dtype=np.int64), np.array([]), count_window(4)
        )
        assert len(keys) == 0

    def test_active_filter(self):
        keys = np.array([1, 2])
        times = np.array([1.0, 10.0])
        window = count_window(5)
        akeys, starts, sizes = active_last_batches(keys, times, 11.0, window)
        assert list(akeys) == [2]


class TestIncrementalEvaluators:
    def test_timespan_error_rate_zero_at_huge_memory(self):
        trace = cached_trace("caida", 8000, 512, seed=5)
        window = count_window(512)
        sketch = ClockTimeSpanSketch.from_memory("256KB", window, s=8)
        err = timespan_error_rate(sketch, trace, window, seed=1)
        assert err < 0.05

    def test_size_are_zero_at_huge_memory(self):
        trace = cached_trace("caida", 8000, 512, seed=5)
        window = count_window(512)
        sketch = ClockCountMin.from_memory("256KB", window, s=8)
        are = size_are(sketch, trace, window, seed=1)
        assert are < 0.05

    def test_errors_grow_as_memory_shrinks(self):
        trace = cached_trace("caida", 8000, 512, seed=5)
        window = count_window(512)
        big = ClockCountMin.from_memory("128KB", window, s=4)
        small = ClockCountMin.from_memory("1KB", window, s=4)
        assert size_are(small, trace, window, seed=1) >= \
            size_are(big, trace, window, seed=1)


class TestOverheadRetry:
    """``overhead.run`` measures again only while over budget."""

    def _stub(self, monkeypatch, worst):
        attempts = iter(worst)
        calls = []

        def measure(plane, seed, n_items, chunk, repeats):
            calls.append(plane)
            result = ExperimentResult(title="t",
                                      columns=["variant", "overhead_pct"])
            result.add(variant="a", overhead_pct=-1.0)
            result.add(variant="b", overhead_pct=next(attempts))
            return result

        monkeypatch.setattr(overhead, "_measure", measure)
        return calls

    def test_a_second_attempt_under_budget_is_recorded(self, monkeypatch):
        calls = self._stub(monkeypatch, [14.0, 4.0, 99.0])
        result = overhead.run("obs", quick=True)
        assert len(calls) == 2
        assert result.rows[1]["overhead_pct"] == 4.0
        assert result.extras["attempts"] == 2

    def test_all_over_budget_records_the_lowest_after_max_attempts(
            self, monkeypatch):
        calls = self._stub(monkeypatch, [14.0, 11.0, 16.0, 1.0])
        result = overhead.run("obs", quick=True)
        assert len(calls) == overhead.MAX_ATTEMPTS == 3
        assert result.rows[1]["overhead_pct"] == 11.0
        assert result.extras["attempts"] == 3

    def test_an_attempt_within_budget_is_not_retried(self, monkeypatch):
        calls = self._stub(monkeypatch, [overhead.OVERHEAD_BUDGET_PCT, 0.0])
        result = overhead.run("obs", quick=True)
        assert len(calls) == 1
        assert result.extras["attempts"] == 1
