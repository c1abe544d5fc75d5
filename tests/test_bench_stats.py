"""repro.bench.stats — shared estimator and noise-aware verdicts."""

import pytest

from repro.bench import stats


# ----------------------------------------------------------------------
# Robust scalars
# ----------------------------------------------------------------------

def test_median_odd_and_even():
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    assert stats.median([4.0, 1.0, 2.0, 3.0]) == 2.5


def test_median_empty_raises():
    with pytest.raises(ValueError):
        stats.median([])


def test_mad_is_robust_to_one_outlier():
    quiet = stats.mad([10.0, 10.1, 9.9, 10.0, 10.2])
    spiked = stats.mad([10.0, 10.1, 9.9, 10.0, 1000.0])
    assert spiked < 1.0  # the spike does not blow up the spread
    assert quiet <= spiked + 0.2


def test_median_ratio_pairs_positionally():
    base = [1.0, 2.0, 4.0]
    other = [2.0, 4.0, 8.0]
    assert stats.median_ratio(base, other) == 2.0


def test_median_ratio_rejects_mismatched_sides():
    with pytest.raises(ValueError, match="pair up"):
        stats.median_ratio([1.0, 2.0], [1.0])


def test_overhead_pct_median_discards_spikes():
    base = [1.0] * 9
    other = [1.05] * 8 + [10.0]  # one chunk straddled a load spike
    assert stats.overhead_pct(base, other) == pytest.approx(5.0)


def test_overhead_pct_keeps_its_sign():
    # A treated side that measured faster records its noise floor.
    assert stats.overhead_pct([1.0, 1.0], [0.9, 0.8]) == pytest.approx(-15.0)


# ----------------------------------------------------------------------
# The interleaved chunk estimator
# ----------------------------------------------------------------------

def test_chunked_times_times_only_full_chunks():
    ingested = []
    times = stats.chunked_times(ingested.append, list(range(10)), 4)
    # two full chunks timed, trailing partial ingested but untimed
    assert len(times) == 2
    assert [len(part) for part in ingested] == [4, 4, 2]
    assert [k for part in ingested for k in part] == list(range(10))


def test_interleaved_times_alternates_order_with_warmup():
    order = []

    def run_base():
        order.append("b")
        return [1.0]

    def run_other():
        order.append("o")
        return [2.0]

    base, other = stats.interleaved_times(run_base, run_other, repeats=3)
    # warmup pair first, then base-other / other-base / base-other
    assert order == ["b", "o", "b", "o", "o", "b", "b", "o"]
    assert base == [1.0] * 3 and other == [2.0] * 3

    order.clear()
    stats.interleaved_times(run_base, run_other, repeats=2, warmup=False)
    assert order == ["b", "o", "o", "b"]


# ----------------------------------------------------------------------
# Noise bands and verdicts
# ----------------------------------------------------------------------

def test_noise_band_floor_applies_to_quiet_baselines():
    # Near-identical samples: the MAD band would be ~0; the floor wins.
    band = stats.noise_band_pct([100.0, 100.0, 100.01], floor_pct=10.0)
    assert band == 10.0


def test_noise_band_widens_with_real_spread():
    noisy = [100.0, 80.0, 120.0, 90.0, 110.0]
    band = stats.noise_band_pct(noisy, floor_pct=10.0, sigmas=4.0)
    assert band > 10.0


def test_classify_insufficient_below_min_samples():
    verdict = stats.classify(100.0, [101.0, 99.0], min_samples=3)
    assert verdict.status == stats.INSUFFICIENT
    assert verdict.ok  # honest refusal, not a failure
    assert "insufficient" in verdict.detail


def test_classify_flat_with_noise():
    # A flat trajectory whose samples jitter run to run must not flag.
    baseline = [100.0, 102.0, 98.0, 101.0, 99.0]
    for current in (97.0, 100.0, 103.0, 108.0):
        verdict = stats.classify(current, baseline, higher_is_better=True)
        assert verdict.status == stats.FLAT, (current, verdict)


def test_classify_step_regression_of_20_percent():
    baseline = [100.0, 101.0, 99.0, 100.0]
    verdict = stats.classify(80.0, baseline, higher_is_better=True)
    assert verdict.status == stats.REGRESSED
    assert not verdict.ok
    assert verdict.delta_pct == pytest.approx(-20.0)


def test_classify_improvement_direction_respects_metric_sense():
    baseline = [100.0, 101.0, 99.0, 100.0]
    up = stats.classify(130.0, baseline, higher_is_better=True)
    assert up.status == stats.IMPROVED
    # Same delta on a lower-is-better metric is a regression.
    down = stats.classify(130.0, baseline, higher_is_better=False)
    assert down.status == stats.REGRESSED


def test_classify_slow_drift_caught_against_committed_baseline():
    # Each step vs its predecessor is inside the band; the cumulative
    # drift vs the *committed* baseline is what the gate must catch.
    baseline = [100.0, 100.5, 99.5, 100.0]
    drift = [103.0, 106.0, 109.0, 112.0]
    verdicts = [stats.classify(v, baseline, higher_is_better=False)
                for v in drift]
    assert [v.status for v in verdicts[:3]] == [stats.FLAT] * 3
    assert verdicts[-1].status == stats.REGRESSED


def test_classify_absolute_points_for_percent_metrics():
    # 0.5% -> 1.5% overhead is a 200% relative change but only one
    # point; absolute mode keeps it flat under a 10-point floor.
    baseline = [0.5, 0.6, 0.4]
    rel_blowup = stats.classify(1.5, baseline, higher_is_better=False)
    assert rel_blowup.status == stats.REGRESSED  # relative scale flags it
    verdict = stats.classify(1.5, baseline, higher_is_better=False,
                             absolute=True)
    assert verdict.status == stats.FLAT
    # A genuine budget blowout still trips on the points scale.
    blown = stats.classify(15.0, baseline, higher_is_better=False,
                           absolute=True)
    assert blown.status == stats.REGRESSED


def test_classify_zero_median_falls_back_to_points():
    verdict = stats.classify(5.0, [0.0, 0.0, 0.0], higher_is_better=False)
    assert verdict.status == stats.FLAT  # 5 points inside the 10-pt floor
    verdict = stats.classify(25.0, [0.0, 0.0, 0.0], higher_is_better=False)
    assert verdict.status == stats.REGRESSED
