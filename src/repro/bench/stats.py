"""Shared benchmark statistics: robust estimators and noise-aware verdicts.

Two concerns live here, both previously scattered across the benchmark
suite:

**The interleaved median-of-per-chunk-ratios estimator.** The overhead
harness (:mod:`repro.bench.experiments.overhead`, one run per plane:
metrics, audit, tracing) measures a treated pipeline against a
baseline one.
A whole quick-mode run lasts only milliseconds, so run-level timings
are at the mercy of scheduler preemptions, GC pauses, machine-wide
load spikes and frequency ramps. The shared estimator therefore:

- times every *full-size* chunk individually (:func:`chunked_times`;
  the trailing partial chunk is ingested but untimed, so every sample
  measures identical work);
- interleaves the two sides with the order **alternating every
  repeat** (base-other, other-base, ...) after one unmeasured warmup
  run each (:func:`interleaved_times`), so drift cancels per pair and
  any bias that systematically penalises whichever side runs second
  cancels by alternation;
- reports the **median of the pairwise ratios** ``other_i / base_i``
  (:func:`median_ratio` / :func:`overhead_pct`), pairing each chunk
  with the same chunk of the temporally adjacent run of the other
  side, so the chunks that straddled a load spike become discarded
  outliers.

**Noise-aware regression verdicts.** :func:`classify` compares a
current headline scalar against a committed baseline sample set and
returns a :class:`Verdict` — ``improved`` / ``flat`` / ``regressed``,
or an honest ``insufficient`` when the baseline carries too few
samples to estimate its own noise. The decision band is MAD-based
(:func:`mad` / :func:`noise_band_pct`): the median absolute deviation
scales to a robust sigma (×1.4826 under normality), the band is a few
sigmas wide, and a configurable floor keeps near-noiseless baselines
from flagging every run. The performance-observability plane
(:mod:`repro.obs.perf`) builds its comparator on this.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, List, Sequence, Tuple

__all__ = [
    "median",
    "mad",
    "median_ratio",
    "overhead_pct",
    "chunked_times",
    "interleaved_times",
    "noise_band_pct",
    "classify",
    "Verdict",
    "IMPROVED",
    "FLAT",
    "REGRESSED",
    "INSUFFICIENT",
]

#: MAD -> sigma scale under a normal noise model.
MAD_SIGMA = 1.4826

#: Default band half-width, in robust sigmas of the baseline samples.
DEFAULT_SIGMAS = 4.0

#: Default band floor: deltas inside this are always "flat" (relative
#: percent for ratio-like metrics, absolute points for percent ones).
DEFAULT_BAND_FLOOR_PCT = 10.0

#: Minimum baseline samples before a verdict is considered meaningful.
DEFAULT_MIN_SAMPLES = 3

IMPROVED = "improved"
FLAT = "flat"
REGRESSED = "regressed"
INSUFFICIENT = "insufficient"


# ----------------------------------------------------------------------
# Robust scalar statistics
# ----------------------------------------------------------------------

def median(values: Sequence[float]) -> float:
    """The sample median (mean of the middle pair for even sizes)."""
    if not values:
        raise ValueError("median of an empty sequence")
    ordered = sorted(float(v) for v in values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def mad(values: Sequence[float]) -> float:
    """Median absolute deviation from the median (unscaled)."""
    centre = median(values)
    return median([abs(float(v) - centre) for v in values])


def median_ratio(base: Sequence[float], other: Sequence[float]) -> float:
    """Median of the pairwise ratios ``other_i / base_i``.

    The pairing is positional: callers align the two sample lists so
    that index ``i`` on both sides measured the same chunk of work in
    temporally adjacent runs, which cancels drift at the one-run time
    scale.
    """
    if len(base) != len(other):
        raise ValueError(
            f"ratio sides must pair up: {len(base)} base vs "
            f"{len(other)} other samples"
        )
    return median([o / b for o, b in zip(other, base)])


def overhead_pct(base: Sequence[float], other: Sequence[float]) -> float:
    """Overhead of ``other`` vs ``base``: median pairwise ratio, in %.

    Clamped at zero — the estimator answers "how much does the treated
    side cost", and sub-noise negative ratios are not a speedup claim.
    """
    return max(0.0, (median_ratio(base, other) - 1.0) * 100.0)


# ----------------------------------------------------------------------
# The interleaved chunk estimator
# ----------------------------------------------------------------------

def chunked_times(ingest: "Callable[[Any], None]", keys: Any,
                  chunk: int) -> "List[float]":
    """Feed ``keys`` through ``ingest`` in chunks; time each full chunk.

    Returns the wall time of every *full-size* chunk; the trailing
    partial chunk (if any) is ingested but not timed, so every sample
    measures identical work.
    """
    times: "List[float]" = []
    total = len(keys)
    pos = 0
    while pos + chunk <= total:
        part = keys[pos:pos + chunk]
        started = perf_counter()
        ingest(part)
        times.append(perf_counter() - started)
        pos += chunk
    if pos < total:
        ingest(keys[pos:])
    return times


def interleaved_times(run_base: "Callable[[], List[float]]",
                      run_other: "Callable[[], List[float]]",
                      repeats: int,
                      warmup: bool = True,
                      ) -> "Tuple[List[float], List[float]]":
    """Pool per-chunk samples from order-alternating interleaved runs.

    One unmeasured warmup run per side first (unless ``warmup=False``),
    then ``repeats`` measured runs of each side with the order
    alternating every repeat (base-other, other-base, ...). Returns the
    pooled ``(base_samples, other_samples)`` lists, positionally
    aligned for :func:`median_ratio`.
    """
    if warmup:
        run_base()
        run_other()
    base: "List[float]" = []
    other: "List[float]" = []
    for r in range(repeats):
        if r % 2 == 0:
            base.extend(run_base())
            other.extend(run_other())
        else:
            other.extend(run_other())
            base.extend(run_base())
    return base, other


# ----------------------------------------------------------------------
# Noise-aware regression verdicts
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Verdict:
    """The outcome of one current-vs-baseline comparison.

    ``delta_pct`` and ``band_pct`` share a scale: relative percent of
    the baseline median for ratio-like metrics, absolute percentage
    points when ``classify`` ran with ``absolute=True`` (percent-unit
    metrics, where relative deltas explode near zero).
    """

    status: str           # improved | flat | regressed | insufficient
    delta_pct: float      # signed current-vs-baseline-median delta
    band_pct: float       # noise band half-width on the same scale
    n_baseline: int       # baseline samples the band was fitted on
    baseline_median: float
    detail: str           # one human-readable sentence

    @property
    def ok(self) -> bool:
        """True unless the verdict is an actionable regression."""
        return self.status != REGRESSED


def noise_band_pct(samples: Sequence[float],
                   floor_pct: float = DEFAULT_BAND_FLOOR_PCT,
                   sigmas: float = DEFAULT_SIGMAS,
                   absolute: bool = False) -> float:
    """Half-width of the baseline's noise band, with a floor.

    ``sigmas`` robust sigmas (MAD × 1.4826) of the baseline samples,
    relative to the baseline median unless ``absolute=True``, never
    narrower than ``floor_pct``. The floor is what keeps a suspiciously
    quiet baseline (2 near-identical samples) from flagging ordinary
    run-to-run jitter as a regression.
    """
    sigma = MAD_SIGMA * mad(samples)
    if not absolute:
        centre = abs(median(samples))
        if centre == 0.0:
            return floor_pct
        sigma = 100.0 * sigma / centre
    return max(floor_pct, sigmas * sigma)


def classify(current: float, baseline: Sequence[float],
             higher_is_better: bool = True,
             min_samples: int = DEFAULT_MIN_SAMPLES,
             floor_pct: float = DEFAULT_BAND_FLOOR_PCT,
             sigmas: float = DEFAULT_SIGMAS,
             absolute: bool = False) -> Verdict:
    """Classify ``current`` against a baseline sample set.

    Returns :data:`INSUFFICIENT` when fewer than ``min_samples``
    baseline samples exist — an honest refusal, not a pass: noise
    bands fitted on one or two points are fiction. Otherwise the delta
    of ``current`` from the baseline median is measured against the
    MAD-based noise band; deltas inside the band are :data:`FLAT`,
    deltas beyond it are :data:`IMPROVED` or :data:`REGRESSED`
    according to ``higher_is_better``.

    ``absolute=True`` switches delta and band to absolute percentage
    points — the right scale for metrics that are themselves percents
    (an overhead going 0.5% -> 1.5% is a 200% relative change but a
    meaningless one).
    """
    n = len(baseline)
    if n < min_samples:
        return Verdict(
            status=INSUFFICIENT, delta_pct=0.0, band_pct=0.0,
            n_baseline=n, baseline_median=median(baseline) if n else 0.0,
            detail=f"insufficient baseline samples ({n} < {min_samples}); "
                   "no verdict",
        )
    centre = median(baseline)
    if absolute or centre == 0.0:
        delta = current - centre
        band = noise_band_pct(baseline, floor_pct, sigmas, absolute=True)
        if not absolute:
            # Relative scale requested but undefined at a zero median;
            # fall back to absolute points with the same floor.
            band = max(band, floor_pct)
        unit = "pts"
    else:
        delta = 100.0 * (current - centre) / abs(centre)
        band = noise_band_pct(baseline, floor_pct, sigmas, absolute=False)
        unit = "%"
    if abs(delta) <= band:
        status = FLAT
    elif (delta > 0.0) == higher_is_better:
        status = IMPROVED
    else:
        status = REGRESSED
    direction = "higher" if delta > 0 else "lower"
    detail = (f"{status}: current {current:g} vs baseline median "
              f"{centre:g} ({delta:+.1f}{unit} {direction}, noise band "
              f"±{band:.1f}{unit} over {n} samples)")
    return Verdict(status=status, delta_pct=delta, band_pct=band,
                   n_baseline=n, baseline_median=centre, detail=detail)
