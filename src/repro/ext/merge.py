"""Mergeable Clock-sketches for distributed measurement (paper §7).

Workers measuring disjoint substreams of the same logical stream can
merge their sketches at a synchronisation point instead of sharing
state per item. The merges are conservative unions:

- clock cells merge by element-wise **max** — an item active in any
  worker stays active in the union, and no clock is ever newer than its
  newest writer, so the window guarantee carries over;
- CM+clock counters merge by **sum** (each worker counted disjoint
  occurrences) with their clocks merged by max;
- BF-ts+clock timestamps merge **first-writer-wins** (the older stamp
  survives on cells live on both sides), keeping spans overestimates.

Merging requires structurally identical sketches (same cells, hashes,
seed, window) whose cleaning pointers are at the same position — i.e.
workers synchronise at a common stream time, exactly the Flink-style
barrier the paper envisions.

These functions are thin wrappers over the sketches' own ``merge()``
methods: each folds ``b`` into ``a`` in place and returns ``a``
(``snapshot()`` first to keep ``a``). The methods write the union's
clock image through the validating
:meth:`~repro.core.clockarray.ClockArray.load_values` entry point —
the one the runtime sanitizer checks. ``repro.shard`` builds its
global view on the same methods, and answers point queries with the
same per-kind merge rule over just the queried cells.
"""

from __future__ import annotations

from ..core.activeness import ClockBloomFilter
from ..core.cardinality import ClockBitmap
from ..core.size import ClockCountMin
from ..core.timespan import ClockTimeSpanSketch

__all__ = ["merge_bloom_filters", "merge_bitmaps", "merge_count_mins",
           "merge_timespan_sketches"]


def merge_bloom_filters(a: ClockBloomFilter,
                        b: ClockBloomFilter) -> ClockBloomFilter:
    """Union of two BF+clock sketches (element-wise clock max).

    Examples
    --------
    >>> from repro import ClockBloomFilter, time_window
    >>> w = time_window(100.0)
    >>> f1 = ClockBloomFilter(n=256, k=3, s=2, window=w, seed=5)
    >>> f2 = ClockBloomFilter(n=256, k=3, s=2, window=w, seed=5)
    >>> f1.insert("left", t=1.0); f2.insert("right", t=2.0)
    >>> f1.contains("right", t=3.0); f2.contains("right", t=3.0)
    False
    True
    >>> merged = merge_bloom_filters(f1, f2)
    >>> merged.contains("left"), merged.contains("right")
    (True, True)
    """
    return a.merge(b)


def merge_bitmaps(a: ClockBitmap, b: ClockBitmap) -> ClockBitmap:
    """Union of two BM+clock sketches (element-wise clock max).

    A later ``estimate()`` applies the §4.2 linear-counting estimator
    to the union's zero count, deduplicating batches both sides saw.
    """
    return a.merge(b)


def merge_count_mins(a: ClockCountMin, b: ClockCountMin) -> ClockCountMin:
    """Merge two CM+clock sketches: counters sum, clocks max.

    Counter sums saturate at the counter maximum rather than wrapping.
    """
    return a.merge(b)


def merge_timespan_sketches(a: ClockTimeSpanSketch,
                            b: ClockTimeSpanSketch) -> ClockTimeSpanSketch:
    """Merge two BF-ts+clock sketches: clocks max, stamps first-writer-wins.

    A cell live on both sides keeps the older timestamp, so per-key
    spans on the merged sketch remain overestimates of the truth (see
    :meth:`~repro.core.timespan.ClockTimeSpanSketch.merge`).
    """
    return a.merge(b)
