"""The paper's primary contribution: the Clock-sketch framework.

Four applications of the framework (paper §4):

- :class:`~repro.core.activeness.ClockBloomFilter` — BF+clock,
  activeness/membership of item batches.
- :class:`~repro.core.cardinality.ClockBitmap` — BM+clock, number of
  active item batches.
- :class:`~repro.core.timespan.ClockTimeSpanSketch` — BF-ts+clock,
  how long an active batch has lasted.
- :class:`~repro.core.size.ClockCountMin` — CM+clock, how many items an
  active batch contains.

All are built on :class:`~repro.core.clockarray.ClockArray`, the s-bit
clock cell array with its cyclic cleaning pointer.
"""

from .clockarray import ClockArray, dtype_for_bits
from .activeness import ClockBloomFilter
from .cardinality import (
    CardinalityEstimate,
    ClockBitmap,
    linear_counting_estimate,
)
from .timespan import ClockTimeSpanSketch, TimeSpanBatchResult, TimeSpanResult
from .size import ClockCountMin
from .params import active_load, cells_for_memory, optimal_k_membership

#: The four sketch kinds: what a shard set replicates and a checkpoint
#: restores.
KINDS = (ClockBloomFilter, ClockBitmap, ClockCountMin, ClockTimeSpanSketch)

__all__ = [
    "ClockArray",
    "dtype_for_bits",
    "ClockBloomFilter",
    "ClockBitmap",
    "CardinalityEstimate",
    "linear_counting_estimate",
    "ClockTimeSpanSketch",
    "TimeSpanResult",
    "TimeSpanBatchResult",
    "ClockCountMin",
    "KINDS",
    "active_load",
    "cells_for_memory",
    "optimal_k_membership",
]
