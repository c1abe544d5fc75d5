"""Extensions implementing the paper's §7 future-work directions.

- :mod:`repro.ext.similar` — item batches of *similar* (not identical)
  items: a mapper canonicalises items into equivalence classes before
  they reach any sketch ("beef and steak are similar items").
- :mod:`repro.ext.adaptive` — per-key learned batch thresholds: "the
  threshold T for two different item batches may differ and an
  algorithm should learn the proper thresholds".

Mergeable Clock-sketches for distributed measurement ("combining Flink
framework can help save synchronization cost in distributed
measurement") need no extension module: every sketch's own
:meth:`~repro.core.base.ClockSketchKind.merge` is the §7 union, and the
keyed partition-and-merge pipeline is
:meth:`repro.monitor.ItemBatchMonitor.sharded`.
"""

from .similar import KeyedMapper, SimilarItemSketch, TokenPrefixMapper
from .adaptive import AdaptiveBatchTracker, GapThresholdLearner

__all__ = [
    "KeyedMapper",
    "TokenPrefixMapper",
    "SimilarItemSketch",
    "GapThresholdLearner",
    "AdaptiveBatchTracker",
]
