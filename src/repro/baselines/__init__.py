"""State-of-the-art baselines the paper compares against (§2.1, §6).

Activeness/membership:

- :class:`~repro.baselines.tobf.TimeOutBloomFilter` (TOBF) — 64-bit
  timestamp cells.
- :class:`~repro.baselines.tbf.TimingBloomFilter` (TBF) — wraparound
  time counters with a background cleaning scan.
- :class:`~repro.baselines.swamp.Swamp` (SWAMP) — cyclic fingerprint
  queue over a TinyTable, ISMEMBER + DISTINCTMLE estimators.
- :class:`~repro.baselines.ideal.IdealSlidingBloom` — the "Ideal"
  curve: a Bloom filter with perfect (oracle) expiry.

Cardinality:

- :class:`~repro.baselines.cvs.CounterVectorSketch` (CVS) — max-set
  counters with random decrements.
- :class:`~repro.baselines.tsv.TimestampVector` (TSV) — linear counting
  over timestamp cells.

Naive clock-free designs (§6.4, §6.5):

- :class:`~repro.baselines.naive_timespan.NaiveTimeSpanSketch`
- :class:`~repro.baselines.naive_size.NaiveSizeSketch`
"""

from .tobf import TimeOutBloomFilter
from .tbf import TimingBloomFilter
from .tinytable import CountingTable
from .swamp import Swamp, distinct_mle
from .cvs import CounterVectorSketch
from .tsv import TimestampVector
from .ideal import IdealSlidingBloom
from .naive_timespan import NaiveTimeSpanSketch
from .naive_size import NaiveSizeSketch
from .snapshots import (
    snapshot_cvs_estimate,
    snapshot_ideal_membership,
    snapshot_swamp_distinct,
    snapshot_swamp_ismember,
)

__all__ = [
    "TimeOutBloomFilter",
    "TimingBloomFilter",
    "CountingTable",
    "Swamp",
    "distinct_mle",
    "CounterVectorSketch",
    "TimestampVector",
    "IdealSlidingBloom",
    "NaiveTimeSpanSketch",
    "NaiveSizeSketch",
    "snapshot_swamp_ismember",
    "snapshot_swamp_distinct",
    "snapshot_ideal_membership",
    "snapshot_cvs_estimate",
]
