"""Counter Vector Sketch (Shan et al., Neurocomputing 2016) — §2.1.2.

An array of ``n`` small counters. Insertion sets the hashed counter to
a maximum value ``c``; after every insertion a number of *randomly
chosen* counters are decremented, tuned so that an untouched counter
decays from ``c`` to zero in roughly one window. Cardinality is then
linear counting over the non-zero counters. The randomness of the
decay is CVS's weakness — the paper notes "CVS falls short in the error
induced by the randomness in picking counters to decrement" — and it
is visible in the reproduction as extra variance versus BM+clock.
"""

from __future__ import annotations

import numpy as np

from ..core.cardinality import CardinalityEstimate, linear_counting_estimate
from ..core.params import cells_for_memory
from ..errors import ConfigurationError
from ..hashing import IndexDeriver
from ..timebase import WindowSpec
from ..units import parse_memory
from .base import Baseline

__all__ = ["CounterVectorSketch"]

#: §6.3: "the maximum value of counter as 10 for CVS"; 4-bit cells.
DEFAULT_MAX_COUNT = 10
DEFAULT_COUNTER_BITS = 4


class CounterVectorSketch(Baseline):
    """CVS: max-set counters with random decay.

    Examples
    --------
    >>> from repro.timebase import count_window
    >>> cvs = CounterVectorSketch(n=4096, window=count_window(512), seed=3)
    >>> for key in range(100):
    ...     cvs.insert(key)
    >>> 60 < cvs.estimate().value < 160
    True
    """

    def __init__(self, n: int, window: WindowSpec,
                 max_count: int = DEFAULT_MAX_COUNT,
                 counter_bits: int = DEFAULT_COUNTER_BITS, seed: int = 0):
        super().__init__(window)
        if max_count >= (1 << counter_bits):
            raise ConfigurationError(
                f"max_count {max_count} does not fit in {counter_bits} bits"
            )
        self.max_count = int(max_count)
        self.counter_bits = int(counter_bits)
        self.counters = np.zeros(n, dtype=np.uint8)
        self.deriver = IndexDeriver(n=n, k=1, seed=seed)
        self.seed = seed
        self._rng = np.random.default_rng(seed ^ 0xC5)
        # Decrement rate: a counter set to c must decay to 0 within one
        # window of n-cell random decrements => c*n/T decrements per
        # time unit, applied with a fractional accumulator.
        self._decs_per_unit = self.max_count * n / window.length
        self._dec_budget = 0.0
        self._decayed_to = 0.0

    @classmethod
    def from_memory(cls, memory, window: WindowSpec,
                    max_count: int = DEFAULT_MAX_COUNT,
                    counter_bits: int = DEFAULT_COUNTER_BITS,
                    seed: int = 0) -> "CounterVectorSketch":
        """Build a CVS fitting a budget of small counter cells."""
        bits = parse_memory(memory)
        n = cells_for_memory(bits, counter_bits)
        return cls(n=n, window=window, max_count=max_count,
                   counter_bits=counter_bits, seed=seed)

    @property
    def n(self) -> int:
        """Number of counters."""
        return len(self.counters)

    def _catch_up(self, now: float) -> None:
        """Apply the random decrements due since the last catch-up."""
        elapsed = now - self._decayed_to
        self._decayed_to = now
        if elapsed <= 0:
            return
        self._dec_budget += elapsed * self._decs_per_unit
        count = int(self._dec_budget)
        if count <= 0:
            return
        self._dec_budget -= count
        victims = self._rng.integers(0, self.n, size=count)
        # Aggregate duplicate victims, then apply one clamped
        # subtraction per cell — exact even when a cell is drawn twice.
        unique, hits = np.unique(victims, return_counts=True)
        vals = self.counters[unique].astype(np.int64)
        self.counters[unique] = np.maximum(vals - hits, 0).astype(self.counters.dtype)

    def _write_cells(self, cells, now: float) -> None:
        """Set the item's counter to the maximum."""
        self.counters[cells] = self.max_count

    def estimate(self, t=None, strict: bool = False) -> CardinalityEstimate:
        """Linear-counting estimate over non-zero counters."""
        now = self._query_time(t)
        self._catch_up(now)
        zero = int(np.count_nonzero(self.counters == 0))
        return linear_counting_estimate(zero, self.n, strict)

    def memory_bits(self) -> int:
        """Accounted footprint: ``n`` cells of ``counter_bits`` bits."""
        return self.n * self.counter_bits

    def __repr__(self) -> str:
        return (
            f"CounterVectorSketch(n={self.n}, c={self.max_count}, "
            f"window={self.window})"
        )
