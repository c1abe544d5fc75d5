"""BM+clock — item batch cardinality (paper §4.2).

A linear-counting bitmap whose bits are replaced by ``s``-bit clock
cells. One hash function maps each item to one cell; the number of
currently-zero clocks ``u`` yields the classic maximum-likelihood
cardinality estimate ``-n * ln(u / n)`` (Whang et al.), here counting
*active item batches* because expired cells self-clean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import EstimatorSaturatedError
from ..hashing import IndexDeriver
from ..timebase import WindowSpec
from ..units import parse_memory
from .base import ClockSketchKind
from .clockarray import ClockArray
from .params import cells_for_memory

__all__ = ["ClockBitmap", "CardinalityEstimate", "linear_counting_estimate"]

#: Default clock width for cardinality; §5.2/§6.3 find s = 8 optimal at
#: the paper's reference configuration (M = 128 KB, W = 16384).
DEFAULT_S_CARDINALITY = 8


@dataclass(frozen=True)
class CardinalityEstimate:
    """A cardinality estimate plus its saturation flag.

    ``saturated`` is True when every cell was occupied — the estimator
    then reports its maximum resolvable value (``u`` clamped to 1)
    rather than infinity.
    """

    value: float
    zero_cells: int
    total_cells: int
    saturated: bool

    def __float__(self) -> float:
        return self.value


def linear_counting_estimate(zero_cells: int, total_cells: int,
                             strict: bool = False) -> CardinalityEstimate:
    """Whang et al.'s linear-counting MLE, ``-n ln(u/n)``, with clamping."""
    saturated = zero_cells == 0
    if saturated and strict:
        raise EstimatorSaturatedError(
            "all bitmap cells occupied; cardinality unresolvable"
        )
    u = max(zero_cells, 1)
    value = -total_cells * math.log(u / total_cells)
    return CardinalityEstimate(
        value=value, zero_cells=zero_cells, total_cells=total_cells,
        saturated=saturated,
    )


class ClockBitmap(ClockSketchKind):
    """Clock-sketch for item batch cardinality (BM+clock).

    ``query``/``query_many`` tell whether each item's single cell is
    live: a crude per-item view of the zero/non-zero pattern that
    :meth:`estimate` aggregates, where collisions alias freely (a
    bitmap, not a filter).

    Examples
    --------
    >>> from repro.timebase import count_window
    >>> bm = ClockBitmap(n=4096, s=8, window=count_window(256))
    >>> for key in range(100):
    ...     bm.insert(key)
    >>> 80 < bm.estimate().value < 125
    True
    """

    _CONFIG = ("n", "s", "seed")
    _TASK = "cardinality"

    def __init__(self, n: int, s: int, window: WindowSpec, seed: int = 0,
                 sweep_mode: str = "vector", sanitize: bool = False):
        super().__init__(window)
        self.s = int(s)
        self.clock = ClockArray(n, s, window, sweep_mode=sweep_mode)
        self.deriver = IndexDeriver(n=n, k=1, seed=seed)
        self.seed = seed
        if sanitize:
            from ..qa.sanitizer import sanitize_sketch
            sanitize_sketch(self)

    @classmethod
    def from_memory(cls, memory, window: WindowSpec,
                    s: int = DEFAULT_S_CARDINALITY, seed: int = 0,
                    sweep_mode: str = "vector") -> "ClockBitmap":
        """Build a bitmap that fits a memory budget (bytes or "8KB")."""
        bits = parse_memory(memory)
        n = cells_for_memory(bits, s)
        return cls(n=n, s=s, window=window, seed=seed, sweep_mode=sweep_mode)

    @property
    def n(self) -> int:
        """Number of clock cells."""
        return self.clock.n

    def estimate(self, t=None, strict: bool = False) -> CardinalityEstimate:
        """Estimate the number of active item batches at time ``t``."""
        now = self._query_time(t)
        self.clock.advance(now)
        return linear_counting_estimate(self.clock.count_zero(), self.n, strict)

    def _metric_extras(self) -> dict:
        estimate = linear_counting_estimate(self.clock.count_zero(), self.n)
        return {"s": self.s, "estimate": estimate.value,
                "saturated": estimate.saturated}

    def __repr__(self) -> str:
        return f"ClockBitmap(n={self.n}, s={self.s}, window={self.window})"

