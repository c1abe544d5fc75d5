"""BF+clock — item batch activeness / membership (paper §4.1).

A Bloom filter whose bit cells are replaced by ``s``-bit clock cells:
the bit is 1 exactly when the clock is non-zero, so only the clock
array is stored. Inserting sets the ``k`` hashed clocks to ``2^s - 1``;
the cleaning pointer decrements them; a batch is reported active when
all ``k`` clocks are non-zero.
"""

from __future__ import annotations

from ..hashing import IndexDeriver
from ..timebase import WindowSpec
from ..units import parse_memory
from .base import ClockSketchKind
from .clockarray import ClockArray
from .params import OPTIMAL_S_MEMBERSHIP, cells_for_memory, optimal_k_membership

__all__ = ["ClockBloomFilter"]


class ClockBloomFilter(ClockSketchKind):
    """Clock-sketch for item batch activeness (BF+clock).

    Parameters
    ----------
    n:
        Number of clock cells.
    k:
        Number of hash functions.
    s:
        Bits per clock cell (the paper proves ``s = 2`` optimal here).
    window:
        The sliding window ``T``.
    seed:
        Hash seed; two filters with the same seed are identical maps.
    sweep_mode:
        ``"vector"`` or ``"scalar"`` cleaning (see
        :class:`~repro.core.clockarray.ClockArray`).
    sanitize:
        Wrap this instance with the runtime invariant checks of
        :mod:`repro.qa.sanitizer` (see ``docs/qa.md``).

    Examples
    --------
    >>> from repro.timebase import count_window
    >>> bf = ClockBloomFilter(n=1024, k=4, s=2, window=count_window(64))
    >>> bf.insert("flow-a")
    >>> bf.contains("flow-a")
    True
    """

    _CONFIG = ("n", "k", "s", "seed")
    _TASK = "activeness"

    def __init__(self, n: int, k: int, s: int, window: WindowSpec,
                 seed: int = 0, sweep_mode: str = "vector",
                 sanitize: bool = False):
        super().__init__(window)
        self.s = int(s)
        self.k = int(k)
        self.clock = ClockArray(n, s, window, sweep_mode=sweep_mode)
        self.deriver = IndexDeriver(n=n, k=k, seed=seed)
        self.seed = seed
        if sanitize:
            from ..qa.sanitizer import sanitize_sketch
            sanitize_sketch(self)

    @classmethod
    def from_memory(cls, memory, window: WindowSpec, s: int = OPTIMAL_S_MEMBERSHIP,
                    k: "int | None" = None, seed: int = 0,
                    sweep_mode: str = "vector") -> "ClockBloomFilter":
        """Build a filter that fits a memory budget.

        ``memory`` accepts bytes or strings like ``"64KB"``. ``k``
        defaults to the §5.1 optimum for the given ``s`` and window.
        """
        bits = parse_memory(memory)
        n = cells_for_memory(bits, s)
        if k is None:
            k = optimal_k_membership(n, window.length, s)
        return cls(n=n, k=k, s=s, window=window, seed=seed, sweep_mode=sweep_mode)

    @property
    def n(self) -> int:
        """Number of clock cells."""
        return self.clock.n

    #: Is the item's batch active? May false-positive, never
    #: false-negative within the window guarantee. The membership
    #: names of ``query``/``query_many``.
    contains = ClockSketchKind.query
    contains_many = ClockSketchKind.query_many

    def _metric_extras(self) -> dict:
        return {"k": self.k, "s": self.s}

    def __repr__(self) -> str:
        return (
            f"ClockBloomFilter(n={self.n}, k={self.k}, s={self.s}, "
            f"window={self.window})"
        )

