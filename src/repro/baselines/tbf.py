"""Timing Bloom Filter (Zhang & Guan, ICDCS 2008) — paper §2.1.1.

Instead of full timestamps, TBF stores arrival times in small
wraparound counters (the paper's comparison uses 18-bit counters and 8
hash functions) and relies on a background scan to invalidate expired
cells before their wrapped value could be mistaken for a fresh one.
Each insertion advances the scan over a slice of the array so the whole
array is scanned once per window.

The structure is faithful: cells really hold ``time mod 2^c`` with an
explicit empty sentinel, and correctness requires ``T`` to fit in half
the counter range, which the constructor checks.
"""

from __future__ import annotations

import numpy as np

from ..core.params import cells_for_memory
from ..errors import ConfigurationError
from ..hashing import IndexDeriver
from ..timebase import WindowSpec
from ..units import parse_memory
from .base import KeyedBaseline

__all__ = ["TimingBloomFilter"]

#: Recommended parameters from the paper's §6.2 ("18 bits for each
#: counter and 8 hash functions").
DEFAULT_COUNTER_BITS = 18
DEFAULT_K = 8


class TimingBloomFilter(KeyedBaseline):
    """TBF: wraparound time counters plus a cleaning scan.

    Examples
    --------
    >>> from repro.timebase import count_window
    >>> f = TimingBloomFilter(n=1024, k=4, window=count_window(64))
    >>> f.insert("x")
    >>> f.contains("x")
    True
    """

    _READS = ("cells",)

    def __init__(self, n: int, k: int, window: WindowSpec,
                 counter_bits: int = DEFAULT_COUNTER_BITS, seed: int = 0):
        super().__init__(window)
        if window.length * 2 > (1 << counter_bits):
            raise ConfigurationError(
                f"window {window.length} does not fit in half the range of "
                f"{counter_bits}-bit wraparound counters"
            )
        self.k = int(k)
        self.counter_bits = int(counter_bits)
        self._modulus = 1 << counter_bits
        # The sentinel marks empty cells; it is outside the counter
        # range, so it is stored in a wider dtype than the counter's
        # accounted width.
        self._empty = np.int64(-1)
        self.cells = np.full(n, self._empty, dtype=np.int64)
        # Wide shadow of the true write time, used only by the cleaning
        # scan to decide expiry without wraparound ambiguity (the real
        # structure infers this from scan phase; behaviour is identical
        # because the scan visits every cell once per window).
        self._true_time = np.full(n, -np.inf, dtype=np.float64)
        self.deriver = IndexDeriver(n=n, k=k, seed=seed)
        self.seed = seed
        self._scan_pos = 0
        self._scan_budget = 0.0
        self._scanned_to = 0.0

    @classmethod
    def from_memory(cls, memory, window: WindowSpec, k: int = DEFAULT_K,
                    counter_bits: int = DEFAULT_COUNTER_BITS,
                    seed: int = 0) -> "TimingBloomFilter":
        """Build a TBF fitting a budget of ``counter_bits``-bit cells."""
        bits = parse_memory(memory)
        n = cells_for_memory(bits, counter_bits)
        return cls(n=n, k=k, window=window, counter_bits=counter_bits, seed=seed)

    @property
    def n(self) -> int:
        """Number of counter cells."""
        return len(self.cells)

    def _catch_up(self, now: float) -> None:
        """Advance the cleaning scan proportionally to the time elapsed
        since the last catch-up.

        The scan covers the whole array once per window, invalidating
        cells whose (true) age exceeds the window.
        """
        elapsed = now - self._scanned_to
        self._scanned_to = now
        if elapsed <= 0:
            return
        self._scan_budget += elapsed * self.n / self.window.length
        steps = int(self._scan_budget)
        if steps <= 0:
            return
        self._scan_budget -= steps
        steps = min(steps, self.n)
        idx = (self._scan_pos + np.arange(steps)) % self.n
        expired = now - self._true_time[idx] >= self.window.length
        self.cells[idx[expired]] = self._empty
        self._scan_pos = (self._scan_pos + steps) % self.n

    def _write_cells(self, cells, now: float) -> None:
        """Stamp the item's cells with the wrapped current time."""
        self.cells[cells] = int(now) % self._modulus
        self._true_time[cells] = now

    def _answer(self, now, values):
        # Active iff all k cells hold a wrapped time inside the window.
        age = (int(now) - values) % self._modulus
        return ((values != self._empty)
                & (age < self.window.length)).all(axis=1)

    #: Is the item's batch active? The membership names of
    #: ``query``/``query_many``.
    contains = KeyedBaseline.query
    contains_many = KeyedBaseline.query_many

    def memory_bits(self) -> int:
        """Accounted footprint: ``n`` cells of ``counter_bits`` bits."""
        return self.n * self.counter_bits

    def __repr__(self) -> str:
        return (
            f"TimingBloomFilter(n={self.n}, k={self.k}, "
            f"c={self.counter_bits}, window={self.window})"
        )
