"""SWAMP (Assaf et al., INFOCOM 2018) — paper §2.1.1.

A cyclic queue of the fingerprints of the last ``w`` items plus a
counting table of those fingerprints. ISMEMBER reports an item active
if its fingerprint occurs anywhere in the window; DISTINCTMLE estimates
the number of distinct items from the number of distinct fingerprints
via maximum likelihood over the ``2^f`` fingerprint space.

SWAMP's window is inherently count-based (a fixed-length queue). For
time-based experiments the paper's constant-rate equivalence applies:
construct with ``w`` equal to the expected number of items per window.

Memory: the queue holds ``w`` fingerprints of ``f`` bits and TinyTable
adds a small constant factor; ``from_memory`` solves for the largest
``f`` that fits, which is how SWAMP's accuracy degrades at small
budgets (fewer fingerprint bits, more collisions).
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import MemoryBudgetError
from ..hashing import Fingerprinter
from ..units import parse_memory

__all__ = ["Swamp", "distinct_mle"]

#: TinyTable overhead factor over the raw fingerprint queue (the SWAMP
#: paper's α ≈ 0.2 slack plus table metadata).
TABLE_OVERHEAD = 1.2


def distinct_mle(distinct_fingerprints: int, fingerprint_bits: int) -> float:
    """Maximum-likelihood distinct-item count from distinct fingerprints.

    With a fingerprint space of ``F = 2^f``, observing ``z`` distinct
    fingerprints among the window's items has likelihood maximised at
    ``d = ln(1 - z/F) / ln(1 - 1/F)`` (the coupon-collector inversion).
    Saturates to the fingerprint-space size when ``z == F``.
    """
    space = 1 << fingerprint_bits
    z = min(distinct_fingerprints, space)
    if z <= 0:
        return 0.0
    if z >= space:
        return float(space * math.log(space))  # effectively saturated
    return math.log1p(-z / space) / math.log1p(-1.0 / space)


class Swamp:
    """SWAMP: sliding-window membership and distinct counting.

    Parameters
    ----------
    window_items:
        Queue length ``w`` (the count-based window).
    fingerprint_bits:
        Width ``f`` of each fingerprint.

    Examples
    --------
    >>> s = Swamp(window_items=4, fingerprint_bits=16)
    >>> for key in ["a", "b", "c", "d", "e", "f"]:
    ...     s.insert(key)
    >>> s.ismember("a")  # "a" slid out of the last-4 window
    False
    >>> s.ismember("d")
    True
    """

    def __init__(self, window_items: int, fingerprint_bits: int, seed: int = 0):
        if window_items < 1:
            raise MemoryBudgetError(f"window must hold >= 1 item, got {window_items}")
        self.window_items = int(window_items)
        self.fingerprint_bits = int(fingerprint_bits)
        self._fingerprinter = Fingerprinter(fingerprint_bits, seed=seed)
        self._queue = np.zeros(self.window_items, dtype=np.uint64)
        self._occupied = np.zeros(self.window_items, dtype=bool)
        self._head = 0
        self._table = None
        # Late import to avoid a cycle in __init__ ordering.
        from .tinytable import CountingTable
        self._table = CountingTable()
        self.seed = seed

    @classmethod
    def from_memory(cls, memory, window_items: int, seed: int = 0) -> "Swamp":
        """Build a SWAMP fitting a budget; solves for fingerprint bits.

        Raises :class:`~repro.errors.MemoryBudgetError` when the budget
        cannot afford even 1-bit fingerprints for the window — SWAMP
        fundamentally needs Ω(w) bits.
        """
        bits = parse_memory(memory)
        f = int(bits / (window_items * TABLE_OVERHEAD))
        if f < 1:
            raise MemoryBudgetError(
                f"{bits} bits cannot hold {window_items} fingerprints"
            )
        return cls(window_items=window_items, fingerprint_bits=min(f, 64), seed=seed)

    def insert(self, item) -> None:
        """Push the item's fingerprint, evicting the oldest one."""
        fp = self._fingerprinter.fingerprint(item)
        if self._occupied[self._head]:
            self._table.remove(int(self._queue[self._head]))
        self._queue[self._head] = fp
        self._occupied[self._head] = True
        self._table.add(fp)
        self._head = (self._head + 1) % self.window_items

    def insert_many(self, keys) -> None:
        """Insert a batch of keys (bulk-fingerprinted), as a loop of
        :meth:`insert` would."""
        for fp in self._fingerprinter.bulk(keys):
            if self._occupied[self._head]:
                self._table.remove(int(self._queue[self._head]))
            self._queue[self._head] = fp
            self._occupied[self._head] = True
            self._table.add(int(fp))
            self._head = (self._head + 1) % self.window_items

    def ismember(self, item) -> bool:
        """SWAMP's ISMEMBER: is the item in the last ``w`` items?"""
        return self._table.contains(self._fingerprinter.fingerprint(item))

    def ismember_many(self, keys) -> np.ndarray:
        """Vectorised ISMEMBER over a batch of keys."""
        fps = self._fingerprinter.bulk(keys)
        table = self._table
        return np.fromiter(
            (table.contains(int(fp)) for fp in fps), dtype=bool, count=len(fps)
        )

    def distinct_estimate(self) -> float:
        """SWAMP's DISTINCTMLE over the current window."""
        return distinct_mle(self._table.distinct(), self.fingerprint_bits)

    def frequency(self, item) -> int:
        """Fingerprint multiplicity of the item in the window (COUNT)."""
        return self._table.count(self._fingerprinter.fingerprint(item))

    def memory_bits(self) -> int:
        """Accounted footprint: queue plus TinyTable overhead."""
        return int(self.window_items * self.fingerprint_bits * TABLE_OVERHEAD)

    def __repr__(self) -> str:
        return (
            f"Swamp(w={self.window_items}, f={self.fingerprint_bits})"
        )
