"""Deterministic per-key hash sampling for the shadow auditor.

The shadow tracker cannot afford exact state for every key, so it keeps
it for a hash-defined fraction of the key space: key ``x`` is sampled
iff ``h(x) < rate * 2^64`` for a seeded 64-bit hash ``h``. Two
properties make this the right sampling scheme for accuracy auditing:

- **per-key all-or-nothing** — every occurrence of a sampled key is
  sampled, so batch sizes, spans, and activeness of sampled keys are
  *exact*, not subsampled;
- **deterministic** — the same seed yields the same subset across the
  scalar and vectorized ingest paths, across processes, and across
  replays, so audits are reproducible.

Hashing rides the key ids of :mod:`repro.hashing`: ``h`` is a 64-bit
:class:`~repro.hashing.fingerprint.Fingerprinter` (each key's id mixed
with the sampler's seed).
"""

from __future__ import annotations

import numpy as np

from ...errors import ConfigurationError
from ...hashing import Fingerprinter

__all__ = ["ShadowSampler"]

_TWO64 = 1 << 64


class ShadowSampler:
    """Seeded hash-threshold sampler over stream keys.

    Parameters
    ----------
    rate:
        Sampled fraction of the key space, in ``(0, 1]``.
    seed:
        Hash seed. Use a seed independent of the sketches' so the
        sampled subset is uncorrelated with cell placement.
    """

    __slots__ = ("rate", "seed", "_threshold", "_hash")

    def __init__(self, rate: float, seed: int = 0):
        if not 0.0 < rate <= 1.0:
            raise ConfigurationError(
                f"sample rate must be in (0, 1], got {rate}"
            )
        self.rate = float(rate)
        self.seed = int(seed)
        threshold = int(round(self.rate * _TWO64))
        #: None means "sample everything" (rate rounds up to 2^64).
        self._threshold = None if threshold >= _TWO64 else threshold
        self._hash = Fingerprinter(64, seed=self.seed)

    def mask(self, items) -> np.ndarray:
        """Boolean sample mask aligned with ``items`` (vectorized)."""
        hashes = self._hash.bulk(items)
        if self._threshold is None:
            return np.ones(hashes.shape, dtype=bool)
        return hashes < np.uint64(self._threshold)

    def contains(self, item) -> bool:
        """Is this key in the sampled subset? (Scalar twin of :meth:`mask`.)"""
        if self._threshold is None:
            return True
        return self._hash.fingerprint(item) < self._threshold

    def __repr__(self) -> str:
        return f"ShadowSampler(rate={self.rate}, seed={self.seed})"
