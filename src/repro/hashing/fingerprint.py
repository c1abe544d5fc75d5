"""Fixed-width fingerprints, used by the SWAMP baseline.

SWAMP stores an ``f``-bit fingerprint of each of the last ``w`` items in
a cyclic queue; its accuracy is governed by collisions in the ``2^f``
fingerprint space. The fingerprinter here derives fingerprints from the
same base hashes as the rest of the library, with scalar and bulk
paths that agree on integer keys.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from .indexing import IndexDeriver


class Fingerprinter:
    """Maps items to ``bits``-wide fingerprints.

    Parameters
    ----------
    bits:
        Fingerprint width in bits, ``1..64``.
    seed:
        Seed for the underlying base hash.
    """

    def __init__(self, bits: int, seed: int = 0):
        if not 1 <= bits <= 64:
            raise ConfigurationError(f"fingerprint bits must be in 1..64, got {bits}")
        self.bits = int(bits)
        self.seed = int(seed)
        self._mask = (1 << self.bits) - 1
        # Reuse IndexDeriver's base hash so every key type works and the
        # scalar and bulk paths agree.
        self._deriver = IndexDeriver(n=2, k=1, seed=seed)

    @property
    def space(self) -> int:
        """Size of the fingerprint space, ``2**bits``."""
        return 1 << self.bits

    def fingerprint(self, item) -> int:
        """Return the fingerprint of one item."""
        return self._deriver.base_hash(item) & self._mask

    def bulk(self, keys) -> np.ndarray:
        """Return fingerprints for a batch of keys (vectorised)."""
        return self._deriver.base_hashes_many(keys) & np.uint64(self._mask)

    def __repr__(self) -> str:
        return f"Fingerprinter(bits={self.bits}, seed={self.seed})"
