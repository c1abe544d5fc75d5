"""Fixed-width fingerprints, used by the SWAMP baseline and the audit
sampler.

SWAMP stores an ``f``-bit fingerprint of each of the last ``w`` items in
a cyclic queue; its accuracy is governed by collisions in the ``2^f``
fingerprint space. The fingerprinter here derives fingerprints from the
same seeded base hash of each key id as the rest of the library, with
scalar and bulk paths that agree on every key.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from .indexing import bulk_base_hashes, key_id, key_ids, scalar_base_hash


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

    @property
    def space(self) -> int:
        """Size of the fingerprint space, ``2**bits``."""
        return 1 << self.bits

    def fingerprint(self, item) -> int:
        """Return the fingerprint of one item."""
        return scalar_base_hash(key_id(item), self.seed) & self._mask

    def bulk(self, keys) -> np.ndarray:
        """Return fingerprints for a batch of keys (vectorised)."""
        return bulk_base_hashes(key_ids(keys), self.seed) & np.uint64(self._mask)

    def __repr__(self) -> str:
        return f"Fingerprinter(bits={self.bits}, seed={self.seed})"
