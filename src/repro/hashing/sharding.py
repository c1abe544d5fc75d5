"""Shard-key derivation: routing items to partitions (repro.shard).

A sharded deployment splits one logical stream across ``P`` replica
sketches by key, so every occurrence of a key lands in the same
replica. The routing hash must be **independent** of the sketches'
cell-index hashes — reusing those would correlate a key's shard with
its cell positions and bias per-shard fill — so the selector derives
its own salted seed and mixes it into each key id exactly as
:class:`~repro.hashing.indexing.IndexDeriver` does (scalar and bulk
paths agree bit-for-bit).
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from .indexing import IndexDeriver

__all__ = ["ShardSelector", "shard_seed_for"]

#: Salt folded into the sketch seed to derive the routing seed. Any
#: fixed odd constant far from the small per-task seed offsets works;
#: this is the 64-bit golden-ratio constant's lower half, chosen so
#: seed collisions with index hashes (seed, seed+1, ... per task) are
#: impossible for realistic seeds.
_SHARD_SEED_SALT = 0x7F4A7C15


def shard_seed_for(seed: int) -> int:
    """The routing-hash seed derived from a sketch/monitor seed."""
    return int(seed) + _SHARD_SEED_SALT


class ShardSelector:
    """Maps stream items to shard ids in ``[0, shards)``.

    Parameters
    ----------
    shards:
        Number of partitions ``P``.
    seed:
        The *sketch* seed; the selector salts it (:func:`shard_seed_for`)
        so routing is independent of every cell-index hash family.

    Examples
    --------
    >>> sel = ShardSelector(shards=4, seed=1)
    >>> sel.shard_of("flow-7") == int(sel.shards_of(["flow-7"])[0])
    True
    """

    def __init__(self, shards: int, seed: int = 0):
        if shards < 1:
            raise ConfigurationError(
                f"shard count must be positive, got {shards}"
            )
        self.shards = int(shards)
        self.seed = int(seed)
        # One "cell" per shard, one probe per item: the deriver's first
        # double-hashing probe is the routing function.
        self._deriver = IndexDeriver(n=self.shards, k=1,
                                     seed=shard_seed_for(seed))

    def shard_of(self, item) -> int:
        """Shard id of one item (scalar path)."""
        return int(self._deriver.indexes(item)[0])

    def shards_of(self, items) -> np.ndarray:
        """Shard id per item for a whole batch.

        Element-identical to calling :meth:`shard_of` per item.
        """
        return self._deriver.bulk(items)[:, 0]

    def __repr__(self) -> str:
        return f"ShardSelector(shards={self.shards}, seed={self.seed})"
