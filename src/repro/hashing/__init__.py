"""Hashing substrate.

The paper implements all sketches over the 32-bit Bob Jenkins hash
("Bob Hash", lookup3) seeded with different initial values. This
subpackage provides:

- :mod:`repro.hashing.bobhash` — a faithful pure-Python port of
  lookup3's ``hashlittle`` / ``hashlittle2``, and ``bob_hash64_many``,
  the same hash over a batch of keys as uint32 array operations.
- :mod:`repro.hashing.family` — item canonicalisation and seeded hash
  families producing 64-bit hashes (Bob Hash or BLAKE2-backed); they
  keep no memo, so hashing holds no memory between batches.
- :mod:`repro.hashing.indexing` — one 64-bit *key id* per key (an
  integer is its own id; any other key is hashed once, through one
  Bob Hash family, vectorised over the batch), then per sketch one
  :class:`~repro.hashing.indexing.IndexDeriver`: a seeded splitmix64
  mix of the id into one base hash per row seed (all rows of a batch in
  one pass) and Kirsch–Mitzenmacher double hashing of each into that
  row's ``k`` cell indexes, all vectorised over uint64 id arrays.
- :mod:`repro.hashing.fingerprint` — fixed-width fingerprints used by
  the SWAMP baseline.
- :mod:`repro.hashing.sharding` — the seeded key-to-shard selector of
  the shard layer.

``Fingerprinter``, ``ShardSelector`` and ``shard_seed_for`` load on
first use (PEP 562), so a plain, unsharded server compiles neither of
their modules.
"""

from typing import TYPE_CHECKING, Any

from .bobhash import hashlittle, hashlittle2, bob_hash64, bob_hash64_many
from .family import BobHashFamily, Blake2HashFamily, canonical_bytes
from .indexing import (
    IndexDeriver,
    key_id,
    key_ids,
    splitmix64,
    bulk_base_hashes,
    scalar_base_hash,
    derive_index_matrix,
)

if TYPE_CHECKING:
    from .fingerprint import Fingerprinter
    from .sharding import ShardSelector, shard_seed_for

__all__ = [
    "hashlittle",
    "hashlittle2",
    "bob_hash64",
    "bob_hash64_many",
    "BobHashFamily",
    "Blake2HashFamily",
    "canonical_bytes",
    "IndexDeriver",
    "key_id",
    "key_ids",
    "splitmix64",
    "bulk_base_hashes",
    "scalar_base_hash",
    "derive_index_matrix",
    "Fingerprinter",
    "ShardSelector",
    "shard_seed_for",
]


#: The submodule behind each name loaded on first use.
_ORIGIN = {"Fingerprinter": "fingerprint", "ShardSelector": "sharding",
           "shard_seed_for": "sharding"}


def __getattr__(name: str) -> Any:
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
