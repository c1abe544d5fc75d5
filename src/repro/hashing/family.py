"""Seeded hash families over arbitrary stream items.

A *hash family* turns a stream item (int, str, bytes, or tuple of
those) into a 64-bit hash, deterministically per seed. Sketches do not
call a family per item: :mod:`repro.hashing.indexing` hashes each
non-integer key once, through one ``BobHashFamily(0)``, into a key id,
and every sketch derives its cells from that id.

Two families are provided:

- :class:`BobHashFamily` — the paper-faithful choice, built on the
  lookup3 port in :mod:`repro.hashing.bobhash`; it makes the key ids.
- :class:`Blake2HashFamily` — a faster alternative backed by CPython's
  C implementation of BLAKE2b, useful for large experiment sweeps.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from .bobhash import bob_hash64

_MASK64 = 0xFFFFFFFFFFFFFFFF

#: Entries kept in a family's ``hash_many`` memo before it is dropped.
#: Batch workloads revisit hot keys constantly; the cap only guards
#: against unbounded growth on adversarial all-distinct streams.
HASH_CACHE_LIMIT = 1 << 20


class _CachedBulkHashing:
    """Mixin: batch hashing with a per-unique-item memo.

    The pure-Python Bob Hash is the per-item bottleneck of the scalar
    insert path. Batches hash each *unique* item once: repeats — the
    defining feature of item-batch streams — hit the memo dictionary
    instead of re-walking the hash rounds.
    """

    _cache: "dict | None" = None

    def hash_many(self, items) -> np.ndarray:
        """Return the 64-bit base hashes of a sequence of items.

        Each distinct item is hashed at most once per family instance
        (memoised up to :data:`HASH_CACHE_LIMIT` entries); the result
        row-aligns with ``items`` and equals ``base64`` element-wise.
        """
        cache = self._cache
        if cache is None:
            cache = self._cache = {}
        elif len(cache) > HASH_CACHE_LIMIT:
            cache.clear()
        base64 = self.base64
        out = np.empty(len(items), dtype=np.uint64)
        # Object hashing has no vector form; this scalar fallback only
        # sees items the memo cache hasn't already resolved.
        for i, item in enumerate(items):  # sketchlint: scalar-ok
            # Strings key the memo as themselves; any other item by its
            # canonical bytes, since equal values can hash differently
            # (True == 1 and (True,) == (1,) as dict keys).
            key = item if isinstance(item, str) else canonical_bytes(item)
            h = cache.get(key)
            if h is None:
                h = base64(item)
                cache[key] = h
            out[i] = h
        return out


def canonical_bytes(item) -> bytes:
    """Canonicalise a stream item into bytes for hashing.

    Integers (numpy integers included) map to their 8-byte little-endian
    two's-complement-style encoding (negatives are reduced mod 2^64);
    strings to UTF-8, lone surrogates passed through; bytes
    pass through; tuples to a length-prefixed concatenation so that
    ``("ab", "c")`` and ``("a", "bc")`` hash differently.
    """
    if isinstance(item, bytes):
        return item
    if isinstance(item, bool):
        # bool is an int subclass; give it a distinct tag to avoid
        # colliding with 0/1 keys in mixed-type streams.
        return b"\x01bool" + bytes([item])
    if isinstance(item, (int, np.integer)):
        return struct.pack("<Q", int(item) & _MASK64)
    if isinstance(item, str):
        return item.encode("utf-8", "surrogatepass")
    if isinstance(item, tuple):
        parts = []
        for part in item:
            encoded = canonical_bytes(part)
            parts.append(struct.pack("<I", len(encoded)))
            parts.append(encoded)
        return b"".join(parts)
    raise TypeError(f"unhashable stream item type: {type(item).__name__}")


class BobHashFamily(_CachedBulkHashing):
    """64-bit base hashes from the lookup3 Bob Hash, seeded.

    >>> fam = BobHashFamily(seed=1)
    >>> fam.base64("flow-42") == fam.base64("flow-42")
    True
    """

    def __init__(self, seed: int = 0):
        self.seed = seed & _MASK64

    def base64(self, item) -> int:
        """Return the 64-bit base hash of ``item``."""
        return bob_hash64(canonical_bytes(item), self.seed)

    def __repr__(self) -> str:
        return f"BobHashFamily(seed={self.seed})"


class Blake2HashFamily(_CachedBulkHashing):
    """64-bit base hashes from keyed BLAKE2b (C-speed alternative)."""

    def __init__(self, seed: int = 0):
        self.seed = seed & _MASK64
        self._key = struct.pack("<Q", self.seed)

    def base64(self, item) -> int:
        """Return the 64-bit base hash of ``item``."""
        digest = hashlib.blake2b(
            canonical_bytes(item), digest_size=8, key=self._key
        ).digest()
        return int.from_bytes(digest, "little")

    def __repr__(self) -> str:
        return f"Blake2HashFamily(seed={self.seed})"
