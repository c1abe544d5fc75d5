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
  Building one is what imports :mod:`hashlib` (and with it OpenSSL).
"""

from __future__ import annotations

import struct

import numpy as np

from .bobhash import bob_hash64, bob_hash64_many

_MASK64 = 0xFFFFFFFFFFFFFFFF


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


class BobHashFamily:
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

    def hash_many(self, items) -> np.ndarray:
        """Return the 64-bit base hashes of a sequence of items.

        Equals ``base64`` element-wise; every key runs through the
        vectorised lookup3 (:func:`~repro.hashing.bobhash.bob_hash64_many`)
        and nothing is kept between calls. An all-ASCII batch of strings
        is encoded in one piece; any other batch key by key.
        """
        try:
            text = "".join(items)
        except TypeError:
            text = None
        if text is not None and text.isascii():
            blob = text.encode("ascii")
            lengths = np.fromiter(map(len, items), np.int64, len(items))
        else:
            # Canonical bytes have no vector form; only the encoding is
            # per key, the hash rounds stay vectorised.
            parts = [canonical_bytes(item)  # sketchlint: scalar-ok
                     for item in items]
            blob = b"".join(parts)
            lengths = np.fromiter(map(len, parts), np.int64, len(parts))
        return bob_hash64_many(blob, lengths, self.seed)

    def __repr__(self) -> str:
        return f"BobHashFamily(seed={self.seed})"


class Blake2HashFamily:
    """64-bit base hashes from keyed BLAKE2b (C-speed alternative)."""

    def __init__(self, seed: int = 0):
        import hashlib
        self.seed = seed & _MASK64
        self._key = struct.pack("<Q", self.seed)
        self._blake2b = hashlib.blake2b

    def base64(self, item) -> int:
        """Return the 64-bit base hash of ``item``."""
        digest = self._blake2b(
            canonical_bytes(item), digest_size=8, key=self._key
        ).digest()
        return int.from_bytes(digest, "little")

    def hash_many(self, items) -> np.ndarray:
        """Return the 64-bit base hashes of a sequence of items."""
        return np.fromiter(map(self.base64, items), np.uint64, len(items))

    def __repr__(self) -> str:
        return f"Blake2HashFamily(seed={self.seed})"
