"""Key ids, and deriving the ``k`` cell indexes of a sketch from them.

Every stream key first becomes one 64-bit *key id* (:func:`key_id`,
:func:`key_ids`): an integer key is its own id (mod 2^64); any other
key (string, bytes, tuple, bool) is its unseeded Bob Hash, computed by
one :class:`~repro.hashing.family.BobHashFamily` whose ``hash_many``
runs lookup3 over a whole batch as uint32 array operations. A key is
thus run through lookup3 once per batch, however many sketches and rows
consume it, and no key is kept once its batch is hashed.

Each sketch then mixes the id with its own seed (splitmix64, see
:func:`bulk_base_hashes`) into a 64-bit base hash. Instead of
evaluating ``k`` independent hashes we use Kirsch–Mitzenmacher double
hashing: split the base hash into ``h1`` and ``h2`` and take
``(h1 + i * h2) mod n`` for ``i = 0..k-1``, forcing ``h2`` odd so the
probe sequence covers the whole table for power-of-two ``n`` and never
degenerates. Ids are uint64 arrays, so everything after the key-id step
is vectorised numpy.
"""

from __future__ import annotations

from itertools import compress

import numpy as np

from ..errors import ConfigurationError
from .family import BobHashFamily


def splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorised splitmix64 finaliser over a uint64 array.

    This is the bulk-path analogue of the per-item base hash: a
    high-quality 64-bit mix whose output is uniform and seedable by
    pre-adding a seed to the input.
    """
    x = x.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        x += np.uint64(0x9E3779B97F4A7C15)
        z = x
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
    return z


def bulk_base_hashes(keys: np.ndarray, seed: int = 0) -> np.ndarray:
    """Return 64-bit base hashes for an array of integer keys.

    ``keys`` may be any integer dtype; values are reduced mod 2^64. The
    result matches :func:`splitmix64` of ``key + golden * (seed + 1)``,
    giving independent families per seed.
    """
    keys64 = np.asarray(keys).astype(np.uint64, copy=False)
    with np.errstate(over="ignore"):
        seeded = keys64 + np.uint64((seed + 1) * 0x9E3779B97F4A7C15 & 0xFFFFFFFFFFFFFFFF)
    return splitmix64(seeded)


_M64 = 0xFFFFFFFFFFFFFFFF

#: Element-wise ``int()`` over an object array (numpy scalars included).
_AS_INT = np.frompyfunc(int, 1, 1)


def derive_index_matrix(base: np.ndarray, n: int, k: int) -> np.ndarray:
    """Kirsch–Mitzenmacher double hashing in array form.

    Turns an array of 64-bit base hashes into a ``(len(base), k)``
    matrix of cell indexes in ``[0, n)`` — the vectorised twin of
    :meth:`IndexDeriver.indexes`: ``h1`` is the low 32 bits, ``h2`` the
    high 32 bits forced odd, row ``i`` is ``(h1 + j * h2) mod n`` for
    ``j = 0..k-1``.
    """
    base = np.asarray(base, dtype=np.uint64)
    h1 = (base & np.uint64(0xFFFFFFFF)).astype(np.uint64)
    h2 = ((base >> np.uint64(32)) | np.uint64(1)).astype(np.uint64)
    steps = np.arange(k, dtype=np.uint64)
    with np.errstate(over="ignore"):
        matrix = (h1[:, None] + steps[None, :] * h2[:, None]) % np.uint64(n)
    return matrix.astype(np.int64)


def derive_index_single(base: np.ndarray, n: int) -> np.ndarray:
    """First double-hashing probe per base hash (``h1 mod n``).

    Array form of ``indexes(item)[0]``, used by one-hash structures
    (bitmaps, per-row Count-Min derivers).
    """
    base = np.asarray(base, dtype=np.uint64)
    h1 = base & np.uint64(0xFFFFFFFF)
    return (h1 % np.uint64(n)).astype(np.int64)


def scalar_base_hash(key: int, seed: int = 0) -> int:
    """Scalar twin of :func:`bulk_base_hashes` for one integer key.

    Guaranteed to equal ``int(bulk_base_hashes([key], seed)[0])`` so the
    incremental and snapshot code paths of a sketch place every integer
    key in the same cells.
    """
    x = (key + (seed + 1) * 0x9E3779B97F4A7C15) & _M64
    x = (x + 0x9E3779B97F4A7C15) & _M64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


#: The one hash family behind every non-integer key id.
_KEY_HASH = BobHashFamily(0)

_INTS = (int, np.integer)


def key_id(item) -> int:
    """The 64-bit id of one stream key.

    An integer (numpy integers included, bools not) is its own id,
    reduced mod 2^64; any other key is its unseeded Bob Hash. Equals
    ``int(key_ids([item])[0])``.
    """
    if isinstance(item, _INTS) and not isinstance(item, bool):
        return int(item) & _M64
    return _KEY_HASH.base64(item)


def _int_ids(ints) -> np.ndarray:
    try:
        keys = np.asarray(ints, dtype=np.int64)
    except OverflowError:
        # Keys outside int64: reduce each mod 2^64, as key_id does.
        return (_AS_INT(np.asarray(ints, dtype=object)) & _M64).astype(np.uint64)
    return keys.astype(np.uint64)


def key_ids(items) -> np.ndarray:
    """uint64 key ids for a batch: the array twin of :func:`key_id`.

    Integer arrays convert without a Python loop. A sequence is split
    into its ints and its other keys in one pass; the other keys are
    hashed together by the vectorised ``BobHashFamily.hash_many``.
    """
    if isinstance(items, np.ndarray) and items.dtype.kind in "iu":
        return items.astype(np.uint64, copy=False)
    if not isinstance(items, (list, tuple)):
        items = list(items)
    is_int = [isinstance(x, _INTS) and not isinstance(x, bool)  # sketchlint: scalar-ok
              for x in items]
    if all(is_int):
        return _int_ids(items)
    if not any(is_int):
        return _KEY_HASH.hash_many(items)
    mask = np.asarray(is_int, dtype=bool)
    ids = np.empty(len(items), dtype=np.uint64)
    ids[mask] = _int_ids(list(compress(items, mask)))
    ids[~mask] = _KEY_HASH.hash_many(list(compress(items, ~mask)))
    return ids


class IndexDeriver:
    """Turns items into ``k`` cell indexes in ``[0, n)``.

    Parameters
    ----------
    n:
        Number of cells in the target array.
    k:
        Number of hash functions (indexes per item).
    seed:
        Seed mixed into each key id to make this deriver's base hash.
    """

    def __init__(self, n: int, k: int, seed: int = 0):
        if n <= 0:
            raise ConfigurationError(f"cell count must be positive, got {n}")
        if k <= 0:
            raise ConfigurationError(f"hash count must be positive, got {k}")
        self.n = int(n)
        self.k = int(k)
        self.seed = int(seed)

    def base_hash(self, item) -> int:
        """Return the 64-bit base hash of ``item``: its seeded key id."""
        return scalar_base_hash(key_id(item), self.seed)

    def indexes(self, item) -> "list[int]":
        """Return the ``k`` cell indexes of ``item`` (scalar path)."""
        base = self.base_hash(item)
        h1 = base & 0xFFFFFFFF
        h2 = ((base >> 32) | 1) & 0xFFFFFFFF
        n = self.n
        return [(h1 + i * h2) % n for i in range(self.k)]

    def first(self, item) -> int:
        """``indexes(item)[0]``, ``h1 mod n``: a one-hash row's cell."""
        return (self.base_hash(item) & 0xFFFFFFFF) % self.n

    def base_hashes_many(self, items) -> np.ndarray:
        """64-bit base hashes for a batch: the array twin of :meth:`base_hash`."""
        return bulk_base_hashes(key_ids(items), self.seed)

    def bulk(self, items) -> np.ndarray:
        """``(len(items), k)`` index matrix for a batch of stream items.

        Row-identical to calling :meth:`indexes` per item.
        """
        return derive_index_matrix(self.base_hashes_many(items), self.n, self.k)

    def bulk_single(self, items) -> np.ndarray:
        """One index per item (``k`` ignored); used by bitmaps.

        Matches ``indexes(item)[0]`` exactly: the first double-hashing
        probe is ``h1 mod n`` with ``h1`` the low 32 bits of the base.
        """
        return derive_index_single(self.base_hashes_many(items), self.n)

    def __repr__(self) -> str:
        return f"IndexDeriver(n={self.n}, k={self.k}, seed={self.seed})"
