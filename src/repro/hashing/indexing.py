"""Key ids, and deriving a sketch's cell indexes from them.

Every stream key first becomes one 64-bit *key id* (:func:`key_id`,
:func:`key_ids`): an integer key is its own id (mod 2^64); any other
key (string, bytes, tuple, bool) is its unseeded Bob Hash, computed by
one :class:`~repro.hashing.family.BobHashFamily` whose ``hash_many``
runs lookup3 over a whole batch as uint32 array operations. A key is
thus run through lookup3 once per batch, however many sketches and rows
consume it, and no key is kept once its batch is hashed.

Each sketch then derives all its cells from the id through one
:class:`IndexDeriver`. The deriver mixes the id with each of its row
seeds (splitmix64, see :func:`bulk_base_hashes`) into one 64-bit base
hash per row: a single row for the Bloom filter, bitmap and time-span
sketches, one independently seeded row per Count-Min row, all rows of a
batch in one broadcast splitmix64 pass. Instead of evaluating ``k``
independent hashes per row we use Kirsch–Mitzenmacher double hashing:
split the base hash into ``h1`` and ``h2`` and take
``(h1 + i * h2) mod n`` for ``i = 0..k-1``, forcing ``h2`` odd so the
probe sequence covers the whole table for power-of-two ``n`` and never
degenerates. Row ``r`` of ``n`` cells starts at cell ``r * n``: the
row-major flat layout of a multi-row sketch is decided here alone. Ids
are uint64 arrays, so everything after the key-id step is vectorised
numpy.
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
        seeded = keys64 + np.uint64(_seed_mix(seed))
    return splitmix64(seeded)


_M64 = 0xFFFFFFFFFFFFFFFF


def _seed_mix(seed: int) -> int:
    """What a seed adds to a key id before splitmix64."""
    return (seed + 1) * 0x9E3779B97F4A7C15 & _M64


#: Element-wise ``int()`` over an object array (numpy scalars included).
_AS_INT = np.frompyfunc(int, 1, 1)


def derive_index_matrix(base: np.ndarray, n: int, k: int) -> np.ndarray:
    """Kirsch–Mitzenmacher double hashing in array form.

    Turns base hashes into cell indexes — the vectorised twin of
    :meth:`IndexDeriver.indexes`. ``base`` holds one row of 64-bit base
    hashes per seed, ``(rows, N)`` (a 1-D array is one row). For each
    base ``h1`` is the low 32 bits and ``h2`` the high 32 bits forced
    odd; row ``r``'s ``k`` probes are ``r * n + (h1 + j * h2) mod n``
    for ``j = 0..k-1``, so the result is ``(N, rows * k)`` with row
    ``r`` in cells ``[r * n, (r + 1) * n)``.
    """
    base = np.atleast_2d(np.asarray(base, dtype=np.uint64)).T
    count, rows = base.shape
    h1 = (base & np.uint64(0xFFFFFFFF))[:, :, None]
    if k == 1:
        # The first probe alone: skip the h2 stride.
        probes = h1 % np.uint64(n)
    else:
        h2 = ((base >> np.uint64(32)) | np.uint64(1))[:, :, None]
        with np.errstate(over="ignore"):
            probes = (h1 + np.arange(k, dtype=np.uint64) * h2) % np.uint64(n)
    cells = probes.astype(np.int64)
    if rows > 1:
        cells += (np.arange(rows, dtype=np.int64) * n)[:, None]
    return cells.reshape(count, rows * k)


def scalar_base_hash(key: int, seed: int = 0) -> int:
    """Scalar twin of :func:`bulk_base_hashes` for one integer key.

    Guaranteed to equal ``int(bulk_base_hashes([key], seed)[0])`` so the
    incremental and snapshot code paths of a sketch place every integer
    key in the same cells.
    """
    x = (key + _seed_mix(seed)) & _M64
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
    """Turns items into cell indexes: ``k`` per seed, each seed a row.

    Parameters
    ----------
    n:
        Number of cells in one row.
    k:
        Number of hash functions (indexes per item and row).
    seed:
        One seed, or a tuple of row seeds. Each is mixed into the key id
        to make that row's base hash; row ``r`` places its ``k`` probes
        in cells ``[r * n, (r + 1) * n)`` of one flat, row-major array.
        Count-Min's independent rows are one seed each.
    """

    def __init__(self, n: int, k: int, seed=0):
        if n <= 0:
            raise ConfigurationError(f"cell count must be positive, got {n}")
        if k <= 0:
            raise ConfigurationError(f"hash count must be positive, got {k}")
        self.n = int(n)
        self.k = int(k)
        self.seeds = tuple(map(int, seed if isinstance(seed, tuple) else (seed,)))
        self._mix = np.array([_seed_mix(s) for s in self.seeds],
                             dtype=np.uint64)[:, None]

    def indexes(self, item) -> "list[int]":
        """Return the item's cell indexes, row by row (scalar path)."""
        kid = key_id(item)
        n = self.n
        cells = []
        for row, seed in enumerate(self.seeds):
            base = scalar_base_hash(kid, seed)
            h1 = base & 0xFFFFFFFF
            h2 = (base >> 32) | 1
            cells += [row * n + (h1 + i * h2) % n for i in range(self.k)]
        return cells

    def base_hashes_many(self, items) -> np.ndarray:
        """``(rows, N)`` base hashes for a batch, one row per seed: row
        ``r`` equals ``bulk_base_hashes(key_ids(items), seeds[r])``, all
        rows in one splitmix64 pass."""
        with np.errstate(over="ignore"):
            return splitmix64(key_ids(items)[None, :] + self._mix)

    def bulk(self, items) -> np.ndarray:
        """``(len(items), rows * k)`` index matrix for a batch of items.

        Row-identical to calling :meth:`indexes` per item.
        """
        return derive_index_matrix(self.base_hashes_many(items), self.n, self.k)

    def __repr__(self) -> str:
        return f"IndexDeriver(n={self.n}, k={self.k}, seeds={self.seeds})"
