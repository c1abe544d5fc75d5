"""Deriving the ``k`` cell indexes of a sketch from one base hash.

All sketches in the library (Clock-sketch variants and baselines) hash
an item into ``k`` cells. Instead of evaluating ``k`` independent Bob
Hashes — prohibitively slow in pure Python and unnecessary in theory —
we use Kirsch–Mitzenmacher double hashing: split one 64-bit base hash
into ``h1`` and ``h2`` and take ``(h1 + i * h2) mod n`` for
``i = 0..k-1``, forcing ``h2`` odd so the probe sequence covers the
whole table for power-of-two ``n`` and never degenerates.

A vectorised path (:func:`bulk_base_hashes` + ``IndexDeriver.bulk``)
computes indexes for whole integer key arrays with numpy, which is what
makes the paper-scale accuracy sweeps feasible.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from .family import default_family

_MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)


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
    keys64 = np.asarray(keys).astype(np.uint64)
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


class IndexDeriver:
    """Turns items into ``k`` cell indexes in ``[0, n)``.

    Parameters
    ----------
    n:
        Number of cells in the target array.
    k:
        Number of hash functions (indexes per item).
    seed:
        Seed for the underlying hash family.
    family:
        Optional hash family instance (defaults to the Bob Hash
        family). The family only affects the scalar path; the bulk path
        always uses the vectorised splitmix64 mix, seeded identically.
    """

    def __init__(self, n: int, k: int, seed: int = 0, family=None):
        if n <= 0:
            raise ConfigurationError(f"cell count must be positive, got {n}")
        if k <= 0:
            raise ConfigurationError(f"hash count must be positive, got {k}")
        self.n = int(n)
        self.k = int(k)
        self.seed = int(seed)
        self.family = family if family is not None else default_family(seed)

    def base_hash(self, item) -> int:
        """Return the 64-bit base hash of ``item``.

        Integer items use the splitmix64 mix so they agree with the
        vectorised bulk path; other item types use the hash family.
        """
        if isinstance(item, (int, np.integer)) and not isinstance(item, bool):
            return scalar_base_hash(int(item), self.seed)
        return self.family.base64(item)

    def indexes(self, item) -> "list[int]":
        """Return the ``k`` cell indexes of ``item`` (scalar path)."""
        base = self.base_hash(item)
        h1 = base & 0xFFFFFFFF
        h2 = ((base >> 32) | 1) & 0xFFFFFFFF
        n = self.n
        return [(h1 + i * h2) % n for i in range(self.k)]

    def base_hashes_many(self, items) -> np.ndarray:
        """64-bit base hashes for a whole batch of arbitrary items.

        The array twin of :meth:`base_hash`: integer arrays go through
        the vectorised splitmix64 mix; anything else (strings, bytes,
        tuples, mixed sequences) is hashed once per unique item via the
        family's cached ``hash_many`` path, with integers inside object
        sequences still using the splitmix mix so every key lands in
        the same cells regardless of how it arrived.
        """
        if isinstance(items, np.ndarray):
            if items.dtype.kind in "iu":
                return bulk_base_hashes(items, self.seed)
        elif isinstance(items, (list, tuple)) and items \
                and all(isinstance(x, (int, np.integer))  # sketchlint: scalar-ok
                        and not isinstance(x, bool) for x in items):
            try:
                keys = np.asarray(items, dtype=np.int64)
            except OverflowError:
                # Keys outside int64: wrap into its range, which is
                # the mod 2^64 reduction base_hash applies.
                ints = _AS_INT(np.asarray(items, dtype=object))
                keys = ((ints + 2**63 & _M64) - 2**63).astype(np.int64)
            return bulk_base_hashes(keys, self.seed)
        elif not isinstance(items, (list, tuple)):
            items = list(items)
        seed = self.seed
        hash_many = getattr(self.family, "hash_many", None)
        out = np.empty(len(items), dtype=np.uint64)
        pending: "list[int]" = []
        # Scalar triage of mixed-type sequences; homogeneous integer
        # batches never reach this loop.
        for i, item in enumerate(items):  # sketchlint: scalar-ok
            if isinstance(item, (int, np.integer)) and not isinstance(item, bool):
                out[i] = scalar_base_hash(int(item), seed)
            elif hash_many is None:
                out[i] = self.family.base64(item)
            else:
                pending.append(i)
        if pending:
            out[pending] = hash_many([items[i] for i in pending])
        return out

    def bulk(self, keys: np.ndarray) -> np.ndarray:
        """Return an ``(len(keys), k)`` index matrix for integer keys.

        Used by the snapshot fast paths and the batch engine; rows are
        the ``k`` positions of each key, derived with the same
        double-hashing scheme as the scalar path (over the splitmix64
        base hash).
        """
        base = bulk_base_hashes(np.asarray(keys), self.seed)
        return derive_index_matrix(base, self.n, self.k)

    def bulk_items(self, items) -> np.ndarray:
        """``(len(items), k)`` index matrix for arbitrary stream items.

        Row-identical to calling :meth:`indexes` per item; integer
        arrays take the fully vectorised path of :meth:`bulk`.
        """
        return derive_index_matrix(self.base_hashes_many(items), self.n, self.k)

    def bulk_single(self, keys: np.ndarray) -> np.ndarray:
        """Return one index per key (``k`` ignored); used by bitmaps.

        Matches ``indexes(key)[0]`` exactly: the first double-hashing
        probe is ``h1 mod n`` with ``h1`` the low 32 bits of the base.
        """
        base = bulk_base_hashes(np.asarray(keys), self.seed)
        return derive_index_single(base, self.n)

    def bulk_single_items(self, items) -> np.ndarray:
        """One index per arbitrary item — array form of ``indexes(x)[0]``."""
        return derive_index_single(self.base_hashes_many(items), self.n)

    def __repr__(self) -> str:
        return f"IndexDeriver(n={self.n}, k={self.k}, seed={self.seed})"
