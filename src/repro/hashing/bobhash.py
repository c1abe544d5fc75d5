"""Pure-Python port of Bob Jenkins' lookup3 hash (the paper's "Bob Hash").

The paper's C++ implementation uses the 32-bit Bob Hash from
http://burtleburtle.net/bob/hash/doobs.html with different initial
seeds for the ``k`` hash functions of each sketch. This module ports
``hashlittle`` (one 32-bit result) and ``hashlittle2`` (two 32-bit
results) from lookup3.c, operating on ``bytes``.

The port follows the byte-at-a-time branch of lookup3.c, so it produces
the canonical little-endian values for any input length.

:func:`bob_hash64_many` is ``hashlittle2`` over a whole batch of byte
strings: ``mix`` and ``final`` run as uint32 array operations across
every key with the same number of 12-byte blocks. The scalar functions
stay the reference it is tested against.
"""

from __future__ import annotations

import numpy as np

_MASK32 = 0xFFFFFFFF


def _rot(x: int, k: int) -> int:
    """Rotate a 32-bit value left by ``k`` bits."""
    return ((x << k) | (x >> (32 - k))) & _MASK32


def _mix(a: int, b: int, c: int) -> "tuple[int, int, int]":
    """lookup3's mix(): reversibly scramble three 32-bit values."""
    a = (a - c) & _MASK32
    a ^= _rot(c, 4)
    c = (c + b) & _MASK32
    b = (b - a) & _MASK32
    b ^= _rot(a, 6)
    a = (a + c) & _MASK32
    c = (c - b) & _MASK32
    c ^= _rot(b, 8)
    b = (b + a) & _MASK32
    a = (a - c) & _MASK32
    a ^= _rot(c, 16)
    c = (c + b) & _MASK32
    b = (b - a) & _MASK32
    b ^= _rot(a, 19)
    a = (a + c) & _MASK32
    c = (c - b) & _MASK32
    c ^= _rot(b, 4)
    b = (b + a) & _MASK32
    return a, b, c


def _final(a: int, b: int, c: int) -> "tuple[int, int, int]":
    """lookup3's final(): irreversibly mix three values into c."""
    c ^= b
    c = (c - _rot(b, 14)) & _MASK32
    a ^= c
    a = (a - _rot(c, 11)) & _MASK32
    b ^= a
    b = (b - _rot(a, 25)) & _MASK32
    c ^= b
    c = (c - _rot(b, 16)) & _MASK32
    a ^= c
    a = (a - _rot(c, 4)) & _MASK32
    b ^= a
    b = (b - _rot(a, 14)) & _MASK32
    c ^= b
    c = (c - _rot(b, 24)) & _MASK32
    return a, b, c


def _tail_add(data: bytes, offset: int, length: int, a: int, b: int, c: int):
    """Add the final ``length`` (< 13) bytes into a, b, c (little-endian)."""
    k = data[offset:offset + length]
    # The cascade mirrors lookup3.c's byte-wise switch; each word takes
    # up to 4 bytes little-endian.
    if length >= 12:
        c = (c + (k[11] << 24)) & _MASK32
    if length >= 11:
        c = (c + (k[10] << 16)) & _MASK32
    if length >= 10:
        c = (c + (k[9] << 8)) & _MASK32
    if length >= 9:
        c = (c + k[8]) & _MASK32
    if length >= 8:
        b = (b + (k[7] << 24)) & _MASK32
    if length >= 7:
        b = (b + (k[6] << 16)) & _MASK32
    if length >= 6:
        b = (b + (k[5] << 8)) & _MASK32
    if length >= 5:
        b = (b + k[4]) & _MASK32
    if length >= 4:
        a = (a + (k[3] << 24)) & _MASK32
    if length >= 3:
        a = (a + (k[2] << 16)) & _MASK32
    if length >= 2:
        a = (a + (k[1] << 8)) & _MASK32
    if length >= 1:
        a = (a + k[0]) & _MASK32
    return a, b, c


def hashlittle2(data: bytes, initval: int = 0, initval2: int = 0) -> "tuple[int, int]":
    """Return two 32-bit hashes of ``data`` (primary, secondary).

    Port of lookup3.c's ``hashlittle2``; ``initval`` and ``initval2``
    seed the two results. The primary result equals
    ``hashlittle(data, initval)`` when ``initval2 == 0``.
    """
    length = len(data)
    a = b = c = (0xDEADBEEF + length + (initval & _MASK32)) & _MASK32
    c = (c + (initval2 & _MASK32)) & _MASK32

    offset = 0
    remaining = length
    while remaining > 12:
        a = (a + int.from_bytes(data[offset:offset + 4], "little")) & _MASK32
        b = (b + int.from_bytes(data[offset + 4:offset + 8], "little")) & _MASK32
        c = (c + int.from_bytes(data[offset + 8:offset + 12], "little")) & _MASK32
        a, b, c = _mix(a, b, c)
        offset += 12
        remaining -= 12

    if remaining == 0:
        # lookup3 returns (c, b) untouched for a zero-length tail.
        return c, b
    a, b, c = _tail_add(data, offset, remaining, a, b, c)
    a, b, c = _final(a, b, c)
    return c, b


def hashlittle(data: bytes, initval: int = 0) -> int:
    """Return the 32-bit lookup3 ``hashlittle`` of ``data``."""
    c, _b = hashlittle2(data, initval, 0)
    return c


def bob_hash64(data: bytes, seed: int = 0) -> int:
    """Return a 64-bit hash built from ``hashlittle2``'s two outputs.

    This is the base hash the sketches split into the Kirsch-Mitzenmacher
    ``(h1, h2)`` pair (see :mod:`repro.hashing.indexing`).
    """
    c, b = hashlittle2(data, seed & _MASK32, (seed >> 32) & _MASK32)
    return (b << 32) | c


#: ``k -> (k, 32 - k)`` as uint32 scalars for :func:`_rotv`; a Python
#: int shift count costs a conversion on every array operation.
_SHIFTS = {k: (np.uint32(k), np.uint32(32 - k))
           for k in (4, 6, 8, 11, 14, 16, 19, 24, 25)}


def _rotv(x: np.ndarray, k: int) -> np.ndarray:
    """:func:`_rot` over a uint32 array (the shifts wrap at 32 bits)."""
    left, right = _SHIFTS[k]
    out = x << left
    out |= x >> right
    return out


def _mixv(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> None:
    """:func:`_mix` in place over three uint32 arrays."""
    a -= c
    a ^= _rotv(c, 4)
    c += b
    b -= a
    b ^= _rotv(a, 6)
    a += c
    c -= b
    c ^= _rotv(b, 8)
    b += a
    a -= c
    a ^= _rotv(c, 16)
    c += b
    b -= a
    b ^= _rotv(a, 19)
    a += c
    c -= b
    c ^= _rotv(b, 4)
    b += a


def _finalv(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> None:
    """:func:`_final` in place over three uint32 arrays."""
    c ^= b
    c -= _rotv(b, 14)
    a ^= c
    a -= _rotv(c, 11)
    b ^= a
    b -= _rotv(a, 25)
    c ^= b
    c -= _rotv(b, 16)
    a ^= c
    a -= _rotv(c, 4)
    b ^= a
    b -= _rotv(a, 14)
    c ^= b
    c -= _rotv(b, 24)


def bob_hash64_many(blob: bytes, lengths: np.ndarray, seed: int = 0
                    ) -> np.ndarray:
    """:func:`bob_hash64` of every key in a batch, as a uint64 array.

    ``blob`` is the keys' bytes concatenated and ``lengths`` their byte
    lengths, in order. Keys are grouped by their count of 12-byte
    blocks; each group's bytes are gathered into a zero-padded
    ``(m, 12 * blocks)`` matrix and read as little-endian words. A
    zero-padded tail adds the same words as lookup3's byte-wise tail
    switch, so every group runs the plain block loop: ``blocks - 1``
    mixes, then the last block and ``final``. An empty key skips
    ``final``, as lookup3 does.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    # Twelve zero bytes past the end let every block gather read in range.
    data = np.frombuffer(bytes(blob) + bytes(12), dtype=np.uint8)
    starts = np.cumsum(lengths) - lengths
    blocks = (lengths + 11) // 12
    init = (lengths + (0xDEADBEEF + (seed & _MASK32))).astype(np.uint32)
    out = np.empty(len(lengths), dtype=np.uint64)
    # bincount, not np.unique: it finds the block counts present without
    # a lazy submodule import on the first call.
    for nblocks in np.flatnonzero(np.bincount(blocks)).tolist():
        rows = np.flatnonzero(blocks == nblocks)
        a = init[rows]
        b = a.copy()
        c = a + np.uint32((seed >> 32) & _MASK32)
        if nblocks:
            cols = np.arange(12 * nblocks)
            raw = data[starts[rows, None] + cols]
            raw[cols >= lengths[rows, None]] = 0
            words = raw.view("<u4")
            for block in range(nblocks):
                a += words[:, 3 * block]
                b += words[:, 3 * block + 1]
                c += words[:, 3 * block + 2]
                if block < nblocks - 1:
                    _mixv(a, b, c)
            _finalv(a, b, c)
        out[rows] = (b.astype(np.uint64) << np.uint64(32)) | c
    return out
