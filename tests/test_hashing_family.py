"""Tests for item canonicalisation and the hash families."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing.family import (
    Blake2HashFamily,
    BobHashFamily,
    canonical_bytes,
)


class TestCanonicalBytes:
    def test_bytes_pass_through(self):
        assert canonical_bytes(b"raw") == b"raw"

    def test_int_is_eight_bytes_little_endian(self):
        assert canonical_bytes(1) == b"\x01" + b"\x00" * 7

    def test_negative_int_reduced_mod_2_64(self):
        assert canonical_bytes(-1) == b"\xff" * 8

    def test_str_utf8(self):
        assert canonical_bytes("héllo") == "héllo".encode("utf-8")

    def test_lone_surrogate_str_is_hashable(self):
        # JSON may carry "\ud800x"; it must hash, not raise.
        assert canonical_bytes("\ud800x") == b"\xed\xa0\x80x"
        assert canonical_bytes("\ud800x") != canonical_bytes("\udc00x")
        assert isinstance(BobHashFamily(0).base64("\ud800x"), int)

    def test_bool_distinct_from_int(self):
        assert canonical_bytes(True) != canonical_bytes(1)
        assert canonical_bytes(False) != canonical_bytes(0)

    def test_tuple_boundaries_matter(self):
        assert canonical_bytes(("ab", "c")) != canonical_bytes(("a", "bc"))

    def test_nested_tuples(self):
        assert canonical_bytes((1, ("a", 2))) == canonical_bytes((1, ("a", 2)))

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError, match="unhashable stream item"):
            canonical_bytes(3.14)

    @given(st.integers())
    @settings(max_examples=50, deadline=None)
    def test_every_int_canonicalises_to_8_bytes(self, value):
        assert len(canonical_bytes(value)) == 8


@pytest.mark.parametrize("family_cls", [BobHashFamily, Blake2HashFamily])
class TestFamilies:
    def test_deterministic(self, family_cls):
        fam = family_cls(seed=3)
        assert fam.base64("key") == fam.base64("key")

    def test_seeds_give_different_functions(self, family_cls):
        assert family_cls(seed=1).base64("key") != family_cls(seed=2).base64("key")

    def test_different_items_differ(self, family_cls):
        fam = family_cls(seed=0)
        values = {fam.base64(i) for i in range(500)}
        assert len(values) == 500

    def test_64_bit_range(self, family_cls):
        fam = family_cls(seed=0)
        values = [fam.base64(i) for i in range(200)]
        assert all(0 <= v < (1 << 64) for v in values)
        assert any(v > 0xFFFFFFFF for v in values)

    def test_repr_mentions_seed(self, family_cls):
        assert "seed=5" in repr(family_cls(seed=5))

    def test_memo_keeps_equal_but_distinct_items_apart(self, family_cls):
        # (False,) == (0,) and True == 1 as dict keys, but they hash
        # differently; a memo hit must not hand one the other's hash.
        fam = family_cls(seed=0)
        first = [(0,), 1, ("a", 1)]
        second = [(False,), True, ("a", True)]
        fam.hash_many(first)
        assert fam.hash_many(second).tolist() == \
            [fam.base64(item) for item in second]

    def test_mixed_item_types_supported(self, family_cls):
        fam = family_cls(seed=0)
        for item in [0, "zero", b"zero", ("zero", 0)]:
            assert isinstance(fam.base64(item), int)
