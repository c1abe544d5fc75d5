"""Tests for index derivation — including scalar/bulk agreement, which
the snapshot evaluation paths depend on — and that it is written once."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.errors import ConfigurationError
from repro.hashing.indexing import (
    IndexDeriver,
    bulk_base_hashes,
    scalar_base_hash,
    splitmix64,
)


class TestSplitmix:
    def test_vectorised_matches_scalar(self):
        keys = np.arange(100, dtype=np.int64)
        bulk = bulk_base_hashes(keys, seed=7)
        for i in range(100):
            assert int(bulk[i]) == scalar_base_hash(i, seed=7)

    @given(st.integers(min_value=-(2**63), max_value=2**63 - 1),
           st.integers(0, 1000))
    @settings(max_examples=100, deadline=None)
    def test_scalar_equals_bulk_for_any_key(self, key, seed):
        bulk = int(bulk_base_hashes(np.array([key]), seed=seed)[0])
        assert bulk == scalar_base_hash(key, seed=seed)

    def test_distinct_seeds_decorrelate(self):
        keys = np.arange(1000)
        a = bulk_base_hashes(keys, seed=0)
        b = bulk_base_hashes(keys, seed=1)
        assert not np.any(a == b)

    def test_splitmix_avalanche(self):
        x = np.arange(1000, dtype=np.uint64)
        mixed = splitmix64(x)
        # Consecutive inputs should not produce correlated low bits.
        low = mixed & np.uint64(1)
        assert 400 < int(low.sum()) < 600


class TestIndexDeriver:
    def test_validates_arguments(self):
        with pytest.raises(ConfigurationError):
            IndexDeriver(n=0, k=1)
        with pytest.raises(ConfigurationError):
            IndexDeriver(n=8, k=0)

    def test_indexes_in_range(self):
        deriver = IndexDeriver(n=97, k=5, seed=1)
        for item in ["a", "b", 42, b"c"]:
            for idx in deriver.indexes(item):
                assert 0 <= idx < 97

    def test_returns_k_indexes(self):
        deriver = IndexDeriver(n=128, k=7, seed=0)
        assert len(deriver.indexes("x")) == 7

    @given(st.integers(min_value=0, max_value=2**62),
           st.integers(min_value=2, max_value=10_000),
           st.integers(min_value=1, max_value=8))
    @settings(max_examples=150, deadline=None)
    def test_scalar_and_bulk_paths_agree(self, key, n, k):
        deriver = IndexDeriver(n=n, k=k, seed=3)
        scalar = deriver.indexes(key)
        bulk = deriver.bulk(np.array([key]))[0]
        assert scalar == list(bulk)

    @given(st.integers(min_value=0, max_value=2**62),
           st.integers(min_value=2, max_value=10_000))
    @settings(max_examples=150, deadline=None)
    def test_first_bulk_column_matches_first_index(self, key, n):
        deriver = IndexDeriver(n=n, k=4, seed=9)
        assert int(deriver.bulk(np.array([key]))[0, 0]) == \
            deriver.indexes(key)[0]

    @given(st.lists(st.integers(0, 2**64 - 1) | st.text(), min_size=0,
                    max_size=12),
           st.lists(st.integers(0, 10**9), min_size=1, max_size=4),
           st.integers(min_value=1, max_value=10_000),
           st.integers(min_value=1, max_value=4))
    @settings(max_examples=100, deadline=None)
    def test_row_seeded_deriver_stacks_one_seed_rows(self, keys, seeds, n, k):
        # Row r is the one-seed deriver for seeds[r], shifted by r * n;
        # the scalar path is the matching bulk row.
        deriver = IndexDeriver(n=n, k=k, seed=tuple(seeds))
        matrix = deriver.bulk(keys)
        assert matrix.shape == (len(keys), len(seeds) * k)
        assert [list(row) for row in matrix] == \
            [deriver.indexes(key) for key in keys]
        for r, seed in enumerate(seeds):
            one = IndexDeriver(n=n, k=k, seed=seed).bulk(keys)
            assert np.array_equal(matrix[:, r * k:(r + 1) * k], one + r * n)

    def test_bulk_shape(self):
        deriver = IndexDeriver(n=64, k=3, seed=0)
        matrix = deriver.bulk(np.arange(10))
        assert matrix.shape == (10, 3)
        assert matrix.dtype == np.int64

    def test_probe_sequence_covers_table(self):
        # With h2 forced odd and n a power of two, the k probes of one
        # item never collapse onto a short cycle.
        deriver = IndexDeriver(n=16, k=16, seed=2)
        for item in range(50):
            assert len(set(deriver.indexes(item))) == 16

    def test_distribution_is_roughly_uniform(self):
        deriver = IndexDeriver(n=32, k=2, seed=5)
        counts = np.zeros(32, dtype=int)
        for item in range(4000):
            counts[deriver.indexes(item)] += 1
        expected = 4000 * 2 / 32
        assert counts.min() > 0.7 * expected
        assert counts.max() < 1.3 * expected

    def test_string_items_use_family_hash(self):
        deriver = IndexDeriver(n=1024, k=2, seed=4)
        assert deriver.indexes("flow-a") != deriver.indexes("flow-b")

    def test_numpy_integer_items_match_python_ints(self):
        deriver = IndexDeriver(n=1024, k=3, seed=4)
        assert deriver.indexes(np.int64(77)) == deriver.indexes(77)


class TestFullIntegerDomain:
    """Batches accept every Python int, reduced mod 2^64 like scalars."""

    EDGE_KEYS = [2**63, 2**64 - 1, -2**63 - 1, 2**70]

    def test_all_int_batch_beyond_int64_matches_scalar(self):
        deriver = IndexDeriver(n=64, k=3, seed=1)
        batch = self.EDGE_KEYS + [5, -7]
        matrix = deriver.bulk(batch)
        for row, key in zip(matrix, batch):
            assert list(row) == deriver.indexes(key)

    def test_each_edge_key_alone_and_mixed_with_strings(self):
        deriver = IndexDeriver(n=4096, k=2, seed=8)
        for key in self.EDGE_KEYS:
            assert list(deriver.bulk([key])[0]) == deriver.indexes(key)
            mixed = deriver.bulk([key, "x"])
            assert list(mixed[0]) == deriver.indexes(key)

    @given(st.lists(st.integers(), min_size=1, max_size=20),
           st.integers(0, 1000))
    @settings(max_examples=100, deadline=None)
    def test_any_int_batch_matches_scalar(self, keys, seed):
        deriver = IndexDeriver(n=1 << 16, k=3, seed=seed)
        matrix = deriver.bulk(keys)
        assert [list(row) for row in matrix] == \
            [deriver.indexes(key) for key in keys]


#: The base-hash and probe primitives behind ``IndexDeriver``.
_PRIMITIVES = {"splitmix64", "bulk_base_hashes", "scalar_base_hash",
               "derive_index_matrix"}
_LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp,
          ast.DictComp, ast.GeneratorExp)
#: A2's independent-hash column is that ablation's subject.
_EXEMPT = {"repro/bench/experiments/ablation_hashing.py"}


def _named(node) -> "str | None":
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    return None


class TestOneDerivation:
    """Every sketch places its keys through one ``IndexDeriver``: no module
    outside ``repro.hashing`` reaches for a base-hash or probe primitive,
    or builds derivers in a loop (one per row) instead of passing the
    rows' seeds to one."""

    def test_no_module_outside_hashing_derives_cells_itself(self):
        root = Path(repro.__file__).parent
        found = []
        for path in sorted(root.rglob("*.py")):
            name = path.relative_to(root.parent).as_posix()
            if name.startswith("repro/hashing/") or name in _EXEMPT:
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            found += [f"{name}:{getattr(node, 'lineno', '?')}: uses "
                      f"{_named(node)}" for node in ast.walk(tree)
                      if _named(node) in _PRIMITIVES]
            found += [f"{name}:{inner.lineno}: builds IndexDerivers in a loop"
                      for loop in ast.walk(tree) if isinstance(loop, _LOOPS)
                      for inner in ast.walk(loop)
                      if isinstance(inner, ast.Call)
                      and _named(inner.func) == "IndexDeriver"]
        assert found == []
