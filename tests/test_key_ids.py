"""Key ids: one 64-bit id per key, and every sketch seeds from the id.

The guarantees under test:

- ``key_id(x) == key_ids([x])[0]`` over the whole key domain (unbounded
  ints, bools, numpy ints, any Unicode including lone surrogates,
  bytes, nested tuples) and for mixed batches;
- a sketch fed ``x`` and a sketch fed ``key_id(x)`` hold the same
  cells, on the scalar and the batch path;
- integer keys sit in exactly the cells they occupied before key ids
  existed (values pinned from the earlier scheme);
- the monitor's scalar and batch paths report identically for every
  string key;
- state hashed under the earlier scheme is refused, never misread.
"""

import io
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    ClockBitmap,
    ClockBloomFilter,
    ClockCountMin,
    ClockTimeSpanSketch,
    ConfigurationError,
    ItemBatchMonitor,
    count_window,
)
from repro.errors import CheckpointError
from repro.hashing import IndexDeriver, key_id, key_ids
from repro.serialize import dumps_sketch, loads_sketch
from repro.serve import CheckpointManager, TenantConfig
from repro.serve.tenants import Tenant

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True)

text = st.text(alphabet=st.characters() | st.characters(categories=["Cs"]),
               max_size=10)
numpy_ints = (st.integers(-2**63, 2**63 - 1).map(np.int64)
              | st.integers(0, 2**64 - 1).map(np.uint64)
              | st.integers(-128, 127).map(np.int8))
leaves = st.integers() | st.booleans() | numpy_ints | text | st.binary(max_size=10)
any_key = st.recursive(leaves, lambda inner: st.lists(inner, max_size=3).map(tuple),
                       max_leaves=6)
string_keys = st.text(alphabet=st.characters(codec="utf-8")
                      | st.characters(categories=["Cs"]),
                      min_size=1, max_size=6)

WINDOW = count_window(64)


def _sketches():
    return [ClockBloomFilter(n=1 << 16, k=3, s=2, window=WINDOW, seed=3),
            ClockBitmap(n=1 << 16, s=2, window=WINDOW, seed=4),
            ClockCountMin(width=1 << 14, depth=3, s=2, window=WINDOW, seed=5),
            ClockTimeSpanSketch(n=1 << 16, k=2, s=2, window=WINDOW, seed=6)]


def _cells(sketch):
    return np.flatnonzero(sketch.clock.values).tolist()


class TestKeyIdDomain:
    @given(key=any_key)
    @PROPERTY
    def test_scalar_equals_batch_of_one(self, key):
        ids = key_ids([key])
        assert ids.dtype == np.uint64
        assert int(ids[0]) == key_id(key)
        assert 0 <= key_id(key) < 2**64

    @given(keys=st.lists(any_key, max_size=12))
    @PROPERTY
    def test_mixed_batches_match_scalars(self, keys):
        assert key_ids(keys).tolist() == [key_id(k) for k in keys]

    @given(key=st.integers())
    @PROPERTY
    def test_an_int_is_its_own_id(self, key):
        assert key_id(key) == key % 2**64
        assert key_id(np.int64(key % 2**63)) == key % 2**63

    def test_int_arrays_keep_their_values(self):
        keys = np.array([0, 1, -1, 2**62], dtype=np.int64)
        assert key_ids(keys).tolist() == [0, 1, 2**64 - 1, 2**62]
        assert key_ids(keys.astype(np.uint64)).tolist() == \
            [0, 1, 2**64 - 1, 2**62]

    def test_bool_is_not_an_int(self):
        assert key_id(True) != 1 and key_id(False) != 0

    def test_lone_surrogate_has_an_id(self):
        assert key_id("\ud800x") == int(key_ids(["\ud800x"])[0])
        assert key_id("\ud800x") != key_id("\udc00x")

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            key_id(1.5)
        with pytest.raises(TypeError):
            key_ids(["a", 1.5])


class TestSketchesSeedFromTheId:
    @given(keys=st.lists(any_key, min_size=1, max_size=12))
    @PROPERTY
    def test_key_and_its_id_hold_the_same_cells(self, keys):
        ids = [key_id(k) for k in keys]
        for by_key, by_id in zip(_sketches(), _sketches()):
            for key, kid in zip(keys, ids):
                by_key.insert(key)
                by_id.insert(kid)
            assert _cells(by_key) == _cells(by_id)
        for by_key, by_id in zip(_sketches(), _sketches()):
            by_key.insert_many(keys)
            by_id.insert_many(key_ids(keys))
            assert _cells(by_key) == _cells(by_id)

    def test_deriver_batch_matches_scalar_on_mixed_keys(self):
        deriver = IndexDeriver(n=4096, k=3, seed=2)
        keys = ["a", 7, b"b", ("c", 1), True, -1, 2**70, np.int64(9)]
        assert [list(row) for row in deriver.bulk(keys)] == \
            [deriver.indexes(k) for k in keys]


class TestIntKeysKeepTheirCells:
    """Cells pinned from the scheme before key ids: ints must not move."""

    KEYS = [0, 1, -1, 2**63, 2**64 - 1, 12345, -2**63, 2**70]
    PINNED = {
        "ClockBloomFilter": [1730, 2706, 18085, 24427, 24520, 27054, 29851,
                             30955, 34003, 34673, 34993, 45277, 46521,
                             63500, 65030],
        "ClockBitmap": [640, 41706, 47923, 50687, 63022],
        "ClockCountMin": [2915, 3650, 13025, 15525, 16293, 20593, 20975,
                          21175, 27733, 31393, 32830, 33423, 36709, 39741,
                          42480],
        "ClockTimeSpanSketch": [9373, 14108, 16516, 17432, 18637, 32868,
                                34165, 43836, 48759, 64445],
    }
    DERIVER_SEED_7 = {
        0: [625347, 983892, 293861],
        -1: [920708, 832397, 744086],
        2**63: [497368, 254101, 10834],
    }

    def test_scalar_path(self):
        for sketch in _sketches():
            for key in self.KEYS:
                sketch.insert(key)
            assert _cells(sketch) == self.PINNED[type(sketch).__name__]

    def test_batch_path(self):
        for sketch in _sketches():
            sketch.insert_many(self.KEYS)
            assert _cells(sketch) == self.PINNED[type(sketch).__name__]

    def test_deriver_indexes(self):
        deriver = IndexDeriver(n=1 << 20, k=3, seed=7)
        for key, cells in self.DERIVER_SEED_7.items():
            assert deriver.indexes(key) == cells
            assert deriver.bulk([key]).tolist() == [cells]


class TestMonitorScalarBatchIdentity:
    @given(keys=st.lists(string_keys, min_size=1, max_size=60),
           chunk=st.integers(1, 25))
    @PROPERTY
    def test_every_string_key_reports_identically(self, keys, chunk):
        scalar = ItemBatchMonitor(WINDOW, memory="8KB", seed=11)
        batch = ItemBatchMonitor(WINDOW, memory="8KB", seed=11)
        for key in keys:
            scalar.observe(key)
        for lo in range(0, len(keys), chunk):
            batch.observe_many(keys[lo:lo + chunk])
        for key in set(keys) | {"never-seen"}:
            assert scalar.report(key) == batch.report(key)
        assert scalar.active_batches() == batch.active_batches()
        for mine, theirs in zip(scalar._sketches, batch._sketches):
            assert np.array_equal(mine.clock.values, theirs.clock.values)


def _without_hash_scheme(payload: bytes) -> bytes:
    """The same payload as the earlier format wrote it: no scheme field."""
    with np.load(io.BytesIO(payload), allow_pickle=False) as npz:
        fields = {name: npz[name] for name in npz.files
                  if not name.endswith("hash_scheme")}
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **fields)
    return buffer.getvalue()


class TestEarlierSchemeIsRefused:
    def test_payload_without_scheme_raises_configuration_error(self):
        for sketch in _sketches():
            sketch.insert_many(["a", "b", 3])
            payload = dumps_sketch(sketch)
            assert _cells(loads_sketch(payload)) == _cells(sketch)
            with pytest.raises(ConfigurationError, match="hash scheme"):
                loads_sketch(_without_hash_scheme(payload))

    def test_ckpt_1_archive_falls_back_through_checkpoint_error(
            self, tmp_path):
        config = TenantConfig(window_length=64, memory="16KB", seed=5)
        tenant = Tenant("t0", config, config.build_monitor())
        manager = CheckpointManager(tmp_path)
        tenant.ingest([f"key-{i}" for i in range(30)], None)
        manager.write(tenant)
        tenant.ingest([f"key-{i}" for i in range(30, 60)], None)
        path = manager.write(tenant)
        with zipfile.ZipFile(path) as archive:
            members = {name: archive.read(name)
                       for name in archive.namelist()}
        with zipfile.ZipFile(path, "w") as archive:
            for name, blob in members.items():
                if name == "meta.json":
                    blob = blob.replace(b"repro-ckpt-2", b"repro-ckpt-1")
                else:
                    blob = _without_hash_scheme(blob)
                archive.writestr(name, blob)
        with pytest.raises(CheckpointError, match="repro-ckpt-1"):
            manager._load(path, None)
        restored = manager.restore("t0")
        assert restored is not None and restored.fell_back
        assert restored.meta["position"] == 30.0
