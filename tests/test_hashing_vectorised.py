"""The vectorised lookup3 behind every batch key id.

``BobHashFamily.hash_many`` hashes a whole batch as uint32 array
operations (``bob_hash64_many``) and keeps nothing between calls. The
guarantees under test:

- it equals the scalar reference ``bob_hash64(canonical_bytes(k), seed)``
  key for key over the whole key domain (any Unicode including lone
  surrogates, bytes, bools, numpy ints, nested tuples), at every byte
  length across the 12-byte block boundaries, for batches of 0, 1 and
  65,536 keys, and for seeds with both 32-bit halves non-zero;
- neither family holds any per-key state after hashing;
- the first batch a freshly built serving monitor ingests, and the
  first query after it, import no module, plain or sharded (a lazy
  numpy import would land in the service's first frame, and for the
  process router after its workers fork);
- a plain tenant's server never loads the modules it does not use.
"""

import os
import pathlib
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.hashing import (
    Blake2HashFamily,
    BobHashFamily,
    bob_hash64,
    bob_hash64_many,
    canonical_bytes,
)

PROPERTY = settings(max_examples=120, deadline=None, derandomize=True)

#: Zero, one half set, and both 32-bit halves set.
SEEDS = [0, 7, 0xDEADBEEF << 32, (0x9E3779B9 << 32) | 0x7F4A7C15,
         2**64 - 1]

text = st.text(alphabet=st.characters() | st.characters(categories=["Cs"]),
               max_size=40)
numpy_ints = (st.integers(-2**63, 2**63 - 1).map(np.int64)
              | st.integers(0, 2**64 - 1).map(np.uint64)
              | st.integers(-128, 127).map(np.int8))
leaves = (st.integers() | st.booleans() | numpy_ints | text
          | st.binary(max_size=40))
any_key = st.recursive(leaves,
                       lambda inner: st.lists(inner, max_size=3).map(tuple),
                       max_leaves=6)


def reference(keys, seed):
    return [bob_hash64(canonical_bytes(k), seed) for k in keys]


def hashed(keys, seed):
    out = BobHashFamily(seed).hash_many(keys)
    assert out.dtype == np.uint64 and out.shape == (len(keys),)
    return out.tolist()


class TestAgainstScalarReference:
    @given(keys=st.lists(any_key, max_size=24), seed=st.sampled_from(SEEDS))
    @PROPERTY
    def test_any_keys(self, keys, seed):
        assert hashed(keys, seed) == reference(keys, seed)

    @given(keys=st.lists(text, max_size=24), seed=st.sampled_from(SEEDS))
    @PROPERTY
    def test_string_batches(self, keys, seed):
        # All-str batches: the one-piece ASCII encoding, or per key.
        assert hashed(keys, seed) == reference(keys, seed)

    @given(blobs=st.lists(st.binary(max_size=40), max_size=24),
           seed=st.sampled_from(SEEDS))
    @PROPERTY
    def test_raw_bytes(self, blobs, seed):
        lengths = np.array([len(b) for b in blobs], dtype=np.int64)
        assert bob_hash64_many(b"".join(blobs), lengths, seed).tolist() == \
            [bob_hash64(b, seed) for b in blobs]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_length_to_40_bytes(self, seed):
        keys = ["".join(chr(ord("a") + i % 26) for i in range(n))
                for n in range(41)]
        assert [len(canonical_bytes(k)) for k in keys] == list(range(41))
        assert hashed(keys, seed) == reference(keys, seed)

    @pytest.mark.parametrize("char", ["é", "€", "\U0001F600",
                                      "\ud800"],
                             ids=["2-byte", "3-byte", "4-byte", "surrogate"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_multibyte_chars_straddle_each_block_boundary(self, char, seed):
        # An ASCII prefix of every length 0..40 puts the multibyte char
        # across each of the 12-, 24- and 36-byte boundaries.
        keys = ["x" * n + char for n in range(41)]
        keys += ["x" * n + char * 3 for n in range(41)]
        assert hashed(keys, seed) == reference(keys, seed)

    def test_bools_ints_and_tuples_stay_apart(self):
        keys = [True, 1, False, 0, (True,), (1,), ("a", True), ("a", 1),
                ()]
        got = hashed(keys, 0)
        assert got == reference(keys, 0)
        assert len(set(got)) == len(keys)

    @pytest.mark.parametrize("size", [0, 1, 65_536])
    @pytest.mark.parametrize("seed", [0, (0x9E3779B9 << 32) | 0x7F4A7C15])
    def test_mixed_length_batches(self, size, seed):
        rng = np.random.default_rng(size)
        lengths = rng.integers(0, 41, size=size).tolist()
        keys = [f"{int(v):x}"[:n].rjust(n, "k")
                for v, n in zip(rng.integers(0, 2**62, size=size), lengths)]
        # Every tenth key non-ASCII, so both encodings are exercised.
        mixed = [k + "é" if i % 10 == 0 else k
                 for i, k in enumerate(keys)]
        for batch in (keys, mixed):
            assert hashed(batch, seed) == reference(batch, seed)


class TestNoMemo:
    @pytest.mark.parametrize("family_cls", [BobHashFamily, Blake2HashFamily])
    def test_hashing_keeps_no_per_key_state(self, family_cls):
        fam = family_cls(seed=3)
        before = dict(vars(fam))
        keys = [f"{i:016x}" for i in range(5_000)]
        assert fam.hash_many(keys).tolist() == [fam.base64(k) for k in keys]
        assert vars(fam) == before


COLD_START = textwrap.dedent("""
    import sys
    import threading
    import repro.serve
    threads, loaded = threading.active_count(), set(sys.modules)
    monitor = repro.serve.TenantConfig(window_length=4096, memory="64KB",
                                       seed=1, **%s).build_monitor()
    before = set(sys.modules)
    monitor.observe_many([f"{i:016x}" for i in range(250)])
    monitor.report("0000000000000007")  # the barrier and merge, if sharded
    print(sorted(set(sys.modules) - before))
    # Across build, first batch and query: no multiprocessing (its
    # queues each start a feeder thread) and no thread of any kind.
    print(sorted(name for name in set(sys.modules) - loaded
                 if name.startswith("multiprocessing")),
          threading.active_count() - threads)
    monitor.close()
""")

#: What a plain tenant's server never needs: the stream-analysis
#: package, checkpoint serialisation, the shard layer and its key
#: hashing, the metric primitives, event records and metrics exposition
#: of a disabled switchboard, the §5 error models, the SWAMP
#: fingerprints, and hashlib (only a BLAKE2 family needs it), nor
#: multiprocessing, which nothing in repro loads.
UNUSED_BY_PLAIN_TENANT = (
    "repro.streams", "repro.streams.batches", "repro.streams.groundtruth",
    "repro.streams.model", "repro.streams.statistics", "repro.streams.topk",
    "repro.serialize", "repro.serve.checkpoint", "repro.shard",
    "repro.shard.router", "repro.shard.workers", "repro.obs.export",
    "repro.obs.metrics", "repro.obs.events", "repro.analysis",
    "repro.analysis.cardinality", "repro.analysis.membership",
    "repro.analysis.size", "repro.analysis.timespan",
    "repro.hashing.fingerprint", "repro.hashing.sharding",
    "hashlib", "_hashlib", "_blake2", "multiprocessing",
)

PLAIN_SERVER = textwrap.dedent("""
    import sys
    import repro.obs
    import repro.obs.trace
    import repro.serve
    config = repro.serve.TenantConfig(window_length=4096, memory="64KB",
                                      seed=1)
    repro.serve.IngestService(config)  # no checkpoint directory
    config.build_monitor().observe_many([f"{i:016x}" for i in range(250)])
    print(sorted(set(sys.modules) & set(%r)))
""")


def _run(script):
    env = dict(os.environ,
               PYTHONPATH=str(pathlib.Path(repro.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         check=True, capture_output=True, text=True,
                         timeout=120)
    return out.stdout.strip()


@pytest.mark.parametrize("tenant", [
    {},
    {"shards": 2, "router": "serial"},
    # The parent scatters after its workers fork: a lazy import there
    # would also dirty pages it shares with them.
    {"shards": 2, "router": "process"},
], ids=["plain", "serial-2", "process-2"])
def test_first_batch_imports_no_module(tenant):
    # A first call that lazily imports (np.unique does) would add its
    # import time to the service's first frame.
    first_batch, tenant_wide = _run(COLD_START % (tenant,)).splitlines()
    assert first_batch == "[]"
    assert tenant_wide == "[] 0"


def test_plain_tenant_loads_nothing_it_does_not_use():
    assert _run(PLAIN_SERVER % (UNUSED_BY_PLAIN_TENANT,)) == "[]"
