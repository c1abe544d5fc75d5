"""Golden regression tests.

Pin exact outputs of deterministic components so behavioural drift
(hash tweaks, schedule changes, generator edits) is caught immediately.
The first value is externally verifiable: lookup3.c's own documentation
gives ``hashlittle("Four score and seven years ago", 0) = 0x17770551``,
which our pure-Python port reproduces — the port is bit-faithful.
"""

import numpy as np
import pytest

from repro.core.activeness import ClockBloomFilter
from repro.datasets import caida_like
from repro.hashing import bob_hash64, scalar_base_hash
from repro.hashing.bobhash import hashlittle
from repro.timebase import count_window


class TestHashGoldens:
    def test_lookup3_published_reference_value(self):
        # From Bob Jenkins' lookup3.c: the canonical 30-byte test string.
        assert hashlittle(b"Four score and seven years ago", 0) == 0x17770551

    def test_bob_hash64(self):
        assert bob_hash64(b"clock-sketch", 7) == 0xD1BF0A1AB9410BC6

    def test_splitmix_scalar(self):
        assert scalar_base_hash(123456, 9) == 0xCE06743EF1B3C197


class TestWorkloadGoldens:
    def test_caida_like_is_bit_stable(self):
        stream = caida_like(n_items=5000, window_hint=512, seed=42)
        assert int(stream.keys.sum()) == 67051
        assert float(stream.times.sum()) == pytest.approx(8705410.485,
                                                          abs=0.01)

    def test_snapshot_membership_fixed_workload(self):
        rng = np.random.default_rng(3)
        keys = rng.integers(0, 400, size=4000)
        bf = ClockBloomFilter(n=1024, k=3, s=2, window=count_window(512),
                              seed=11)
        bf.insert_many(keys)
        answers = bf.query_many(np.arange(1000), t=4000)
        assert int(answers.sum()) == 464
