"""Checkpoint format guard and pins for the per-kind declarations.

``tests/data/payloads/`` holds one small payload per sketch kind plus a
two-shard :class:`~repro.shard.ShardedSketch`, each written by commit
``2cc13c0``, the last one whose ``snapshot``/``merge``/``metrics`` and
payload code were spelled out per kind. Every payload restores here
bit-identically to what that commit wrote, and a restored sketch keeps
ingesting exactly like a twin that never went through a checkpoint.

To rewrite the payloads (only when the format changes on purpose)::

    PYTHONPATH=<checkout>/src python tests/test_sketch_format.py tests/data/payloads

The recipes below use only API that commit ``2cc13c0`` already had.
"""

import io
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import (
    ClockBitmap,
    ClockBloomFilter,
    ClockCountMin,
    ClockTimeSpanSketch,
    count_window,
    time_window,
)
from repro.serialize import dump_sketch, dumps_sketch, load_sketch
from repro.shard import ShardedSketch

PAYLOADS = Path(__file__).parent / "data" / "payloads"


def _build(name):
    if name == "bf":
        return ClockBloomFilter(n=64, k=3, s=2, window=count_window(32),
                                seed=11)
    if name == "bm":
        return ClockBitmap(n=48, s=4, window=time_window(8.0), seed=12)
    if name == "cm":
        return ClockCountMin(width=32, depth=3, s=3, window=count_window(24),
                             counter_bits=6, seed=13, conservative=True)
    if name == "ts":
        return ClockTimeSpanSketch(n=64, k=2, s=4, window=time_window(10.0),
                                   seed=14, sweep_mode="deferred")
    if name == "sharded":
        return ShardedSketch(
            ClockCountMin(width=32, depth=2, s=4, window=count_window(40),
                          seed=15),
            shards=2, router="serial")
    raise ValueError(name)


NAMES = ["bf", "bm", "cm", "ts", "sharded"]


def _feed(sketch, phase):
    """Deterministic mixed int/str keys; ties in the time-based streams."""
    rng = np.random.default_rng(100 * phase + len(type(sketch).__name__))
    keys = [int(k) if k % 3 else f"key-{k}"
            for k in rng.integers(0, 40, size=90)]
    if sketch.window.is_count_based:
        sketch.insert_many(keys[:60])
        for key in keys[60:]:
            sketch.insert(key)
        return
    steps = rng.choice([0.0, 0.0, 0.25, 1.0], size=len(keys))
    times = sketch.now + 0.5 + np.cumsum(steps)
    sketch.insert_many(keys[:60], times[:60])
    for key, t in zip(keys[60:], times[60:]):
        sketch.insert(key, float(t))


def _made(name, phases):
    sketch = _build(name)
    for phase in range(phases):
        _feed(sketch, phase)
    return sketch


def _payload(data):
    with np.load(io.BytesIO(data), allow_pickle=False) as npz:
        return {key: npz[key] for key in npz.files}


def _plain_state(sketch, keys):
    """``sketch``'s value for every payload key, read off the object."""
    special = {
        "kind": lambda: type(sketch).__name__,
        "hash_scheme": lambda: None,
        "engine_min_fused": lambda: None,
        "window_length": lambda: sketch.window.length,
        "window_kind": lambda: sketch.window.kind.value,
        "sweep_mode": lambda: sketch.clock.sweep_mode,
        "clock_values": lambda: sketch.clock.values,
        "steps_done": lambda: sketch.clock.steps_done,
        "now": lambda: sketch.now,
        "items_inserted": lambda: sketch.items_inserted,
    }
    return {key: special.get(key, lambda: getattr(sketch, key))()
            for key in keys}


def _state(sketch, keys):
    """Like :func:`_plain_state`, for a plain or a sharded sketch."""
    if not isinstance(sketch, ShardedSketch):
        return _plain_state(sketch, keys)
    sketch.shard_set.barrier(sketch.now)  # as a payload writer does
    state = {"kind": "ShardedSketch", "shards": sketch.shards,
             "router_kind": sketch.router.kind,
             "selector_seed": sketch.selector.seed, "now": sketch.now,
             "items_inserted": sketch.items_inserted}
    for i, replica in enumerate(sketch.replicas):
        prefix = f"shard{i}__"
        inner = [key[len(prefix):] for key in keys if key.startswith(prefix)]
        for key, value in _plain_state(replica, inner).items():
            state[prefix + key] = value
    return state


def _assert_same(actual, expected):
    assert actual.keys() == expected.keys()
    for key, value in expected.items():
        got = actual[key]
        if value is None or got is None:
            continue
        if isinstance(got, np.ndarray) and got.ndim:
            assert np.asarray(value).dtype == got.dtype, key
            assert np.array_equal(np.asarray(value), got), key
        else:
            assert np.asarray(value).item() == np.asarray(got).item(), key


@pytest.fixture(params=NAMES)
def name(request):
    return request.param


class TestParentPayloads:
    def test_restores_bit_identically(self, name):
        path = PAYLOADS / f"{name}.npz"
        written = _payload(path.read_bytes())
        restored = load_sketch(path)
        _assert_same(_state(restored, written), written)
        twin = _made(name, 1)
        _assert_same(_state(restored, written), _state(twin, written))

    def test_keeps_ingesting_like_a_twin(self, name):
        restored = load_sketch(PAYLOADS / f"{name}.npz")
        twin = _made(name, 1)
        _feed(restored, 1)
        _feed(twin, 1)
        keys = list(_payload(dumps_sketch(twin)))
        _assert_same(_state(restored, keys), _state(twin, keys))
        probe = [int(k) for k in range(40)] + [f"key-{k}" for k in range(40)]
        if name == "bm":
            assert restored.estimate().value == twin.estimate().value
        answers = restored.query_many(probe), twin.query_many(probe)
        if name == "ts":
            for field in ("active", "span", "begin"):
                np.testing.assert_array_equal(getattr(answers[0], field),
                                              getattr(answers[1], field))
        else:
            np.testing.assert_array_equal(*answers)

    def test_payload_keys_and_dtypes_unchanged(self, name):
        written = _payload((PAYLOADS / f"{name}.npz").read_bytes())
        now = _payload(dumps_sketch(_made(name, 1)))
        dropped = {key for key in written
                   if key.endswith("engine_min_fused")}
        assert now.keys() == written.keys() - dropped
        for key, value in now.items():
            assert value.dtype == written[key].dtype, key


class TestDeclarationPins:
    def test_forwarded_config_sets(self):
        from repro.concurrent import _FORWARDED_CONFIG as locked
        from repro.core import KINDS
        from repro.shard.router import _FORWARDED_CONFIG as sharded
        expected = frozenset({
            "window", "n", "k", "s", "seed", "width", "depth",
            "conservative", "counter_bits", "counter_max", "max_value",
        })
        assert sharded == expected
        assert locked == expected | {"memory_bits"}
        declared = {"window", "counter_max", "max_value"}.union(
            *(kind._CONFIG for kind in KINDS))
        assert sharded == declared

    def test_sharded_facade_refuses_the_base_merge(self):
        from repro.errors import ConfigurationError
        left, right = _made("sharded", 1), _made("sharded", 1)
        with pytest.raises(ConfigurationError, match="snapshot"):
            left.merge(right)
        merged = left.snapshot().merge(right.snapshot())
        assert merged.items_inserted == 2 * left.items_inserted

    def test_conservative_and_plain_count_min_merge(self):
        window = time_window(100.0)
        plain = ClockCountMin(width=64, depth=2, s=6, window=window, seed=4)
        cons = ClockCountMin(width=64, depth=2, s=6, window=window, seed=4,
                             conservative=True)
        for t in range(1, 4):
            plain.insert("key", t=float(t))
            cons.insert("key", t=float(t))
        assert cons.merge(plain).query("key") == 6
        assert cons.conservative

    @pytest.mark.parametrize("kind, keys", [
        ("bf", ["k", "s"]),
        ("bm", ["s", "estimate", "saturated"]),
        ("cm", ["s", "depth", "width", "live_counters",
                "saturated_counters"]),
        ("ts", ["k", "s", "stamped_cells"]),
    ])
    def test_metrics_keys(self, kind, keys):
        head = ["task", "sketch", "memory_bits", "items_inserted",
                "fill_ratio"]
        assert list(_made(kind, 1).metrics()) == head + keys + ["sweep"]

if __name__ == "__main__":
    out = Path(sys.argv[1])
    out.mkdir(parents=True, exist_ok=True)
    for name in NAMES:
        dump_sketch(_made(name, 1), out / f"{name}.npz")
