"""Batch-engine speedup: ``insert_many`` vs the per-item ``insert`` loop.

Not a paper figure — this is the library's own performance experiment
for the batch-ingestion engine. For each Clock-sketch variant (exact
``vector`` sweep mode, Table 3's configurations) it measures items/sec
through the per-item ``insert`` hot path and through the fused
``insert_many`` path on the same synthetic trace, and reports the
speedup. Both paths leave the sketch in bit-identical state (see
:mod:`repro.engine`), so the speedup is a pure implementation win.

The scalar loop is measured on a bounded prefix of the stream (pure
Python at ~10^5 items/sec would otherwise dominate the run) — items/sec
is rate-based, so the ratio is unaffected.

Three more rows drive a serving tenant's four-task monitor with string
keys (``observe_many`` vs per-key ``observe``). Two use 2,000-key
frames: ``monitor_str_hot`` replays the caida stream as decimal
strings, where keys repeat; ``monitor_str_fresh`` sends keys never used
before in the process, so no per-key work can be reused. Their
``batch_ips`` ratio shows whether key hashing has a cliff on
all-distinct floods. ``monitor_str_small`` replays the hot keys'
scalar-loop prefix in 32-key frames, where the fixed cost of each
frame (fan-out, cell derivation, the finishers' sweep) dominates; its
``batch_ips`` ratio to ``monitor_str_hot`` shows what a small frame
costs per key.
"""

from __future__ import annotations

import itertools

from ...serve import TenantConfig
from ..harness import ExperimentResult, cached_trace, drive_inserts
from ..metrics import measure_throughput
from .table3_throughput import CONFIGS, build_variant

#: Keys per ``observe_many`` call in the monitor rows (one wire frame).
MONITOR_FRAME = 2000

#: Keys per frame in the ``monitor_str_small`` row.
SMALL_FRAME = 32

DEFAULT_ITEMS = 1_000_000

#: Items replayed through the scalar loop (per variant).
DEFAULT_SCALAR_CAP = 50_000


#: Source of the ``monitor_str_fresh`` keys: never repeats in a process.
_FRESH = itertools.count()


def _fresh_keys(count: int) -> "list[str]":
    """``count`` 16-hex-digit keys not handed out before in this process."""
    return [f"{next(_FRESH):016x}" for _ in range(count)]


def _monitor_row(result: ExperimentResult, variant: str, keys: list,
                 prefix: list, seed: int,
                 frame: int = MONITOR_FRAME) -> None:
    config = TenantConfig(window_length=4096, memory="64KB", seed=seed)
    scalar = config.build_monitor()

    def per_key() -> None:
        for key in prefix:
            scalar.observe(key)

    batch = config.build_monitor()

    def framed() -> None:
        for start in range(0, len(keys), frame):
            batch.observe_many(keys[start:start + frame])

    scalar_ips = measure_throughput(per_key, len(prefix)).mops * 1e6
    batch_ips = measure_throughput(framed, len(keys)).mops * 1e6
    result.add(variant=variant, n_items=len(keys), scalar_ips=scalar_ips,
               batch_ips=batch_ips, speedup=batch_ips / scalar_ips)


def run(quick: bool = False, seed: int = 1, n_items: int = DEFAULT_ITEMS,
        scalar_cap: int = DEFAULT_SCALAR_CAP) -> ExperimentResult:
    """Measure scalar vs batch ingestion throughput for every variant."""
    if quick:
        n_items = 20_000
        scalar_cap = 4_000
    result = ExperimentResult(
        title="Batch engine: insert_many vs per-item insert (items/sec)",
        columns=["variant", "n_items", "scalar_ips", "batch_ips", "speedup"],
        notes=[
            "exact (vector) sweep mode; both paths are bit-identical, "
            "the speedup is pure implementation",
            f"scalar loop measured on a {scalar_cap}-item prefix "
            "(rate-based comparison)",
        ],
    )
    for name in CONFIGS:
        stream = cached_trace("caida", n_items=n_items,
                              window_hint=CONFIGS[name]["window"], seed=seed)
        prefix = stream.keys[: min(scalar_cap, len(stream.keys))]
        scalar_sketch = build_variant(name, seed)
        scalar_res = measure_throughput(
            lambda: drive_inserts(scalar_sketch, prefix, scalar=True),
            len(prefix),
        )
        batch_sketch = build_variant(name, seed)
        batch_res = measure_throughput(
            lambda: drive_inserts(batch_sketch, stream.keys),
            len(stream.keys),
        )
        scalar_ips = scalar_res.mops * 1e6
        batch_ips = batch_res.mops * 1e6
        result.add(variant=name, n_items=len(stream.keys),
                   scalar_ips=scalar_ips, batch_ips=batch_ips,
                   speedup=batch_ips / scalar_ips)
    hot = [str(key) for key in cached_trace(
        "caida", n_items=n_items, window_hint=4096, seed=seed).keys.tolist()]
    _monitor_row(result, "monitor_str_hot", hot, hot[:scalar_cap], seed)
    _monitor_row(result, "monitor_str_fresh", _fresh_keys(len(hot)),
                 _fresh_keys(min(scalar_cap, len(hot))), seed)
    _monitor_row(result, "monitor_str_small", hot[:scalar_cap],
                 hot[:scalar_cap], seed, frame=SMALL_FRAME)
    return result
