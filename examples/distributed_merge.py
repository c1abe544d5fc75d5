#!/usr/bin/env python3
"""Distributed measurement via mergeable Clock-sketches (§7 future work).

Three workers each observe a disjoint shard of the same logical stream
(sharded by a partitioner, as a Flink-style pipeline would). At a
synchronisation barrier their sketches are merged and the union answers
global activeness/cardinality queries — without any per-item
coordination.

Run:  python examples/distributed_merge.py
"""

import numpy as np

from repro import ClockBitmap, ClockBloomFilter, time_window
from repro.datasets import caida_like
from repro.streams import split_active_inactive

N_WORKERS = 3


def main() -> None:
    window = time_window(4096.0)
    stream = caida_like(n_items=60_000, window_hint=4096, seed=21)

    # Shard by key, as a keyed stream partitioner would.
    shard_of = stream.keys % N_WORKERS
    filters = [
        ClockBloomFilter.from_memory("16KB", window, seed=7)
        for _ in range(N_WORKERS)
    ]
    bitmaps = [
        ClockBitmap.from_memory("8KB", window, seed=8)
        for _ in range(N_WORKERS)
    ]
    for worker in range(N_WORKERS):
        mask = shard_of == worker
        filters[worker].insert_many(stream.keys[mask], stream.times[mask])
        bitmaps[worker].insert_many(stream.keys[mask], stream.times[mask])

    # Synchronisation barrier: align every sketch to the same stream
    # time, then merge.
    barrier = float(stream.times[-1])
    for sketch in filters + bitmaps:
        sketch.stream_clock.query(barrier)
        sketch.clock.advance(barrier)

    merged_filter = filters[0].merge(filters[1]).merge(filters[2])
    merged_bitmap = bitmaps[0].merge(bitmaps[1]).merge(bitmaps[2])

    active, _ = split_active_inactive(stream.keys, stream.times, barrier,
                                      window)
    rng = np.random.default_rng(0)
    sample = rng.choice(active, size=min(500, active.size), replace=False)
    found = sum(merged_filter.contains(int(key)) for key in sample)
    print(f"merged activeness: {found}/{len(sample)} active keys found "
          "(no false negatives expected)")
    print(f"merged cardinality: estimated "
          f"{merged_bitmap.estimate().value:.0f}, exact {active.size}")


if __name__ == "__main__":
    main()
