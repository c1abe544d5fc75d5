"""Ablation A1 — decomposing BF+clock's false positives.

§3.3 says errors come from two sources: hash collisions (a Bloom-filter
intrinsic) and the error window (recently-expired items whose clocks
have not yet drained). This ablation separates them by querying three
disjoint all-negative populations at several clock widths:

- ``recently_expired`` — seen keys whose batch expired within the last
  error window ``T/(2^s - 2)``: eligible for *both* error sources;
- ``long_expired`` — seen keys expired for more than ``2T``: their
  clocks have provably drained, so only collisions remain;
- ``never_seen`` — fresh keys: pure collision rate.

Expected shape: the ``recently_expired`` FPR exceeds the other two, and
the excess shrinks as ``s`` grows (the error window is ``T/(2^s-2)``),
while the pure-collision FPRs *rise* with ``s`` (fewer cells per bit) —
exactly the trade-off §5.1 optimises.
"""

from __future__ import annotations

import numpy as np

from ...core.activeness import ClockBloomFilter
from ...core.params import cells_for_memory, optimal_k_membership
from ...streams import last_occurrences
from ...timebase import count_window
from ...units import kb_to_bits
from ..harness import ExperimentResult, cached_trace


def run(quick: bool = False, seed: int = 1,
        window_length: int = 1 << 14,
        memory_kb: float = 32,
        s_values=(2, 3, 4, 6, 8)) -> ExperimentResult:
    """Run the FPR-decomposition ablation."""
    if quick:
        window_length = 1 << 12
        s_values = (2, 4, 8)

    result = ExperimentResult(
        title="Ablation A1: BF+clock FPR by query population",
        columns=["s", "k", "population", "queries", "fpr"],
        notes=[
            f"T={window_length}, memory={memory_kb}KB, CAIDA-like",
            "expected: recently_expired > long_expired ~= never_seen; "
            "the excess shrinks with s, the collision floor grows",
        ],
    )

    window = count_window(window_length)
    stream = cached_trace("caida", 10 * window_length, window_length, seed)
    keys = stream.keys
    times = np.arange(1, len(keys) + 1, dtype=np.float64)
    t_query = float(len(keys))
    bits = kb_to_bits(memory_kb)

    unique, last = last_occurrences(keys, times)
    age = t_query - last
    populations = {
        "long_expired": unique[age >= 2 * window_length],
        "never_seen": 10**15 + np.arange(100_000, dtype=np.int64),
    }

    for s in s_values:
        n = cells_for_memory(bits, s)
        k = optimal_k_membership(n, window_length, s)
        error_window = window_length / ((1 << s) - 2)
        recently = unique[(age >= window_length)
                          & (age < window_length + error_window)]
        pops = dict(populations)
        pops["recently_expired"] = recently
        bf = ClockBloomFilter(n, k, s, window, seed)
        bf.insert_many(keys)
        for name, query_keys in pops.items():
            if len(query_keys) == 0:
                result.add(s=s, k=k, population=name, queries=0, fpr=None)
                continue
            positives = bf.query_many(query_keys, t=t_query)
            result.add(s=s, k=k, population=name, queries=len(query_keys),
                       fpr=float(np.count_nonzero(positives)) / len(query_keys))
    return result
