"""Ablation A2 — Kirsch-Mitzenmacher double hashing vs independent hashes.

The paper evaluates ``k`` independently-seeded Bob Hashes per item; this
reproduction derives the ``k`` cell indexes from one 64-bit base hash
via double hashing (DESIGN.md). Kirsch & Mitzenmacher proved the
substitution preserves Bloom-filter asymptotics; this ablation verifies
it empirically on the actual workload: the measured BF+clock FPR under
both schemes should agree within sampling noise at every budget.
"""

from __future__ import annotations

import numpy as np

from ...core.activeness import ClockBloomFilter
from ...core.params import cells_for_memory, optimal_k_membership
from ...hashing import bulk_base_hashes, key_ids
from ...timebase import count_window
from ...units import kb_to_bits
from ..harness import ExperimentResult, cached_trace, membership_query_keys


class _IndependentHashes(ClockBloomFilter):
    """BF+clock whose ``k`` cells come from ``k`` independently-seeded
    base hashes, one cell each, instead of double hashing one base."""

    def _batch_cells(self, items) -> np.ndarray:
        ids = key_ids(items)
        return np.stack([
            (bulk_base_hashes(ids, seed=self.seed * 1000 + i)
             % np.uint64(self.n)).astype(np.int64)
            for i in range(self.k)
        ], axis=1)

    def _item_cells(self, item) -> np.ndarray:
        return self._batch_cells([item])[0]


def run(quick: bool = False, seed: int = 1,
        window_length: int = 1 << 14,
        memories_kb=(8, 16, 32, 64),
        s: int = 2) -> ExperimentResult:
    """Run the hashing-scheme ablation."""
    if quick:
        window_length = 1 << 12
        memories_kb = (8, 32)

    result = ExperimentResult(
        title="Ablation A2: double hashing vs independent hash functions",
        columns=["memory_kb", "k", "fpr_double_hashing", "fpr_independent"],
        notes=[
            f"T={window_length}, s={s}, CAIDA-like; same query set",
            "expected: the two columns agree within sampling noise",
        ],
    )

    window = count_window(window_length)
    stream = cached_trace("caida", 10 * window_length, window_length, seed)
    keys = stream.keys
    times = np.arange(1, len(keys) + 1, dtype=np.float64)
    t_query = float(len(keys))
    query_keys, _ = membership_query_keys(keys, times, t_query, window)

    for memory_kb in memories_kb:
        n = cells_for_memory(kb_to_bits(memory_kb), s)
        k = optimal_k_membership(n, window_length, s)
        fpr = {}
        for name, kind in (("fpr_double_hashing", ClockBloomFilter),
                           ("fpr_independent", _IndependentHashes)):
            bf = kind(n, k, s, window, seed)
            bf.insert_many(keys)
            fpr[name] = float(np.mean(bf.query_many(query_keys, t=t_query)))
        result.add(memory_kb=memory_kb, k=k, **fpr)
    return result
