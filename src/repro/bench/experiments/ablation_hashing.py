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

from ...core.clockarray import ClockArray
from ...core.params import cells_for_memory, optimal_k_membership
from ...hashing import bulk_base_hashes
from ...kernels import numpy_backend as _kernels
from ...timebase import count_window
from ...units import kb_to_bits
from ..harness import ExperimentResult, cached_trace, membership_query_keys


def _independent_index_matrix(keys: np.ndarray, n: int, k: int,
                              seed: int) -> np.ndarray:
    """k index columns from k independently-seeded base hashes."""
    columns = [
        (bulk_base_hashes(keys, seed=seed * 1000 + i) % np.uint64(n))
        .astype(np.int64)
        for i in range(k)
    ]
    return np.stack(columns, axis=1)


def _membership_with_matrix(index_matrix, query_matrix, set_steps, probe,
                            n, query_steps):
    last_set = np.full(n, -1, dtype=np.int64)
    k = index_matrix.shape[1]
    np.maximum.at(last_set, index_matrix.ravel(), np.repeat(set_steps, k))
    values = np.zeros(n, dtype=np.int64)
    touched = np.flatnonzero(last_set >= 0)
    values[touched] = _kernels.snapshot_values(
        last_set[touched], touched, n, probe.max_value, query_steps)
    return np.all(values[query_matrix] > 0, axis=1)


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

    from ...hashing import IndexDeriver

    for memory_kb in memories_kb:
        bits = kb_to_bits(memory_kb)
        n = cells_for_memory(bits, s)
        k = optimal_k_membership(n, window_length, s)
        probe = ClockArray(n, s, window)
        insert_times = np.arange(1, len(keys) + 1, dtype=np.int64)
        set_steps = (
            insert_times * np.int64(n) * np.int64(probe.circles_per_window)
        ) // np.int64(window_length)
        query_steps = probe.total_steps_at(t_query)

        deriver = IndexDeriver(n=n, k=k, seed=seed)
        double = _membership_with_matrix(
            deriver.bulk(keys), deriver.bulk(query_keys), set_steps, probe,
            n, query_steps,
        )
        independent = _membership_with_matrix(
            _independent_index_matrix(keys, n, k, seed),
            _independent_index_matrix(query_keys, n, k, seed),
            set_steps, probe, n, query_steps,
        )
        result.add(
            memory_kb=memory_kb, k=k,
            fpr_double_hashing=float(np.mean(double)),
            fpr_independent=float(np.mean(independent)),
        )
    return result
