"""Vectorised whole-stream evaluation of the baselines.

The accuracy experiments replay streams of 10^5-10^6 items into each
algorithm and read one answer at the end. Driving the incremental
structures item-by-item in Python is needlessly slow for algorithms
whose final state has a closed form; this module computes those final
states directly with numpy:

- SWAMP: a fingerprint is in the queue iff it occurred among the last
  ``w`` items;
- the Ideal filter: a plain Bloom filter over exactly the active keys;
- CVS: each cell holds ``max(c - D, 0)`` where ``D`` is the number of
  random decrements since the cell's last set; the decrements hitting a
  given cell are Binomial(total, 1/n), sampled per cell (statistically
  identical to replay because decrement targets are i.i.d. uniform).

TOBF and TSV need no copy here: their own ``insert_many`` writes a
batch in one order-free ``np.maximum.at``. The experiments measure TBF
as a TOBF with TBF's cell count and hashes (its cleaning scan only
removes cells the window test already rejects).

Property/statistical tests in ``tests/`` pin each snapshot to its
incremental twin.
"""

from __future__ import annotations

import numpy as np

from ..core.cardinality import CardinalityEstimate, linear_counting_estimate
from ..hashing import Fingerprinter, IndexDeriver
from ..timebase import WindowSpec
from .swamp import distinct_mle

__all__ = [
    "snapshot_swamp_ismember",
    "snapshot_swamp_distinct",
    "snapshot_ideal_membership",
    "snapshot_cvs_estimate",
]


def _resolve_times(keys, times) -> np.ndarray:
    if times is None:
        return np.arange(1, len(keys) + 1, dtype=np.float64)
    return np.asarray(times, dtype=np.float64)


def _window_fingerprints(keys, window_items: int,
                         fingerprint_bits: int, seed: int) -> np.ndarray:
    fp = Fingerprinter(fingerprint_bits, seed=seed)
    return fp.bulk(keys[-window_items:])


def snapshot_swamp_ismember(
    keys: np.ndarray,
    query_keys: np.ndarray,
    window_items: int,
    fingerprint_bits: int,
    seed: int = 0,
) -> np.ndarray:
    """Final-state SWAMP ISMEMBER over the last ``w`` items."""
    in_window = np.unique(
        _window_fingerprints(keys, window_items, fingerprint_bits, seed)
    )
    fp = Fingerprinter(fingerprint_bits, seed=seed)
    query_fps = fp.bulk(query_keys)
    return np.isin(query_fps, in_window)


def snapshot_swamp_distinct(
    keys: np.ndarray,
    window_items: int,
    fingerprint_bits: int,
    seed: int = 0,
) -> float:
    """Final-state SWAMP DISTINCTMLE over the last ``w`` items."""
    distinct = int(np.unique(
        _window_fingerprints(keys, window_items, fingerprint_bits, seed)
    ).size)
    return distinct_mle(distinct, fingerprint_bits)


def snapshot_ideal_membership(
    active_keys: np.ndarray,
    query_keys: np.ndarray,
    n: int,
    k: int,
    seed: int = 0,
) -> np.ndarray:
    """Membership in a plain Bloom filter over exactly the active keys."""
    deriver = IndexDeriver(n=n, k=k, seed=seed)
    bits = np.zeros(n, dtype=bool)
    bits[deriver.bulk(active_keys).ravel()] = True
    query_matrix = deriver.bulk(query_keys)
    return np.all(bits[query_matrix], axis=1)


def snapshot_cvs_estimate(
    keys: np.ndarray,
    times: "np.ndarray | None",
    t_query: float,
    n: int,
    window: WindowSpec,
    max_count: int = 10,
    seed: int = 0,
) -> CardinalityEstimate:
    """Final-state CVS estimate with per-cell binomial decrement sampling."""
    deriver = IndexDeriver(n=n, k=1, seed=seed)
    stamps = _resolve_times(keys, times)
    last = np.full(n, -np.inf, dtype=np.float64)
    np.maximum.at(last, deriver.bulk(keys)[:, 0], stamps)

    rng = np.random.default_rng(seed ^ 0xC5)
    decs_per_unit = max_count * n / window.length
    touched = np.isfinite(last)
    elapsed = np.clip(t_query - last[touched], 0.0, None)
    totals = np.floor(elapsed * decs_per_unit).astype(np.int64)
    decrements = rng.binomial(totals, 1.0 / n)
    values = np.maximum(max_count - decrements, 0)
    nonzero = int(np.count_nonzero(values))
    return linear_counting_estimate(n - nonzero, n)
