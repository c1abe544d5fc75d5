"""Incremental-structure evaluation for the span and size tasks.

Figures 10 and 11 evaluate per-key measurements (time span, batch
size), which have no closed-form snapshot: the sketch state depends on
the order cells expire and refill. These helpers replay a stream into
the real incremental structures and compare per-key answers against the
vectorised ground truth of :func:`repro.bench.harness.last_batches`.
"""

from __future__ import annotations

import numpy as np

from ..streams import Stream
from ..timebase import WindowSpec
from .harness import drive_inserts, effective_times, last_batches

__all__ = ["replay", "timespan_error_rate", "size_are", "active_last_batches"]

#: Cap on per-key queries per configuration (keeps scalar-path query
#: loops bounded; sampling is seeded and unbiased).
DEFAULT_QUERY_SAMPLE = 2000


def replay(sketch, stream: Stream, window: WindowSpec,
           limit: "int | None" = None):
    """Insert a stream prefix into a sketch; returns (keys, times) used."""
    keys = stream.keys[:limit]
    times = effective_times(stream, window)[:limit]
    drive_inserts(sketch, keys, None if window.is_count_based else times)
    return keys, times


def active_last_batches(keys: np.ndarray, times: np.ndarray, t_query: float,
                        window: WindowSpec):
    """Ground truth for per-key queries: each active key's last batch.

    Returns ``(keys, starts, sizes)`` restricted to batches active at
    ``t_query``.
    """
    bkeys, starts, ends, sizes = last_batches(keys, times, window)
    active = (t_query - ends) < window.length
    return bkeys[active], starts[active], sizes[active]


def _sample(rng: np.random.Generator, size: int, cap: int) -> np.ndarray:
    if size <= cap:
        return np.arange(size)
    return rng.choice(size, size=cap, replace=False)


def timespan_error_rate(sketch, stream: Stream, window: WindowSpec,
                        limit: "int | None" = None,
                        sample: int = DEFAULT_QUERY_SAMPLE,
                        seed: int = 0) -> float:
    """Replay a stream and measure the span error rate (§6.4's metric).

    Queries every (sampled) active batch at the prefix end; an answer
    is an error when the batch is reported inactive or its span differs
    from the truth. Exact comparison is sound because the sketch either
    answers exactly or overestimates.
    """
    keys, times = replay(sketch, stream, window, limit)
    t_query = float(times[-1])
    qkeys, starts, _sizes = active_last_batches(keys, times, t_query, window)
    rng = np.random.default_rng(seed)
    picked = _sample(rng, qkeys.size, sample)
    errors = 0
    for i in picked:
        result = sketch.query(int(qkeys[i]))
        true_span = t_query - starts[i]
        if not result.active or abs(result.span - true_span) > 1e-9:
            errors += 1
    return errors / max(len(picked), 1)


def size_are(sketch, stream: Stream, window: WindowSpec,
             limit: "int | None" = None,
             sample: int = DEFAULT_QUERY_SAMPLE,
             seed: int = 0) -> float:
    """Replay a stream and measure batch-size ARE (§6.5's metric)."""
    keys, times = replay(sketch, stream, window, limit)
    t_query = float(times[-1])
    qkeys, _starts, sizes = active_last_batches(keys, times, t_query, window)
    rng = np.random.default_rng(seed)
    picked = _sample(rng, qkeys.size, sample)
    estimates = sketch.query_many(qkeys[picked])
    truth = sizes[picked].astype(np.float64)
    return float(np.mean(np.abs(estimates - truth) / truth))
