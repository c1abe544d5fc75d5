"""Table 3 — throughput and accuracy of all four Clock-sketch variants.

Paper columns: single-thread, multi-thread, and multi-thread+SIMD
throughput, plus single- and multi-thread accuracy. The reproduction's
mapping (DESIGN.md §4):

- "single-thread"      → ``sweep_mode="scalar"`` (per-cell Python sweep
  inline with inserts);
- "multi-thread"       → ``sweep_mode="deferred-scalar"`` (cleaning
  batched a full circle at a time, still per-cell — the unsynchronised
  background thread without SIMD; total cleaning work is unchanged, so
  throughput stays near single-thread, as in the paper);
- "multi-thread+SIMD"  → ``sweep_mode="deferred"`` (batched numpy range
  sweeps, and the activeness/cardinality variants chunk-vectorise their
  inserts too).

Expected shape: simd >> single ≈ multi throughput for every variant,
and deferred accuracy within a whisker of exact — the paper's
"cancelling synchronization will barely affect accuracy".
"""

from __future__ import annotations

from ...core import (
    ClockBitmap,
    ClockBloomFilter,
    ClockCountMin,
    ClockTimeSpanSketch,
)
from ...timebase import count_window
from ..harness import ExperimentResult, cached_trace, drive_inserts, true_cardinality
from ..incremental import size_are, timespan_error_rate
from ..metrics import measure_throughput

#: Paper configurations per row of Table 3.
CONFIGS = {
    "bf_clock": dict(memory="8KB", window=4096, s=2),
    "bm_clock": dict(memory="8KB", window=8192, s=8),
    "cm_clock": dict(memory="512KB", window=16384, s=8),
    "bf_ts_clock": dict(memory="128KB", window=4096, s=8),
}

#: (column, sweep_mode, scalar_driver). The single-thread column
#: replays the per-item ``insert`` hot path — the paper's inline
#: processing — while the threaded columns ingest through the batch
#: engine, whose deferred chunked path stands in for the paper's
#: unsynchronised cleaning thread.
MODES = (
    ("single", "scalar", True),
    ("multi", "deferred-scalar", False),
    ("simd", "deferred", False),
)


#: Each row's sketch kind.
KINDS = {
    "bf_clock": ClockBloomFilter,
    "bm_clock": ClockBitmap,
    "cm_clock": ClockCountMin,
    "bf_ts_clock": ClockTimeSpanSketch,
}

#: Query timings per variant; the best one is reported. The query ops
#: read at ``t=None`` and move no state, so every repeat is the same
#: work, and one takes milliseconds: a single timing is mostly noise.
REPEATS = 10


def build_variant(name: str, seed: int, sweep_mode: str = "vector"):
    """A fresh sketch of one Table 3 row, built from its ``CONFIGS``."""
    cfg = CONFIGS[name]
    return KINDS[name].from_memory(cfg["memory"], count_window(cfg["window"]),
                                   s=cfg["s"], seed=seed,
                                   sweep_mode=sweep_mode)


def _accuracy(name: str, sweep_mode: str, stream, seed: int):
    """The per-variant accuracy metric of Table 3 (RE / ARE / error rate)."""
    cfg = CONFIGS[name]
    window = count_window(cfg["window"])
    if name == "bf_clock":
        return None  # the paper reports no accuracy for BF+clock here
    sketch = build_variant(name, seed, sweep_mode)
    if name == "bm_clock":
        sketch.insert_many(stream.keys)
        truth = true_cardinality(stream, window)
        if truth == 0:
            return None
        return abs(sketch.estimate().value - truth) / truth
    if name == "cm_clock":
        return size_are(sketch, stream, window, seed=seed)
    return timespan_error_rate(sketch, stream, window, seed=seed)


def run(quick: bool = False, seed: int = 1, n_items: int = 50_000,
        scalar: bool = False) -> ExperimentResult:
    """Reproduce Table 3.

    ``scalar=True`` forces every mode through the per-item ``insert``
    loop (no batch engine anywhere), for hot-path regression tracking.
    """
    if quick:
        n_items = 10_000
    result = ExperimentResult(
        title="Table 3: throughput and accuracy of the Clock-sketch variants",
        columns=["variant", "s", "single_mops", "multi_mops", "simd_mops",
                 "query_mops", "accuracy_single", "accuracy_multi", "metric"],
        notes=[
            "single=scalar sweep, multi=deferred cleaning, simd=numpy "
            "sweep (DESIGN.md mapping); pure-Python Mops",
            f"query_mops: best of {REPEATS} runs on the simd sketch",
            "expected shape: simd >> single; multi accuracy ~= single",
        ],
    )
    metric_names = {"bf_clock": "-", "bm_clock": "RE", "cm_clock": "ARE",
                    "bf_ts_clock": "error_rate"}

    import numpy as np

    for name, cfg in CONFIGS.items():
        stream = cached_trace("caida", n_items=n_items,
                              window_hint=cfg["window"], seed=seed)
        mops = {}
        sketch = None
        for mode_name, sweep_mode, scalar_driver in MODES:
            sketch = build_variant(name, seed, sweep_mode)
            res = measure_throughput(
                lambda: drive_inserts(sketch, stream.keys,
                                      scalar=scalar or scalar_driver),
                len(stream),
            )
            mops[mode_name] = res.mops
        # Query throughput, on the last (simd) sketch, per the paper's
        # per-variant query numbers.
        rng = np.random.default_rng(seed)
        query_keys = rng.permutation(stream.keys)[:20_000]
        if name == "bf_clock":
            op = lambda: sketch.contains_many(query_keys)  # noqa: E731
        elif name == "bm_clock":
            op = lambda: [sketch.estimate()  # noqa: E731
                          for _ in range(len(query_keys) // 1000)]
        elif name == "cm_clock":
            op = lambda: sketch.query_many(query_keys)  # noqa: E731
        else:
            sample = query_keys[:2000]
            op = lambda: [sketch.query(int(key)) for key in sample]  # noqa: E731
        n_ops = (len(query_keys) if name in ("bf_clock", "cm_clock")
                 else (len(query_keys) // 1000 if name == "bm_clock" else 2000))
        query_mops = max(measure_throughput(op, n_ops).mops
                         for _ in range(REPEATS))

        acc_single = _accuracy(name, "scalar", stream, seed)
        acc_multi = _accuracy(name, "deferred", stream, seed)  # the threaded runs share accuracy
        result.add(variant=name, s=cfg["s"], single_mops=mops["single"],
                   multi_mops=mops["multi"], simd_mops=mops["simd"],
                   query_mops=query_mops,
                   accuracy_single=acc_single, accuracy_multi=acc_multi,
                   metric=metric_names[name])
    return result
