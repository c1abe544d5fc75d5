"""Shared experiment machinery.

Everything the per-figure experiment modules have in common lives here:

- :class:`ExperimentResult` / :func:`format_table` — uniform result
  container and plain-text rendering of paper-style series;
- a process-wide trace cache (synthesizing a 10^6-item trace once per
  (dataset, size, window) instead of once per data point);
- query-set construction for the FPR experiments;
- algorithm drivers: one call evaluates a named algorithm on a stream
  under a memory budget: the Clock-sketch kinds, TOBF, TBF and TSV
  through their own ``insert_many`` and answers, the other baselines
  through their vectorised snapshot functions;
- vectorised ground-truth batch extraction (:func:`last_batches`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..analysis import optimal_s_cardinality
from ..baselines import (
    TimeOutBloomFilter,
    TimestampVector,
    snapshot_cvs_estimate,
    snapshot_ideal_membership,
    snapshot_swamp_distinct,
    snapshot_swamp_ismember,
)
from ..baselines.swamp import TABLE_OVERHEAD
from ..baselines.tbf import DEFAULT_COUNTER_BITS as TBF_BITS
from ..baselines.tbf import DEFAULT_K as TBF_K
from ..core.activeness import ClockBloomFilter
from ..core.cardinality import ClockBitmap
from ..core.params import cells_for_memory, optimal_k_membership
from ..datasets import get_dataset
from ..errors import ConfigurationError
from ..obs import runtime as _obs
from ..obs.names import BENCH_STAGE_SECONDS
from ..streams import Stream, split_active_inactive
from ..timebase import WindowSpec

__all__ = [
    "ExperimentResult",
    "format_table",
    "cached_trace",
    "drive_inserts",
    "membership_query_keys",
    "activeness_fpr",
    "cardinality_estimate",
    "true_cardinality",
    "last_batches",
    "ACTIVENESS_ALGORITHMS",
    "CARDINALITY_ALGORITHMS",
]

#: Default number of synthetic never-seen keys added to FPR query sets
#: so small rates are resolvable (see EXPERIMENTS.md, methodology).
DEFAULT_UNSEEN_QUERIES = 100_000

#: Offset guaranteeing synthetic query keys collide with no real key.
_UNSEEN_KEY_BASE = 10**15

ACTIVENESS_ALGORITHMS = ("bf_clock", "swamp", "tobf", "tbf", "ideal")
CARDINALITY_ALGORITHMS = ("bm_clock", "cvs", "swamp", "tsv")


@dataclass
class ExperimentResult:
    """The outcome of one experiment: titled, tabular, renderable."""

    title: str
    columns: "list[str]"
    rows: "list[dict]" = field(default_factory=list)
    notes: "list[str]" = field(default_factory=list)
    #: Free-form side data (e.g. an obs metrics snapshot) that riders
    #: like the benchmark artifact upload can carry without touching
    #: the tabular schema.
    extras: dict = field(default_factory=dict)

    def add(self, **row) -> None:
        """Append one result row."""
        self.rows.append(row)

    def render(self) -> str:
        """Plain-text table in the paper's row/series layout."""
        lines = [self.title, "=" * len(self.title)]
        lines.append(format_table(self.rows, self.columns))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def series(self, key_column: str, value_column: str) -> dict:
        """Collapse rows into ``{key: value}`` for programmatic checks."""
        return {row[key_column]: row[value_column] for row in self.rows}

    def to_csv(self, path) -> None:
        """Write the rows as CSV (for plotting outside the library).

        Creates missing parent directories, so a fresh results path
        (``results/run1/fig5.csv``) works without preparation.
        """
        import csv
        import os

        parent = os.path.dirname(os.fspath(path))
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=self.columns,
                                    extrasaction="ignore", restval="")
            writer.writeheader()
            for row in self.rows:
                writer.writerow({
                    col: ("" if row.get(col) is None else row.get(col))
                    for col in self.columns
                })


def _format_cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value != 0 and (abs(value) < 1e-3 or abs(value) >= 1e5):
            return f"{value:.3e}"
        return f"{value:.4f}".rstrip("0").rstrip(".")
    return str(value)


def format_table(rows: "list[dict]", columns: "list[str]") -> str:
    """Render rows as an aligned plain-text table."""
    header = list(columns)
    body = [[_format_cell(row.get(col)) for col in header] for row in rows]
    widths = [
        max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i])
        for i in range(len(header))
    ]
    def fmt(cells):
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))
    lines = [fmt(header), fmt(["-" * w for w in widths])]
    lines.extend(fmt(r) for r in body)
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Trace cache
# ----------------------------------------------------------------------

_TRACE_CACHE: "dict[tuple, Stream]" = {}


@_obs.timed(BENCH_STAGE_SECONDS, {"stage": "trace"})
def cached_trace(dataset: str, n_items: int, window_hint: float,
                 seed: int = 1) -> Stream:
    """Synthesize (once) and cache a dataset trace."""
    key = (dataset, n_items, float(window_hint), seed)
    if key not in _TRACE_CACHE:
        _TRACE_CACHE[key] = get_dataset(
            dataset, n_items=n_items, window_hint=window_hint, seed=seed
        )
    return _TRACE_CACHE[key]


def effective_times(stream: Stream, window: WindowSpec) -> np.ndarray:
    """Arrival times of a stream under the window's kind."""
    return stream.effective_times(window.is_count_based)


@_obs.timed(BENCH_STAGE_SECONDS, {"stage": "inserts"})
def drive_inserts(sketch, keys, times=None, scalar: bool = False) -> None:
    """Feed a key stream into a sketch through either ingestion path.

    ``scalar=False`` (default) drives the batch engine via
    ``insert_many`` — the fast path every experiment uses.
    ``scalar=True`` replays the per-item ``insert`` loop instead: the
    paper's single-thread hot path, kept measurable so throughput
    experiments can report both sides of the batch speedup. Both paths
    leave exact-mode sketches in bit-identical state.
    """
    if not scalar:
        if times is None:
            sketch.insert_many(keys)
        else:
            sketch.insert_many(keys, times)
    elif times is None:
        for key in keys:
            sketch.insert(key)
    else:
        for key, t in zip(keys, times):
            sketch.insert(key, float(t))


# ----------------------------------------------------------------------
# FPR query sets
# ----------------------------------------------------------------------

def membership_query_keys(keys: np.ndarray, times: np.ndarray, t_query: float,
                          window: WindowSpec,
                          extra_unseen: int = DEFAULT_UNSEEN_QUERIES):
    """Build the all-negative query set for an FPR measurement.

    Returns ``(query_keys, n_seen_inactive)``: every key that was seen
    but is inactive at ``t_query`` (the paper's query population, which
    exercises the error window) plus ``extra_unseen`` synthetic
    never-seen keys that stabilise small rates.
    """
    _active, inactive = split_active_inactive(keys, times, t_query, window)
    unseen = _UNSEEN_KEY_BASE + np.arange(extra_unseen, dtype=np.int64)
    return np.concatenate([inactive, unseen]), int(inactive.size)


# ----------------------------------------------------------------------
# Activeness drivers
# ----------------------------------------------------------------------

def _snapshot_times(times: np.ndarray, window: WindowSpec):
    """``insert_many`` and the snapshot functions take None for
    count-based streams."""
    return None if window.is_count_based else times


@_obs.timed(BENCH_STAGE_SECONDS, {"stage": "activeness_fpr"})
def activeness_fpr(algorithm: str, stream: Stream, window: WindowSpec,
                   memory_bits: int, t_query: "float | None" = None,
                   s: int = 2, k: "int | None" = None, seed: int = 0,
                   extra_unseen: int = DEFAULT_UNSEEN_QUERIES) -> "float | None":
    """Measured FPR of one activeness algorithm on one configuration.

    Returns None when the algorithm cannot be built at this budget
    (SWAMP below its floor). ``t_query`` defaults to the stream end.
    """
    keys = stream.keys
    times = effective_times(stream, window)
    if t_query is None:
        t_query = float(times[-1])
    else:
        limit = int(np.searchsorted(times, t_query, side="right"))
        keys = keys[:limit]
        times = times[:limit]
    query_keys, _seen = membership_query_keys(
        keys, times, t_query, window, extra_unseen
    )
    snap_times = _snapshot_times(times, window)

    if algorithm == "bf_clock":
        n = cells_for_memory(memory_bits, s)
        k_eff = k if k is not None else optimal_k_membership(n, window.length, s)
        bf = ClockBloomFilter(n, k_eff, s, window, seed)
        bf.insert_many(keys, snap_times)
        positives = bf.query_many(query_keys, t=t_query)
    elif algorithm in ("tobf", "tbf"):
        # TBF answers as a TOBF with its cell count and hashes: its
        # cleaning scan only removes cells the window test rejects.
        if algorithm == "tobf":
            n, k_eff = cells_for_memory(memory_bits, 64), k or 4
        else:
            n, k_eff = cells_for_memory(memory_bits, TBF_BITS), k or TBF_K
        tobf = TimeOutBloomFilter(n, k_eff, window, seed)
        tobf.insert_many(keys, snap_times)
        positives = tobf.contains_many(query_keys, t=t_query)
    elif algorithm == "swamp":
        w = int(window.length)
        f = int(memory_bits / (w * TABLE_OVERHEAD))
        if f < 1:
            return None
        positives = snapshot_swamp_ismember(
            keys, query_keys, window_items=w, fingerprint_bits=min(f, 64),
            seed=seed,
        )
    elif algorithm == "ideal":
        active, _inactive = split_active_inactive(keys, times, t_query, window)
        n = max(1, memory_bits)
        k_eff = k if k is not None else optimal_k_membership(n, window.length, s=30)
        positives = snapshot_ideal_membership(
            active, query_keys, n=n, k=k_eff, seed=seed,
        )
    else:
        raise ConfigurationError(f"unknown activeness algorithm {algorithm!r}")

    return float(np.count_nonzero(positives)) / len(query_keys)


# ----------------------------------------------------------------------
# Cardinality drivers
# ----------------------------------------------------------------------

def true_cardinality(stream: Stream, window: WindowSpec,
                     t_query: "float | None" = None) -> int:
    """Exact number of active item batches at ``t_query``."""
    times = effective_times(stream, window)
    keys = stream.keys
    if t_query is None:
        t_query = float(times[-1])
    else:
        limit = int(np.searchsorted(times, t_query, side="right"))
        keys, times = keys[:limit], times[:limit]
    active, _ = split_active_inactive(keys, times, t_query, window)
    return int(active.size)


@_obs.timed(BENCH_STAGE_SECONDS, {"stage": "cardinality_estimate"})
def cardinality_estimate(algorithm: str, stream: Stream, window: WindowSpec,
                         memory_bits: int, t_query: "float | None" = None,
                         s: "int | None" = None,
                         seed: int = 0) -> "float | None":
    """Estimated active-batch cardinality of one algorithm.

    Returns None when the algorithm cannot be built at this budget.
    ``s`` (BM+clock only) defaults to the §5.2 optimum for the budget.
    """
    keys = stream.keys
    times = effective_times(stream, window)
    if t_query is None:
        t_query = float(times[-1])
    else:
        limit = int(np.searchsorted(times, t_query, side="right"))
        keys, times = keys[:limit], times[:limit]
    snap_times = _snapshot_times(times, window)

    if algorithm == "bm_clock":
        s_eff = s if s is not None else optimal_s_cardinality(memory_bits)
        n = cells_for_memory(memory_bits, s_eff)
        bm = ClockBitmap(n, s_eff, window, seed)
        bm.insert_many(keys, snap_times)
        return bm.estimate(t=t_query).value
    if algorithm == "tsv":
        tsv = TimestampVector(cells_for_memory(memory_bits, 64), window, seed)
        tsv.insert_many(keys, snap_times)
        return tsv.estimate(t=t_query).value
    if algorithm == "cvs":
        n = cells_for_memory(memory_bits, 4)
        return snapshot_cvs_estimate(
            keys, snap_times, t_query, n=n, window=window, seed=seed
        ).value
    if algorithm == "swamp":
        w = int(window.length)
        f = int(memory_bits / (w * TABLE_OVERHEAD))
        if f < 1:
            return None
        return snapshot_swamp_distinct(
            keys, window_items=w, fingerprint_bits=min(f, 64), seed=seed
        )
    raise ConfigurationError(f"unknown cardinality algorithm {algorithm!r}")


# ----------------------------------------------------------------------
# Ground-truth batches (for the span and size tasks)
# ----------------------------------------------------------------------

def last_batches(keys: np.ndarray, times: np.ndarray, window: WindowSpec):
    """Each key's most recent batch, vectorised.

    Returns aligned arrays ``(key, start, end, size)`` — one row per
    distinct key, describing the batch containing the key's last
    occurrence (under the library's ``gap < T`` convention).
    """
    keys = np.asarray(keys)
    times = np.asarray(times, dtype=np.float64)
    order = np.argsort(keys, kind="stable")
    sk, st = keys[order], times[order]
    if sk.size == 0:
        empty = np.array([])
        return empty.astype(np.int64), empty, empty, empty.astype(np.int64)

    new_key = np.empty(sk.size, dtype=bool)
    new_key[0] = True
    new_key[1:] = sk[1:] != sk[:-1]
    gap_break = np.empty(sk.size, dtype=bool)
    gap_break[0] = True
    gap_break[1:] = (st[1:] - st[:-1]) >= window.length
    new_batch = new_key | gap_break
    batch_id = np.cumsum(new_batch) - 1

    n_batches = batch_id[-1] + 1
    starts = st[new_batch]
    ends = np.zeros(n_batches)
    np.maximum.at(ends, batch_id, st)
    sizes = np.bincount(batch_id, minlength=n_batches)
    batch_keys = sk[new_batch]

    # The last batch of each key is the last batch_id in its run.
    last_of_key = np.flatnonzero(new_key)  # first index of each key-run
    run_ends = np.append(last_of_key[1:], sk.size) - 1
    last_batch_ids = batch_id[run_ends]
    return (
        sk[last_of_key].astype(np.int64),
        starts[last_batch_ids],
        ends[last_batch_ids],
        sizes[last_batch_ids].astype(np.int64),
    )
