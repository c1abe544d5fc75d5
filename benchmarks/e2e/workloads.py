"""The five traffic mixes of the end-to-end benchmark and their inputs.

Every workload is fixed work: ``--seconds`` sizes the item count through
the workload's ``items_per_second`` (its measured rate when the
benchmark was written), so a run sends the same frames on every commit
and the sketch state at the end of the load phase is deterministic.
The server only ever sees the generated keys; the seed stays here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

from repro.datasets.caida import caida_like
from repro.serve import TenantConfig

#: Tenant every workload drives.
TENANT = "bench"
#: Count window T (items) of every tenant.
WINDOW = 4096
#: Never-sent keys queried after the load phase.
ABSENT_PROBES = 2000
#: Keys active in the last window queried after the load phase (cap).
ACTIVE_PROBES = 2000

BASE = TenantConfig(window_length=WINDOW, memory="64KB", seed=1)
SHARDED = TenantConfig(window_length=WINDOW, memory="64KB", seed=1,
                       shards=2, router="process")

_MASK63 = (1 << 63) - 1
#: Odd multiplier: ``id * _MIX mod 2^63`` is a bijection of [0, 2^63).
_MIX = 0x9E3779B97F4A7C15
#: Caida ids stay far below this, so ids from here on are never sent.
_ABSENT_BASE = 10 ** 9


@dataclass(frozen=True)
class Workload:
    """One traffic mix: key shape, frame size, tenant config, rates."""

    name: str
    why: str
    #: ``caida-str`` | ``caida-int`` | ``fresh`` (see :func:`make_inputs`).
    keys: str
    frame_keys: int
    #: Items sent per second of ``--seconds``.
    items_per_second: float
    config: TenantConfig = BASE
    checkpoints: bool = False
    #: Open-loop ``QUERY``s per second on a second connection (0: none).
    query_rate: float = 0.0

    def frames_for(self, seconds: float) -> int:
        return max(8, int(round(seconds * self.items_per_second
                                / self.frame_keys)))


WORKLOADS: "Dict[str, Workload]" = {w.name: w for w in (
    Workload("ingest-str",
             "caida-like string flow ids in 2000-key frames: the headline "
             "path, where key hashing and its memo dominate",
             "caida-str", 2000, 150_000),
    Workload("ingest-fresh",
             "every key a new 16-hex-digit string: memo always misses, "
             "pure-Python lookup3 runs for every key",
             "fresh", 250, 12_500),
    Workload("ingest-int",
             "caida-like ids as 63-bit JSON ints: vectorised hashing, no "
             "lookup3 or memo, largest frame-decode share",
             "caida-int", 2000, 275_000),
    Workload("small-frames",
             "caida-like strings in 32-key frames: fixed per-frame costs "
             "(socket, JSON, dispatch, fan-out, sweep) dominate",
             "caida-str", 32, 19_000),
    Workload("mixed-sharded",
             "2 shards on the process router with checkpoints, plus "
             "open-loop queries at 20/s on a second connection",
             "caida-str", 2000, 125_000, config=SHARDED, checkpoints=True,
             query_rate=20.0),
)}


@dataclass
class Inputs:
    """Everything a run sends, generated from the workload seed."""

    frames: "List[List[Any]]"
    #: Keys that were never sent (false-positive probes).
    absent: "List[Any]"
    #: One pre-encoded ``INSERT_BATCH`` line per frame.
    wire: "List[bytes]"


def _caida_ids(n_items: int, seed: int) -> np.ndarray:
    return caida_like(n_items, window_hint=WINDOW, seed=seed).keys


def _mix63(ids: np.ndarray) -> "List[int]":
    with np.errstate(over="ignore"):
        mixed = ids.astype(np.uint64) * np.uint64(_MIX)
    return (mixed & np.uint64(_MASK63)).astype(np.int64).tolist()


def _fresh(count: int, rng: np.random.Generator,
           taken: "Optional[set]" = None) -> "List[str]":
    """``count`` distinct 16-hex-digit keys, none of them in ``taken``."""
    taken = set() if taken is None else taken
    out: "List[str]" = []
    while len(out) < count:
        for value in rng.integers(0, 1 << 63, size=count - len(out),
                                  dtype=np.int64).tolist():
            key = f"{value:016x}"
            if key not in taken:
                taken.add(key)
                out.append(key)
    return out


def make_inputs(workload: Workload, seed: int, seconds: float) -> Inputs:
    """The frames and the never-sent probe keys for one run."""
    frames = workload.frames_for(seconds)
    n_items = frames * workload.frame_keys
    absent_ids = np.arange(_ABSENT_BASE, _ABSENT_BASE + ABSENT_PROBES,
                           dtype=np.int64)
    if workload.keys == "fresh":
        rng = np.random.default_rng(seed)
        seen: set = set()
        keys: "List[Any]" = _fresh(n_items, rng, seen)
        absent: "List[Any]" = _fresh(ABSENT_PROBES, rng, seen)
    elif workload.keys == "caida-int":
        keys = _mix63(_caida_ids(n_items, seed))
        absent = _mix63(absent_ids)
    else:
        keys = [str(i) for i in _caida_ids(n_items, seed).tolist()]
        absent = [str(i) for i in absent_ids.tolist()]
    size = workload.frame_keys
    chunks = [keys[lo:lo + size] for lo in range(0, n_items, size)]
    return Inputs(frames=chunks, absent=absent,
                  wire=[insert_frame(chunk) for chunk in chunks])


def insert_frame(keys: "List[Any]") -> bytes:
    return _line({"op": "INSERT_BATCH", "tenant": TENANT, "keys": keys})


def query_frame(key: Any) -> bytes:
    return _line({"op": "QUERY", "tenant": TENANT, "key": key})


def _line(obj: "Dict[str, Any]") -> bytes:
    return (json.dumps(obj, separators=(",", ":")) + "\n").encode("utf-8")


def active_probes(frames: "List[List[Any]]", cap: int = ACTIVE_PROBES
                  ) -> "List[Any]":
    """Distinct keys of the last window sent, most recent first."""
    recent: "List[Any]" = []
    seen: set = set()
    budget = WINDOW
    for frame in reversed(frames):
        for key in reversed(frame):
            if budget == 0 or len(recent) == cap:
                return recent
            budget -= 1
            if key not in seen:
                seen.add(key)
                recent.append(key)
    return recent
