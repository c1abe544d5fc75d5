"""Saving and restoring sketch state.

Long-running deployments snapshot their sketches across restarts. This
module serialises any of the four Clock-sketch structures to (and from)
an ``.npz`` payload: the window, the sweep mode, every constructor
field the kind declares (``_CONFIG``), the clock cells and every cell
array beside them (``_CELL_FIELDS``), and the cleaner's exact position,
so a restored sketch continues bit-for-bit where it stopped. One loop
over those declarations writes and restores all four kinds; keys a
payload carries beyond them (``engine_min_fused``, written by older
versions) are ignored.
Every payload names the hash scheme that placed keys in its cells
(:data:`HASH_SCHEME`); a payload from another scheme — or from before
schemes were recorded — is refused, since its cells would answer for
the wrong keys.

Payloads hold state only. The kernels that compute it
(:mod:`repro.kernels`) are code, so nothing about them is written, and
the parity suite checks that a sketch saved with the loop reference
kernels swapped in restores bit-identically.
"""

from __future__ import annotations

import io
import os
from typing import IO, Any, Mapping, Union

import numpy as np

from .core import (
    KINDS,
    ClockBitmap,
    ClockBloomFilter,
    ClockCountMin,
    ClockTimeSpanSketch,
)
from .errors import ConfigurationError
from .shard import ShardedSketch, ShardSet
from .timebase import WindowKind, WindowSpec

__all__ = ["HASH_SCHEME", "dump_sketch", "dumps_sketch", "load_sketch",
           "loads_replicas", "loads_sketch"]

#: How keys reach cells: one key id per key (see
#: :func:`repro.hashing.key_id`), mixed with each sketch's seed.
HASH_SCHEME = "key-id-1"

#: The union of serialisable plain sketch types.
Sketch = Union[ClockBloomFilter, ClockBitmap, ClockCountMin, ClockTimeSpanSketch]

#: Everything the dump/load entry points accept: plain sketches plus
#: the sharded facade (flattened to per-shard payloads).
AnySketch = Union[Sketch, ShardedSketch]

_KINDS: "dict[str, Any]" = {kind.__name__: kind for kind in KINDS}

_PathOrFile = Union[str, "os.PathLike[str]", IO[bytes]]


def _window_fields(window: WindowSpec) -> "tuple[float, str]":
    return window.length, window.kind.value


def _build_window(length: float, kind: str) -> WindowSpec:
    return WindowSpec(length=length, kind=WindowKind(kind))


def _payload_any(sketch: AnySketch) -> "dict[str, Any]":
    """Payload for any serialisable sketch, sharded facades included."""
    if isinstance(sketch, ShardedSketch):
        return _payload_sharded(sketch)
    return _payload(sketch)


def _payload_sharded(sketch: Any) -> "dict[str, Any]":
    """Flatten a sharded facade: header plus ``shard{i}__``-prefixed
    payloads of its slot's replicas. Live worker pools are synchronised
    (barrier) so the parent-side replicas hold each shard's final
    state."""
    if not getattr(sketch.router, "_closed", False):
        sketch.shard_set.barrier(sketch.now)
    payload: "dict[str, Any]" = {
        "kind": np.array("ShardedSketch"),
        "shards": np.array(sketch.shards),
        "router_kind": np.array(sketch.router.kind),
        "selector_seed": np.array(sketch.selector.seed),
        "now": np.array(sketch.now),
        "items_inserted": np.array(sketch.items_inserted),
    }
    for i, replica in enumerate(sketch.replicas):
        for key, value in _payload(replica).items():
            payload[f"shard{i}__{key}"] = value
    return payload


def _payload(sketch: Sketch) -> "dict[str, Any]":
    kind = type(sketch).__name__
    if kind not in _KINDS:
        raise ConfigurationError(f"cannot serialise {kind}")
    if sketch.now > sketch.clock.now:
        # A timed query through a stream clock this sketch shares moved
        # its time on; sweep its cells there, as its next operation
        # would, so the payload's cells and cleaner match its time.
        sketch.clock.advance(sketch.now)
    length, wkind = _window_fields(sketch.window)
    payload: "dict[str, Any]" = {
        "kind": np.array(kind),
        "hash_scheme": np.array(HASH_SCHEME),
        "window_length": np.array(length),
        "window_kind": np.array(wkind),
        "sweep_mode": np.array(sketch.clock.sweep_mode),
        "clock_values": sketch.clock.values,
        "steps_done": np.array(sketch.clock.steps_done),
        "now": np.array(sketch.now),
        "items_inserted": np.array(sketch.items_inserted),
    }
    for name in sketch._CONFIG:
        payload[name] = np.array(getattr(sketch, name))
    for name in sketch._CELL_FIELDS:
        payload[name] = getattr(sketch, name)
    return payload


def _restore_any(payload: "Mapping[str, Any]") -> AnySketch:
    if str(payload["kind"]) == "ShardedSketch":
        return _restore_sharded(payload)
    return _restore(payload)


def _restore_sharded(payload: "Mapping[str, Any]") -> Any:
    """Rebuild a sharded facade from its flattened payload.

    Replicas restore individually (each through the validating
    ``load_values`` path), then reassemble as a one-slot shard set
    under the router kind the facade was saved with — a ``"process"``
    facade restarts its worker pool, each worker inheriting its shard's
    restored replicas.
    """
    shard_set = ShardSet([_restore_replicas(payload)],
                         seed=int(payload["selector_seed"]),
                         router=str(payload["router_kind"]))
    shard_set.stream_clock.now = float(payload["now"])
    shard_set.stream_clock.items = int(payload["items_inserted"])
    return shard_set.views()[0]


def _restore_replicas(payload: "Mapping[str, Any]") -> "list[Sketch]":
    replicas = []
    for i in range(int(payload["shards"])):
        prefix = f"shard{i}__"
        replicas.append(_restore({key[len(prefix):]: payload[key]
                                  for key in payload.keys()
                                  if key.startswith(prefix)}))
    return replicas


def _restore(payload: "Mapping[str, Any]") -> Sketch:
    kind = str(payload["kind"])
    scheme = str(payload["hash_scheme"]) if "hash_scheme" in payload else None
    if scheme != HASH_SCHEME:
        raise ConfigurationError(
            f"{kind} payload uses hash scheme {scheme!r}, not "
            f"{HASH_SCHEME!r}: its cells place keys differently; "
            "rebuild the sketch from the stream instead"
        )
    cls = _KINDS.get(kind)
    if cls is None:
        raise ConfigurationError(f"cannot restore sketch kind {kind!r}")
    sketch: Sketch = cls(
        window=_build_window(float(payload["window_length"]),
                             str(payload["window_kind"])),
        sweep_mode=str(payload["sweep_mode"]),
        **{name: payload[name].item() for name in cls._CONFIG})
    for name in cls._CELL_FIELDS:
        getattr(sketch, name)[:] = payload[name]
    sketch.clock.load_values(payload["clock_values"])
    sketch.clock._steps_done = int(payload["steps_done"])
    sketch.clock._now = float(payload["now"])
    sketch.stream_clock.now = float(payload["now"])
    sketch.stream_clock.items = int(payload["items_inserted"])
    return sketch


def dump_sketch(sketch: AnySketch, path: _PathOrFile) -> None:
    """Serialise a sketch (plain or sharded) to an ``.npz`` file."""
    np.savez_compressed(path, **_payload_any(sketch))


def dumps_sketch(sketch: AnySketch) -> bytes:
    """Serialise a sketch (plain or sharded) to bytes."""
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **_payload_any(sketch))
    return buffer.getvalue()


def load_sketch(path: _PathOrFile) -> AnySketch:
    """Restore a sketch from an ``.npz`` file."""
    with np.load(path, allow_pickle=False) as payload:
        return _restore_any(payload)


def loads_sketch(data: bytes) -> AnySketch:
    """Restore a sketch from bytes produced by :func:`dumps_sketch`."""
    with np.load(io.BytesIO(data), allow_pickle=False) as payload:
        return _restore_any(payload)


def loads_replicas(data: bytes) -> "tuple[list[Sketch], float, int]":
    """A payload's per-shard replicas, stream time and item count.

    Starts no router: this is how several sharded payloads (one per
    monitor task) are rebuilt as one shard set. A plain sketch payload
    is its own single replica.
    """
    with np.load(io.BytesIO(data), allow_pickle=False) as payload:
        if str(payload["kind"]) != "ShardedSketch":
            sketch = _restore(payload)
            return [sketch], sketch.now, sketch.items_inserted
        return (_restore_replicas(payload), float(payload["now"]),
                int(payload["items_inserted"]))
