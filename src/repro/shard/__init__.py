"""Sharded multi-worker ingestion with mergeable clock sketches.

One logical stream, ``P`` key partitions: items route by a dedicated
shard hash, computed and scattered once per batch; each shard applies
its sub-stream to every sketch of the set through the ordinary batch
engine (inline, or in its own worker process over shared memory), and
queries are answered from a merged global view built by element-wise
clock union. See ``docs/sharding.md`` for the exactness guarantees per
sketch kind.
"""

from typing import TYPE_CHECKING, Any

from .router import SerialShardRouter, ShardedSketch, ShardSet

if TYPE_CHECKING:
    from .workers import ProcessShardRouter

__all__ = ["ProcessShardRouter", "SerialShardRouter", "ShardSet",
           "ShardedSketch"]


def __getattr__(name: str) -> Any:
    # The worker pool (and multiprocessing behind it) loads only for a
    # process-routed set, or on first use of this name.
    if name == "ProcessShardRouter":
        from . import workers
        return workers.ProcessShardRouter
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
