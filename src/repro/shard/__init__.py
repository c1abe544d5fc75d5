"""Sharded multi-worker ingestion with mergeable clock sketches.

One logical stream, ``P`` key partitions: items route by a dedicated
shard hash, computed and scattered once per batch; each shard applies
its sub-stream to every sketch of the set through the ordinary batch
engine (inline, or in its own worker process over shared memory), and
queries are answered from a merged global view built by element-wise
clock union. See ``docs/sharding.md`` for the exactness guarantees per
sketch kind.
"""

from .router import SerialShardRouter, ShardedSketch, ShardSet
from .workers import ProcessShardRouter

__all__ = ["ProcessShardRouter", "SerialShardRouter", "ShardSet",
           "ShardedSketch"]
