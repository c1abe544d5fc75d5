"""SK108 corpus: unlocked access to wrapped / replica state."""
import threading


class ThreadSafeSketch:
    def __init__(self, sketch):
        self.sketch = sketch
        self._lock = threading.Lock()

    def insert(self, item):
        # BAD: touches the wrapped sketch with no lock in sight.
        return self.sketch.insert(item)

    def peek(self):
        # BAD: reads mutable wrapped state outside the lock.
        return self.sketch.clock.values

    def __getattr__(self, name):
        # BAD: dynamic forward with no allowlist membership test.
        return getattr(self.sketch, name)


class ShardFacade:
    def __init__(self, replicas):
        self.replicas = list(replicas)

    def drain(self):
        pass

    def raw_merge(self):
        # BAD (shard scope): mutable replica state with no preceding
        # drain/barrier/join quiescence call.
        return [r.snapshot() for r in self.replicas]

    def raw_gather(self, idx):
        # BAD (shard scope): a point query's cell images, read unsynced.
        return [r._cells(idx) for r in self.replicas]
