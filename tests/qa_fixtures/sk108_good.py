"""SK108 corpus, clean: every access dominated by the lock."""
import threading

FORWARDED = frozenset({"n", "k", "s", "window"})


class ThreadSafeSketch:
    def __init__(self, sketch):
        self.sketch = sketch
        self._lock = threading.Lock()

    def insert(self, item):
        with self._lock:
            return self.sketch.insert(item)

    def peek(self):
        return self._guarded(lambda: self.sketch.clock.values)

    def _guarded(self, fn):
        with self._lock:
            return fn()

    def __getattr__(self, name):
        # Allowlist membership test dominates the dynamic forward.
        if name not in FORWARDED:
            raise AttributeError(name)
        return getattr(self.sketch, name)


class ShardFacade:
    def __init__(self, replicas):
        self.replicas = list(replicas)

    def drain(self):
        pass

    def merged(self):
        self.drain()  # quiescence: workers are done before we read
        return [r.snapshot() for r in self.replicas]

    def gathered(self, idx):
        self.drain()
        return [r._cells(idx) for r in self.replicas]


class SerialFacade:
    kind = "serial"

    def __init__(self, replicas):
        self.replicas = list(replicas)

    def raw_merge(self):
        # Single-owner router: no worker processes, no race.
        return [r.snapshot() for r in self.replicas]
