"""Construction of the distributed measurement pipeline (§7).

The pipeline is ``ItemBatchMonitor.sharded``: one keyed partition of
the stream over every task. Its global answers on a time-based window
are checked in ``tests/test_shard_monitor.py``.
"""

import pytest

from repro import ItemBatchMonitor, time_window
from repro.errors import ConfigurationError


class TestConstruction:
    def test_needs_workers(self):
        with pytest.raises(ConfigurationError):
            ItemBatchMonitor.sharded(time_window(64.0), shards=0)

    def test_partitioning_is_stable(self):
        monitor = ItemBatchMonitor.sharded(time_window(64.0), shards=4)
        selector = monitor.activeness.selector
        assert selector.shard_of(7) == selector.shard_of(7)
        assert {selector.shard_of(k) for k in range(100)} == {0, 1, 2, 3}
