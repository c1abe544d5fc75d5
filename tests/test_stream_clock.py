"""One stream clock per monitor: every task reads one time and one count.

Each sequence runs on four monitor paths built from one
:class:`~repro.serve.TenantConfig`: plain, serial-sharded (P = 2),
process-sharded (P = 2) and checkpoint-restored (the plain monitor
rebuilt through ``serve.checkpoint._assemble_monitor`` after every
step). After every step each task's ``now`` and ``items_inserted`` are
checked by task name: a timed query, like a batch, moves every task or
none, and every answer in one ``report`` is given at its time.
"""

from dataclasses import replace

import pytest

from repro.errors import TimeError
from repro.qa.sanitizer import check_clock
from repro.serialize import dumps_sketch, loads_replicas
from repro.serve import TenantConfig
from repro.serve.checkpoint import _assemble_monitor
from repro.serve.testing import LineClient, ServiceThread

PATHS = ("plain", "serial-sharded", "process-sharded", "restored")

COUNT = TenantConfig(window_length=64, memory="16KB", seed=1)
TIMED_SIZE_SPAN = TenantConfig(window_length=64, window_kind="time",
                               memory="16KB", seed=1, tasks=("size", "span"))
WEDGE = TenantConfig(window_length=10, window_kind="time", memory="16KB",
                     seed=1)


def _restored(config, monitor):
    """``monitor`` rebuilt from its tasks' payloads, as a checkpoint is;
    every restored cleaner is on its schedule."""
    parts = [loads_replicas(dumps_sketch(sketch))
             for sketch in monitor._sketches]
    monitor.close()
    restored = _assemble_monitor(config, list(monitor.tasks), parts)
    for sketch in restored._sketches:
        check_clock(sketch.clock)
    return restored


class _Run:
    """One monitor path; :meth:`step` checks every task after each step."""

    def __init__(self, path, config):
        self.path = path
        self.config = config
        if path == "serial-sharded":
            config = replace(config, shards=2)
        elif path == "process-sharded":
            config = replace(config, shards=2, router="process")
        self.monitor = config.build_monitor()

    def step(self, action, now, items):
        """Run ``action(monitor)``; then every task reads ``now``/``items``."""
        result = action(self.monitor)
        if self.path == "restored":
            self.monitor = _restored(self.config, self.monitor)
        self.expect(now, items)
        return result

    def expect(self, now, items):
        monitor = self.monitor
        clocks = {task: (getattr(monitor, monitor._TASK_ATTRS[task]).now,
                         getattr(monitor, monitor._TASK_ATTRS[task])
                         .items_inserted)
                  for task in monitor.tasks}
        assert clocks == {task: (now, items) for task in monitor.tasks}, \
            self.path


@pytest.fixture(params=PATHS)
def run(request):
    runs = []

    def start(config):
        runs.append(_Run(request.param, config))
        return runs[-1]

    yield start
    for made in runs:
        made.monitor.close()


def test_count_window_timed_query_moves_every_task(run):
    r = run(COUNT)
    r.step(lambda m: m.observe_many(["a", "b"]), 2.0, 2)
    r.step(lambda m: m.active_batches(t=50), 50.0, 50)
    r.step(lambda m: m.observe_many(["c"]), 51.0, 51)
    assert r.monitor.report("c").begin == 51.0
    # The activeness task reaches item 10^14; the cardinality task,
    # with more circles per window, does not: neither moves.
    with pytest.raises(TimeError, match="out of range"):
        r.monitor.is_active("c", t=10**14)
    r.expect(51.0, 51)
    r.step(lambda m: m.observe("d"), 52.0, 52)
    assert r.monitor.report("d").begin == 52.0


def test_timed_report_answers_every_task_at_its_time(run):
    r = run(TIMED_SIZE_SPAN)
    r.step(lambda m: m.observe_many(["a", "b"], [1.0, 2.0]), 2.0, 2)
    report = r.step(lambda m: m.report("a", t=10000), 10000.0, 2)
    assert (report.active, report.size, report.span, report.begin) \
        == (False, None, None, None)
    r.step(lambda m: m.observe_many(["c"], [10000.0]), 10000.0, 3)
    report = r.monitor.report("c")
    assert (report.active, report.size, report.begin) == (True, 1, 10000.0)


def test_refused_query_time_wedges_no_task(run):
    r = run(WEDGE)
    r.step(lambda m: m.observe_many(["a", "b"], [1.0, 2.0]), 2.0, 2)
    with pytest.raises(TimeError, match="out of range"):
        r.monitor.is_active("a", t=1e15)
    r.expect(2.0, 2)
    with pytest.raises(TimeError, match="out of range"):
        r.monitor.report("a", t=1e15)
    r.expect(2.0, 2)
    r.step(lambda m: m.observe_many(["c"], [3.0]), 3.0, 3)
    assert r.monitor.is_active("c", t=4.0)
    r.expect(4.0, 3)


def test_served_query_answers_at_its_time():
    """A timed ``QUERY`` equals the in-process ``report(key, t)``; a
    refused time is a ``time-error`` and moves nothing."""
    reference = COUNT.build_monitor()
    tenant = {"tenant": "timed"}
    with ServiceThread(default_config=COUNT) as hosted, \
            LineClient.for_service(hosted) as client:
        def query(key, t):
            response = client.request({"op": "QUERY", **tenant, "key": key,
                                       "t": t})
            if response["ok"]:
                return {field: response[field]
                        for field in ("active", "size", "span", "begin")}
            return response["error"]["code"]

        def expect(key, t):
            report = reference.report(key, t)
            assert query(key, t) == {"active": report.active,
                                     "size": report.size, "span": report.span,
                                     "begin": report.begin}

        keys = ["a", "b", "a", "c"]
        assert client.request({"op": "INSERT_BATCH", **tenant,
                               "keys": keys})["ok"] is True
        reference.observe_many(keys)
        expect("a", 4)
        expect("a", 40)
        expect("b", 70)
        for bad in (70.5, 1e300, 60):
            assert query("a", bad) == "time-error", bad
        monitor = hosted.service.tenants.peek("timed").monitor
        assert {(s.now, s.items_inserted) for s in monitor._sketches} \
            == {(70.0, 70)}
        assert client.request({"op": "INSERT", **tenant,
                               "key": "d"})["position"] == 71.0
        reference.observe("d")
        expect("d", None)
        expect("d", 80)
