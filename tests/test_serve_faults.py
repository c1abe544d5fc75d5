"""Deterministic fault-injection suite for the ingestion service.

Failures are provoked, never awaited: shard-worker crash and stall go
through the process router's fault hooks, back-pressure deadlines run
on an injectable clock (the ``fake_clock`` fixture from
``tests/conftest.py``), and a hard crash is a
:meth:`~repro.serve.testing.ServiceThread.kill` — no graceful stop, no
final checkpoint. The contracts:

- a worker crash mid-batch answers the typed ``worker-failed`` error,
  quarantines *that* tenant (fail-fast ``quarantined`` responses, no
  wedge), and leaves every other tenant and the service itself healthy;
- a slow consumer behind a bounded queue answers ``backpressure`` with
  ``retryable: true`` and does *not* quarantine — the same command
  succeeds once the worker catches up;
- kill-and-restart under a checkpoint sweep loses at most one error
  window of stream state, and what is restored answers queries
  bit-identically to an in-process monitor fed the surviving prefix.
"""

import numpy as np
import pytest

from repro import ItemBatchMonitor, obs
from repro.core.params import error_window_length
from repro.obs import names
from repro.serve import TenantConfig
from repro.serve.testing import FaultInjector, LineClient, ServiceThread


def _keys(seed, size, universe=64):
    rng = np.random.default_rng(seed)
    return [f"key-{v}" for v in rng.integers(0, universe, size=size)]


PROCESS = TenantConfig(window_length=256, memory="8KB",
                       tasks=("activeness",), shards=2, router="process",
                       queue_capacity=64, timeout=10.0)


def _crash_and_fail(hosted, client, tenant):
    """Crash shard 0 of ``tenant`` and return the first failed answer.

    Dispatch is pipelined, so wait for the worker to be provably down
    (its error ack queued); the crash then surfaces on a subsequent
    command.
    """
    assert client.request({"op": "INSERT_BATCH", "tenant": tenant,
                           "keys": _keys(1, 100)})["ok"] is True
    injector = FaultInjector(hosted)
    injector.crash_shard(tenant, shard=0)
    injector.wait_for_worker_exit(tenant, shard=0)
    for attempt in range(50):
        failed = client.request({"op": "INSERT_BATCH", "tenant": tenant,
                                 "keys": _keys(2 + attempt, 100)})
        if not failed["ok"]:
            return failed
    raise AssertionError("the crashed shard never failed a command")


class TestWorkerCrash:
    def test_crash_mid_batch_quarantines_only_that_tenant(self):
        with ServiceThread(default_config=PROCESS) as hosted:
            with LineClient.for_service(hosted) as client:
                # The crash surfaces as the typed worker-failed error
                # (never a hang).
                failed = _crash_and_fail(hosted, client, "t0")
                assert failed["ok"] is False
                assert failed["error"]["code"] == "worker-failed"
                assert failed["error"]["retryable"] is False

                # Fail-fast from now on: typed quarantined, not a wedge.
                after = client.request(
                    {"op": "QUERY", "tenant": "t0", "key": "key-1"})
                assert after["error"]["code"] == "quarantined"
                stats = client.request({"op": "STATS", "tenant": "t0"})
                assert stats["tenant"]["quarantined"]

                # Isolation: other tenants and the service stay healthy.
                assert client.request({"op": "INSERT", "tenant": "t1",
                                       "key": "a"})["ok"] is True
                service = client.request({"op": "STATS"})
                assert service["service"]["quarantined"] == ["t0"]
                assert client.request({"op": "PING"})["ok"] is True

    def test_crash_with_metrics_on_answers_worker_failed(self):
        # The quarantine event must carry a severity the event log
        # accepts, or recording it turns worker-failed into bad-request.
        with obs.observed():
            with ServiceThread(default_config=PROCESS) as hosted:
                with LineClient.for_service(hosted) as client:
                    failed = _crash_and_fail(hosted, client, "t0")
            assert failed["error"]["code"] == "worker-failed"
            quarantines = [event for event in obs.event_ring().entries()
                           if event.kind == "serve.quarantine"]
        assert [event.severity for event in quarantines] == ["critical"]
        assert quarantines[0].fields == {"tenant": "t0"}

    def test_graceful_stop_after_crash_does_not_hang(self):
        hosted = ServiceThread(default_config=PROCESS).start()
        try:
            with LineClient.for_service(hosted) as client:
                client.request({"op": "INSERT_BATCH", "tenant": "t0",
                                "keys": _keys(3, 80)})
                injector = FaultInjector(hosted)
                injector.crash_shard("t0", shard=1)
                injector.wait_for_worker_exit("t0", shard=1)
                for attempt in range(50):
                    if not client.request(
                            {"op": "INSERT", "tenant": "t0",
                             "key": f"k{attempt}"})["ok"]:
                        break
        finally:
            # The deadline inside stop() is the assertion: a shutdown
            # that waits on the dead worker would raise TimeoutError.
            hosted.stop()


class TestSlowConsumer:
    def test_backpressure_is_typed_retryable_and_recoverable(self,
                                                             fake_clock):
        clock = fake_clock(tick=1.0)
        config = TenantConfig(window_length=256, memory="8KB",
                              tasks=("activeness",), shards=1,
                              router="process", queue_capacity=1,
                              timeout=5.0)
        with ServiceThread(default_config=config,
                           time_source=clock) as hosted:
            with LineClient.for_service(hosted) as client:
                assert client.request(
                    {"op": "INSERT_BATCH", "tenant": "t0",
                     "keys": _keys(4, 20)})["ok"] is True
                # 1.5 real seconds of worker stall; the 5 fake-second
                # deadline trips after a handful of polls, so the test
                # never sleeps the stall out to *detect* it.
                FaultInjector(hosted).stall_shard("t0", 1.5)
                response = None
                for i in range(300):
                    response = client.request(
                        {"op": "INSERT_BATCH", "tenant": "t0",
                         "keys": _keys(5 + i, 20)})
                    if not response["ok"]:
                        break
                assert response["ok"] is False
                assert response["error"]["code"] == "backpressure"
                assert response["error"]["retryable"] is True

                # Back-pressure is load shedding, not a fault: the
                # tenant is not quarantined and the retry succeeds
                # once the worker catches up.
                stats = client.request({"op": "STATS", "tenant": "t0"})
                assert stats["tenant"]["quarantined"] is None
                import time
                time.sleep(1.6)
                retried = client.request(
                    {"op": "INSERT_BATCH", "tenant": "t0",
                     "keys": _keys(6, 20)})
                assert retried["ok"] is True


class TestKillAndRestart:
    def _drive(self, hosted, client, total, batch, seed):
        position = 0
        while position < total:
            size = min(batch, total - position)
            keys = [f"key-{v}" for v in
                    np.random.default_rng(seed + position)
                    .integers(0, 64, size=size)]
            assert client.request(
                {"op": "INSERT_BATCH", "tenant": "t0",
                 "keys": keys})["ok"] is True
            position += size
            # One deterministic sweep per batch stands in for the
            # background wall-clock poll.
            hosted.checkpoint_now(force=False)

    @pytest.mark.parametrize("checkpoint_every", [None, 16.0])
    def test_restart_loses_at_most_one_error_window(
            self, tmp_path, checkpoint_every):
        config = TenantConfig(window_length=64, memory="16KB", seed=9,
                              checkpoint_every=checkpoint_every)
        total, batch = 201, 7
        hosted = ServiceThread(default_config=config,
                               checkpoint_dir=str(tmp_path)).start()
        client = LineClient.for_service(hosted)
        self._drive(hosted, client, total, batch, seed=0)
        tenant = hosted.service.tenants.peek("t0")
        cadence = config.cadence(tenant.monitor)
        if checkpoint_every is None:
            # The default cadence is the sweep-circle bound itself.
            assert cadence == min(
                error_window_length(config.window_length, sk.s)
                for sk in tenant.monitor._sketches)
        client.close()
        hosted.kill()

        survivor = ServiceThread(default_config=config,
                                 checkpoint_dir=str(tmp_path)).start()
        try:
            assert survivor.service.restore_outcomes["t0"] == "restored"
            restored = survivor.service.tenants.peek("t0")
            lost = total - restored.position
            # The loss bound: at most one error window of stream,
            # plus the sub-batch remainder the sweep never saw.
            assert 0 <= lost < cadence + batch

            # What survived is bit-identical to an in-process monitor
            # fed the same surviving prefix.
            reference = config.build_monitor()
            position = 0
            while position < restored.position:
                size = min(batch, int(restored.position) - position)
                keys = [f"key-{v}" for v in
                        np.random.default_rng(0 + position)
                        .integers(0, 64, size=size)]
                reference.observe_many(keys)
                position += size
            with LineClient.for_service(survivor) as probe:
                for key in [f"key-{i}" for i in range(64)]:
                    report = reference.report(key)
                    answer = probe.request(
                        {"op": "QUERY", "tenant": "t0", "key": key})
                    assert answer["ok"] is True
                    assert answer["active"] == report.active
                    assert answer["size"] == report.size
                    assert answer["span"] == report.span
        finally:
            survivor.stop()

    def test_restart_with_no_checkpoint_dir_starts_fresh(self, tmp_path):
        config = TenantConfig(window_length=64, memory="16KB")
        hosted = ServiceThread(default_config=config,
                               checkpoint_dir=str(tmp_path)).start()
        with LineClient.for_service(hosted) as client:
            client.request({"op": "INSERT_BATCH", "tenant": "t0",
                            "keys": _keys(7, 30)})
        hosted.kill()  # nothing swept, nothing written
        survivor = ServiceThread(default_config=config,
                                 checkpoint_dir=str(tmp_path)).start()
        try:
            assert survivor.service.restore_outcomes == {}
            with LineClient.for_service(survivor) as client:
                stats = client.request({"op": "STATS", "tenant": "t0"})
                assert stats["tenant"]["position"] == 0.0
        finally:
            survivor.stop()


class TestQuarantineAndCheckpointInteraction:
    def test_quarantined_tenant_cannot_checkpoint(self, tmp_path):
        with ServiceThread(default_config=PROCESS,
                           checkpoint_dir=str(tmp_path)) as hosted:
            with LineClient.for_service(hosted) as client:
                client.request({"op": "INSERT_BATCH", "tenant": "t0",
                                "keys": _keys(8, 60)})
                FaultInjector(hosted).crash_shard("t0")
                for attempt in range(50):
                    if not client.request(
                            {"op": "INSERT", "tenant": "t0",
                             "key": f"k{attempt}"})["ok"]:
                        break
                response = client.request(
                    {"op": "CHECKPOINT", "tenant": "t0"})
                assert response["ok"] is False
                assert response["error"]["code"] == "quarantined"
                # The background sweep skips it too, without dying.
                assert hosted.checkpoint_now(force=True) == {}


class TestServeMetrics:
    SERIES = (
        names.SERVE_CONNECTIONS_TOTAL, names.SERVE_CONNECTIONS_OPEN,
        names.SERVE_COMMANDS_TOTAL, names.SERVE_ERRORS_TOTAL,
        names.SERVE_ITEMS_TOTAL, names.SERVE_TENANTS,
        names.SERVE_QUARANTINES_TOTAL, names.SERVE_CHECKPOINTS_TOTAL,
        names.SERVE_CHECKPOINT_SECONDS, names.SERVE_RESTORES_TOTAL,
    )

    def test_every_serve_series_moves_with_its_catalogue_labels(
            self, tmp_path):
        plain = TenantConfig(window_length=128, memory="32KB", seed=7)
        configs = {"crashy": PROCESS}
        with obs.observed() as reg:
            with ServiceThread(default_config=plain, tenants=configs,
                               checkpoint_dir=str(tmp_path)) as hosted:
                with LineClient.for_service(hosted) as client:
                    assert client.request(
                        {"op": "INSERT_BATCH", "tenant": "acme",
                         "keys": _keys(5, 200)})["ok"] is True
                    assert client.request({"op": "QUERY", "tenant": "acme",
                                           "key": "key-1"})["ok"] is True
                    bad = client.request({"op": "QUERY", "tenant": "acme"})
                    assert bad["error"]["code"] == "bad-request"
                    assert client.request({"op": "CHECKPOINT",
                                           "tenant": "acme"})["ok"] is True
                    _crash_and_fail(hosted, client, "crashy")
                    assert reg.get(names.SERVE_CONNECTIONS_OPEN).value == 1
            with ServiceThread(default_config=plain,
                               checkpoint_dir=str(tmp_path)) as restarted:
                assert restarted.service.restore_outcomes["acme"] \
                    == "restored"
        for name in self.SERIES:
            spec = names.CATALOGUE[name]
            found = [m for m in reg if m.name == name]
            assert found, name
            for metric in found:
                assert metric.kind == spec.kind, name
                assert set(metric.labels) == set(spec.labels), name
            if spec.kind == "counter":
                assert sum(m.value for m in found) > 0, name
            elif spec.kind == "histogram":
                assert sum(m.count for m in found) > 0, name
        assert reg.get(names.SERVE_TENANTS).value >= 1
        assert reg.get(names.SERVE_ERRORS_TOTAL,
                       {"code": "bad-request"}).value == 1
        assert reg.get(names.SERVE_QUARANTINES_TOTAL,
                       {"tenant": "crashy"}).value == 1
        assert reg.get(names.SERVE_RESTORES_TOTAL,
                       {"tenant": "acme", "outcome": "restored"}).value == 1
