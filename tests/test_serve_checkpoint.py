"""Checkpoint/restore property suite (repro.serve.checkpoint).

The guarantees under test:

- **Round trip**: a restored monitor answers every query exactly like
  the monitor that was checkpointed — under arbitrary workloads
  (hypothesis, derandomized) and with checkpoints interleaved into
  live ingest through the service's ``CHECKPOINT`` op.
- **Torn files never half-load**: a checkpoint damaged mid-write
  (truncation via the ``pre_replace`` hook or after publish, or a flipped
  byte breaking a CRC) is skipped *whole* and restore falls back to
  the previous intact generation; with no intact generation left the
  tenant starts fresh — there is no partially-restored state.
- **Cross-kernel parity**: a checkpoint written on the numpy kernels
  restores with the loop reference kernels swapped in, and vice versa,
  with identical answers.
- **Retention**: only the newest ``keep`` generations survive and
  sequence numbers keep increasing across prunes.
"""

import tempfile
import zipfile
from contextlib import nullcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CheckpointError
from repro.serve import CHECKPOINT_FORMAT, CheckpointManager, TenantConfig
from repro.serve.tenants import Tenant
from repro.serve.testing import FaultInjector, LineClient, ServiceThread

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)

workloads = st.lists(
    st.tuples(st.integers(0, 40), st.integers(1, 5)),
    min_size=1, max_size=50,
).map(lambda runs: [f"key-{k}" for k, n in runs for _ in range(n)])


def make_tenant(name="t0", config=None):
    config = config or TenantConfig(window_length=64, memory="16KB", seed=5)
    return Tenant(name, config, config.build_monitor())


def assert_same_answers(restored, reference, universe=48):
    for i in range(universe):
        key = f"key-{i}"
        a, b = restored.report(key), reference.report(key)
        assert (a.active, a.size, a.span, a.begin) \
            == (b.active, b.size, b.span, b.begin)
    assert float(restored._sketches[0].now) \
        == float(reference._sketches[0].now)


class TestRoundTrip:
    @given(keys=workloads)
    @PROPERTY
    def test_checkpoint_restore_is_identity(self, keys):
        # A fresh directory per generated example (hypothesis shares
        # pytest's tmp_path across examples, which would accrete
        # generations).
        with tempfile.TemporaryDirectory() as root:
            manager = CheckpointManager(root)
            tenant = make_tenant()
            tenant.ingest(keys, None)
            manager.write(tenant)
            restored = manager.restore("t0")
            assert restored is not None and not restored.fell_back
            assert restored.meta["position"] == tenant.position
            assert restored.config == tenant.config
            assert_same_answers(restored.monitor, tenant.monitor)

    @given(prefix=workloads, suffix=workloads)
    @PROPERTY
    def test_restore_captures_the_checkpoint_point_not_later(
            self, prefix, suffix):
        with tempfile.TemporaryDirectory() as root:
            manager = CheckpointManager(root)
            tenant = make_tenant()
            tenant.ingest(prefix, None)
            manager.write(tenant)
            tenant.ingest(suffix, None)  # after the snapshot: no leak

            reference = make_tenant("ref")
            reference.ingest(prefix, None)
            restored = manager.restore("t0")
            assert_same_answers(restored.monitor, reference.monitor)

    def test_checkpoint_during_live_ingest_through_the_service(
            self, tmp_path):
        config = TenantConfig(window_length=64, memory="16KB", seed=5)
        hosted = ServiceThread(default_config=config,
                               checkpoint_dir=str(tmp_path)).start()
        with LineClient.for_service(hosted) as client:
            # CHECKPOINT frames pipelined between batches: snapshots
            # are taken under the tenant lock at frame boundaries.
            import json
            frames = []
            for i in range(6):
                frames.append(json.dumps(
                    {"op": "INSERT_BATCH", "tenant": "t0",
                     "keys": [f"key-{i}-{j}" for j in range(25)]}
                ).encode() + b"\n")
                frames.append(
                    b'{"op":"CHECKPOINT","tenant":"t0"}\n')
            responses = client.request_lines(frames)
            assert all(r["ok"] for r in responses), responses
            positions = [r["position"] for r in responses
                         if r["op"] == "CHECKPOINT"]
            assert positions == sorted(positions)
        hosted.kill()

        manager = CheckpointManager(tmp_path)
        restored = manager.restore("t0")
        assert restored is not None
        assert restored.meta["position"] == 150.0
        reference = make_tenant("ref", config)
        reference.ingest([f"key-{i}-{j}" for i in range(6)
                          for j in range(25)], None)
        assert_same_answers(restored.monitor, reference.monitor)


class TestTornFiles:
    def _two_generations(self, tmp_path, manager=None):
        manager = manager or CheckpointManager(tmp_path)
        tenant = make_tenant()
        tenant.ingest([f"key-{i}" for i in range(30)], None)
        manager.write(tenant)
        tenant.ingest([f"key-{i}" for i in range(30, 60)], None)
        manager.write(tenant)
        return manager, tenant

    def test_truncated_newest_falls_back_whole(self, tmp_path):
        manager, tenant = self._two_generations(tmp_path)
        newest = manager.checkpoints("t0")[-1]
        FaultInjector.tear_file(newest)
        restored = manager.restore("t0")
        assert restored is not None and restored.fell_back
        assert restored.meta["position"] == 30.0

        reference = make_tenant("ref")
        reference.ingest([f"key-{i}" for i in range(30)], None)
        assert_same_answers(restored.monitor, reference.monitor)

    def test_flipped_byte_fails_crc_and_falls_back(self, tmp_path):
        manager, _ = self._two_generations(tmp_path)
        newest = manager.checkpoints("t0")[-1]
        blob = bytearray(newest.read_bytes())
        blob[len(blob) // 2] ^= 0xFF  # inside a member's payload
        newest.write_bytes(bytes(blob))
        restored = manager.restore("t0")
        assert restored is not None and restored.fell_back
        assert restored.meta["position"] == 30.0

    def test_all_generations_damaged_means_fresh_not_half_loaded(
            self, tmp_path):
        manager, _ = self._two_generations(tmp_path)
        for path in manager.checkpoints("t0"):
            FaultInjector.tear_file(path)
        assert manager.restore("t0") is None

    def test_pre_replace_torn_write_publishes_a_skippable_file(
            self, tmp_path):
        tearing = {"active": False}

        def maybe_tear(tmp_file):
            if tearing["active"]:
                FaultInjector.tear_file(tmp_file)

        manager = CheckpointManager(tmp_path,
                                    hooks={"pre_replace": maybe_tear})
        manager, tenant = self._two_generations(tmp_path, manager)
        tearing["active"] = True
        tenant.ingest([f"key-{i}" for i in range(60, 90)], None)
        manager.write(tenant)  # crash mid-publish: lands torn
        restored = manager.restore("t0")
        assert restored is not None and restored.fell_back
        assert restored.meta["position"] == 60.0

    def test_service_restart_over_damaged_dir_starts_fresh_and_serves(
            self, tmp_path):
        config = TenantConfig(window_length=64, memory="16KB")
        hosted = ServiceThread(default_config=config,
                               checkpoint_dir=str(tmp_path)).start()
        with LineClient.for_service(hosted) as client:
            client.request({"op": "INSERT_BATCH", "tenant": "t0",
                            "keys": [f"key-{i}" for i in range(40)]})
        hosted.stop()  # graceful: writes one generation
        manager = CheckpointManager(tmp_path)
        for path in manager.checkpoints("t0"):
            FaultInjector.tear_file(path)

        survivor = ServiceThread(default_config=config,
                                 checkpoint_dir=str(tmp_path)).start()
        try:
            assert survivor.service.restore_outcomes["t0"] == "fresh"
            assert survivor.service.tenants.peek("t0") is None
            with LineClient.for_service(survivor) as client:
                fresh = client.request({"op": "INSERT", "tenant": "t0",
                                        "key": "key-0"})
                assert fresh["ok"] is True and fresh["position"] == 1.0
        finally:
            survivor.stop()

    def test_unknown_format_tag_is_rejected_whole(self, tmp_path):
        manager, _ = self._two_generations(tmp_path)
        newest = manager.checkpoints("t0")[-1]
        with zipfile.ZipFile(newest) as archive:
            members = {name: archive.read(name)
                       for name in archive.namelist()}
        meta = members["meta.json"].replace(CHECKPOINT_FORMAT.encode(),
                                            b"who-knows-9")
        with zipfile.ZipFile(newest, "w") as archive:
            archive.writestr("meta.json", meta)
            for name, blob in members.items():
                if name != "meta.json":
                    archive.writestr(name, blob)
        restored = manager.restore("t0")
        assert restored is not None and restored.fell_back
        assert restored.meta["position"] == 30.0


class TestCrossBackendParity:
    @pytest.mark.parametrize("write_backend,restore_backend",
                             [("numpy", "python"), ("python", "numpy")])
    def test_restore_under_a_different_kernel_backend(
            self, tmp_path, write_backend, restore_backend, loop_kernels):
        def kernels(name):
            return loop_kernels() if name == "python" else nullcontext()

        manager = CheckpointManager(tmp_path)
        with kernels(write_backend):
            tenant = make_tenant()
            tenant.ingest([f"key-{i % 40}" for i in range(120)], None)
            manager.write(tenant)
            expected = [tenant.monitor.report(f"key-{i}")
                        for i in range(48)]
        with kernels(restore_backend):
            restored = manager.restore("t0")
            assert restored is not None and not restored.fell_back
            for i, want in enumerate(expected):
                got = restored.monitor.report(f"key-{i}")
                assert (got.active, got.size, got.span, got.begin) \
                    == (want.active, want.size, want.span, want.begin)


class TestRetentionAndConfig:
    def test_prune_keeps_newest_and_sequences_increase(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep=2)
        tenant = make_tenant()
        for round_no in range(5):
            tenant.ingest([f"key-{round_no}-{i}" for i in range(10)], None)
            manager.write(tenant)
        names = [p.name for p in manager.checkpoints("t0")]
        assert names == ["ckpt-00000004.zip", "ckpt-00000005.zip"]
        assert tenant.checkpoints_written == 5
        assert manager.restore("t0").meta["sequence"] == 5

    def test_keep_must_be_positive(self, tmp_path):
        with pytest.raises(CheckpointError):
            CheckpointManager(tmp_path, keep=0)

    @given(window=st.integers(8, 512), seed=st.integers(0, 50),
           shards=st.integers(1, 4),
           every=st.none() | st.floats(1.0, 1e6))
    @PROPERTY
    def test_config_meta_round_trip(self, window, seed, shards, every):
        config = TenantConfig(window_length=window, seed=seed,
                              shards=shards, checkpoint_every=every,
                              split=(("activeness", 0.5), ("size", 0.5)),
                              tasks=("activeness", "size"))
        assert TenantConfig.from_meta(config.to_meta()) == config

    def test_restore_with_explicit_config_override(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        tenant = make_tenant()
        tenant.ingest([f"key-{i}" for i in range(20)], None)
        manager.write(tenant)
        override = TenantConfig(window_length=64, memory="16KB", seed=5,
                                max_batch=7)
        restored = manager.restore("t0", override)
        assert restored.config.max_batch == 7
