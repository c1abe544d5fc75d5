"""Multiprocessing worker pool for sharded ingestion.

Each shard lives in a dedicated worker process that owns the shard's
cells for every slot of the shard set (one slot per sketch: a sharded
monitor has one slot per enabled task). Before forking a shard's
worker, the parent binds each replica's
:class:`~repro.core.clockarray.ClockArray` buffer (and its side arrays
— timestamps, counters) to numpy views over one anonymous shared
mapping (``mmap.mmap(-1, size)``, ``MAP_SHARED``). The forked worker
inherits the mapping and the bound replicas, so it is the sole *writer*
of cells the parent *reads* for merged queries without copying. The
block has no name, no ``/dev/shm`` file and no resource tracker: the
kernel frees it when the last process mapping it exits. Inheritance
needs the ``fork`` start method, which the router always names
explicitly.

Workers drain ``insert_many`` chunks from a bounded command queue
(back-pressure raises :class:`~repro.errors.ShardBackpressureError`
instead of buffering unboundedly) and apply each chunk to every slot;
they acknowledge every command on a shared ack queue. A barrier simply
waits until every dispatched command is acknowledged, then adopts each
replica's cleaner position from its small shared control record. A
worker that raises (or dies) surfaces as a
:class:`~repro.errors.ShardWorkerError` carrying the partial-result
picture — never a hang.

Time is injectable (``time_source``) exactly as in
:class:`repro.concurrent.BackgroundCleaner`, so the deadline logic is
deterministically testable.
"""

from __future__ import annotations

import mmap
import multiprocessing
import queue as queue_mod
import time
from contextlib import nullcontext
from typing import Any

import numpy as np

from ..errors import (
    ConfigurationError,
    ShardBackpressureError,
    ShardWorkerError,
)
from ..obs import names
from ..obs import runtime as _obs
from ..obs import trace as _trace
from .router import DEFAULT_QUEUE_CAPACITY, DEFAULT_TIMEOUT, advance_replica

__all__ = ["ProcessShardRouter"]

#: Bytes of one replica's control record at the front of its shard's
#: block: int64 steps_done, int64 items_inserted, float64 now.
_CONTROL_BYTES = 24

#: Real-time seconds per blocking poll step; the *deadline* arithmetic
#: runs on the injectable time source, this only bounds each syscall.
_POLL_INTERVAL = 0.05


def _fork_context() -> Any:
    """The ``fork`` multiprocessing context, named explicitly.

    Workers inherit their block and replicas across the fork, so a
    platform default of ``spawn`` or ``forkserver`` (the Linux default
    from Python 3.14) would silently break them; where ``fork`` does
    not exist the router is refused. A router forks all its workers in
    its constructor, before any of its own queue feeder threads start.
    """
    if "fork" not in multiprocessing.get_all_start_methods():
        raise ConfigurationError(
            "router='process' needs the 'fork' start method, which this "
            "platform lacks; use router='serial'"
        )
    return multiprocessing.get_context("fork")


def _shared_block(sketches: "list[Any]") -> mmap.mmap:
    """Bind one shard's replicas into a fresh anonymous shared block.

    Layout: a control record per slot, then every slot's mutable arrays
    (clock values, plus timestamps or counters where the kind carries
    them), each 8-byte aligned. Binding is state-preserving: current
    contents are copied into the block, the clock buffer through the
    validating :meth:`~repro.core.clockarray.ClockArray.bind_buffer`.
    """
    fields: "list[tuple[Any, str, np.ndarray, int]]" = []
    offset = _CONTROL_BYTES * len(sketches)
    for sketch in sketches:
        for owner, attr in ((sketch.clock, "values"), (sketch, "timestamps"),
                            (sketch, "counters")):
            arr = getattr(owner, attr, None)
            if arr is None:
                continue
            offset = -(-offset // 8) * 8  # 8-byte-align every array
            fields.append((owner, attr, arr, offset))
            offset += arr.nbytes
    block = mmap.mmap(-1, offset)
    for owner, attr, arr, start in fields:
        view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=block,
                          offset=start)
        if attr == "values":
            owner.bind_buffer(view)
        else:
            view[:] = arr
            setattr(owner, attr, view)
    _write_control(block, sketches)
    return block


def _control_views(buf: Any, slot: int) -> "tuple[np.ndarray, np.ndarray]":
    base = slot * _CONTROL_BYTES
    ints = np.ndarray((2,), dtype=np.int64, buffer=buf, offset=base)
    now = np.ndarray((1,), dtype=np.float64, buffer=buf, offset=base + 16)
    return ints, now


def _write_control(buf: Any, sketches: "list[Any]") -> None:
    for slot, sketch in enumerate(sketches):
        ints, now = _control_views(buf, slot)
        ints[0] = sketch.clock.steps_done
        ints[1] = sketch.items_inserted
        now[0] = sketch.clock.now


def _read_control(buf: Any, slot: int) -> "tuple[int, int, float]":
    ints, now = _control_views(buf, slot)
    return int(ints[0]), int(ints[1]), float(now[0])


def _command_ctx(op: str, command: "tuple[Any, ...]") -> Any:
    """The propagated span context riding on a command, if any.

    Only ingest/advance carry one (as their last element); older-style
    short tuples and the test-only fault hooks yield None.
    """
    if op in ("ingest", "advance") and len(command) > 4:
        return command[4]
    return None


def _shard_worker(shard: int, sketches: "list[Any]", block: mmap.mmap,
                  commands: Any, acks: Any) -> None:
    """One shard's worker loop: drain commands into its replicas.

    ``sketches`` are the shard's replicas, one per slot, inherited
    across the fork already bound to ``block``. Command protocol
    (tuples): ``("ingest", seq, items, times, ctx)`` applies the chunk
    to every slot, ``("advance", seq, now, flush, ctx)`` runs the
    barrier step on every slot, ``("stop", seq)``, plus the test-only
    fault hooks ``("stall", seq, seconds)`` and ``("crash", seq)``.
    Every command is acknowledged as ``(shard, seq, status, detail,
    spans)``; an exception acknowledges with ``status="error"`` and
    ends the worker.

    ``ctx`` is an optional propagated span context ``(trace_id,
    span_id)`` from the parent's scatter/merge span. When present, the
    command's handling runs under :func:`repro.obs.trace.capture`, so
    the worker's ingest/advance spans — recorded regardless of this
    process's switchboard — ride back in the ack's ``spans`` payload
    and get stitched into the parent's trace.
    """
    running = True
    while running:
        command = commands.get()
        op, seq = command[0], command[1]
        status, detail = "ok", ""
        spans: "list[dict[str, Any]]" = []
        ctx = _command_ctx(op, command)
        capture = (_trace.capture(ctx, spans) if ctx is not None
                   else nullcontext(spans))
        try:
            with capture:
                if op == "ingest":
                    with _trace.span(names.SPAN_SHARD_INGEST,
                                     shard=str(shard)) as sp:
                        for sketch in sketches:
                            sketch.insert_many(command[2], command[3])
                        if sp.recording:
                            sp.set("items", len(command[2]))
                elif op == "advance":
                    with _trace.span(names.SPAN_SHARD_ADVANCE,
                                     shard=str(shard)):
                        for sketch in sketches:
                            advance_replica(sketch, float(command[2]),
                                            bool(command[3]))
                elif op == "stall":
                    time.sleep(float(command[2]))
                elif op == "crash":
                    raise RuntimeError("injected worker crash")
                elif op == "stop":
                    running = False
                else:
                    raise ValueError(f"unknown shard command {op!r}")
        except BaseException as exc:  # surface, acknowledge, stop
            status = "error"
            detail = f"{type(exc).__name__}: {exc}"
            running = False
        _write_control(block, sketches)
        acks.put((shard, seq, status, detail, spans))


class ProcessShardRouter:
    """Routes shard sub-batches to a pool of worker processes.

    Parameters
    ----------
    replicas:
        The parent-side replica sketches (read-only views once bound),
        shard-major: shard ``p`` owns ``replicas[p * slots:(p + 1) *
        slots]``, one replica per slot.
    slots:
        Replicas per shard; one worker process serves them all.
    queue_capacity:
        Bound on each worker's command queue; a full queue past
        ``timeout`` raises :class:`~repro.errors.ShardBackpressureError`.
    timeout:
        Seconds a dispatch or barrier waits before declaring failure.
    time_source:
        Clock used for deadlines (default ``time.monotonic``);
        injectable for deterministic tests.
    """

    kind = "process"

    def __init__(self, replicas: "list[Any]", *, slots: int = 1,
                 queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
                 timeout: float = DEFAULT_TIMEOUT,
                 time_source: Any = None) -> None:
        ctx = _fork_context()
        self.replicas = list(replicas)
        self.slots = int(slots)
        self.shards = len(self.replicas) // self.slots
        self.timeout = float(timeout)
        self._time = time_source if time_source is not None else time.monotonic
        self._acks = ctx.Queue()
        self._commands: "list[Any]" = []
        self._blocks: "list[mmap.mmap]" = []
        self._procs: "list[Any]" = []
        self._pending: "list[list[int]]" = [[] for _ in range(self.shards)]
        self._failed: "dict[int, str]" = {}
        self._seq = 0
        self._closed = False
        try:
            for shard in range(self.shards):
                group = self._group(shard)
                for replica in group:
                    replica._accepts_global_times = True
                block = _shared_block(group)
                self._blocks.append(block)
                commands = ctx.Queue(maxsize=int(queue_capacity))
                self._commands.append(commands)
                proc = ctx.Process(
                    target=_shard_worker,
                    args=(shard, group, block, commands, self._acks),
                    daemon=True,
                )
                proc.start()
                self._procs.append(proc)
        except BaseException:
            self.close()
            raise

    def _group(self, shard: int) -> "list[Any]":
        """Shard ``shard``'s replicas, one per slot."""
        return self.replicas[shard * self.slots:(shard + 1) * self.slots]

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def _raise_failed(self) -> None:
        pending = {i: len(p) for i, p in enumerate(self._pending) if p}
        shards = ", ".join(f"{i} ({reason})"
                           for i, reason in sorted(self._failed.items()))
        raise ShardWorkerError(
            f"shard worker(s) failed: {shards}; "
            f"{sum(pending.values())} command(s) unacknowledged",
            failed=self._failed, pending=pending,
        )

    def _absorb_acks(self, block: bool = False) -> bool:
        """Pull available acks; returns True if any arrived."""
        got = False
        while True:
            try:
                if block and not got:
                    ack = self._acks.get(timeout=_POLL_INTERVAL)
                else:
                    ack = self._acks.get_nowait()
            except queue_mod.Empty:
                return got
            got = True
            shard, seq, status, detail, spans = ack
            if spans and _obs.ENABLED:
                _trace.record_spans(spans)
            try:
                self._pending[shard].remove(seq)
            except ValueError:
                # An ack for a command we never recorded as pending means
                # the seq bookkeeping diverged between parent and worker —
                # mark the shard failed so the next dispatch/barrier
                # surfaces it instead of silently dropping the ack.
                self._failed[shard] = (
                    f"protocol error: unexpected ack for command {seq}")
            if status != "ok":
                self._failed[shard] = detail

    def _dispatch(self, shard: int, command: "tuple[Any, ...]") -> None:
        if self._closed:
            raise ShardWorkerError("shard router is closed")
        if self._failed:
            self._raise_failed()
        self._seq += 1
        seq = self._seq
        full = (command[0], seq) + command[1:]
        deadline = self._time() + self.timeout
        commands = self._commands[shard]
        while True:
            try:
                commands.put(full, timeout=_POLL_INTERVAL)
                break
            except queue_mod.Full:
                self._absorb_acks()
                if self._failed:
                    self._raise_failed()
                if not self._procs[shard].is_alive():
                    self._failed[shard] = "worker process died"
                    self._raise_failed()
                if self._time() >= deadline:
                    raise ShardBackpressureError(
                        f"shard {shard} queue full for {self.timeout}s "
                        f"({len(self._pending[shard])} commands pending); "
                        "the stream is outrunning this worker"
                    )
        self._pending[shard].append(seq)
        self._absorb_acks()

    def ingest(self, shard: int, items: Any, times: np.ndarray,
               ctx: Any = None) -> None:
        """Queue one sub-batch for a shard's worker.

        ``ctx`` is an optional span context to propagate; the worker's
        ingest span comes back on the ack and joins the parent's trace.
        """
        self._dispatch(shard, ("ingest", items,
                               np.asarray(times, dtype=np.float64), ctx))

    def inject(self, shard: int, op: str, *payload: Any) -> None:
        """Send a raw protocol command (test hooks: ``stall``/``crash``)."""
        self._dispatch(shard, (op,) + payload)

    # ------------------------------------------------------------------
    # Barrier and parent-side sync
    # ------------------------------------------------------------------

    def drain(self) -> None:
        """Block until every dispatched command is acknowledged."""
        deadline = self._time() + self.timeout
        while any(self._pending):
            if self._absorb_acks(block=True):
                if self._failed:
                    self._raise_failed()
                continue
            if self._failed:
                self._raise_failed()
            for shard, pend in enumerate(self._pending):
                if pend and not self._procs[shard].is_alive():
                    self._failed[shard] = "worker process died"
            if self._failed:
                self._raise_failed()
            if self._time() >= deadline:
                pending = {i: len(p) for i, p in enumerate(self._pending)
                           if p}
                raise ShardWorkerError(
                    f"barrier timed out after {self.timeout}s with "
                    f"{sum(pending.values())} command(s) unacknowledged",
                    pending=pending,
                )
        if self._failed:
            self._raise_failed()

    def barrier(self, now: float, ctx: Any = None) -> None:
        """Advance every shard to ``now``, wait, adopt worker positions."""
        flush = self.shards > 1
        for shard in range(self.shards):
            self._dispatch(shard, ("advance", float(now), flush, ctx))
        with _trace.span(names.SPAN_SHARD_ACK):
            self.drain()
        self._sync_replicas()

    def _sync_replicas(self) -> None:
        # Only shards whose block exists (a failed start stops early).
        for index, replica in enumerate(
                self.replicas[:len(self._blocks) * self.slots]):
            shard, slot = divmod(index, self.slots)
            steps, items, now = _read_control(self._blocks[shard], slot)
            clock = replica.clock
            if now > clock.now or steps > clock.steps_done:
                clock.sync_state(max(now, clock.now), steps)
            replica._items_inserted = items
            if now > replica._now:
                replica._now = now

    def queue_depth(self, shard: int) -> int:
        """Commands currently pending in a shard's queue (best effort)."""
        try:
            return int(self._commands[shard].qsize())
        except (NotImplementedError, OSError):
            return len(self._pending[shard])

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------

    def close(self, timeout: float = 5.0) -> None:
        """Stop workers and release their queues.

        Idempotent. Nothing needs unlinking: the replicas keep their
        views over the shard blocks, which no process writes any more,
        so a closed sharded sketch remains queryable, and each block is
        unmapped once its last view is gone.
        """
        if self._closed:
            return
        self._closed = True
        for shard, commands in enumerate(self._commands):
            proc = self._procs[shard] if shard < len(self._procs) else None
            if proc is not None and proc.is_alive():
                self._seq += 1
                try:
                    commands.put(("stop", self._seq), timeout=_POLL_INTERVAL)
                except queue_mod.Full:
                    pass
        for proc in self._procs:
            proc.join(timeout=timeout)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=timeout)
        self._sync_replicas()
        for commands in self._commands:
            commands.cancel_join_thread()
            commands.close()
        self._acks.cancel_join_thread()
        self._acks.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass
