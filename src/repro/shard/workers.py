"""Forked worker processes for sharded ingestion, over plain pipes.

Each shard lives in a dedicated worker process that owns the shard's
cells for every slot of the shard set (one slot per sketch: a sharded
monitor has one slot per enabled task). Before forking a shard's
worker, the parent binds each replica's
:class:`~repro.core.clockarray.ClockArray` buffer (and its side arrays
— timestamps, counters) to numpy views over one anonymous shared
mapping (``mmap.mmap(-1, size)``, ``MAP_SHARED``). The worker is a bare
``os.fork`` of the parent: it inherits the mapping and the bound
replicas, so it is the sole *writer* of cells the parent *reads* for
merged queries without copying. The block has no name, no ``/dev/shm``
file and no resource tracker: the kernel frees it when the last process
mapping it exits. Where ``os.fork`` does not exist the router is
refused.

Each worker has two pipes: it reads commands from one and writes an
acknowledgement for every command to the other, each message a
length-prefixed pickle. The parent bounds the commands in flight per
shard (back-pressure raises :class:`~repro.errors.ShardBackpressureError`
instead of buffering unboundedly) and writes without blocking: a
command goes out whole or not at all. A barrier waits until every
dispatched command is acknowledged, then adopts each replica's cleaner
position from its small shared control record. A worker that raises
(or dies) surfaces as a :class:`~repro.errors.ShardWorkerError`
carrying the partial-result picture — never a hang. A worker holds no
write end of any command pipe, so when the parent dies, even by
SIGKILL, every worker reads end-of-file and exits.

Time is injectable (``time_source``) exactly as in
:class:`repro.concurrent.BackgroundCleaner`, so the deadline logic is
deterministically testable.
"""

from __future__ import annotations

import fcntl
import mmap
import os
import pickle
import select
import signal
import time
from contextlib import nullcontext
from typing import Any, BinaryIO, NoReturn

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

#: Bytes of the length prefix in front of every pickled message.
_HEADER = 8

#: Bytes each command pipe is grown to (Linux's default ceiling for an
#: unprivileged process): room to queue large sub-batches while the
#: worker is busy with earlier ones.
_PIPE_BYTES = 1 << 20

#: The parent's ends of every live router's pipes. A forked worker
#: closes them all, so it keeps no other worker's command pipe open.
_PARENT_ENDS: "set[int]" = set()


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


def _frame(message: Any) -> bytes:
    """One pipe message: an 8-byte length, then the pickle."""
    body = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    return len(body).to_bytes(_HEADER, "little") + body


def _ready(fds: "list[int]", events: int, timeout: float) -> "list[int]":
    """The ``fds`` ready for ``events`` within ``timeout`` seconds."""
    poller = select.poll()
    for fd in fds:
        poller.register(fd, events)
    return [fd for fd, _ in poller.poll(timeout * 1000)]


def _pipe_room(fd: int) -> int:
    """Grow a pipe to ``_PIPE_BYTES`` where the platform can (Linux);
    returns the bytes it holds."""
    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        return 65536  # the usual default elsewhere
    try:
        return int(fcntl.fcntl(fd, fcntl.F_SETPIPE_SZ, _PIPE_BYTES))
    except OSError:  # past the user's pipe quota: it keeps its size
        return int(fcntl.fcntl(fd, fcntl.F_GETPIPE_SZ))


def _close_parent_end(fd: int) -> None:
    _PARENT_ENDS.discard(fd)
    os.close(fd)


def _shard_worker(shard: int, sketches: "list[Any]", block: mmap.mmap,
                  commands: BinaryIO, acks: BinaryIO) -> None:
    """One shard's worker loop: drain commands into its replicas.

    ``sketches`` are the shard's replicas, one per slot, inherited
    across the fork already bound to ``block``. Commands arrive on the
    ``commands`` pipe as tuples: ``("ingest", seq, items, times, ctx)``
    applies the chunk to every slot, ``("advance", seq, now, flush,
    ctx)`` runs the barrier step on every slot, ``("stop", seq)``, plus
    the test-only fault hooks ``("stall", seq, seconds)`` and
    ``("crash", seq)``. Every command is acknowledged on the ``acks``
    pipe as ``(shard, seq, status, detail, spans)``; an exception
    acknowledges with ``status="error"`` and ends the worker. End of
    file on ``commands`` (the router closed it, or the parent died)
    ends it too.

    ``ctx`` is an optional propagated span context ``(trace_id,
    span_id)`` from the parent's scatter/merge span. When present, the
    command's handling runs under :func:`repro.obs.trace.capture`, so
    the worker's ingest/advance spans — recorded regardless of this
    process's switchboard — ride back in the ack's ``spans`` payload
    and get stitched into the parent's trace.
    """
    running = True
    while running:
        header = commands.read(_HEADER)
        if len(header) < _HEADER:
            return
        command = pickle.loads(commands.read(int.from_bytes(header, "little")))
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
        acks.write(_frame((shard, seq, status, detail, spans)))
        acks.flush()


class ProcessShardRouter:
    """Routes shard sub-batches to one forked worker per shard.

    Parameters
    ----------
    replicas:
        The parent-side replica sketches (read-only views once bound),
        shard-major: shard ``p`` owns ``replicas[p * slots:(p + 1) *
        slots]``, one replica per slot.
    slots:
        Replicas per shard; one worker process serves them all.
    queue_capacity:
        Bound on each worker's commands in flight (dispatched, not yet
        acknowledged); a dispatch that finds no room before ``timeout``
        raises :class:`~repro.errors.ShardBackpressureError`.
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
        if not hasattr(os, "fork"):
            raise ConfigurationError(
                "router='process' forks its workers, which this platform "
                "cannot do; use router='serial'"
            )
        if int(queue_capacity) < 1:
            raise ConfigurationError(
                f"queue_capacity must be >= 1, got {queue_capacity}")
        self.replicas = list(replicas)
        self.slots = int(slots)
        self.shards = len(self.replicas) // self.slots
        self.capacity = int(queue_capacity)
        self.timeout = float(timeout)
        self._time = time_source if time_source is not None else time.monotonic
        #: Worker process ids, in shard order.
        self.pids: "list[int]" = []
        self._commands: "list[int]" = []  # write ends of the command pipes
        self._room: "list[int]" = []  # bytes each command pipe holds
        self._acks: "list[int]" = []  # read ends of the ack pipes; -1 at EOF
        self._inbox: "list[bytearray]" = []  # ack bytes not yet parsed
        self._blocks: "list[mmap.mmap]" = []
        #: Per shard, each unacknowledged command's seq -> the pipe bytes
        #: it is charged.
        self._pending: "list[dict[int, int]]" = [
            {} for _ in range(self.shards)]
        self._reaped: "set[int]" = set()
        self._failed: "dict[int, str]" = {}
        self._seq = 0
        self._closed = False
        self._owner = os.getpid()
        try:
            for shard in range(self.shards):
                self._start(shard)
        except BaseException:
            self.close()
            raise

    def _start(self, shard: int) -> None:
        """Bind a shard's block, open its two pipes, fork its worker."""
        group = self.replicas[shard * self.slots:(shard + 1) * self.slots]
        for replica in group:
            replica._accepts_global_times = True
        block = _shared_block(group)
        self._blocks.append(block)
        command_r, command_w = os.pipe()
        ack_r, ack_w = os.pipe()
        for fd in (command_w, ack_r):
            os.set_blocking(fd, False)
            _PARENT_ENDS.add(fd)
        self._commands.append(command_w)
        self._room.append(_pipe_room(command_w))
        self._acks.append(ack_r)
        self._inbox.append(bytearray())
        try:
            pid = os.fork()
            if pid == 0:
                # The worker leaves through os._exit: it never unwinds
                # into the caller's stack or runs its exit handlers.
                code = 1
                try:
                    # Holding no command pipe's write end, the worker
                    # reads end of file once its parent is gone.
                    for fd in _PARENT_ENDS:
                        os.close(fd)
                    with open(command_r, "rb") as commands, \
                            open(ack_w, "wb") as acks:
                        _shard_worker(shard, group, block, commands, acks)
                    code = 0
                finally:
                    os._exit(code)
        finally:
            os.close(command_r)
            os.close(ack_w)
        self.pids.append(pid)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def _raise_failed(self) -> NoReturn:
        pending = {i: len(p) for i, p in enumerate(self._pending) if p}
        shards = ", ".join(f"{i} ({reason})"
                           for i, reason in sorted(self._failed.items()))
        raise ShardWorkerError(
            f"shard worker(s) failed: {shards}; "
            f"{sum(pending.values())} command(s) unacknowledged",
            failed=self._failed, pending=pending,
        )

    def _absorb_acks(self, block: bool = False) -> bool:
        """Read the acks that have arrived; returns True if any did.

        With ``block`` it first waits up to one poll interval. End of
        file on an ack pipe means its worker exited: a shard that still
        had commands in flight has failed.
        """
        got = False
        live = [fd for fd in self._acks if fd >= 0]
        for fd in _ready(live, select.POLLIN,
                         _POLL_INTERVAL if block else 0.0):
            index = self._acks.index(fd)
            data = os.read(fd, 1 << 16)
            if not data:
                self._acks[index] = -1
                _close_parent_end(fd)
                if self._pending[index]:
                    self._failed.setdefault(index, "worker process died")
                continue
            inbox = self._inbox[index]
            inbox += data
            while len(inbox) >= _HEADER:
                end = _HEADER + int.from_bytes(inbox[:_HEADER], "little")
                if len(inbox) < end:
                    break
                shard, seq, status, detail, spans = pickle.loads(
                    inbox[_HEADER:end])
                del inbox[:end]
                got = True
                if spans and _obs.ENABLED:
                    _trace.record_spans(spans)
                if self._pending[shard].pop(seq, None) is None:
                    # An ack for a command we never recorded as pending
                    # means the seq bookkeeping diverged between parent
                    # and worker — mark the shard failed so the next
                    # dispatch/barrier surfaces it instead of silently
                    # dropping the ack.
                    self._failed[shard] = (
                        f"protocol error: unexpected ack for command {seq}")
                if status != "ok":
                    self._failed[shard] = detail
        return got

    def _dispatch(self, shard: int, command: "tuple[Any, ...]") -> None:
        if self._closed:
            raise ShardWorkerError("shard router is closed")
        if self._failed:
            self._raise_failed()
        self._seq += 1
        seq = self._seq
        frame = _frame((command[0], seq) + command[1:])
        charge = len(frame) + mmap.PAGESIZE
        pending = self._pending[shard]
        deadline = self._time() + self.timeout
        # Room: fewer than ``capacity`` commands in flight, and the pipe
        # either drained (the worker is reading it) or able to take the
        # whole frame beside the unacknowledged ones, each charged a
        # page more for the pipe page it may start; so a command is
        # never left half-written.
        while len(pending) >= self.capacity or (pending and sum(
                pending.values()) + charge > self._room[shard]):
            self._absorb_acks(block=True)
            if self._failed:
                self._raise_failed()
            if self._time() >= deadline:
                raise ShardBackpressureError(
                    f"shard {shard} queue full for {self.timeout}s "
                    f"({len(pending)} commands pending); "
                    "the stream is outrunning this worker"
                )
        pending[seq] = charge
        fd = self._commands[shard]
        view = memoryview(frame)
        while view:
            try:
                view = view[os.write(fd, view):]
            except BlockingIOError:
                # Only a frame larger than the drained pipe gets here.
                if self._time() >= deadline:
                    self._failed[shard] = "worker stopped reading commands"
                    self._raise_failed()
                _ready([fd], select.POLLOUT, _POLL_INTERVAL)
            except BrokenPipeError:
                # A crashed worker acked its error before exiting.
                self._absorb_acks()
                self._failed.setdefault(shard, "worker process died")
                self._raise_failed()
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
        while any(self._pending) and not self._failed:
            if not self._absorb_acks(block=True) \
                    and self._time() >= deadline:
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
        """Commands dispatched to a shard and not yet acknowledged."""
        return len(self._pending[shard])

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------

    def join(self, shard: int, timeout: float = 0.0) -> bool:
        """Whether a shard's worker has exited, waiting up to ``timeout``
        real seconds; an exited worker is reaped here.

        The router is its workers' only waiter: a second ``waitpid``
        caller would take the exit status from it.
        """
        deadline = time.monotonic() + timeout
        while shard not in self._reaped:
            try:
                done = os.waitpid(self.pids[shard], os.WNOHANG)[0]
            except ChildProcessError:  # already reaped elsewhere
                done = self.pids[shard]
            if done:
                self._reaped.add(shard)
            elif time.monotonic() >= deadline:
                return False
            else:
                time.sleep(0.01)
        return True

    def close(self, timeout: float = 5.0) -> None:
        """Stop the workers, reap them and close their pipes.

        Idempotent, and a no-op in a forked copy of the router. Each
        worker gets ``stop`` and then end of file; one still running
        ``timeout`` seconds later is killed. Nothing needs unlinking:
        the replicas keep their views over the shard blocks, which no
        process writes any more, so a closed sharded sketch remains
        queryable, and each block is unmapped once its last view is
        gone.
        """
        if self._closed or os.getpid() != self._owner:
            return
        self._closed = True
        for fd in self._commands:
            self._seq += 1
            try:
                os.write(fd, _frame(("stop", self._seq)))
            except OSError:
                pass  # a full or broken pipe: end of file stops it too
            _close_parent_end(fd)
        for shard, pid in enumerate(self.pids):
            if not self.join(shard, timeout):
                os.kill(pid, signal.SIGKILL)
                self.join(shard, timeout)
        self._sync_replicas()
        for fd in self._acks:
            if fd >= 0:
                _close_parent_end(fd)

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass
