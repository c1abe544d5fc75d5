"""Processes and sockets of the benchmark: the server child, its shard
workers, loopback connections and the open-loop query sender.

Everything here runs in the load-generator process. The server runs in
its own session, so its shard workers share its process group: that is
how the benchmark finds them (for memory and CPU accounting) and how it
proves none of them outlives the server.
"""

from __future__ import annotations

import contextlib
import json
import os
import select
import signal
import socket
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter, sleep
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.serve import TenantConfig

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
_TICK = os.sysconf("SC_CLK_TCK")
_PING = b'{"op":"PING"}\n'


# ----------------------------------------------------------------------
# /proc accounting
# ----------------------------------------------------------------------

def _stat(pid: int) -> "Optional[List[str]]":
    """Fields of ``/proc/<pid>/stat`` from ``state`` on, or None."""
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return raw[raw.rfind(")") + 2:].split()


def group_members(pgid: int) -> "List[int]":
    """Live (non-zombie) processes in process group ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat(int(entry))
            if fields and int(fields[2]) == pgid and fields[0] != "Z":
                members.append(int(entry))
    return sorted(members)


def _cmdline(pid: int) -> bytes:
    try:
        return Path(f"/proc/{pid}/cmdline").read_bytes()
    except OSError:
        return b""


def cpu_seconds(pids: "List[int]") -> float:
    """User plus system CPU seconds of the given processes."""
    total = 0
    for pid in pids:
        fields = _stat(pid)
        if fields:
            total += int(fields[11]) + int(fields[12])
    return total / _TICK


def pss_mb(pids: "List[int]") -> float:
    """Sum of proportional set sizes (``Pss``), in MiB."""
    kib = 0
    for pid in pids:
        try:
            text = Path(f"/proc/{pid}/smaps_rollup").read_text()
        except OSError:
            continue
        for line in text.splitlines():
            if line.startswith("Pss:"):
                kib += int(line.split()[1])
                break
    return kib / 1024.0


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------

class ServerError(RuntimeError):
    """The server child failed to start or to answer."""


class Server:
    """One ``server.py`` child in its own session.

    Parameters
    ----------
    config:
        The tenant configuration, passed as ``TenantConfig.to_meta()``.
    checkpoint_dir:
        Rolling-checkpoint directory, or None for no checkpoints.
    trace_dir:
        Directory for layer snapshots; None runs the server untraced.
    """

    def __init__(self, config: TenantConfig, *,
                 checkpoint_dir: "Optional[Path]" = None,
                 trace_dir: "Optional[Path]" = None) -> None:
        self.config = config
        self.checkpoint_dir = checkpoint_dir
        self.trace_dir = trace_dir
        self.proc: "Optional[subprocess.Popen[bytes]]" = None
        self.port = 0
        self._dumps = 0

    @property
    def pid(self) -> int:
        assert self.proc is not None
        return self.proc.pid

    def start(self, timeout: float = 120.0) -> "Server":
        cmd = [sys.executable, str(HERE / "server.py"),
               "--config", json.dumps(self.config.to_meta())]
        if self.checkpoint_dir is not None:
            cmd += ["--checkpoint-dir", str(self.checkpoint_dir)]
        if self.trace_dir is not None:
            self.trace_dir.mkdir(parents=True, exist_ok=True)
            cmd += ["--trace", str(self.trace_dir)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, start_new_session=True)
        assert self.proc.stdout is not None
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else b""
        if not line:
            raise ServerError(
                f"server did not report a port within {timeout}s "
                f"(exit code {self.proc.poll()})")
        self.port = int(json.loads(line)["port"])
        return self

    def processes(self) -> "List[int]":
        """The server and every process it started."""
        return group_members(self.pid)

    def workers(self) -> "List[int]":
        """Shard workers: forked children running the server's command."""
        own = _cmdline(self.pid)
        return [pid for pid in self.processes()
                if pid != self.pid and _cmdline(pid) == own]

    def layer_snapshot(self, timeout: float = 60.0) -> "Dict[str, Any]":
        """Ask a traced server for the layer numbers since the last ask."""
        assert self.trace_dir is not None
        self._dumps += 1
        path = self.trace_dir / f"layers-{self._dumps}.json"
        os.kill(self.pid, signal.SIGUSR1)
        deadline = perf_counter() + timeout
        while not path.exists():
            if perf_counter() > deadline or self.proc.poll() is not None:
                raise ServerError("traced server wrote no layer snapshot")
            sleep(0.005)
        return json.loads(path.read_text())

    def stop(self, timeout: float = 60.0) -> "List[int]":
        """SIGTERM, wait, then kill whatever is left.

        Returns the processes of the server's group that were still
        alive after the graceful stop (empty on a clean shutdown).
        """
        proc = self.proc
        if proc is None:
            return []
        survivors: "List[int]" = []
        try:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
                try:
                    proc.wait(timeout)
                except subprocess.TimeoutExpired:
                    survivors.append(proc.pid)
            deadline = perf_counter() + 10.0
            left = group_members(proc.pid)
            while left and perf_counter() < deadline:
                sleep(0.02)
                left = group_members(proc.pid)
            survivors += [pid for pid in left if pid not in survivors]
        finally:
            if survivors or proc.poll() is None:
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            proc.wait()
            if proc.stdout is not None:
                proc.stdout.close()
            self.proc = None
        return survivors


# ----------------------------------------------------------------------
# Connections
# ----------------------------------------------------------------------

class Conn:
    """One blocking loopback connection speaking the line protocol.

    ``repro.serve.testing.LineClient`` does the same job, but it lives
    in the code under test: a change to it would change the load
    generator between the two commits a comparison runs. The benchmark
    keeps its own client, with Nagle off so small frames go out at once.
    """

    def __init__(self, port: int, timeout: float = 60.0) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = self.sock.makefile("rb")

    def send(self, line: bytes) -> None:
        self.sock.sendall(line)

    def recv(self) -> "Optional[Dict[str, Any]]":
        """The next response, or None when the server hung up."""
        line = self._reader.readline()
        if not line.endswith(b"\n"):
            return None
        return json.loads(line)

    def call(self, line: bytes) -> "Optional[Dict[str, Any]]":
        self.send(line)
        return self.recv()

    def close(self) -> None:
        self._reader.close()
        self.sock.close()


class OpenLoop:
    """Open-loop sender: one request every ``1/rate`` s, come what may.

    A sender thread writes each request at its due time and a receiver
    thread matches the in-order responses back to them, so a slow
    response delays no later send. Latency runs from the due time, so a
    stall also counts against the requests queued behind it; lateness
    is how far the sender itself ran behind the schedule.
    """

    def __init__(self, port: int, rate: float,
                 request: "Callable[[], Tuple[Any, bytes]]") -> None:
        self.conn = Conn(port)
        self.rate = rate
        self.request = request
        #: ``(due, sent, key)`` per request, in send order.
        self.sent: "List[Tuple[float, float, Any]]" = []
        self.latency: "List[float]" = []
        self.failed = 0
        self._stop = threading.Event()
        self._threads = [threading.Thread(target=self._send, daemon=True),
                         threading.Thread(target=self._recv, daemon=True)]

    def start(self) -> "OpenLoop":
        for thread in self._threads:
            thread.start()
        return self

    def _send(self) -> None:
        started = perf_counter()
        i = 0
        try:
            while True:
                due = started + i / self.rate
                i += 1
                if self._stop.wait(max(0.0, due - perf_counter())):
                    break
                key, line = self.request()
                self.sent.append((due, perf_counter(), key))
                self.conn.send(line)
            # The PING answer marks the end of the response stream.
            self.conn.send(_PING)
        except OSError:
            # The receiver waits for that PING answer: wake it up.
            with contextlib.suppress(OSError):
                self.conn.sock.shutdown(socket.SHUT_RDWR)

    def _recv(self) -> None:
        received = 0
        try:
            while True:
                response = self.conn.recv()
                now = perf_counter()
                if response is None or response.get("op") == "PING":
                    break
                due, _sent, key = self.sent[received]
                received += 1
                self.latency.append(now - due)
                if not response.get("ok") or response.get("key") != key:
                    self.failed += 1
        except OSError:
            pass  # stop() counts every unanswered request as failed

    @property
    def late(self) -> "List[float]":
        return [sent - due for due, sent, _key in self.sent]

    def stop(self, timeout: float = 60.0) -> None:
        """Stop sending, wait for every answer, close the connection."""
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout)
        self.failed += len(self.sent) - len(self.latency)
        self.conn.close()
