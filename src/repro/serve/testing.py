"""The service's own test harness: loopback hosting, clients, faults.

Three pieces, all deterministic and dependency-free:

- :class:`ServiceThread` hosts a real :class:`~repro.serve.IngestService`
  on a private event loop in a daemon thread, so synchronous tests (and
  hypothesis, which cannot re-enter asyncio per example) drive it over
  real sockets; coroutines are injected with :meth:`submit`, which
  enforces a deadline — a wedged event loop surfaces as a timeout, not
  a hang.
- :class:`LineClient` is a blocking newline-delimited JSON client with
  byte-level access: :meth:`send_raw` writes arbitrary bytes (fuzzing),
  :meth:`disconnect_mid_frame` closes the socket with half a frame on
  the wire.
- :class:`FaultInjector` scripts deterministic failures against a
  running service: shard-worker crash/stall (through the process
  router's fault hooks) and checkpoint torn-file truncation.

Every timeout in this module is a *liveness assertion*: the protocol
contract says each frame gets exactly one response, so a read that
does not complete within the deadline is a wedge, reported as
:class:`TimeoutError`.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
from typing import Any, Dict, List, Optional

from ..errors import ConfigurationError, ServeError
from .service import IngestService

__all__ = ["ServiceThread", "LineClient", "FaultInjector",
           "DEFAULT_DEADLINE"]

#: Default liveness deadline (real seconds) for harness operations.
DEFAULT_DEADLINE = 10.0


class ServiceThread:
    """Host an :class:`IngestService` on a private loop in a thread."""

    def __init__(self, service: "Optional[IngestService]" = None,
                 **service_kwargs: Any) -> None:
        if service is not None and service_kwargs:
            raise ConfigurationError(
                "pass either a built service or its kwargs, not both")
        self.service = service or IngestService(**service_kwargs)
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-test", daemon=True)
        self._ready = threading.Event()
        self._startup_error: "Optional[BaseException]" = None

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        try:
            self.loop.run_until_complete(self.service.start())
        except Exception as exc:
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        self.loop.run_forever()
        # Drain cancellations scheduled by stop() before closing.
        self.loop.run_until_complete(asyncio.sleep(0))
        self.loop.close()

    def start(self, deadline: float = DEFAULT_DEADLINE) -> "ServiceThread":
        self._thread.start()
        if not self._ready.wait(deadline):
            raise TimeoutError("service did not start within deadline")
        if self._startup_error is not None:
            raise ServeError(
                f"service failed to start: {self._startup_error}"
            ) from self._startup_error
        return self

    @property
    def host(self) -> str:
        return self.service.host

    @property
    def port(self) -> int:
        return self.service.port

    def submit(self, coro: Any, deadline: float = DEFAULT_DEADLINE) -> Any:
        """Run a coroutine on the service loop; raise on wedge."""
        future = asyncio.run_coroutine_threadsafe(coro, self.loop)
        return future.result(timeout=deadline)

    def checkpoint_now(self, *, force: bool = True) -> "Dict[str, str]":
        """Synchronously run one checkpoint sweep on the service loop."""
        return self.submit(self.service.checkpoint_due(force=force))

    def stop(self, *, graceful: bool = True,
             deadline: float = DEFAULT_DEADLINE) -> None:
        """Stop the service and its loop; ``graceful=False`` simulates
        a crash (no final checkpoint is written)."""
        if not self._thread.is_alive():
            return
        if graceful:
            self.submit(self.service.stop(), deadline)
        else:
            self.submit(self.service.abort(), deadline)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout=deadline)
        if self._thread.is_alive():
            raise TimeoutError("service loop did not stop within deadline")

    def kill(self, deadline: float = DEFAULT_DEADLINE) -> None:
        """Simulated hard crash: no graceful stop, no checkpoint."""
        self.stop(graceful=False, deadline=deadline)

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.stop(graceful=exc_type is None)


class LineClient:
    """Blocking loopback client for the newline-delimited protocol."""

    def __init__(self, host: str, port: int,
                 timeout: float = DEFAULT_DEADLINE) -> None:
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.settimeout(timeout)
        self._file = self.sock.makefile("rb")
        #: The OSError (if any) hit while sending a deliberately
        #: unterminated frame — the server had already hung up first.
        self.disconnect_error: "Optional[OSError]" = None

    @classmethod
    def for_service(cls, hosted: ServiceThread,
                    timeout: float = DEFAULT_DEADLINE) -> "LineClient":
        return cls(hosted.host, hosted.port, timeout)

    def send_raw(self, data: bytes) -> None:
        """Write arbitrary bytes (no framing added)."""
        self.sock.sendall(data)

    def recv_line(self) -> "Optional[Dict[str, Any]]":
        """Read one response object; None on orderly EOF.

        A response that is not valid JSON violates the wire contract
        and raises immediately (the fuzz suite's core assertion).
        """
        line = self._file.readline()
        if not line:
            return None
        payload = json.loads(line.decode("utf-8"))
        if not isinstance(payload, dict):
            raise ServeError(f"non-object response frame: {payload!r}")
        return payload

    def request(self, obj: "Dict[str, Any]") -> "Dict[str, Any]":
        """One request frame, one response frame."""
        self.send_raw(json.dumps(obj).encode("utf-8") + b"\n")
        payload = self.recv_line()
        if payload is None:
            raise ServeError("connection closed before a response")
        return payload

    def request_lines(self, frames: "List[bytes]"
                      ) -> "List[Dict[str, Any]]":
        """Pipeline raw frames; collect one response per frame until
        the server closes (bad-frame) or all are answered."""
        for frame in frames:
            self.send_raw(frame)
        responses: "List[Dict[str, Any]]" = []
        for _ in frames:
            payload = self.recv_line()
            if payload is None:
                break
            responses.append(payload)
        return responses

    def disconnect_mid_frame(self, partial: bytes = b'{"op": "INS') -> None:
        """Send an unterminated frame fragment and hang up."""
        try:
            self.sock.sendall(partial)
        except OSError as exc:
            # The server hung up first; the disconnect this method
            # exists to cause already happened. Keep the evidence.
            self.disconnect_error = exc
        self.close()

    def close(self) -> None:
        try:
            self._file.close()
            self.sock.close()
        except OSError:
            pass  # double-close on an aborted socket is fine

    def __enter__(self) -> "LineClient":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.close()


class FaultInjector:
    """Deterministic fault scripting against a hosted service."""

    def __init__(self, hosted: ServiceThread) -> None:
        self.hosted = hosted

    def _router(self, tenant_name: str) -> Any:
        """The tenant's shard router (one per tenant: every task shares
        it)."""
        tenant = self.hosted.service.tenants.peek(tenant_name)
        if tenant is None:
            raise ConfigurationError(f"tenant {tenant_name!r} not resident")
        router = getattr(tenant.monitor._sketches[0], "router", None)
        if router is None or not hasattr(router, "inject"):
            raise ConfigurationError(
                "fault injection requires a process-router tenant")
        return router

    def crash_shard(self, tenant_name: str, shard: int = 0) -> None:
        """Kill one shard worker process mid-stream."""
        self._router(tenant_name).inject(shard, "crash")

    def wait_for_worker_exit(self, tenant_name: str, shard: int = 0,
                             deadline: float = DEFAULT_DEADLINE) -> None:
        """Block until an injected crash has taken the worker down.

        Dispatch is pipelined, so a crash surfaces only once the dead
        worker's error ack is absorbed — and on a loaded host the
        worker may not even be scheduled (to process the injected
        command) before a fast caller gives up.  The worker acks the
        crash *before* exiting, so once the process is gone the error
        ack is guaranteed to be queued and the next commands fail
        deterministically.
        """
        proc = self._router(tenant_name)._procs[shard]
        proc.join(deadline)
        if proc.is_alive():
            raise TimeoutError(
                f"shard {shard} worker still alive {deadline}s after "
                "the injected crash")

    def stall_shard(self, tenant_name: str, seconds: float,
                    shard: int = 0) -> None:
        """Make one shard worker a slow consumer for ``seconds``."""
        self._router(tenant_name).inject(shard, "stall", seconds)

    @staticmethod
    def tear_file(path: Any, keep_bytes: int = 100) -> None:
        """Truncate a checkpoint file as a crash mid-write would."""
        with open(path, "r+b") as handle:
            handle.truncate(keep_bytes)
