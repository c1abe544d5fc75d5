"""Optional stdlib-only HTTP exposition endpoint.

:class:`MetricsServer` serves the live registry at ``/metrics``
(Prometheus text) and ``/metrics.json`` (JSON snapshot) from a daemon
thread — no third-party dependency, no framework — plus three
operational endpoints:

- ``/healthz`` — liveness: ``{"status": "ok", "uptime_seconds": ...}``;
- ``/statusz`` — one JSON page of process vitals (uptime, registry
  size, ring fill, tracer state, last flight-recorder dump path);
- ``/trace.json`` — the live span ring
  (:func:`repro.obs.trace.snapshot`); ``?format=chrome`` renders it as
  a Chrome trace-event document loadable in Perfetto;
- ``/perf.json`` — the performance ledger tail and the last
  current-vs-baseline comparison
  (:func:`repro.obs.perf.perf_payload`).

Intended for local scraping and the ``examples/metrics_endpoint.py``
snippet; it is not a hardened production server.

Kept out of ``repro.obs``'s module-level imports so the hot path never
pays for ``http.server``.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from time import monotonic
from typing import Any, Dict, Optional

from .export import prometheus_text, snapshot_json
from . import runtime
from . import trace as _trace

__all__ = ["MetricsServer"]


class _MetricsHandler(BaseHTTPRequestHandler):
    # The owning MetricsServer is attached to the server instance by
    # MetricsServer.start() (handlers are re-created per request).

    def do_GET(self) -> None:  # noqa: N802 - stdlib handler naming
        owner: "MetricsServer" = self.server.owner  # type: ignore[attr-defined]
        path, _, query = self.path.partition("?")
        if path == "/metrics":
            body = prometheus_text(runtime.registry()).encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        elif path == "/metrics.json":
            body = snapshot_json(
                runtime.registry(), rings=runtime.rings_snapshot()
            ).encode("utf-8")
            content_type = "application/json; charset=utf-8"
        elif path == "/trace.json":
            if "format=chrome" in query:
                payload: "Dict[str, Any]" = _trace.chrome_trace()
            else:
                payload = _trace.snapshot()
            body = json.dumps(payload, indent=2, default=str).encode("utf-8")
            content_type = "application/json; charset=utf-8"
        elif path == "/perf.json":
            from . import perf as _perf
            body = json.dumps(_perf.perf_payload(), indent=2,
                              default=str).encode("utf-8")
            content_type = "application/json; charset=utf-8"
        elif path == "/healthz":
            body = json.dumps({
                "status": "ok",
                "uptime_seconds": owner.uptime_seconds(),
            }).encode("utf-8")
            content_type = "application/json; charset=utf-8"
        elif path == "/statusz":
            body = json.dumps(owner.status(), indent=2,
                              default=str).encode("utf-8")
            content_type = "application/json; charset=utf-8"
        else:
            self.send_error(404, "try /metrics, /metrics.json, /trace.json, "
                                 "/perf.json, /healthz, /statusz")
            return
        self.send_response(200)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args: Any) -> None:
        # Silence per-request stderr chatter; scrapes can be frequent.
        pass


class MetricsServer:
    """Background HTTP server exposing the observability registry.

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks a free port (read it back from
        :attr:`port` — handy for tests and examples).

    Each scrape exposes :func:`repro.obs.runtime.registry`, i.e.
    whatever is currently enabled.

    Examples
    --------
    >>> from repro import obs
    >>> reg = obs.enable()
    >>> server = obs.MetricsServer(port=0)
    >>> server.start()                                   # doctest: +SKIP
    >>> # curl http://127.0.0.1:{server.port}/metrics
    >>> server.stop()                                    # doctest: +SKIP
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self.host = host
        self._requested_port = port
        self._server: "Optional[ThreadingHTTPServer]" = None
        self._thread: "Optional[threading.Thread]" = None
        self._started_at: "Optional[float]" = None

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` after :meth:`start`)."""
        if self._server is not None:
            return int(self._server.server_address[1])
        return self._requested_port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}/metrics"

    def uptime_seconds(self) -> float:
        """Seconds since :meth:`start`; 0.0 while stopped."""
        if self._started_at is None:
            return 0.0
        return monotonic() - self._started_at

    def status(self) -> "Dict[str, Any]":
        """The ``/statusz`` payload: uptime, registry and ring vitals."""
        reg = runtime.registry()
        sweep = runtime.sweep_ring()
        events = runtime.event_ring()
        tracer = _trace.tracer()
        from . import flight
        return {
            "status": "ok",
            "uptime_seconds": self.uptime_seconds(),
            "obs_enabled": runtime.ENABLED,
            "registry_series": len(reg),
            "rings": {
                "sweep": {"held": len(sweep), "capacity": sweep.capacity,
                          "total_pushed": sweep.total_pushed},
                "events": {"held": len(events), "capacity": events.capacity,
                           "total_pushed": events.total_pushed},
                "spans": {"held": len(tracer.ring),
                          "capacity": tracer.ring.capacity,
                          "total_pushed": tracer.ring.total_pushed},
            },
            "trace_sample_every": tracer.sample_every,
            "flight_recorder_installed": flight.recorder() is not None,
            "last_flight_dump": flight.last_dump_path(),
        }

    def start(self) -> "MetricsServer":
        """Bind and serve from a daemon thread; returns self."""
        if self._server is not None:
            return self
        server = ThreadingHTTPServer(
            (self.host, self._requested_port), _MetricsHandler
        )
        server.daemon_threads = True
        server.owner = self  # type: ignore[attr-defined]
        self._server = server
        self._started_at = monotonic()
        self._thread = threading.Thread(
            target=server.serve_forever, name="repro-obs-metrics", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut the server down and join its thread."""
        if self._server is None:
            return
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._server = None
        self._thread = None
        self._started_at = None

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()
