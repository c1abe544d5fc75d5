"""Black-box flight recorder: crash-time JSON bundles of recent state.

A worker crash, a backpressure trip, or a sanitizer violation usually
surfaces as one typed exception with everything that led up to it gone.
The flight recorder keeps that history: when installed, it reacts to
:class:`~repro.errors.ShardWorkerError`,
:class:`~repro.errors.ShardBackpressureError`, and
:class:`~repro.qa.sanitizer.SanitizerError` (via a lazy hook in their
constructors — see :func:`notify_crash`) by writing a self-contained
JSON bundle to a configurable directory::

    from repro.obs import flight
    flight.install("flightdumps")          # or REPRO_FLIGHT_DIR
    ...
    # later, after a ShardWorkerError:
    flight.last_dump_path()                # -> flightdumps/flight-....json

Each bundle holds the last-N spans from the trace ring (stitched worker
spans included), both telemetry rings, a full metrics snapshot, and
the triggering error — enough to reconstruct the moment of failure
offline with ``python -m repro.obs trace --input``.

Bundles can also be cut on demand: :meth:`FlightRecorder.dump` directly,
the ``python -m repro.obs trace`` CLI, or a POSIX signal registered via
``install(signum=...)``. Dumping never raises into the caller — a
recorder failure must not mask the crash it is recording.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import signal as _signal
import threading
from time import time as _wall_time
from typing import Any, Dict, List, Optional, Union

from . import names
from . import runtime as _rt
from . import trace as _trace

__all__ = [
    "FlightRecorder",
    "DEFAULT_DIRECTORY",
    "ENV_DIR",
    "install",
    "uninstall",
    "recorder",
    "last_dump_path",
    "notify_crash",
]

#: Fallback dump directory when neither the ``install`` argument nor
#: :data:`ENV_DIR` names one (git-ignored).
DEFAULT_DIRECTORY = "flightdumps"
#: Environment variable naming the dump directory.
ENV_DIR = "REPRO_FLIGHT_DIR"
#: Bundles kept per directory before the oldest are pruned.
DEFAULT_KEEP = 8

_FORMAT = "repro-flight-1"

_SAFE_REASON = re.compile(r"[^A-Za-z0-9_.-]+")


def _error_payload(error: "Optional[BaseException]") -> "Optional[Dict[str, Any]]":
    if error is None:
        return None
    payload: "Dict[str, Any]" = {
        "type": type(error).__name__,
        "message": str(error),
    }
    for attr in ("failed", "pending"):
        value = getattr(error, attr, None)
        if value:
            try:
                payload[attr] = json.loads(json.dumps(value, default=str))
            except (TypeError, ValueError):
                payload[attr] = str(value)
    return payload


class FlightRecorder:
    """Writes crash bundles to ``directory``, keeping the newest ``keep``."""

    def __init__(self, directory: "Optional[str]" = None,
                 keep: int = DEFAULT_KEEP) -> None:
        self.directory = str(
            directory or os.environ.get(ENV_DIR) or DEFAULT_DIRECTORY)
        self.keep = max(1, int(keep))
        self.last_dump_path: "Optional[str]" = None
        self._counter = itertools.count(1)
        self._lock = threading.Lock()

    def bundle(self, reason: str,
               error: "Optional[BaseException]" = None) -> "Dict[str, Any]":
        """Assemble (without writing) one self-contained crash bundle."""
        return {
            "format": _FORMAT,
            "reason": reason,
            "wall_time": _wall_time(),
            "pid": os.getpid(),
            "error": _error_payload(error),
            "trace": _trace.snapshot(),
            "rings": _rt.rings_snapshot(),
            "metrics": _rt.registry().snapshot(),
        }

    def dump(self, reason: str,
             error: "Optional[BaseException]" = None) -> str:
        """Write one bundle and return its path (pruning old bundles)."""
        payload = self.bundle(reason, error)
        safe = _SAFE_REASON.sub("-", reason).strip("-") or "manual"
        with self._lock:
            os.makedirs(self.directory, exist_ok=True)
            name = f"flight-{os.getpid()}-{next(self._counter):04d}-{safe}.json"
            path = os.path.join(self.directory, name)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2, default=str)
            self.last_dump_path = path
            self._prune()
        if _rt.ENABLED:
            _rt.series(names.FLIGHT_DUMPS_TOTAL, {"reason": safe}).inc()
            _rt.record_event(
                time=0.0, severity="critical", kind="flight-dump",
                message=f"flight bundle written: {path}",
                fields={"reason": safe, "path": path})
        return path

    def _prune(self) -> None:
        try:
            bundles = sorted(
                entry for entry in os.listdir(self.directory)
                if entry.startswith("flight-") and entry.endswith(".json"))
        except OSError:
            return
        for stale in bundles[:-self.keep]:
            try:
                os.remove(os.path.join(self.directory, stale))
            except OSError:
                pass

    def __repr__(self) -> str:
        return (f"FlightRecorder(directory={self.directory!r}, "
                f"keep={self.keep}, last={self.last_dump_path!r})")


_RECORDER: "Optional[FlightRecorder]" = None


def install(directory: "Union[str, FlightRecorder, None]" = None, *,
            keep: int = DEFAULT_KEEP,
            signum: "Optional[int]" = None) -> FlightRecorder:
    """Arm the flight recorder process-wide.

    Once installed, shard-worker/backpressure/sanitizer errors dump a
    bundle automatically (their constructors call :func:`notify_crash`).
    ``signum`` additionally registers a signal handler (e.g.
    ``signal.SIGUSR1``) that cuts an on-demand bundle — main thread
    only, as CPython requires.
    """
    global _RECORDER
    if isinstance(directory, FlightRecorder):
        _RECORDER = directory
    else:
        _RECORDER = FlightRecorder(directory, keep=keep)
    if signum is not None:
        _signal.signal(
            signum,
            lambda _sig, _frame: notify_crash(f"signal-{int(signum)}", None))
    return _RECORDER


def uninstall() -> None:
    """Disarm the recorder; crash notifications become no-ops again."""
    global _RECORDER
    _RECORDER = None


def recorder() -> "Optional[FlightRecorder]":
    """The installed recorder, or None."""
    return _RECORDER


def last_dump_path() -> "Optional[str]":
    """Path of the most recent bundle, or None."""
    rec = _RECORDER
    return rec.last_dump_path if rec is not None else None


def notify_crash(reason: str,
                 error: "Optional[BaseException]" = None) -> "Optional[str]":
    """Crash hook: dump a bundle if a recorder is installed.

    Called from exception constructors (through a lazy ``sys.modules``
    lookup, so merely raising never imports this module). Swallows every
    exception — the bundle is best-effort and must never mask the error
    being recorded.
    """
    rec = _RECORDER
    if rec is None:
        return None
    try:
        return rec.dump(reason, error)
    except Exception:
        return None
