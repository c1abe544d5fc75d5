"""Structured observability events and their severities.

Where the sweep-trace ring records *regular* telemetry (one event per
cleaning sweep), this module records *irregular* operational events —
drift alerts from the accuracy auditor, guarantee violations, lifecycle
notices. Each event carries a severity (``info`` / ``warning`` /
``critical``), a machine-readable ``kind``, the stream time it refers
to, and a small free-form payload.

Events land in the switchboard's event ring (a
:class:`~repro.obs.ring.LockedRing`, since events arrive from many
threads) and are also counted into the ``repro_obs_events_total``
counter, labelled by severity and kind, so alert rates are visible on
``/metrics`` even after the ring has wrapped. The ring itself is
exported through ``/metrics.json`` and ``python -m repro.obs --rings``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping

from ..errors import ConfigurationError

__all__ = ["ObsEvent", "SEVERITIES"]

#: Legal event severities, mildest first.
SEVERITIES = ("info", "warning", "critical")


@dataclass(frozen=True)
class ObsEvent:
    """One structured observability event.

    Attributes
    ----------
    time:
        Stream time the event refers to (item count or timestamp —
        whatever the emitting subsystem's window uses), *not* wall
        clock: events must be reproducible across replays.
    severity:
        One of :data:`SEVERITIES`.
    kind:
        Machine-readable event class (``"divergence"``, ``"budget"``,
        ``"violation"``, ...). Used as a counter label, so keep the
        vocabulary small.
    message:
        Human-readable one-liner.
    fields:
        Small JSON-friendly payload (task name, observed/predicted
        values, ...).
    """

    time: float
    severity: str
    kind: str
    message: str
    fields: "Mapping[str, Any]" = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ConfigurationError(
                f"event severity must be one of {SEVERITIES}, "
                f"got {self.severity!r}"
            )

    def as_dict(self) -> "Dict[str, Any]":
        """JSON-friendly image of the event."""
        return {
            "time": float(self.time),
            "severity": self.severity,
            "kind": self.kind,
            "message": self.message,
            "fields": dict(self.fields),
        }
