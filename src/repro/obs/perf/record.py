"""The canonical performance run record: schema, extraction, host facts.

A :class:`PerfRecord` is one benchmark execution: which benchmark, its
table (title, columns, rows and JSON-safe extras), the headline
scalar(s) drawn from that table, the host it ran on, when, and at
which git revision. It is the only shape a benchmark result is stored
in: a root ``BENCH_<bench>.json``, a ledger line
(:mod:`repro.obs.perf.ledger`) and each entry of a baseline file
(:mod:`repro.obs.perf.compare`) are all ``to_dict()``. Records are
versioned (:data:`SCHEMA_VERSION`) and round-trip losslessly through
``to_dict``/``from_dict``; the table is optional when loading, so
records written before it was carried still load.

Headline extraction is convention-driven: :func:`extract_headlines`
scans a result's rows (an
:class:`~repro.bench.harness.ExperimentResult` or a record) for
the known performance vocabulary (``overhead_pct``, ``speedup``, the
``*_ips`` throughput family, ``fpr``/``are``/``re`` accuracy rates) and
aggregates each over the rows with the metric's *worst-case* or robust
statistic — ``max`` for overheads and error rates (a regression in any
variant counts), ``min`` for speedups, the median for throughputs.
Each headline carries its unit, its direction (``higher_is_better``)
and whether it is *portable* across hosts: ratios and percents compare
meaningfully between machines, absolute items/sec only against a
baseline recorded on a matching host fingerprint.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Mapping, Optional, Tuple

from ...errors import ConfigurationError

__all__ = [
    "SCHEMA_VERSION",
    "Headline",
    "PerfRecord",
    "PerfSchemaError",
    "extract_headlines",
    "host_facts",
    "host_fingerprint",
    "current_git_rev",
]

#: Version stamped into every record; bump on incompatible changes.
SCHEMA_VERSION = 1


class PerfSchemaError(ConfigurationError):
    """A perf record/baseline payload violates the versioned schema."""


@dataclass(frozen=True)
class Headline:
    """One comparable scalar extracted from a benchmark result."""

    name: str               # e.g. "overhead_pct", "batch_ips"
    value: float
    unit: str               # "percent" | "ratio" | "items_per_sec" | "rate"
    higher_is_better: bool
    portable: bool          # comparable across host fingerprints?

    def to_dict(self) -> "Dict[str, Any]":
        return {
            "name": self.name,
            "value": float(self.value),
            "unit": self.unit,
            "higher_is_better": self.higher_is_better,
            "portable": self.portable,
        }

    @classmethod
    def from_dict(cls, payload: "Mapping[str, Any]") -> "Headline":
        try:
            return cls(
                name=str(payload["name"]),
                value=float(payload["value"]),
                unit=str(payload["unit"]),
                higher_is_better=bool(payload["higher_is_better"]),
                portable=bool(payload["portable"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise PerfSchemaError(f"malformed headline payload: {exc}") \
                from exc


#: The headline vocabulary: column -> (unit, higher_is_better,
#: aggregator, portable). Order fixes the headline order in records.
_MAX = "max"
_MIN = "min"
_MEDIAN = "median"
_HEADLINE_RULES: "Tuple[Tuple[str, str, bool, str, bool], ...]" = (
    ("overhead_pct", "percent", False, _MAX, True),
    ("speedup", "ratio", True, _MIN, True),
    ("batch_ips", "items_per_sec", True, _MEDIAN, False),
    ("scalar_ips", "items_per_sec", True, _MEDIAN, False),
    ("treated_ips", "items_per_sec", True, _MEDIAN, False),
    ("base_ips", "items_per_sec", True, _MEDIAN, False),
    ("items_per_sec", "items_per_sec", True, _MEDIAN, False),
    ("ips", "items_per_sec", True, _MEDIAN, False),
    ("fpr", "rate", False, _MAX, True),
    ("are", "rate", False, _MAX, True),
    ("re", "rate", False, _MAX, True),
)


def _aggregate(values: "list[float]", how: str) -> float:
    if how == _MAX:
        return max(values)
    if how == _MIN:
        return min(values)
    from ...bench.stats import median
    return median(values)


def extract_headlines(result: Any) -> "Tuple[Headline, ...]":
    """Pull every known headline scalar out of a result's rows.

    Duck-typed on ``result.rows`` (dicts), so an ExperimentResult and
    a stored :class:`PerfRecord` both work and this module never
    imports the bench harness at module scope. Columns absent
    from the vocabulary are ignored; an empty tuple means the result
    carries no comparable performance scalar (fine — the record still
    documents the run).
    """
    headlines = []
    rows = list(getattr(result, "rows", ()))
    for column, unit, hib, how, portable in _HEADLINE_RULES:
        values = [
            float(row[column]) for row in rows
            if isinstance(row.get(column), (int, float))
        ]
        if not values:
            continue
        headlines.append(Headline(
            name=column, value=_aggregate(values, how), unit=unit,
            higher_is_better=hib, portable=portable,
        ))
    return tuple(headlines)


def host_facts() -> "Dict[str, Any]":
    """The comparability-relevant facts about this host."""
    import platform

    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count() or 1,
    }


def host_fingerprint(host: "Mapping[str, Any]") -> str:
    """Collapse host facts to the fields that gate comparability.

    Two runs compare absolute throughput only when their fingerprints
    match: same architecture, same CPU count, same python minor.
    """
    python = str(host.get("python", "?"))
    minor = ".".join(python.split(".")[:2])
    return (f"{host.get('machine', '?')}/"
            f"{host.get('cpu_count', '?')}cpu/py{minor}")


def current_git_rev() -> "Optional[str]":
    """The short git revision, or None outside a repository.

    ``REPRO_GIT_REV`` overrides (CI checkouts without a .git dir, and
    tests that need determinism).
    """
    env = os.environ.get("REPRO_GIT_REV")
    if env:
        return env
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10.0,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def _json_default(value: Any) -> Any:
    """JSON fallback for table cells: numpy scalars as Python ones."""
    return value.item()


def _plain(value: Any) -> Any:
    """``value`` as the JSON-native data it reads back as."""
    return json.loads(json.dumps(value, default=_json_default))


@dataclass(frozen=True)
class PerfRecord:
    """One benchmark run: its table, headlines, host and revision."""

    bench: str
    headlines: "Tuple[Headline, ...]"
    host: "Dict[str, Any]" = field(default_factory=dict)
    timestamp: float = 0.0
    git_rev: "Optional[str]" = None
    quick: bool = False
    metrics_delta: "Dict[str, float]" = field(default_factory=dict)
    title: str = ""
    columns: "Tuple[str, ...]" = ()
    rows: "Tuple[Dict[str, Any], ...]" = ()
    extras: "Dict[str, Any]" = field(default_factory=dict)
    schema: int = SCHEMA_VERSION

    def headline(self, name: str) -> "Optional[Headline]":
        """Look up one headline by metric name."""
        for h in self.headlines:
            if h.name == name:
                return h
        return None

    def to_dict(self) -> "Dict[str, Any]":
        return {
            "schema": self.schema,
            "bench": self.bench,
            "headlines": [h.to_dict() for h in self.headlines],
            "host": dict(self.host),
            "timestamp": float(self.timestamp),
            "git_rev": self.git_rev,
            "quick": self.quick,
            "metrics_delta": {k: float(v)
                              for k, v in self.metrics_delta.items()},
            "title": self.title,
            "columns": list(self.columns),
            "rows": [dict(row) for row in self.rows],
            "extras": dict(self.extras),
        }

    @classmethod
    def from_dict(cls, payload: "Mapping[str, Any]") -> "PerfRecord":
        schema = payload.get("schema")
        if schema != SCHEMA_VERSION:
            raise PerfSchemaError(
                f"unsupported perf-record schema {schema!r} "
                f"(this library reads version {SCHEMA_VERSION})"
            )
        try:
            headlines = tuple(
                Headline.from_dict(h) for h in payload["headlines"]
            )
            return cls(
                bench=str(payload["bench"]),
                headlines=headlines,
                host=dict(payload.get("host") or {}),
                timestamp=float(payload.get("timestamp", 0.0)),
                git_rev=(None if payload.get("git_rev") is None
                         else str(payload["git_rev"])),
                quick=bool(payload.get("quick", False)),
                metrics_delta={
                    str(k): float(v)
                    for k, v in (payload.get("metrics_delta") or {}).items()
                },
                title=str(payload.get("title", "")),
                columns=tuple(str(c) for c in payload.get("columns", ())),
                rows=tuple(dict(row) for row in payload.get("rows", ())),
                extras=dict(payload.get("extras") or {}),
            )
        except PerfSchemaError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise PerfSchemaError(f"malformed perf record: {exc}") from exc

    @classmethod
    def from_result(cls, bench: str, result: Any,
                    timestamp: "Optional[float]" = None,
                    quick: bool = False,
                    metrics_delta: "Optional[Mapping[str, float]]" = None,
                    git_rev: "Optional[str]" = None,
                    ) -> "PerfRecord":
        """Build a record from a live ExperimentResult.

        The rows keep the result's columns, as JSON-native values; the
        extras drop the bulky registry ``snapshot`` (its reduction is
        ``metrics_delta``). ``timestamp`` is injectable for
        determinism; it defaults to the wall clock. ``git_rev=None``
        asks the environment (:func:`current_git_rev`).
        """
        columns = tuple(result.columns)
        extras = {k: v for k, v in getattr(result, "extras", {}).items()
                  if k != "snapshot"}
        record = cls(
            bench=bench,
            headlines=(),
            host=host_facts(),
            timestamp=time.time() if timestamp is None else float(timestamp),
            git_rev=current_git_rev() if git_rev is None else git_rev,
            quick=quick,
            metrics_delta=dict(metrics_delta or {}),
            title=str(result.title),
            columns=columns,
            rows=tuple(_plain([{k: row.get(k) for k in columns}
                               for row in result.rows])),
            extras=_plain(extras),
        )
        # Headlines come from the stored rows, so a stored record's
        # table reproduces them.
        return replace(record, headlines=extract_headlines(record))
