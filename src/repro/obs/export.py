"""Exposition formats for the metrics registry.

Two encodings of one registry:

- :func:`prometheus_text` — the Prometheus text format (``# HELP`` /
  ``# TYPE`` headers, cumulative ``_bucket{le=...}`` histogram series,
  ``_sum`` / ``_count``), suitable for a ``/metrics`` endpoint. The
  matching :func:`parse_prometheus` reads the format back into plain
  samples so tests can prove the exposition is lossless.
- :func:`snapshot_json` / :func:`registry_from_snapshot` — a JSON
  image of every series (including raw per-bucket counts and bounds)
  that reconstructs an equivalent registry, used by the benchmark
  artifact upload and the CLI's ``--format json``.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, List, Mapping, Tuple

import numpy as np

from ..errors import ConfigurationError
from .metrics import Counter, Gauge, Histogram, MetricsRegistry, NullRegistry

__all__ = [
    "prometheus_text",
    "parse_prometheus",
    "snapshot_json",
    "registry_from_snapshot",
    "PrometheusSample",
]

#: One parsed sample: ``(series_name, labels, value)``.
PrometheusSample = Tuple[str, Dict[str, str], float]


def _escape_help(text: str) -> str:
    return text.replace("\\", r"\\").replace("\n", r"\n")


def _unescape_help(text: str) -> str:
    # A left-to-right scan, not chained str.replace: replacing ``\n``
    # first would corrupt help text containing a literal backslash
    # followed by ``n`` (escaped as ``\\n``), and replacing ``\\``
    # first would manufacture a fresh ``\n`` escape out of ``\\\n``.
    out: List[str] = []
    i = 0
    while i < len(text):
        if text[i] == "\\" and i + 1 < len(text):
            nxt = text[i + 1]
            out.append({"n": "\n", "\\": "\\"}.get(nxt, "\\" + nxt))
            i += 2
        else:
            out.append(text[i])
            i += 1
    return "".join(out)


def _escape_label_value(text: str) -> str:
    return (
        text.replace("\\", r"\\").replace("\n", r"\n").replace('"', r"\"")
    )


def _render_labels(labels: "Mapping[str, str]") -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape_label_value(value)}"'
        for key, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def _fmt(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def prometheus_text(registry: "MetricsRegistry | NullRegistry") -> str:
    """Render the registry in the Prometheus text exposition format."""
    lines: List[str] = []
    seen_headers: set = set()
    for metric in registry:
        if metric.name not in seen_headers:
            seen_headers.add(metric.name)
            if metric.help:
                lines.append(f"# HELP {metric.name} {_escape_help(metric.help)}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
        if isinstance(metric, Histogram):
            cumulative = metric.cumulative_counts()
            for bound, count in zip(metric.bounds, cumulative):
                labels = dict(metric.labels)
                labels["le"] = _fmt(float(bound))
                lines.append(
                    f"{metric.name}_bucket{_render_labels(labels)} {int(count)}"
                )
            labels = dict(metric.labels)
            labels["le"] = "+Inf"
            lines.append(
                f"{metric.name}_bucket{_render_labels(labels)} {metric.count}"
            )
            base = _render_labels(metric.labels)
            lines.append(f"{metric.name}_sum{base} {_fmt(metric.sum)}")
            lines.append(f"{metric.name}_count{base} {metric.count}")
        elif isinstance(metric, (Counter, Gauge)):
            lines.append(
                f"{metric.name}{_render_labels(metric.labels)} "
                f"{_fmt(metric.value)}"
            )
    return "\n".join(lines) + "\n"


def _parse_labels(text: str) -> Dict[str, str]:
    labels: Dict[str, str] = {}
    i = 0
    while i < len(text):
        eq = text.index("=", i)
        key = text[i:eq].strip().lstrip(",").strip()
        assert text[eq + 1] == '"', f"malformed label block {text!r}"
        j = eq + 2
        out: List[str] = []
        while text[j] != '"':
            if text[j] == "\\":
                nxt = text[j + 1]
                out.append({"n": "\n", "\\": "\\", '"': '"'}.get(nxt, nxt))
                j += 2
            else:
                out.append(text[j])
                j += 1
        labels[key] = "".join(out)
        i = j + 1
    return labels


def parse_prometheus(text: str) -> "Dict[str, Dict[str, Any]]":
    """Parse Prometheus text exposition into families of samples.

    Returns ``{family_name: {"type": ..., "help": ..., "samples":
    [(series_name, labels, value), ...]}}``. Histogram ``_bucket`` /
    ``_sum`` / ``_count`` series are attached to their family. Used by
    the round-trip tests; handles exactly the subset this package emits.
    """
    families: "Dict[str, Dict[str, Any]]" = {}

    def family_for(series: str) -> "Dict[str, Any]":
        for suffix in ("_bucket", "_sum", "_count"):
            base = series[: -len(suffix)] if series.endswith(suffix) else None
            if base and families.get(base, {}).get("type") == "histogram":
                return families[base]
        return families.setdefault(
            series, {"type": "untyped", "help": "", "samples": []}
        )

    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            entry = families.setdefault(
                name, {"type": "untyped", "help": "", "samples": []}
            )
            entry["help"] = _unescape_help(help_text)
        elif line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            entry = families.setdefault(
                name, {"type": "untyped", "help": "", "samples": []}
            )
            entry["type"] = kind
        elif line.startswith("#"):
            continue
        else:
            if "{" in line:
                series = line[: line.index("{")]
                rest = line[line.index("{") + 1:]
                label_text, _, value_text = rest.rpartition("} ")
                labels = _parse_labels(label_text)
            else:
                series, _, value_text = line.rpartition(" ")
                labels = {}
            value = float(value_text)
            family_for(series)["samples"].append((series, labels, value))
    return families


def snapshot_json(registry: "MetricsRegistry | NullRegistry",
                  indent: "int | None" = 2,
                  rings: "Mapping[str, Any] | None" = None) -> str:
    """The registry's :meth:`snapshot` serialised as JSON text.

    ``rings`` (the payload of :func:`repro.obs.runtime.rings_snapshot`)
    is embedded under a ``"rings"`` key when given — the sweep trace and
    event log ride along with the metric series in ``/metrics.json``
    and ``python -m repro.obs --rings``. The key is ignored by
    :func:`registry_from_snapshot`, so round-tripping the metric series
    through a rebuild still works.
    """
    payload: "Dict[str, Any]" = dict(registry.snapshot())
    if rings is not None:
        payload["rings"] = dict(rings)
    return json.dumps(payload, indent=indent, sort_keys=True)


def registry_from_snapshot(
    snapshot: "Mapping[str, Any] | str",
) -> MetricsRegistry:
    """Rebuild a registry from a :meth:`snapshot` payload (or JSON text).

    The result snapshots back to the same payload — the JSON encoding
    is lossless for every metric kind.
    """
    if isinstance(snapshot, str):
        snapshot = json.loads(snapshot)
    if not isinstance(snapshot, Mapping):
        raise ConfigurationError("snapshot payload must be a JSON object")
    registry = MetricsRegistry()
    for entry in snapshot.get("counters", ()):
        counter = registry.counter(entry["name"], entry.get("help", ""),
                                   labels=entry.get("labels") or None)
        counter.inc(float(entry["value"]))
    for entry in snapshot.get("gauges", ()):
        gauge = registry.gauge(entry["name"], entry.get("help", ""),
                               labels=entry.get("labels") or None)
        gauge.set(float(entry["value"]))
    for entry in snapshot.get("histograms", ()):
        histogram = registry.histogram(
            entry["name"], entry.get("help", ""),
            labels=entry.get("labels") or None,
            bounds=np.asarray(entry["bounds"], dtype=np.float64),
        )
        counts = [int(c) for c in entry["counts"]]
        if len(counts) != len(histogram.bucket_counts):
            raise ConfigurationError(
                f"snapshot histogram {entry['name']!r} has "
                f"{len(counts)} buckets, expected "
                f"{len(histogram.bucket_counts)}"
            )
        histogram.bucket_counts[:] = counts
        histogram.sum = float(entry["sum"])
        histogram.count = int(entry["count"])
    return registry
