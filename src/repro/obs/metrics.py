"""Metric primitives and the registry that owns them.

Three instrument kinds, modelled on the Prometheus data model:

- :class:`Counter` — a monotonically increasing float (events, items);
- :class:`Gauge` — a settable float (lag, fill ratio, footprint);
- :class:`Histogram` — a log-scale bucketed distribution. A scalar
  observation is a bisect into pre-computed bucket bounds plus a plain
  list increment (no per-event allocation, no numpy scalar stores on
  the hot path), and :meth:`Histogram.observe_many` folds a whole
  numpy batch into the buckets with one ``bincount``.

A :class:`MetricsRegistry` interns metrics by ``(name, labels)``:
registering the same series twice returns the same object, so
instrumentation sites can re-register on every event without growing
state. Null twins (:data:`NULL_REGISTRY`) accept the same calls as
no-ops — the module-level disabled default, mirroring the sanitizer's
opt-in pattern.

Metric *names* are registered constants from :mod:`repro.obs.names`,
registered through :func:`repro.obs.runtime.series`, which refuses a
name the catalogue does not declare.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullCounter",
    "NullGauge",
    "NullHistogram",
    "NullRegistry",
    "NULL_REGISTRY",
    "SECONDS_BOUNDS",
    "SIZE_BOUNDS",
]

#: Prometheus metric-name grammar.
_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Log-2 duration buckets, ~1µs .. 64s — the default for timers.
SECONDS_BOUNDS: "np.ndarray" = np.power(2.0, np.arange(-20, 7, dtype=np.float64))

#: Log-2 magnitude buckets, 1 .. 16M — the default for sizes and counts.
SIZE_BOUNDS: "np.ndarray" = np.power(2.0, np.arange(0, 25, dtype=np.float64))

LabelsKey = Tuple[Tuple[str, str], ...]


def _labels_key(labels: "Mapping[str, str] | None") -> LabelsKey:
    if not labels:
        return ()
    for key, value in labels.items():
        if not _LABEL_RE.match(key):
            raise ConfigurationError(f"invalid label name {key!r}")
        if not isinstance(value, str):
            raise ConfigurationError(
                f"label values must be strings, got {value!r} for {key!r}"
            )
    return tuple(sorted(labels.items()))


class _Metric:
    """Shared identity of one metric series."""

    kind = "untyped"
    __slots__ = ("name", "help", "labels")

    def __init__(self, name: str, help: str = "",
                 labels: "Mapping[str, str] | None" = None):
        self.name = name
        self.help = help
        self.labels: Dict[str, str] = dict(_labels_key(labels))


class Counter(_Metric):
    """A monotonically increasing value."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self, name: str, help: str = "",
                 labels: "Mapping[str, str] | None" = None):
        super().__init__(name, help, labels)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name} cannot decrease (inc by {amount})"
            )
        self.value += amount


class Gauge(_Metric):
    """A value that can go up and down."""

    kind = "gauge"
    __slots__ = ("value",)

    def __init__(self, name: str, help: str = "",
                 labels: "Mapping[str, str] | None" = None):
        super().__init__(name, help, labels)
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram(_Metric):
    """A log-scale bucketed distribution (fixed buckets, allocation-free).

    ``bounds`` is an increasing array of upper bucket bounds
    (Prometheus ``le`` semantics: bucket ``i`` counts observations
    ``<= bounds[i]``); one implicit overflow bucket (``+Inf``) follows.
    Defaults to the log-2 :data:`SIZE_BOUNDS`. ``bucket_counts`` is a
    plain Python list — integer list stores are far cheaper than numpy
    scalar stores, and :meth:`observe` runs on instrumented hot paths.
    """

    kind = "histogram"
    __slots__ = ("bounds", "_bounds_list", "bucket_counts", "sum", "count")

    def __init__(self, name: str, help: str = "",
                 labels: "Mapping[str, str] | None" = None,
                 bounds: "np.ndarray | None" = None):
        super().__init__(name, help, labels)
        if bounds is None:
            bounds = SIZE_BOUNDS
        self.bounds = np.asarray(bounds, dtype=np.float64)
        if self.bounds.ndim != 1 or self.bounds.size == 0:
            raise ConfigurationError(
                f"histogram {name} needs a 1-d, non-empty bounds array"
            )
        if np.any(self.bounds[1:] <= self.bounds[:-1]):
            raise ConfigurationError(
                f"histogram {name} bounds must be strictly increasing"
            )
        # A plain-list twin of bounds: bisect on a list is several times
        # faster than a scalar np.searchsorted, and observe() is the
        # per-event hot path.
        self._bounds_list = [float(b) for b in self.bounds]
        self.bucket_counts: "List[int]" = [0] * (self.bounds.size + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.bucket_counts[bisect_left(self._bounds_list, value)] += 1
        self.sum += value
        self.count += 1

    def observe_many(self, values: Any) -> None:
        """Record a whole numpy batch of observations in one pass."""
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return
        indexes = np.searchsorted(self.bounds, values.ravel(), side="left")
        binned = np.bincount(indexes, minlength=len(self.bucket_counts))
        counts = self.bucket_counts
        for i, c in enumerate(binned.tolist()):
            if c:
                counts[i] += c
        self.sum += float(values.sum())
        self.count += int(values.size)

    def cumulative_counts(self) -> np.ndarray:
        """Prometheus-style cumulative bucket counts (``+Inf`` last)."""
        return np.cumsum(self.bucket_counts, dtype=np.int64)

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile from the bucketed distribution.

        Locates the bucket holding the ``q * count``-th observation and
        interpolates *geometrically* within it — the right interpolation
        for log-scale buckets, where observations are closer to
        log-uniform than uniform. The result is monotone in ``q``.
        Conventions at the edges: an empty histogram returns ``0.0``;
        the first bucket's unknown lower edge is taken as half its upper
        bound; quantiles landing in the ``+Inf`` overflow bucket clamp
        to the largest finite bound.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        bounds = self._bounds_list
        cumulative = 0
        for i, in_bucket in enumerate(self.bucket_counts):
            if in_bucket and cumulative + in_bucket >= target:
                if i >= len(bounds):
                    return bounds[-1]
                hi = bounds[i]
                lo = bounds[i - 1] if i > 0 else (hi / 2.0 if hi > 0 else hi)
                frac = max(0.0, (target - cumulative) / in_bucket)
                if 0.0 < lo < hi:
                    return lo * (hi / lo) ** frac
                return lo + (hi - lo) * frac
            cumulative += in_bucket
        return bounds[-1]


class MetricsRegistry:
    """Owns metric series; interns them by ``(name, labels)``.

    Registration is idempotent: asking for an existing series returns
    the same object (the ``help``/``bounds`` of the first registration
    win). Re-registering a name with a different *kind* raises —
    that is always an instrumentation bug.
    """

    def __init__(self) -> None:
        self._metrics: "Dict[Tuple[str, LabelsKey], _Metric]" = {}
        self._kinds: Dict[str, str] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, kind: str, factory: Any, name: str,
                       help: str, labels: "Mapping[str, str] | None",
                       **kwargs: Any) -> Any:
        if not _NAME_RE.match(name):
            raise ConfigurationError(f"invalid metric name {name!r}")
        key = (name, _labels_key(labels))
        metric = self._metrics.get(key)
        if metric is not None:
            if metric.kind != kind:
                raise ConfigurationError(
                    f"metric {name!r} already registered as a "
                    f"{metric.kind}, cannot re-register as a {kind}"
                )
            return metric
        with self._lock:
            metric = self._metrics.get(key)
            if metric is not None:
                if metric.kind != kind:
                    raise ConfigurationError(
                        f"metric {name!r} already registered as a "
                        f"{metric.kind}, cannot re-register as a {kind}"
                    )
                return metric
            known = self._kinds.get(name)
            if known is not None and known != kind:
                raise ConfigurationError(
                    f"metric {name!r} already registered as a {known}, "
                    f"cannot re-register as a {kind}"
                )
            metric = factory(name, help, labels, **kwargs)
            self._metrics[key] = metric
            self._kinds[name] = kind
            return metric

    def counter(self, name: str, help: str = "",
                labels: "Mapping[str, str] | None" = None) -> Counter:
        """Get or create the counter series ``name``/``labels``."""
        return self._get_or_create("counter", Counter, name, help, labels)

    def gauge(self, name: str, help: str = "",
              labels: "Mapping[str, str] | None" = None) -> Gauge:
        """Get or create the gauge series ``name``/``labels``."""
        return self._get_or_create("gauge", Gauge, name, help, labels)

    def histogram(self, name: str, help: str = "",
                  labels: "Mapping[str, str] | None" = None,
                  bounds: "np.ndarray | None" = None) -> Histogram:
        """Get or create the histogram series ``name``/``labels``."""
        return self._get_or_create("histogram", Histogram, name, help,
                                   labels, bounds=bounds)

    def __iter__(self) -> "Iterator[_Metric]":
        """All series, ordered by (name, labels) for stable exposition."""
        return iter(sorted(self._metrics.values(),
                           key=lambda m: (m.name, sorted(m.labels.items()))))

    def __len__(self) -> int:
        return len(self._metrics)

    def get(self, name: str,
            labels: "Mapping[str, str] | None" = None) -> "Optional[_Metric]":
        """Look up a series without creating it."""
        return self._metrics.get((name, _labels_key(labels)))

    def snapshot(self) -> "Dict[str, List[dict]]":
        """JSON-serialisable image of every registered series.

        Pure-python payload (lists, floats, ints) — round-trips through
        ``json.dumps``/``loads`` and back into a registry via
        :func:`repro.obs.export.registry_from_snapshot`.
        """
        out: Dict[str, List[dict]] = {"counters": [], "gauges": [],
                                      "histograms": []}
        for metric in self:
            entry: "Dict[str, Any]" = {
                "name": metric.name,
                "help": metric.help,
                "labels": dict(metric.labels),
            }
            if isinstance(metric, Histogram):
                entry["bounds"] = [float(b) for b in metric.bounds]
                entry["counts"] = [int(c) for c in metric.bucket_counts]
                entry["sum"] = float(metric.sum)
                entry["count"] = int(metric.count)
                out["histograms"].append(entry)
            elif isinstance(metric, Counter):
                entry["value"] = float(metric.value)
                out["counters"].append(entry)
            elif isinstance(metric, Gauge):
                entry["value"] = float(metric.value)
                out["gauges"].append(entry)
        return out


class NullCounter:
    """No-op :class:`Counter` twin."""

    kind = "counter"
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass


class NullGauge:
    """No-op :class:`Gauge` twin."""

    kind = "gauge"
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass


class NullHistogram:
    """No-op :class:`Histogram` twin."""

    kind = "histogram"
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass

    def observe_many(self, values: Any) -> None:
        pass

    def quantile(self, q: float) -> float:
        return 0.0


_NULL_COUNTER = NullCounter()
_NULL_GAUGE = NullGauge()
_NULL_HISTOGRAM = NullHistogram()


class NullRegistry:
    """The disabled default: same surface as a registry, all no-ops.

    Shared singletons mean user code can instrument unconditionally
    (``obs.registry().counter(...).inc()``) and pay only a couple of
    attribute lookups while observability is off.
    """

    def counter(self, name: str, help: str = "",
                labels: "Mapping[str, str] | None" = None) -> NullCounter:
        return _NULL_COUNTER

    def gauge(self, name: str, help: str = "",
              labels: "Mapping[str, str] | None" = None) -> NullGauge:
        return _NULL_GAUGE

    def histogram(self, name: str, help: str = "",
                  labels: "Mapping[str, str] | None" = None,
                  bounds: "np.ndarray | None" = None) -> NullHistogram:
        return _NULL_HISTOGRAM

    def __iter__(self) -> "Iterator[_Metric]":
        return iter(())

    def __len__(self) -> int:
        return 0

    def get(self, name: str,
            labels: "Mapping[str, str] | None" = None) -> None:
        return None

    def snapshot(self) -> "Dict[str, List[dict]]":
        return {"counters": [], "gauges": [], "histograms": []}


#: The process-wide no-op registry returned while observability is off.
NULL_REGISTRY = NullRegistry()
