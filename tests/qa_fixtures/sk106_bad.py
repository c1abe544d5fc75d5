"""SK106 fixture: inline metric-name literals at registration sites."""

from repro import obs
from repro.obs import runtime as _obs


def publish(registry, elapsed):
    registry.counter("repro_widget_total", "Widgets.").inc()
    registry.gauge(name="repro_widget_depth", help="Depth.").set(3)
    registry.histogram("repro_widget_seconds").observe(elapsed)
    with obs.timed("repro_widget_stage_seconds", {"stage": "demo"}):
        pass
    _obs.series("repro_widget_total", {"task": "demo"}).inc()
