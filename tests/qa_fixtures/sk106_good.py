"""SK106 fixture: metric names come from the registered constants."""

from repro import obs
from repro.obs import names
from repro.obs import runtime as _obs

WIDGET_TOTAL = names.SKETCH_INSERTS_TOTAL


def publish(registry, elapsed, result):
    registry.counter(WIDGET_TOTAL, "Widgets.").inc()
    registry.gauge(name=names.SKETCH_MEMORY_BITS, help="Depth.").set(3)
    registry.histogram(names.ENGINE_BATCH_SECONDS).observe(elapsed)
    with obs.timed(names.BENCH_STAGE_SECONDS, {"stage": "demo"}):
        pass
    _obs.series(names.SKETCH_INSERTS_TOTAL, {"task": "demo"}).inc()
    registry.counter("repro_adhoc_total")  # sketchlint: metric-name-ok
    return result.series("variant", "batch_ips")
