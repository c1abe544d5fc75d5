"""SK111 corpus, clean: every recorder call behind the switchboard."""

from ..obs import names
from ..obs import runtime as _obs
from ..obs import trace as _trace
from ..obs import perf as _perf


def insert_many(sketch, items):
    # Span entry/exit self-gates on the switchboard (disabled mode
    # returns NULL_SPAN), so span() needs no guard here.
    with _trace.span("fixture.insert"):
        sketch.apply(items)
    if _obs.ENABLED:
        _obs.record_batch(type(sketch).__name__, len(items), "loop", 0.0)


def query_many(sketch, items):
    result = sketch.lookup(items)
    if _obs.ENABLED:
        _publish(len(items))
    return result


def _publish(count):
    # Unguarded itself, but only reachable through guarded call sites.
    _obs.record_event(time=0.0, severity="info", kind="query",
                      message=f"{count} keys", fields={})


def absorb_acks(acks):
    for _shard, _seq, _status, _detail, spans in acks:
        if spans and _obs.ENABLED:
            _trace.record_spans(spans)


def flush_batch(sketch, items, headlines):
    sketch.apply(items)
    if _obs.ENABLED:
        _perf.publish_record(type(sketch).__name__, headlines)


def audit_cycle(report):
    if not _obs.ENABLED:
        return
    for alert in report.alerts:
        _obs.record_event(time=report.now, severity=alert.severity,
                          kind="audit", message=alert.message, fields={})


def contains_many(sketch, items):
    hits = sketch.lookup(items)
    if _obs.ENABLED:
        _obs.series(names.SKETCH_QUERIES_TOTAL,
                    {"sketch": type(sketch).__name__}).inc(len(items))
    return hits
