"""SK111 corpus: unguarded enabled-mode instrumentation on hot paths."""

from ..obs import names
from ..obs import runtime as _obs
from ..obs import trace as _trace
from ..obs import perf as _perf


def insert_many(sketch, items):
    sketch.apply(items)
    # BAD: recorder call reachable from the hot path with no
    # _obs.ENABLED guard on this path.
    _obs.record_batch(type(sketch).__name__, len(items), "loop", 0.0)


def query_many(sketch, items):
    result = sketch.lookup(items)
    _publish(len(items))
    return result


def _publish(count):
    # BAD transitively: unguarded helper reached from query_many.
    _obs.record_event(time=0.0, severity="info", kind="query",
                      message=f"{count} keys", fields={})


def absorb_acks(acks):
    for _shard, _seq, _status, _detail, spans in acks:
        # BAD: adopting worker spans is a recorder call too — it pushes
        # into the span ring and bumps counters without checking the
        # switchboard first.
        _trace.record_spans(spans)


def flush_batch(sketch, items, headlines):
    sketch.apply(items)
    # BAD: perf publishers write repro_perf_* series through the live
    # registry; on a hot path they need the same ENABLED guard as any
    # other recorder.
    _perf.publish_record(type(sketch).__name__, headlines)


def contains_many(sketch, items):
    hits = sketch.lookup(items)
    # BAD: the catalogue lookup registers a live series while enabled;
    # an unguarded call on the hot path escapes the switchboard.
    _obs.series(names.SKETCH_QUERIES_TOTAL,
                {"sketch": type(sketch).__name__}).inc(len(items))
    return hits
