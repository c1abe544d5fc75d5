"""One benchmark run: cold starts, load phase, probes, answer check.

An untraced run measures the end-to-end metrics. A traced run makes a
separate measurement: the same work against an untraced server (for
the load-phase timings and ``trace.overhead_frac``), then against a
server whose layers are wrapped (``layers.py``), and reports the
per-layer metrics. Both kinds check every answer against an in-process
reference monitor.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.serve import TenantConfig, encode
from repro.streams.groundtruth import BatchTracker
from repro.timebase import count_window

from harness import ROOT, Conn, OpenLoop, Server, ServerError, cpu_seconds, pss_mb
from layers import layer_metrics
from workloads import (
    WINDOW,
    WORKLOADS,
    Inputs,
    Workload,
    active_probes,
    make_inputs,
    query_frame,
)

#: End-to-end metrics (untraced runs) and their units.
E2E_UNITS: "Dict[str, str]" = {
    "setup_s": "s",
    "rss_mb": "MB",
}

#: Per-layer metrics (traced runs) and their units. The five timings at
#: the top come from the traced run's untraced load phase. They were
#: end-to-end metrics, demoted because they do not repeat within a
#: tenth from run to run on a shared host (see README.md).
LAYER_UNITS: "Dict[str, str]" = {
    "ingest_ips": "items/s",
    "ack_p50_ms": "ms",
    "ack_p99_ms": "ms",
    "query_p50_ms": "ms",
    "query_p95_ms": "ms",
    "protocol.decode_frac": "ratio",
    "protocol.decode_us_per_key": "us/key",
    "protocol.encode_frac": "ratio",
    "serve.frame_overhead_frac": "ratio",
    "serve.lock_wait_ms_p50": "ms",
    "monitor.fanout_frac": "ratio",
    "hashing.frac": "ratio",
    "hashing.passes_per_frame": "calls/frame",
    "hashing.lookup3_per_key": "calls/key",
    "hashing.memo_hit_ratio": "ratio",
    "hashing.memo_entries": "count",
    "shard.scatter_frac": "ratio",
    "shard.ipc_wait_frac": "ratio",
    "shard.merges_per_query": "merges/query",
    "shard.merge_ms_p50": "ms",
    "shard.workers": "count",
    "worker.engine_frac": "ratio",
    "engine.frac": "ratio",
    "kernels.fuse_frac": "ratio",
    "kernels.sweep_frac": "ratio",
    "clock.advance_frac": "ratio",
    "checkpoint.writes": "count",
    "checkpoint.ms_p50": "ms",
    "checkpoint.ms_max": "ms",
    "checkpoint.bytes": "bytes",
    "server.cpu_frac": "ratio",
    "workers.cpu_frac": "ratio",
    "loadgen.cpu_frac": "ratio",
    "loadgen.late_p95_ms": "ms",
    "trace.overhead_frac": "ratio",
    "accuracy.fpr": "ratio",
    "accuracy.size_are": "ratio",
}

#: Cold starts per untraced run; ``setup_s`` is their median.
COLD_STARTS = 5
#: A timing percentile needs this many samples beyond it.
MIN_TAIL = 10
#: Safety cap on one load phase, so that a pathological commit still
#: ends and reports. Frames left unsent when it hits count as failed.
LOAD_CAP_S = 60.0
#: Equal runs of frames whose median rate is ``ingest_ips``.
SLICES = 16
#: Memory samples over the last slices; ``rss_mb`` is the smallest.
RSS_SAMPLES = 4
#: Fields of a ``QUERY`` answer the reference check compares.
FIELDS = ("key", "active", "size", "span", "begin")


def tail_percentile(samples: "Sequence[float]", want: float
                    ) -> "Tuple[float, float]":
    """``(value, percentile)``: the ``want`` percentile of ``samples``,
    or the highest percentile below it that still has :data:`MIN_TAIL`
    samples beyond it (nearest rank; the median at the least).
    """
    ordered = sorted(samples)
    n = len(ordered)
    if not n:
        return 0.0, want
    pct = max(50.0, min(want, 100.0 * (n - MIN_TAIL) / n))
    rank = max(1, math.ceil(pct * n / 100.0 - 1e-9))
    return ordered[rank - 1], pct


def ingest_rate(acks: "Sequence[float]", frame_keys: int) -> float:
    """Keys per second of ingest round-trip time: the median over
    :data:`SLICES` equal runs of consecutive frames.

    The median keeps a burst of interference from other tenants of a
    shared host in one slice from moving the whole figure.
    """
    size = max(1, len(acks) // SLICES)
    return statistics.median(
        size * frame_keys / sum(acks[lo:lo + size])
        for lo in range(0, len(acks) - size + 1, size))


@dataclass
class RunResult:
    """What one run measured and whether its answers were right."""

    workload: str
    seed: int
    trace: bool
    correct: bool = True
    attempted: int = 0
    failed: int = 0
    metrics: "Dict[str, float]" = field(default_factory=dict)
    notes: "List[str]" = field(default_factory=list)

    def fail(self, note: str) -> None:
        self.correct = False
        self.notes.append(note)

    def units(self) -> "Dict[str, str]":
        return LAYER_UNITS if self.trace else E2E_UNITS


@dataclass
class Load:
    """One load phase, seen from the load generator."""

    wall: float
    acks: "List[float]"
    queries: "List[float]" = field(default_factory=list)
    late: "List[float]" = field(default_factory=list)
    rss_mb: float = 0.0
    server_cpu: float = 0.0
    workers_cpu: float = 0.0
    loadgen_cpu: float = 0.0
    workers: int = 0
    layers: "Optional[Dict[str, Any]]" = None


class Session:
    """One server child and the ingest connection that drives it."""

    def __init__(self, workload: Workload, inputs: Inputs, scratch: Path,
                 tag: str, *, trace: bool = False) -> None:
        self.workload = workload
        self.inputs = inputs
        self.server = Server(
            workload.config,
            checkpoint_dir=scratch / f"ckpt-{tag}"
            if workload.checkpoints else None,
            trace_dir=scratch / f"trace-{tag}" if trace else None)
        self.conn: "Optional[Conn]" = None
        #: Frame indexes the server acknowledged, in send order.
        self.acked: "List[int]" = []
        self.attempted = 0
        self.failed = 0
        self.notes: "List[str]" = []

    def open(self) -> float:
        """Cold start: seconds from process launch to the first ack."""
        started = perf_counter()
        self.server.start()
        self.conn = Conn(self.server.port)
        self.ingest(0)
        return perf_counter() - started

    def ingest(self, index: int) -> "Optional[float]":
        """Send one frame; its round trip, or None if it failed."""
        assert self.conn is not None
        self.attempted += 1
        started = perf_counter()
        response = self.conn.call(self.inputs.wire[index])
        elapsed = perf_counter() - started
        if response is None:
            self.failed += 1
            raise ServerError("server closed the ingest connection")
        if response.get("ok") and \
                response.get("count") == len(self.inputs.frames[index]):
            self.acked.append(index)
            return elapsed
        self.failed += 1
        return None

    def query(self, key: Any) -> "Tuple[Optional[Dict[str, Any]], float]":
        """``QUERY`` one key: the answer (None if refused) and round trip."""
        assert self.conn is not None
        self.attempted += 1
        started = perf_counter()
        response = self.conn.call(query_frame(key))
        elapsed = perf_counter() - started
        if response is None:
            self.failed += 1
            raise ServerError("server closed the connection on QUERY")
        if not response.get("ok") or response.get("key") != key:
            self.failed += 1
            return None, elapsed
        return response, elapsed

    def load(self, seed: int) -> Load:
        """Send every remaining frame, closed loop, and measure.

        A workload with a query rate also gets open-loop ``QUERY``s on
        a second connection.
        """
        workload, server = self.workload, self.server
        frames = self.inputs.frames
        rng = random.Random(seed)
        progress = [1]
        open_loop: "Optional[OpenLoop]" = None
        if workload.query_rate:
            def request() -> "Tuple[Any, bytes]":
                # A key from the last window sent (about two frames).
                frame = frames[max(0, progress[0] - rng.randrange(2))]
                key = frame[rng.randrange(len(frame))]
                return key, query_frame(key)

            open_loop = OpenLoop(server.port, workload.query_rate, request)
        load = Load(wall=0.0, acks=[])
        # Memory is sampled at the ends of the last few slices: allocator
        # arenas come and go, the smallest recent sample is what stays.
        step = max(1, (len(frames) - 1) // SLICES)
        rss_at = {len(frames) - 1 - k * step for k in range(RSS_SAMPLES)}
        rss: "List[float]" = []
        workers = server.workers()
        server_cpu = cpu_seconds([server.pid])
        workers_cpu = cpu_seconds(workers)
        own_cpu = time.process_time()
        started = perf_counter()
        if open_loop is not None:
            open_loop.start()
        for index in range(1, len(frames)):
            progress[0] = index
            elapsed = self.ingest(index)
            if elapsed is not None:
                load.acks.append(elapsed)
            if index in rss_at:
                rss.append(pss_mb(server.processes()))
            if perf_counter() - started > LOAD_CAP_S:
                unsent = len(frames) - 1 - index
                self.attempted += unsent
                self.failed += unsent
                self.notes.append(f"load phase cut at {LOAD_CAP_S:g} s: "
                                  f"{unsent} frames unsent, counted failed")
                break
        load.wall = perf_counter() - started
        if open_loop is not None:
            open_loop.stop()
            load.queries, load.late = open_loop.latency, open_loop.late
            self.attempted += len(open_loop.sent)
            self.failed += open_loop.failed
        load.rss_mb = min(rss) if rss else pss_mb(server.processes())
        load.server_cpu = cpu_seconds([server.pid]) - server_cpu
        load.workers_cpu = cpu_seconds(workers) - workers_cpu
        load.loadgen_cpu = time.process_time() - own_cpu
        load.workers = len(workers)
        if server.trace_dir is not None:
            load.layers = server.layer_snapshot()
        return load

    def probe(self, keys: "Sequence[Any]"
              ) -> "List[Optional[Dict[str, Any]]]":
        """``QUERY`` every key, closed loop; the answers in order."""
        return [self.query(key)[0] for key in keys]

    def close(self, result: RunResult) -> None:
        """Stop the server; any process left behind fails the run."""
        if self.conn is not None:
            self.conn.close()
            self.conn = None
        survivors = self.server.stop()
        if survivors:
            result.fail(f"processes survived the server's shutdown: "
                        f"{survivors}")
        result.attempted += self.attempted
        result.failed += self.failed
        result.notes += self.notes
        self.attempted = self.failed = 0
        self.notes = []


def check_answers(config: TenantConfig, frames: "Sequence[Sequence[Any]]",
                  probes: "Sequence[Any]",
                  answers: "Sequence[Optional[Dict[str, Any]]]"
                  ) -> "List[str]":
    """Compare served answers with a serial in-process reference.

    The reference is built from the same ``TenantConfig`` with the
    serial router and fed ``frames``; returns one line per mismatch.
    """
    reference = dataclasses.replace(config, router="serial").build_monitor()
    mismatches: "List[str]" = []
    try:
        for keys in frames:
            reference.observe_many(keys)
        for key, got in zip(probes, answers):
            report = reference.report(key)
            want = json.loads(encode(
                {name: getattr(report, name) for name in FIELDS}))
            seen = None if got is None else {name: got.get(name)
                                             for name in FIELDS}
            if seen != want:
                mismatches.append(f"{key!r}: served {seen}, expected {want}")
    finally:
        reference.close()
    return mismatches


def _accuracy(frames: "Sequence[Sequence[Any]]", active: "Sequence[Any]",
              answers: "Sequence[Optional[Dict[str, Any]]]"
              ) -> "Dict[str, float]":
    """FPR on the never-sent probes (the answers after the active ones)
    and size ARE on the active probes, against the exact tracker."""
    tracker = BatchTracker(count_window(WINDOW))
    for keys in frames:
        for key in keys:
            tracker.observe(key)
    errors = []
    absent_answers = answers[len(active):]
    for key, got in zip(active, answers):
        truth = tracker.size(key)
        if truth and got is not None and got.get("size") is not None:
            errors.append(abs(got["size"] - truth) / truth)
    false_pos = sum(1 for got in absent_answers if got and got["active"])
    return {
        "accuracy.fpr": false_pos / max(1, len(absent_answers)),
        "accuracy.size_are": statistics.fmean(errors) if errors else 0.0,
    }


def _verify(result: RunResult, session: Session
            ) -> "Tuple[List[Any], List[Optional[Dict[str, Any]]]]":
    """Probe the served answers and check them against the reference.

    Returns the active probe keys and the answers to every probe: the
    active keys first, then the never-sent ones.
    """
    inputs = session.inputs
    sent = [inputs.frames[i] for i in session.acked]
    active = active_probes(sent)
    probes = active + inputs.absent
    answers = session.probe(probes)
    mismatches = check_answers(session.workload.config, sent, probes,
                               answers)
    result.notes.append(f"answer check: {len(probes)} probes "
                        f"({len(active)} active), "
                        f"{len(mismatches)} mismatches")
    if mismatches:
        result.fail("wrong answers, e.g. " + "; ".join(mismatches[:3]))
    return active, answers


def _tail_ms(result: RunResult, name: str, samples: "List[float]",
             want: float) -> float:
    value, pct = tail_percentile(samples, want)
    result.notes.append(f"{name}: p{pct:g} of {len(samples)} samples")
    return value * 1e3


def _untraced(workload: Workload, inputs: Inputs, seed: int, scratch: Path,
              result: RunResult) -> None:
    setups: "List[float]" = []
    session: "Optional[Session]" = None
    try:
        for i in range(COLD_STARTS):
            if session is not None:
                session.close(result)
            session = Session(workload, inputs, scratch, f"cold{i}")
            setups.append(session.open())
        assert session is not None
        load = session.load(seed)
        _verify(result, session)
    finally:
        if session is not None:
            session.close(result)
    if not load.acks:
        result.fail("the load phase got no frame acknowledged")
        return
    result.metrics = {
        "setup_s": statistics.median(setups),
        "rss_mb": load.rss_mb,
    }
    result.notes.append("cold starts (s): "
                        + ", ".join(f"{s:.3f}" for s in setups))


def _traced(workload: Workload, inputs: Inputs, seed: int, scratch: Path,
            result: RunResult) -> None:
    base = Session(workload, inputs, scratch, "base")
    try:
        base.open()
        untraced = base.load(seed)
    finally:
        base.close(result)
    session = Session(workload, inputs, scratch, "traced", trace=True)
    try:
        session.open()
        session.server.layer_snapshot()  # drop the cold start's numbers
        load = session.load(seed)
        active, answers = _verify(result, session)
    finally:
        session.close(result)
    if not load.acks or not untraced.acks or load.layers is None \
            or bool(workload.query_rate) != bool(untraced.queries):
        result.fail("the load phase got no answer to time")
        return
    metrics = layer_metrics(load.layers)
    if load.layers["absent"]:
        result.notes.append("absent layer targets: "
                            + ", ".join(load.layers["absent"]))
    metrics.update(_accuracy([inputs.frames[i] for i in session.acked],
                             active, answers))
    # Only a workload with a query rate queries during the load phase;
    # elsewhere the query latencies read 0.
    queries = untraced.queries
    late = _tail_ms(result, "loadgen.late_p95_ms", load.late, 95) \
        if load.late else 0.0
    untraced_ips = ingest_rate(untraced.acks, workload.frame_keys)
    metrics.update({
        "ingest_ips": untraced_ips,
        "ack_p50_ms": statistics.median(untraced.acks) * 1e3,
        "ack_p99_ms": _tail_ms(result, "ack_p99_ms", untraced.acks, 99),
        "query_p50_ms": statistics.median(queries) * 1e3 if queries else 0.0,
        "query_p95_ms": _tail_ms(result, "query_p95_ms", queries, 95)
        if queries else 0.0,
        "shard.workers": float(load.workers),
        "server.cpu_frac": load.server_cpu / load.wall,
        "workers.cpu_frac": load.workers_cpu / load.wall,
        "loadgen.cpu_frac": load.loadgen_cpu / load.wall,
        "loadgen.late_p95_ms": late,
        "trace.overhead_frac": untraced_ips
        / ingest_rate(load.acks, workload.frame_keys) - 1.0,
    })
    if metrics["loadgen.cpu_frac"] > 0.9:
        result.notes.append("load generator above 0.9 of a core: this "
                            "run is bound by the client")
    result.metrics = {name: metrics[name] for name in LAYER_UNITS}


def run_workload(name: str, seed: int, seconds: float,
                 trace: bool = False) -> RunResult:
    """Run one workload once; never raises for a misbehaving server."""
    workload = WORKLOADS[name]
    result = RunResult(name, seed, trace)
    inputs = make_inputs(workload, seed, seconds)
    # Scratch space stays inside the checkout the benchmark runs from,
    # never in the system temporary directory.
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="e2e-", dir=build))
    try:
        if trace:
            _traced(workload, inputs, seed, scratch, result)
        else:
            _untraced(workload, inputs, seed, scratch, result)
    except (ServerError, OSError) as exc:
        result.failed = max(result.failed, 1)
        result.fail(f"run aborted: {type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return result
