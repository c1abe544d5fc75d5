"""``python -m repro.obs`` — drive a monitored stream and expose metrics.

Runs an :class:`~repro.monitor.ItemBatchMonitor` over a synthetic
dataset trace with observability enabled, then prints the registry in
the requested exposition format (or serves it over HTTP with
``--serve``). Doubles as a smoke test that every instrumentation point
emits, and as the quickest way to eyeball the metric catalogue::

    python -m repro.obs --items 100000 --format prometheus
    python -m repro.obs --format json --rings
    python -m repro.obs --serve --serve-seconds 30 &
    curl http://127.0.0.1:9464/metrics

The root command, ``audit`` and ``trace`` share one set of stream
options (``--items/--window/--memory/--chunk/--dataset/--seed``);
``audit`` defaults to a 200000-item stream on a 128KB budget.

The ``audit`` subcommand attaches the live accuracy auditor
(:mod:`repro.obs.audit`) to the monitor and prints each cycle's
observed-vs-predicted error table::

    python -m repro.obs audit --demo
    python -m repro.obs audit --demo --undersized   # trips drift alerts
    python -m repro.obs audit --watch               # live redrawn view

The ``trace`` subcommand drives the same stream with span tracing on
(optionally sharded) and tails the span ring, exports a Perfetto-loadable
Chrome trace, or reads those back out of a flight-recorder bundle::

    python -m repro.obs trace --demo --tail 20
    python -m repro.obs trace --demo --shards 4 --router process \\
        --chrome trace.json
    python -m repro.obs trace --demo --crash --router process --shards 4
    python -m repro.obs trace --input flightdumps/flight-....json \\
        --chrome trace.json

The ``perf`` subcommand drives the persistent benchmark ledger and its
noise-aware regression gate (:mod:`repro.obs.perf`)::

    python -m repro.obs perf record --bench obs --quick
    python -m repro.obs perf baseline --bench obs --quick --last 5
    python -m repro.obs perf compare     # exit 1 on a real regression
    python -m repro.obs perf trend --bench obs --metric overhead_pct
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Iterator

from ..monitor import ItemBatchMonitor
from ..timebase import count_window
from . import names, runtime
from .export import prometheus_text, snapshot_json


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _stream_options() -> argparse.ArgumentParser:
    """The synthetic-stream options every driving command shares.

    A fresh parser per command: ``parents=`` shares the option objects,
    so one command's ``set_defaults`` would otherwise change the
    others' defaults too.
    """
    stream = argparse.ArgumentParser(add_help=False)
    stream.add_argument("--items", type=int, default=100_000,
                        help="stream length (default %(default)s)")
    stream.add_argument("--window", type=int, default=4096,
                        help="count window T in items (default %(default)s)")
    stream.add_argument("--memory", default="64KB",
                        help="monitor memory budget (default %(default)s)")
    stream.add_argument("--chunk", type=_positive_int, default=4096,
                        help="insert_many chunk size (default %(default)s)")
    stream.add_argument("--dataset", default="caida",
                        choices=("caida", "criteo", "network"),
                        help="synthetic trace to replay (default %(default)s)")
    stream.add_argument("--seed", type=int, default=1)
    return stream


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Run an instrumented ItemBatchMonitor over a "
                    "synthetic stream and expose its metrics.",
        parents=[_stream_options()],
    )
    parser.add_argument("--format", dest="fmt", default="prometheus",
                        choices=("prometheus", "json"),
                        help="exposition printed to stdout")
    parser.add_argument("--rings", action="store_true",
                        help="embed the sweep-trace and event rings in "
                             "--format json output")
    parser.add_argument("--serve", action="store_true",
                        help="serve /metrics over HTTP instead of printing")
    parser.add_argument("--port", type=int, default=9464,
                        help="HTTP port for --serve (default 9464; 0 = any)")
    parser.add_argument("--serve-seconds", type=float, default=0.0,
                        help="stop serving after this many seconds "
                             "(default: serve until interrupted)")

    sub = parser.add_subparsers(dest="command")
    audit = sub.add_parser(
        "audit",
        help="attach the live accuracy auditor and print its cycles",
        description="Drive a monitored stream with the shadow-truth "
                    "accuracy auditor attached; prints observed vs "
                    "predicted error per task and any drift alerts.",
        parents=[_stream_options()],
    )
    audit.set_defaults(items=200_000, memory="128KB")
    audit.add_argument("--undersized", action="store_true",
                       help="shrink the budget to 2KB to demonstrate "
                            "drift/budget alerts")
    audit.add_argument("--sample-rate", type=float, default=0.05,
                       help="shadow-sampled key fraction (default 0.05)")
    audit.add_argument("--every", type=int, default=None,
                       help="audit cadence in items (default: auto)")
    audit.add_argument("--demo", action="store_true",
                       help="print every audit cycle as it completes")
    audit.add_argument("--watch", action="store_true",
                       help="redraw a live view per cycle (implies --demo)")

    trace = sub.add_parser(
        "trace",
        help="drive a traced stream; tail spans or export a Chrome trace",
        description="Run a span-traced ItemBatchMonitor (optionally "
                    "sharded) and print the span ring, export it as a "
                    "Chrome trace-event file, or re-export spans from a "
                    "flight-recorder bundle.",
        parents=[_stream_options()],
    )
    trace.add_argument("--shards", type=int, default=1,
                       help="shard the monitor P ways (default 1)")
    trace.add_argument("--router", default="serial",
                       choices=("serial", "process"),
                       help="shard router (default serial; one serial "
                       "shard is the plain monitor)")
    trace.add_argument("--sample-every", type=int, default=1,
                       help="record 1 in N traces (default 1 = all)")
    trace.add_argument("--capacity", type=int, default=2048,
                       help="span ring capacity (default 2048)")
    trace.add_argument("--tail", type=int, default=10,
                       help="print the last N spans (default 10; 0 = none)")
    trace.add_argument("--chrome", metavar="PATH", default=None,
                       help="write a Chrome trace-event (Perfetto) file")
    trace.add_argument("--input", metavar="PATH", default=None,
                       help="read spans from a flight bundle instead of "
                            "driving a stream")
    trace.add_argument("--crash", action="store_true",
                       help="inject a worker crash (needs --router "
                            "process) and cut a flight bundle")
    trace.add_argument("--flight-dir", default=None,
                       help="flight-recorder dump directory "
                            "(default: $REPRO_FLIGHT_DIR or flightdumps)")
    trace.add_argument("--demo", action="store_true",
                       help="drive the synthetic stream (the default "
                            "action when --input is not given)")

    # Import here, not at module top: the perf tree pulls in the bench
    # experiment registry, which exposition users never need.
    from .perf.cli import add_perf_subparser
    add_perf_subparser(sub)
    return parser


def _quantile_line(registry) -> "str | None":
    """Latency/error quantile footer for the watch view."""
    cycle_h = registry.get(names.AUDIT_CYCLE_SECONDS)
    if cycle_h is None or cycle_h.count == 0:
        return None
    parts = [
        f"cycle p50={cycle_h.quantile(0.5) * 1e3:.2f}ms "
        f"p95={cycle_h.quantile(0.95) * 1e3:.2f}ms"
    ]
    for task in ("size", "span"):
        hist = registry.get(names.AUDIT_ABS_ERROR, {"task": task})
        if hist is not None and hist.count:
            parts.append(
                f"{task} |err| p50={hist.quantile(0.5):.3g} "
                f"p95={hist.quantile(0.95):.3g}"
            )
    return "  " + "  |  ".join(parts)


def _print_report(report, registry, watch: bool) -> None:
    if watch:
        sys.stdout.write("\x1b[2J\x1b[H")
    for line in report.lines():
        print(line)
    footer = _quantile_line(registry)
    if footer is not None:
        print(footer)
    if not watch:
        print()
    sys.stdout.flush()


def _drive(monitor, args) -> "Iterator[None]":
    """Feed the synthetic stream to ``monitor`` in ``--chunk`` batches,
    yielding after each one."""
    # Import lazily: the dataset synthesizers pull in the heavier parts
    # of the library, which pure exposition users never need.
    from ..datasets import get_dataset

    keys = get_dataset(args.dataset, n_items=args.items,
                       window_hint=args.window, seed=args.seed).keys
    for pos in range(0, len(keys), args.chunk):
        monitor.observe_many(keys[pos:pos + args.chunk])
        yield


def run_audit(args) -> int:
    registry = runtime.enable(fresh=True)
    memory = "2KB" if args.undersized else args.memory
    monitor = ItemBatchMonitor(count_window(args.window), memory=memory,
                               seed=args.seed)
    auditor = monitor.audited(sample_rate=args.sample_rate,
                              every_items=args.every)
    verbose = args.demo or args.watch

    cycles_printed = 0
    for _ in _drive(monitor, args):
        report = auditor.last_report
        if (verbose and report is not None
                and report.cycle > cycles_printed):
            _print_report(report, registry, args.watch)
            cycles_printed = report.cycle

    # Always close with a final cycle over the full stream, so even a
    # stream shorter than the cadence produces one report.
    report = auditor.audit()
    _print_report(report, registry, args.watch)
    worst = {"info": 0, "warning": 1, "critical": 2}
    severity = max((worst[a.severity] for a in report.alerts), default=0)
    # Alerts are the tool's finding, not a failure of the tool.
    print(f"done: {report.cycle} audit cycles, "
          f"{len(report.alerts)} alerts in the final cycle"
          + (" (see above)" if severity else ""))
    return 0


def _print_span_tail(spans, tail: int) -> None:
    if tail <= 0 or not spans:
        return
    print(f"last {min(tail, len(spans))} of {len(spans)} spans:")
    for span in spans[-tail:]:
        parent = span.get("parent_id") or "-"
        attrs = span.get("attrs") or {}
        attr_text = " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
        print(f"  {span.get('duration', 0.0) * 1e3:9.3f}ms "
              f"{span.get('name', '?'):<22} trace={span.get('trace_id')} "
              f"span={span.get('span_id')} parent={parent} "
              f"[{span.get('status', 'ok')}] {attr_text}")


def _export_chrome(spans, path: str) -> None:
    import json

    from . import trace as trace_mod

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace_mod.chrome_trace(spans), fh, indent=2, default=str)
    print(f"wrote Chrome trace ({len(spans)} spans) to {path} "
          "— load it at ui.perfetto.dev")


def run_trace(args) -> int:
    import json

    from . import flight
    from . import trace as trace_mod

    if args.input:
        with open(args.input, encoding="utf-8") as fh:
            bundle = json.load(fh)
        spans = bundle.get("trace", {}).get("spans", [])
        reason = bundle.get("reason", "?")
        error = bundle.get("error") or {}
        print(f"flight bundle: reason={reason} "
              f"error={error.get('type', '-')} pid={bundle.get('pid')}")
        _print_span_tail(spans, args.tail)
        if args.chrome:
            _export_chrome(spans, args.chrome)
        return 0

    runtime.enable(fresh=True)
    trace_mod.configure(capacity=args.capacity,
                        sample_every=args.sample_every)
    flight.install(args.flight_dir)
    monitor = ItemBatchMonitor.sharded(
        count_window(args.window), memory=args.memory, seed=args.seed,
        shards=args.shards, router=args.router)
    try:
        for _ in _drive(monitor, args):
            pass
        if args.crash:
            router = monitor._sketches[0].router
            router.inject(0, "crash")
            try:
                router.drain()
            except Exception as exc:
                print(f"injected crash surfaced as "
                      f"{type(exc).__name__}: {exc}")
    finally:
        monitor.close()
    if args.crash:
        path = flight.last_dump_path()
        if path is None:
            print("no flight bundle was written", file=sys.stderr)
            return 1
        print(f"flight bundle: {path}")
    snapshot = trace_mod.snapshot()
    spans = snapshot["spans"]
    print(f"span ring: {len(spans)} held / "
          f"{snapshot['total_pushed']} pushed "
          f"(capacity {snapshot['capacity']}, "
          f"sample_every {snapshot['sample_every']})")
    _print_span_tail(spans, args.tail)
    if args.chrome:
        _export_chrome(spans, args.chrome)
    return 0


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "audit":
        return run_audit(args)
    if args.command == "trace":
        if args.crash and (args.router != "process" or args.shards < 2):
            parser.error("trace --crash needs --router process and "
                         "--shards >= 2")
        return run_trace(args)
    if args.command == "perf":
        from .perf.cli import run_perf
        return run_perf(args)

    registry = runtime.enable(fresh=True)
    monitor = ItemBatchMonitor(count_window(args.window),
                               memory=args.memory, seed=args.seed)
    for _ in _drive(monitor, args):
        pass
    monitor.metrics()  # publish monitor/sketch gauges + occupancy

    if args.serve:
        from .http import MetricsServer
        server = MetricsServer(port=args.port).start()
        print(f"serving {server.url} (and /metrics.json)", file=sys.stderr)
        try:
            if args.serve_seconds > 0:
                time.sleep(args.serve_seconds)
            else:
                while True:
                    time.sleep(1.0)
        except KeyboardInterrupt:
            pass
        finally:
            server.stop()
    elif args.fmt == "json":
        rings = runtime.rings_snapshot() if args.rings else None
        print(snapshot_json(registry, rings=rings))
    else:
        print(prometheus_text(registry), end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
