"""End-to-end benchmark of the ingest service over loopback NDJSON.

From the repository root::

    python3 benchmarks/e2e/run.py --workload ingest-str --seed 1 \\
        --seconds 6 --trace 0

starts the real ``IngestService`` in a child process, drives it from
this process over at most two loopback connections, checks every
answer against an in-process reference monitor, prints each metric
with its unit, and ends with one JSON line. ``--trace 1`` makes the
separate traced run that reports the per-layer metrics instead.
``--repeat N`` runs each workload N times (seeds ``seed``..``seed+N-1``)
and prints the median, quartiles and spread of every metric. The exit
status is 0 only when every answer was right. See README.md.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List

_SRC = Path(__file__).resolve().parents[2] / "src"


def _parse(argv: "List[str] | None") -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the ingest service.")
    parser.add_argument("--workload", action="append", default=None,
                        help="workload name (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=6.0,
                        help="load-phase length at the rate each workload "
                             "measured when the benchmark was written; "
                             "sizes the fixed work")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run, reporting per-layer "
                             "metrics")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, with consecutive seeds")
    return parser.parse_args(argv)


def _report(result: Any) -> None:
    units = result.units()
    print(f"== {result.workload} seed={result.seed} "
          f"trace={int(result.trace)} ==")
    for name, value in result.metrics.items():
        print(f"  {name:28s} {value:14.6g} {units[name]}")
    failed_frac = result.failed / max(1, result.attempted)
    print(f"  {'failed_frac':28s} {failed_frac:14.6g} ratio "
          f"({result.failed} of {result.attempted} operations)")
    for note in result.notes:
        print(f"  - {note}")
    print(f"  correct: {result.correct}", flush=True)


def _spread(values: "List[float]") -> "Dict[str, float]":
    median = statistics.median(values)
    q1, _q2, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                   else (values[0],) * 3)
    scale = abs(median) or 1.0
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / scale,
            "max_spread": (max(values) - min(values)) / scale}


def main(argv: "List[str] | None" = None) -> int:
    args = _parse(argv)
    # SIGTERM unwinds like an exception, so every server gets stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.path.insert(0, str(_SRC))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"run.py: cannot import the repro package from {_SRC}: "
              f"{exc}", file=sys.stderr)
        return 2
    from runner import run_workload
    from workloads import WORKLOADS

    names = args.workload or list(WORKLOADS)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"run.py: unknown workload(s) {unknown}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    results = []
    for name in names:
        runs = [run_workload(name, args.seed + i, args.seconds,
                             bool(args.trace))
                for i in range(max(1, args.repeat))]
        for run in runs:
            _report(run)
        if args.repeat > 1:
            print(f"== {name}: {args.repeat} runs, seeds {args.seed}.."
                  f"{args.seed + args.repeat - 1} ==")
            print(f"  {'metric':28s} {'median':>12s} {'q1':>12s} "
                  f"{'q3':>12s} {'iqr/med':>8s} {'range/med':>9s}")
            for metric in runs[0].metrics:
                s = _spread([r.metrics[metric] for r in runs
                             if metric in r.metrics])
                print(f"  {metric:28s} {s['median']:12.6g} {s['q1']:12.6g} "
                      f"{s['q3']:12.6g} {s['iqr_share']:8.3f} "
                      f"{s['max_spread']:9.3f}")
        results.extend(runs)

    # One workload: plain metric names. Several: "<workload>/<metric>".
    # With --repeat, the value is the median over the workload's runs.
    by_workload: "Dict[str, List[Any]]" = {}
    for run in results:
        by_workload.setdefault(run.workload, []).append(run)
    metrics: "Dict[str, Dict[str, Any]]" = {}
    for name, runs in by_workload.items():
        for metric, unit in runs[0].units().items():
            values = [r.metrics[metric] for r in runs if metric in r.metrics]
            if values:
                key = metric if len(by_workload) == 1 else f"{name}/{metric}"
                metrics[key] = {"value": statistics.median(values),
                                "unit": unit}
    correct = bool(results) and all(r.correct for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, sum(r.attempted for r in results)),
        "failed": sum(r.failed for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
