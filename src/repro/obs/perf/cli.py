"""``python -m repro.obs perf`` — record, compare, trend, report.

The operator surface over the performance ledger::

    python -m repro.obs perf record --bench obs --quick
    python -m repro.obs perf baseline --bench obs --quick --last 5
    python -m repro.obs perf compare            # exit 1 on regression
    python -m repro.obs perf trend --bench obs --metric overhead_pct
    python -m repro.obs perf report --output perf_report.json

``record`` runs a registered experiment (the same runners as
``repro-bench``) and archives it through :func:`repro.obs.perf.archive`:
one :class:`PerfRecord`, written as ``BENCH_<bench>.json`` in the
working directory and appended to the ledger; ``baseline`` writes the
last N matching records as a committed baseline file; ``compare``
classifies the latest records against every committed baseline and is
the CI regression gate (exit code 1 on an actionable regression, 0
otherwise); ``trend`` prints a metric's trajectory straight from the
ledger; ``report`` writes the consolidated JSON artifact and never
gates.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Callable, Dict, List, Optional

from . import archive, perf_payload
from .compare import (
    DEFAULT_BASELINES_DIR,
    compare,
    load_baselines,
    pooled_samples,
    save_baseline,
)
from .ledger import PerfLedger
from .record import PerfRecord

__all__ = ["add_perf_subparser", "run_perf"]


def _runners() -> "Dict[str, Callable[..., Any]]":
    """Experiment runners by bench id: the repro.bench registry."""
    from ...bench.experiments import EXPERIMENTS

    return EXPERIMENTS


def add_perf_subparser(sub: "argparse._SubParsersAction[Any]") -> None:
    """Register the ``perf`` subcommand tree on the obs CLI."""
    perf = sub.add_parser(
        "perf",
        help="performance ledger: record runs, gate on regressions",
        description="Persistent benchmark ledger with noise-aware "
                    "current-vs-baseline regression verdicts.",
    )
    perf.add_argument("--ledger", default=None,
                      help="ledger path (default: $REPRO_PERF_LEDGER or "
                           "benchmarks/results/perf_ledger.jsonl)")
    action = perf.add_subparsers(dest="perf_command", required=True)

    record = action.add_parser(
        "record", help="run one experiment, write BENCH_<bench>.json "
                       "and append its record")
    record.add_argument("--bench", required=True,
                        help="experiment id (see repro-bench --help)")
    record.add_argument("--quick", action="store_true",
                        help="run the experiment in quick mode and mark "
                             "the record as quick")
    record.add_argument("--seed", type=int, default=1)
    record.add_argument("--timestamp", type=float, default=None,
                        help="override the record timestamp (testing)")

    cmp_p = action.add_parser(
        "compare", help="gate the latest records against baselines")
    cmp_p.add_argument("--baselines", default=str(DEFAULT_BASELINES_DIR),
                       help="baseline directory (default "
                            "benchmarks/baselines)")
    cmp_p.add_argument("--json", action="store_true",
                       help="print the report as JSON instead of text")

    trend = action.add_parser(
        "trend", help="print a metric's ledger trajectory")
    trend.add_argument("--bench", required=True)
    trend.add_argument("--metric", default=None,
                       help="restrict to one headline metric")
    trend.add_argument("--limit", type=int, default=20,
                       help="most recent N records (default 20)")

    report = action.add_parser(
        "report", help="write the consolidated JSON artifact (never gates)")
    report.add_argument("--baselines", default=str(DEFAULT_BASELINES_DIR))
    report.add_argument("--output", default=None,
                        help="write to this path instead of stdout")
    report.add_argument("--limit", type=int, default=20)

    baseline = action.add_parser(
        "baseline", help="write recent ledger records as a baseline file")
    baseline.add_argument("--bench", required=True)
    baseline.add_argument("--quick", action="store_true",
                          help="build from quick-mode records")
    baseline.add_argument("--last", type=int, default=5,
                          help="keep the last N matching records "
                               "(default 5)")
    baseline.add_argument("--baselines", default=str(DEFAULT_BASELINES_DIR),
                          help="directory to write into")


def _cmd_record(args: argparse.Namespace, ledger: PerfLedger) -> int:
    runners = _runners()
    runner = runners.get(args.bench)
    if runner is None:
        print(f"unknown bench {args.bench!r}; known: "
              f"{', '.join(sorted(runners))}", file=sys.stderr)
        return 2
    result = runner(quick=args.quick, seed=args.seed)
    record = archive(args.bench, result, quick=args.quick, root=".",
                     ledger=ledger, timestamp=args.timestamp)
    mode = "quick" if record.quick else "full"
    print(f"recorded {record.bench} ({mode}, "
          f"rev {record.git_rev or '?'}) -> {ledger.path}")
    for headline in record.headlines:
        print(f"  {headline.name} = {headline.value:g} [{headline.unit}]")
    if not record.headlines:
        print("  (no headline scalars in this result)")
    return 0


def _resolve_latest(ledger: PerfLedger,
                    baselines: "Dict[str, List[PerfRecord]]",
                    ) -> "Dict[str, Optional[PerfRecord]]":
    load = ledger.load()
    if load.skipped:
        print(f"warning: skipped {load.skipped} corrupt ledger line(s) "
              f"in {ledger.path}", file=sys.stderr)
    return {bench: load.latest(bench, quick=baseline[-1].quick)
            for bench, baseline in baselines.items()}


def _cmd_compare(args: argparse.Namespace, ledger: PerfLedger) -> int:
    baselines = load_baselines(args.baselines)
    if not baselines:
        print(f"no baselines under {args.baselines}; nothing to gate")
        return 0
    report = compare(_resolve_latest(ledger, baselines), baselines)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return report.exit_code()


def _cmd_trend(args: argparse.Namespace, ledger: PerfLedger) -> int:
    load = ledger.load()
    records = [r for r in load.records if r.bench == args.bench]
    if not records:
        print(f"no ledger records for bench {args.bench!r} "
              f"in {ledger.path}", file=sys.stderr)
        return 1
    records = records[-args.limit:] if args.limit > 0 else records
    print(f"{args.bench}: {len(records)} record(s) from {ledger.path}")
    header = f"{'timestamp':>14}  {'rev':<10} {'mode':<5} metric"
    print(header)
    for record in records:
        mode = "quick" if record.quick else "full"
        shown = [h for h in record.headlines
                 if args.metric is None or h.name == args.metric]
        if args.metric is not None and not shown:
            values = f"(no {args.metric})"
        else:
            values = "  ".join(f"{h.name}={h.value:g}" for h in shown) \
                or "(no headlines)"
        print(f"{record.timestamp:>14.2f}  {record.git_rev or '?':<10} "
              f"{mode:<5} {values}")
    return 0


def _cmd_report(args: argparse.Namespace, ledger: PerfLedger) -> int:
    baselines = load_baselines(args.baselines)
    payload = perf_payload(limit=args.limit, ledger=ledger)
    if baselines:
        report = compare(_resolve_latest(ledger, baselines), baselines)
        payload["last_compare"] = report.to_dict()
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote perf report to {args.output}")
    else:
        print(text)
    return 0


def _cmd_baseline(args: argparse.Namespace, ledger: PerfLedger) -> int:
    load = ledger.load()
    matching = [r for r in load.records
                if r.bench == args.bench and r.quick == args.quick]
    if not matching:
        mode = "quick" if args.quick else "full"
        print(f"no {mode}-mode ledger records for bench {args.bench!r}; "
              f"run `perf record --bench {args.bench}"
              f"{' --quick' if args.quick else ''}` first",
              file=sys.stderr)
        return 1
    chosen = matching[-args.last:] if args.last > 0 else matching
    path = save_baseline(chosen, args.baselines)
    print(f"wrote baseline for {args.bench} from {len(chosen)} "
          f"record(s) -> {path}")
    for name, (spec, samples) in sorted(pooled_samples(chosen).items()):
        print(f"  {name}: {len(samples)} sample(s), "
              f"median {sorted(samples)[len(samples) // 2]:g} "
              f"[{spec.unit}]")
    return 0


def run_perf(args: argparse.Namespace) -> int:
    """Dispatch a parsed ``perf`` invocation; returns the exit code."""
    ledger = PerfLedger(args.ledger)
    command = args.perf_command
    if command == "record":
        return _cmd_record(args, ledger)
    if command == "compare":
        return _cmd_compare(args, ledger)
    if command == "trend":
        return _cmd_trend(args, ledger)
    if command == "report":
        return _cmd_report(args, ledger)
    if command == "baseline":
        return _cmd_baseline(args, ledger)
    raise AssertionError(f"unreachable perf command {command!r}")
