"""``repro-bench`` — run paper experiments from the command line.

Examples::

    repro-bench fig6            # Figure 6's series, paper parameters
    repro-bench fig9 --quick    # reduced parameter grid
    repro-bench all --quick     # everything, quickly
"""

from __future__ import annotations

import argparse
import sys
import time


def build_parser() -> argparse.ArgumentParser:
    from .experiments import EXPERIMENTS

    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Reproduce the Clock-sketch paper's figures and tables.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="which figure/table to reproduce",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced parameter grid for a fast run",
    )
    parser.add_argument(
        "--seed", type=int, default=1,
        help="workload seed (default 1)",
    )
    parser.add_argument(
        "--report", metavar="PATH", default=None,
        help="also write the results as a Markdown report",
    )
    parser.add_argument(
        "--csv-dir", metavar="DIR", default=None,
        help="also write each experiment's rows as <DIR>/<name>.csv",
    )
    parser.add_argument(
        "--seeds", type=int, default=1, metavar="N",
        help="repeat over N workload seeds and report mean +/- std",
    )
    parser.add_argument(
        "--json-dir", metavar="DIR", default=None,
        help="also write each experiment's rows as <DIR>/BENCH_<name>.json "
             "(perf-trajectory tracking)",
    )
    parser.add_argument(
        "--scalar", action="store_true",
        help="drive throughput experiments through the per-item insert "
             "loop instead of the batch engine (hot-path regression runs)",
    )
    return parser


def _run_kwargs(runner, args) -> dict:
    """Build the kwargs a runner accepts from the parsed CLI options.

    Only the throughput experiments take ``scalar``; passing it to the
    accuracy experiments would be a TypeError, so filter by signature.
    """
    import inspect

    kwargs = {"quick": args.quick}
    if args.scalar and "scalar" in inspect.signature(runner).parameters:
        kwargs["scalar"] = True
    return kwargs


def main(argv=None) -> int:
    """Entry point; returns a process exit code."""
    from .experiments import EXPERIMENTS

    args = build_parser().parse_args(argv)
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    results = {}
    for name in names:
        start = time.perf_counter()
        kwargs = _run_kwargs(EXPERIMENTS[name], args)
        if args.seeds > 1:
            from .report import aggregate_results

            runs = [
                EXPERIMENTS[name](seed=args.seed + i, **kwargs)
                for i in range(args.seeds)
            ]
            result = aggregate_results(runs)
        else:
            result = EXPERIMENTS[name](seed=args.seed, **kwargs)
        elapsed = time.perf_counter() - start
        results[name] = result
        print(result.render())
        print(f"[{name} completed in {elapsed:.1f}s]")
        print()
    if args.report:
        from .report import write_report

        write_report(results, args.report)
        print(f"report written to {args.report}")
    if args.csv_dir:
        import os

        os.makedirs(args.csv_dir, exist_ok=True)
        for name, result in results.items():
            result.to_csv(os.path.join(args.csv_dir, f"{name}.csv"))
        print(f"CSV series written to {args.csv_dir}/")
    if args.json_dir:
        import json
        import os

        os.makedirs(args.json_dir, exist_ok=True)
        for name, result in results.items():
            payload = {
                "title": result.title,
                "columns": list(result.columns),
                "rows": [{k: row[k] for k in result.columns}
                         for row in result.rows],
            }
            path = os.path.join(args.json_dir, f"BENCH_{name}.json")
            with open(path, "w") as fh:
                json.dump(payload, fh, indent=2, default=float)
                fh.write("\n")
        print(f"JSON series written to {args.json_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
